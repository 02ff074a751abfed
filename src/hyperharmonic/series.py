"""Weighted hypergeometric-term series.

A PochhammerRatioSeries describes terms

    u_n = prod_i (a_i)_n / (prod_j (b_j)_n * (n!)**p) * (r*x)**n

summed against a weight sequence w_n (harmonic numbers and relatives).
The spec, the SeriesResult and the weights are Frozen value classes.
Each weight family is one WeightKind subclass: value(n) evaluates w_n
from scratch, steps(n0) walks w_n0, w_n0+1, ... with compensated
accumulation so that a million steps stay within a couple of ulps of
value(n), asymptotics() gives its growth n^shift (log n)^L,
expansion(K, M), where a weight has one, its expansion in powers of 1/n
and log n with the constant fixed by the computed w_M, and pairs(), for
a first-order weight (a derivative of Pochhammer symbols (a_i + eps)_n
in eps), its step as pairs (c_i, a_i) adding sum_i c_i / (a_i + n). One
compensated walk steps DigammaDiffSum, DigammaLog and LinearCombo
through their pairs; LinearCombo merges its parts' pairs, so the weight
2 H_2n - H_n costs one division per step. Both term loops, the direct
rule's and the unit-circle walk's (_Walk), take that step in line for
every weight whose steps() is the walk of its pairs (inline_pairs).
Terms advance by one multiply-divide recurrence per index, run on floats
for a real spec at a real argument, with results identical to complex;
each loop writes its step factor out for the shapes the registry sums.
Floats are added in a fixed order (_lsum), so every supported
interpreter gives the same values.

Before summing, the engine refuses terms that grow factorially (more
numerator than denominator shifts, the n! factors counted as shifts,
and no terminating numerator shift). On the unit circle it also
refuses a balanced sum (as many numerator as denominator shifts, none
terminating) whose complex exponent sigma = sum(a) - sum(b) - p + shift
has Re sigma >= -1 at r*x = 1 or >= 0 elsewhere.

The argument, the shift counts and the weight pick the rule. Inside the
unit circle, and on it for terminating sums and for sums with more
denominator than numerator shifts (terms decaying factorially), the
engine sums directly with a geometric tail bound. On the circle
(|r*x| = 1) the terms of balanced sums decay only algebraically, like
n^sigma (log n)^L.

At r*x = 1 and -1, with a weight that gives its expansion in powers of
1/n and log n (WeightKind.expansion: the unit weight, Harmonic(stride,
offset) and H_n^2 + H_n^(2)), the anchored rule sums 2N terms, N = 64,
and adds the tail in closed form. By DLMF 5.11.13, u_n ~ C z^n n^sigma
sum_{k<=K} d_k n^-k (z = r*x, K = 10, the d_k from Bernoulli
polynomials of the shifts); by DLMF 5.15.8, H_{sn+o} ~ log n + g +
sum_k h_k n^-k with g taken from the computed H_{sM+o}, and H_n^(2) ~ c
- sum_k B_{k-1} n^-k with c taken from the computed H_M^(2), so w_n u_n
~ C z^n n^sigma sum_l log^l n sum_k f_lk n^-k with at most two log
powers. With C anchored at the computed u_M (no Gamma value enters),
the tail from index M is u_M sum_{m>=0} z^m f(m), f(h) the anchored
expansion of w_(M+h) u_(M+h) / u_M, and one routine sums it from the
Taylor coefficients c_j, j < J = 14, of f at 0 (binomial series of
(1 + h/M)^(sigma-k) times powers of log M + log(1 + h/M)): at -1 by
Boole summation (DLMF 24.17; Johansson, arXiv:1606.06977),
1/2 sum_j E_j(0) c_j with E_j(0) = -2 (2^(j+1) - 1) B_(j+1) / (j+1),
and at 1 by Euler-Maclaurin (DLMF 2.10; Johansson, ACM TOMS 45(3) 2019),
the integral of f plus sum_j -B_(j+1) / (j+1) c_j. With S(N, K) the sum
of the first N terms plus that tail from the next index, the error
estimate is

    |S(N,K) - S(N,K-2)| + |S(N,K) - S(2N,K)| + rounding + last term,

where the rounding part bounds the walk's own error: each of the 2N
terms and the anchor carry a relative drift of a few eps per step
through the step factor, each term only the drift of the steps before
it (to the end of its power-of-four block), plus a few eps of their own,
and the compensated sum about eps |S|; the last part is the size of the
tail's last Taylor term (j = J - 1). The rule returns S(2N,K), which the
first two parts bound by the triangle inequality, and doubles N while
the estimate misses the tolerance, up to the budget. The tail takes the
sign as exactly (+-1)^m, so r*x must lie within a few ulps of 1 or -1;
the same few ulps of |r*x| = 1 count as the unit circle. A weight with a
factor 1/(n+1), such as H_n/(n+1), is written as the spec pair (1; 2),
since (1)_n / (2)_n = 1/(n+1), and takes the rule of its other factor.

Every other balanced sum on the circle (weights without an expansion,
such as linear combinations, and r*x other than 1 and -1) takes the
ladder: the engine keeps the partial sums at the
checkpoints N = round(2^(j/4)), j = 24..56, and at each top T = 2^12,
2^13, 2^14 fits the 25 checkpoints T/64..T by least squares to the tail
model

    S_N = S + e^{i theta N} N^s sum_{j<4} sum_{l<=L} c_jl N^-j log^l N

with s = sigma + 1 at r*x = 1 and s = sigma at r*x = e^{i theta} != 1.
The error estimate is twice the larger disagreement of the fitted S
with a fit of order 3 and with a fit on the checkpoints <= T/2, plus
(T + sum |w_k|) * eps * sum |t_n| for rounding, where the w_k are the
weights of the fit (S = sum w_k S_{N_k}) and the t_n the T terms summed.
The sum stops at the first top whose estimate meets the tolerance, after
T terms. All claimed tail bounds satisfy
tail_bound <= tol * max(1, |value|); otherwise the call raises.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
import sys

from ._frozen import Frozen, _set, slot_setters
from .errors import (
    AccelerationBreakdown,
    DomainError,
    NonConvergentError,
    PoleError,
)
from .specialfn import (_pole_index, digamma, generalized_harmonic, harmonic,
                        pochhammer)

__all__ = [
    "PochhammerRatioSeries",
    "SeriesResult",
    "Unit",
    "Harmonic",
    "HarmonicSqPlusGen2",
    "DigammaDiffSum",
    "DigammaLog",
    "LinearCombo",
    "WeightKind",
    "eval_weighted",
    "hyp2f1",
]

DEFAULT_MAX_TERMS = 200000
DEFAULT_TOL_INSIDE = 1e-10   # default tol inside the unit circle
DEFAULT_TOL_UNIT = 1e-6      # default tol on the unit circle
_RATIO_TRUST = 0.99          # empirical ratio below this is always trusted
_RATIO_HARD_CAP = 0.99995    # never trust a geometric bound beyond this
_FINITE_EVERY = 256          # direct rule: terms between finiteness checks

# unit circle: partial sums at N = round(2^(j/4)), j = 24, ..., 56 (64 to
# 16384); the sum stops at the first top whose fit on the _MARKS marks
# ending there certifies
_GRID = tuple(round(2.0 ** (j / 4.0)) for j in range(24, 57))
_TOPS = (2 ** 12, 2 ** 13, 2 ** 14)
_MARKS = 25                  # marks per fit: top / 64 to top
_SHORT = 21                  # the marks <= top / 2, for the second fit
_MODEL_ORDER = 4             # J: powers N^-j, j < J, in the tail model
_WIDEN = 2.0                 # safety factor on the fits' disagreement
_SINGULAR = 1e-13            # QR pivot below which a model column is dropped
_EPS = 2.0 ** -52
# |r*x| within this of 1 is on the unit circle, and r*x within this of 1 or
# -1 is at 1 or -1. The anchored tails take z^n as exactly (+-1)^n: a phase
# off by e moves the sum at -1 by about e |u_M|, and at z = 1 - e the sum
# differs from its value at 1 by the order of e^(-sigma - 1), far above e
# for sigma near -1
_UNIT_BAND = 4.0 * _EPS

# r*x = 1 or -1 with a weight that has an expansion (log power 0, 1 or
# 2): 2N terms, N = 64, 128, ..., plus the anchored tail to order K in 1/n
_ANCHOR_N = 64
_EXPANSION_ORDER = 10        # K
# rounding of the walk per step, in eps: a division, a product and a sum
# (about 3 eps) per unit of _drift, and the term's own product, weight
# and the dropped compensation (about 3 eps)
_DRIFT_ULPS = 4.0
_TERM_ULPS = 4.0
# Bernoulli numbers B_0 .. B_20 (float literals: no fractions import)
_BERNOULLI = (
    1.0, -1.0 / 2.0, 1.0 / 6.0, 0.0, -1.0 / 30.0, 0.0, 1.0 / 42.0, 0.0,
    -1.0 / 30.0, 0.0, 5.0 / 66.0, 0.0, -691.0 / 2730.0, 0.0, 7.0 / 6.0, 0.0,
    -3617.0 / 510.0, 0.0, 43867.0 / 798.0, 0.0, -174611.0 / 330.0,
)
# binom(m, j) B_j, j <= m: the Bernoulli polynomials' coefficients
_BINOM_BERNOULLI = tuple(tuple(math.comb(m, j) * _BERNOULLI[j]
                               for j in range(m + 1))
                         for m in range(len(_BERNOULLI)))
# r*x = 1 and -1: the tail sums the Taylor coefficients c_j, j < J, of the
# terms at the anchor with weights W_j M^-j (_moments): Boole's at -1, with
# the Euler polynomials at 0 (DLMF 24.4(iv)) E_j(0) = -2 (2^(j+1) - 1)
# B_(j+1) / (j+1), and Euler-Maclaurin's at 1
_TAYLOR_ORDER = 14           # J
_EULER_AT_ZERO = tuple(-2.0 * (2 ** (j + 1) - 1) * _BERNOULLI[j + 1] / (j + 1)
                       for j in range(_TAYLOR_ORDER))
_TAYLOR_WEIGHTS = {
    -1: tuple(0.5 * E for E in _EULER_AT_ZERO),
    1: tuple(-_BERNOULLI[j + 1] / (j + 1) for j in range(_TAYLOR_ORDER)),
}


# _lsum(items) adds left to right. From Python 3.12 the builtin sum
# compensates float sums, which would move the last bits of the verifier's
# values with the interpreter; before 3.12 it adds in order, at about half
# the cost of reduce
if sys.version_info < (3, 12):
    _lsum = sum
else:
    def _lsum(items):
        return functools.reduce(operator.add, items, 0)


_real = operator.attrgetter("real")
_imag = operator.attrgetter("imag")


# ---------------------------------------------------------------------------
# series specification


class _RealShifts:
    """The hidden slot of a PochhammerRatioSeries: its shifts as floats,
    (numerators, denominators), where every one is real, else None. The
    term loops read it in _start. It is not one of the spec's fields, so
    reprs, equality, hashing and pickles see only those."""

    __slots__ = ("_floats",)


class PochhammerRatioSeries(_RealShifts, Frozen):
    """Term family u_n = prod (a_i)_n / (prod (b_j)_n (n!)**p) * r**n.

    factorial_power p >= 0, start_index in {0, 1}. Denominator shifts may
    not sit within 1e-12 of a non-positive integer (the recurrence would
    divide by zero); numerator shifts at non-positive integers are legal
    and terminate the series. Shifts and r are stored as complex numbers.
    """

    __slots__ = ("numerator_shifts", "denominator_shifts", "factorial_power",
                 "geometric_ratio", "start_index")

    def __init__(self, numerator_shifts, denominator_shifts,
                 factorial_power=1, geometric_ratio=1.0, start_index=0):
        nums = tuple(map(complex, numerator_shifts))
        dens = tuple(map(complex, denominator_shifts))
        ratio = complex(geometric_ratio)
        if factorial_power != int(factorial_power) or factorial_power < 0:
            raise DomainError(f"factorial_power must be a non-negative integer, "
                              f"got {factorial_power!r}")
        if start_index not in (0, 1):
            raise DomainError(f"start_index must be 0 or 1, got {start_index!r}")
        for b in dens:
            if _pole_index(b) is not None:
                raise PoleError(f"denominator shift {b} hits a non-positive integer")
        # a series node builds a spec wherever its shifts change: the
        # fields are stored directly, without Frozen.__init__'s loop
        _set(self, "numerator_shifts", nums)
        _set(self, "denominator_shifts", dens)
        _set(self, "factorial_power", int(factorial_power))
        _set(self, "geometric_ratio", ratio)
        _set(self, "start_index", start_index)
        _set(self, "_floats", None if any(map(_imag, nums + dens)) else
             (tuple(map(_real, nums)), tuple(map(_real, dens))))

    def effective_exponent(self) -> complex:
        """Complex exponent of u_n at |r*x| = 1 for balanced shifts:
        u_n ~ n**sigma (r*x)**n with sigma = sum(a) - sum(b) - p, the n!
        factors counting as denominator shifts b = 1."""
        return (_lsum(self.numerator_shifts)
                - _lsum(self.denominator_shifts + (1.0,) * self.factorial_power))

    def term(self, n: int, x: complex = 1.0) -> complex:
        """Direct (non-recurrent) term value, for cross-checks."""
        if n < self.start_index:
            raise DomainError(f"term index {n} below start_index {self.start_index}")
        t = (self.geometric_ratio * complex(x)) ** n
        for a in self.numerator_shifts:
            t *= pochhammer(a, n)
        for b in self.denominator_shifts:
            t /= pochhammer(b, n)
        t /= pochhammer(1.0, n) ** self.factorial_power
        return t


class SeriesResult(Frozen):
    """A certified sum: value, terms_used, tail_bound, converged and method
    ("direct", "anchored" or "extrapolated", the rule that summed it)."""

    __slots__ = ("value", "terms_used", "tail_bound", "converged", "method")

    def __init__(self, value, terms_used, tail_bound, converged, method):
        # one per sum: each field stored by its slot's setter
        sv, sn, st, sc, sm = _RESULT_SETTERS
        sv(self, value)
        sn(self, terms_used)
        st(self, tail_bound)
        sc(self, converged)
        sm(self, method)


_RESULT_SETTERS = slot_setters(SeriesResult)


# ---------------------------------------------------------------------------
# weights


class WeightKind:
    """Base class for weight families; each subclass is the one definition
    of its family. The families below are also Frozen value classes whose
    fields are their __slots__; other subclasses need not be.

    value(n) recomputes w_n from scratch, the reference that tests compare
    the walk against. steps(n0) yields w_n0, w_n0+1, ... incrementally,
    by default through pairs(); running sums carry Kahan compensation so
    a 10^6-term walk stays within ~2 ulp of the fsum reference.
    asymptotics() gives (shift, L) with w_n ~ n^shift * (log n)^L at
    large n, the weight's part of the exponent sigma and the log power
    of the unit-circle tail model.
    expansion(K, M) refines that shape to an expansion in 1/n, where the
    weight gives one; the anchored rule at r*x = 1 and -1 needs it.
    pairs() states a first-order weight's step as pairs (c_i, a_i), the
    step from w_n to w_n+1 adding sum_i c_i / (a_i + n): the derivative
    in eps of (a_i + eps)_n at eps = 0 is (a_i)_n sum_{k<n} 1/(a_i + k).
    _pair_steps walks any list of pairs; LinearCombo merges its parts'.
    inline_pairs() gives the pairs of a weight whose steps() is that walk,
    which the term loops then take in line.
    """
    __slots__ = ()

    def value(self, n: int) -> complex:
        raise NotImplementedError

    def steps(self, n0: int):
        pairs = self.pairs()
        if pairs is None:
            raise NotImplementedError
        return _pair_steps(self.value(n0), pairs, n0)

    def asymptotics(self) -> tuple[int, int]:
        return 0, 0

    def expansion(self, order: int, anchor: int):
        """Rows (r_0, ..., r_L), one per log power l, of coefficients with
        w_n ~ sum_l log^l n sum_{k<=order} r_l[k] n^-k at large n, its
        constant fixed by the computed w_anchor; None where no expansion
        is given. The anchored rule at r*x = 1 and -1 takes a weight with
        shift 0 and at most two log powers (rows r_0, r_1 and r_2); every
        other weight keeps None."""
        return None

    def pairs(self):
        """The pairs (c_i, a_i) with w_n+1 - w_n = sum_i c_i / (a_i + n),
        or None for a weight whose step is not such a sum."""
        return None

    def inline_pairs(self):
        """pairs() where steps(n0) is, bit for bit, their walk from
        value(n0) (_pair_steps), as it is for a kind that keeps the
        default steps; otherwise None. The direct rule and _Walk step such
        a weight in line."""
        return self.pairs() if type(self).steps is WeightKind.steps else None


class Unit(Frozen, WeightKind):
    """w_n = 1."""

    __slots__ = ()

    def value(self, n):
        return 1.0

    def steps(self, n0):
        # what the pair walk returns, without its set-up on every unit sum
        return itertools.repeat(1.0)

    def pairs(self):
        return ()

    def inline_pairs(self):
        return ()

    def expansion(self, order, anchor):
        return ((1.0,) + (0.0,) * order,)


class Harmonic(Frozen, WeightKind):
    """w_n = H_{stride*n + offset}, stride in {1,2,3}, offset in
    {-1,0,1,2}; offsets 1 and 2 weight the derivative series of an H_n
    generating function (catalog.ode_residual)."""

    __slots__ = ("stride", "offset")

    def __init__(self, stride=1, offset=0):
        if stride not in (1, 2, 3):
            raise DomainError(f"harmonic stride must be 1, 2 or 3, got {stride!r}")
        if offset not in (-1, 0, 1, 2):
            raise DomainError(f"harmonic offset must be -1, 0, 1 or 2, "
                              f"got {offset!r}")
        # an equal float (2.0) is stored as the int that indexing needs
        object.__setattr__(self, "stride", int(stride.real))
        object.__setattr__(self, "offset", int(offset.real))

    def value(self, n):
        return harmonic(self.stride * n + self.offset)

    def steps(self, n0):
        idx = self.stride * n0 + self.offset
        h = harmonic(idx)
        c = 0.0
        stride = range(self.stride)
        while True:
            yield h
            for _ in stride:
                idx += 1
                y = 1.0 / idx - c
                t = h + y
                c = (t - h) - y
                h = t

    def pairs(self):
        # 1/(sn + o + r) = (1/s) / (n + (o + r)/s); steps keeps its own
        # loop, one Kahan step per 1/idx, since 1/3 is not a binary fraction
        s, o = self.stride, self.offset
        return tuple((1.0 / s, (o + r) / s) for r in range(1, s + 1))

    def inline_pairs(self):
        # with stride 1, 1.0 / idx is 1.0 / (o + 1 + n): steps is the walk
        # of the one pair (1, o + 1), pairs() without its set-up
        return ((1.0, self.offset + 1.0),) if self.stride == 1 else None

    def asymptotics(self):
        return 0, 1

    def expansion(self, order, anchor):
        # H_{sn+o} = psi(sn + o + 1) + gamma ~ log n + g + sum_k h_k n^-k
        # (_harmonic_coefficients), and g = gamma + log s is taken from the
        # computed w_anchor instead
        h = [0.0, *_harmonic_coefficients(self.stride, self.offset, order)]
        h[0] = (self.value(anchor) - math.log(anchor)
                - _lsum(h[k] * float(anchor) ** -k for k in range(order, 0, -1)))
        return tuple(h), (1.0,) + (0.0,) * order


@functools.lru_cache(maxsize=64)
def _harmonic_coefficients(stride: int, offset: int, order: int) -> tuple:
    """h_1, ..., h_order with H_{sn+o} ~ log n + g + sum_k h_k n^-k:
    h_k = (-1)^(k+1) B_k(o+1) / (k s^k) (DLMF 5.15.8 at z = sn). They
    depend on the weight and the order only, so each anchor reuses them."""
    shift = offset + 1
    return tuple((-1) ** (k + 1) * _lsum(
        cb * shift ** (k - j) for j, cb in enumerate(_BINOM_BERNOULLI[k]))
        / (k * stride ** k) for k in range(1, order + 1))


class HarmonicSqPlusGen2(Frozen, WeightKind):
    """w_n = H_n**2 + H_n^(2)."""

    __slots__ = ()

    def value(self, n):
        h = harmonic(n)
        return h * h + generalized_harmonic(n, 2.0)

    def steps(self, n0):
        h, g, idx = harmonic(n0), generalized_harmonic(n0, 2.0), n0
        hc = gc = 0.0
        while True:
            yield h * h + g
            idx += 1
            y = 1.0 / idx - hc
            t = h + y
            hc = (t - h) - y
            h = t
            y = 1.0 / (idx * idx) - gc
            t = g + y
            gc = (t - g) - y
            g = t

    def asymptotics(self):
        return 0, 2

    def expansion(self, order, anchor):
        # H_n = log n + A(n), A ~ g + sum_k h_k n^-k (Harmonic), so H_n^2 =
        # log^2 n + 2 A log n + A^2; H_n^(2) = zeta(2) - psi'(n + 1) ~ c_2
        # - sum_k B_{k-1} n^-k (DLMF 5.15.8, B_1 = -1/2), with c_2 taken
        # from the computed H_anchor^(2)
        a, log_row = Harmonic().expansion(order, anchor)
        gen2 = [0.0] + [-_BERNOULLI[k - 1] for k in range(1, order + 1)]
        gen2[0] = (generalized_harmonic(anchor, 2.0)
                   - _lsum(gen2[k] * float(anchor) ** -k
                           for k in range(order, 0, -1)))
        const = tuple(gen2[k] + _lsum(a[j] * a[k - j] for j in range(k + 1))
                      for k in range(order + 1))
        return const, tuple(2.0 * v for v in a), log_row


class DigammaDiffSum(Frozen, WeightKind):
    """w_n = sum_{k=0}^{n-1} (2/(2b+k) - 1/(a+b+1/2+k)).

    Telescopes to psi differences; the parameters must keep every shifted
    argument away from non-positive integers.
    """

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        object.__setattr__(self, "a", complex(a))
        object.__setattr__(self, "b", complex(b))

    def value(self, n):
        # fsum over the real and the imaginary parts: a plain loop drifts by
        # tens of ulps at n = 10^4. Adding to 0j keeps value(0) and value(1),
        # where the walks start, as the loop gave them
        b2, ab = 2.0 * self.b, self.a + self.b + 0.5
        steps = [2.0 / (b2 + k) - 1.0 / (ab + k) for k in range(n)]
        return 0j + complex(math.fsum(z.real for z in steps),
                            math.fsum(z.imag for z in steps))

    def pairs(self):
        return (2.0, 2.0 * self.b), (-1.0, self.a + self.b + 0.5)

    def asymptotics(self):
        return 0, 1


class DigammaLog(Frozen, WeightKind):
    """w_n = 2 psi(n+1) - psi(a+n) - psi(b+n) - log y, the weight of Kummer's
    logarithmic connection formula (A&S 15.3.10), given by its first value
    w0 = 2 psi(1) - psi(a) - psi(b) - log y. The walk adds
    2/(n+1) - 1/(a+n) - 1/(b+n) per step; a and b must stay away from
    non-positive integers.
    """

    __slots__ = ("a", "b", "w0")

    def __init__(self, a, b, w0):
        Frozen.__init__(self, complex(a), complex(b), complex(w0))

    def value(self, n):
        if n == 0:  # the walk from n = 0 starts without a digamma call
            return self.w0
        a, b = self.a, self.b
        if n == 1:  # where the walks from n = 1 start: these bits stay
            return (self.w0 + 2.0 * (digamma(n + 1.0) - digamma(1.0))
                    - (digamma(a + n) - digamma(a))
                    - (digamma(b + n) - digamma(b)))
        # w0 and the n steps, fsum'd over the real and the imaginary parts:
        # a difference of digamma values reads up to 6.8 ulps off at n <= 10^4
        terms = [self.w0] + [2.0 / (1.0 + k) - 1.0 / (a + k) - 1.0 / (b + k)
                             for k in range(n)]
        return complex(math.fsum(z.real for z in terms),
                       math.fsum(z.imag for z in terms))

    def pairs(self):
        return (2.0, 1.0), (-1.0, self.a), (-1.0, self.b)

    def asymptotics(self):
        return 0, 1


class LinearCombo(Frozen, WeightKind):
    """w_n = sum_i coeff_i * inner_i(n).

    Where every part has pairs, the combination has their pairs scaled by
    the coefficients, equal shifts merged and exact zeros dropped
    (2 H_2n - H_n is the one pair (1, 1/2)), and steps walks them with
    _pair_steps, one division per pair and index. A part without pairs
    (HarmonicSqPlusGen2, a kind defined elsewhere) makes steps zip the
    parts' own walks instead.
    """

    __slots__ = ("parts",)  # of (coeff, WeightKind)

    def __init__(self, parts):
        norm = []
        for coeff, kind in parts:
            if not isinstance(kind, WeightKind):
                raise DomainError(f"LinearCombo parts need WeightKind entries, got {kind!r}")
            norm.append((complex(coeff), kind))
        object.__setattr__(self, "parts", tuple(norm))

    def value(self, n):
        return _lsum(c * kind.value(n) for c, kind in self.parts)

    def steps(self, n0):
        pairs = self.pairs()
        if pairs is not None:
            return _pair_steps(self.value(n0), pairs, n0)
        coeffs = tuple(c for c, _ in self.parts)
        walks = zip(*(kind.steps(n0) for _, kind in self.parts))
        return (_lsum(map(operator.mul, coeffs, ws)) for ws in walks)

    def pairs(self):
        merged = {}
        for coeff, kind in self.parts:
            inner = kind.pairs()
            if inner is None:
                return None
            for c, a in inner:
                merged[a] = merged.get(a, 0.0) + coeff * c
        return tuple((c, a) for a, c in merged.items() if c != 0.0)

    def inline_pairs(self):
        # steps is the walk of pairs() wherever they exist
        return self.pairs()

    def asymptotics(self):
        shapes = [kind.asymptotics() for _, kind in self.parts]
        return max(sh for sh, _ in shapes), max(lg for _, lg in shapes)


def _real_pairs(w, pairs):
    """w and the pairs as floats where all are real, else as given."""
    if w.imag:
        return w, pairs
    real = []
    for c, a in pairs:
        if c.imag or a.imag:
            return w, pairs
        real.append((c.real, a.real))
    return w.real, tuple(real)


def _pair_steps(w, pairs, n):
    """w_n, w_n+1, ... from w = w_n, each step adding q = sum_i c_i /
    (a_i + n), formed in pair order, by one Kahan step. With w and every
    pair real the walk runs on floats (_real_pairs), whose values are the
    real parts of the complex ones."""
    w, pairs = _real_pairs(w, pairs)
    if not pairs:
        return itertools.repeat(w)
    return _walk_pairs(w, pairs, n)


def _walk_pairs(acc, pairs, n):
    """The walk of _pair_steps, for one pair or more."""
    (c0, a0), *rest = pairs
    comp = 0.0
    while True:
        yield acc
        q = c0 / (a0 + n)
        for c, a in rest:
            q += c / (a + n)
        y = q - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t
        n += 1


# ---------------------------------------------------------------------------
# extrapolation on the unit circle


def _limit_weights(marks, s: complex, theta: float, logs: int,
                   order: int) -> list:
    """Weights w_k with S = sum_k w_k S_{N_k}, where S is the limit of the
    tail model least-squares fitted to the partial sums at the marks N_k:

        S_N = S + e^{i theta N} N^s sum_{j<order} sum_{l<=logs} c_jl N^-j log^l N

    The weights depend on the model only, and sum |w_k| is the factor by
    which the fit can amplify errors of the partial sums. N is scaled by
    the top mark, which changes only the c_jl.
    """
    top = marks[-1]
    cols = [[1.0 + 0j] * len(marks)]
    base = []
    try:
        for N in marks:
            u = N / top
            b = u ** s
            if theta:
                b *= cmath.rect(1.0, theta * N)
            base.append((b, 1.0 / u, math.log(u)))
    except OverflowError:
        raise AccelerationBreakdown(
            f"tail model N^{s:.3g} overflows on the ladder") from None
    for j in range(order):
        for l in range(logs + 1):
            cols.append([b * iu ** j * lg ** l for b, iu, lg in base])
    return _pinv_first_row(cols)


def _pinv_first_row(cols) -> list:
    """Row of the pseudo-inverse of the matrix with these columns that
    yields the least-squares coefficient of cols[0].

    Householder QR on unit-norm columns, cols[0] first and the rest by
    column pivoting. Columns whose remaining norm falls below _SINGULAR
    are numerically dependent on those already taken and are dropped
    (this happens only for fast-decaying tails, e.g. s <= -5 at log
    power 2). A column that cannot be normalized raises
    AccelerationBreakdown.
    """
    scale = [math.hypot(*map(abs, c)) for c in cols]
    if not all(0.0 < nrm < math.inf for nrm in scale):
        raise AccelerationBreakdown("tail model is singular on the ladder")
    cols = [[v / nrm for v in c] for c, nrm in zip(cols, scale)]
    diag = []
    reflectors = []
    for k in range(len(cols)):
        norms = [math.hypot(*map(abs, c[k:])) for c in cols[k:]]
        piv = k + max(range(len(norms)), key=norms.__getitem__) if k else 0
        nrm = norms[piv - k]
        if nrm <= _SINGULAR:
            break
        cols[k], cols[piv] = cols[piv], cols[k]
        x0 = cols[k][k]
        alpha = nrm * (x0 / abs(x0)) if x0 != 0.0 else complex(nrm)
        v = cols[k][k:]
        v[0] += alpha
        refl = (k, v, [2.0 * e.conjugate() for e in v],
                math.fsum(abs(e) ** 2 for e in v))
        for c in cols[k + 1:]:
            _reflect(refl, c)
        reflectors.append(refl)
        diag.append(-alpha)
    # coefficient of cols[0] = e_0^T R^-1 Q^H y: solve R^T g = e_0, and
    # the row is conj(Q conj(g)) / scale[0]
    g = []
    for i, d in enumerate(diag):
        acc = 1.0 if i == 0 else 0j
        for j in range(i):
            acc -= cols[i][j] * g[j]
        g.append(acc / d)
    row = [e.conjugate() for e in g] + [0j] * (len(cols[0]) - len(g))
    for refl in reversed(reflectors):
        _reflect(refl, row)
    return [e.conjugate() / scale[0] for e in row]


def _reflect(refl, c) -> None:
    """Apply the Householder reflector I - 2 v v^H / |v|^2 to c[k:]."""
    k, v, vc, vv = refl
    tail = c[k:]
    d = _lsum(map(operator.mul, vc, tail)) / vv
    c[k:] = [e - d * w for e, w in zip(tail, v)]


# ---------------------------------------------------------------------------
# the summation engine


def _start(spec: PochhammerRatioSeries, rx: complex):
    """(u_{n0}, r*x, numerator shifts, denominator shifts) for the term
    loops; (a)_1 = a, (a)_0 = 1, so both legal starts are cheap. All real,
    they come as floats (the shifts from the spec's own float copies): the
    loops then run the same recurrence in float arithmetic, whose values
    are the real parts of the complex ones, until a complex weight value
    makes the term complex."""
    nums, dens = spec.numerator_shifts, spec.denominator_shifts
    t = 1.0 + 0j
    if spec.start_index == 1:
        t = rx
        for a in nums:
            t *= a
        for b in dens:
            t /= b
    floats = spec._floats
    if floats is None or rx.imag or t.imag:
        return t, rx, nums, dens
    return t.real, rx.real, *floats


def eval_weighted(spec: PochhammerRatioSeries, weight: WeightKind, x,
                  *, tol: float | None = None,
                  max_terms: int | None = None) -> SeriesResult:
    """Sum w_n * u_n(x) for n >= spec.start_index.

    The argument picks the rule and the default tol: DEFAULT_TOL_UNIT on
    the unit circle, DEFAULT_TOL_INSIDE elsewhere. A non-finite r*x, a
    tol that is not finite and positive or a max_terms that is not a
    whole number >= 1 raises DomainError, and factorially growing terms
    or a divergent sum on the circle raise NonConvergentError, before
    any term is summed (see the module docstring for the pre-checks).

    Inside the unit circle the sum is direct, stopping once three
    consecutive terms fall below tol*|S| and the geometric tail bound
    built from recent term ratios also meets the tolerance. Every
    _FINITE_EVERY = 256 terms, and at the budget, the partial sum must
    be finite; terms that overflow raise DomainError there. The term
    loop is fitted to its shape and gives the values of the plain
    recurrence bit for bit: a weight whose steps() is the walk of its
    pairs (inline_pairs) takes that walk's Kahan step in the loop, on
    floats where _pair_steps would, and the step factor r*x prod (a + n)
    / prod (b + n), then 1 / (n + 1)^p, is written out for the shapes
    (numerator shifts, denominator shifts, p) = (2, 1, 1), (2, 0, 2) and
    (3, 2, 1), which carry every direct term of the registry's series.

    On the unit circle (|r*x| = 1) a sum with a numerator shift at a
    non-positive integer terminates, and a sum with more denominator than
    numerator shifts has factorially decaying terms: both take the direct
    rule. The balanced sums left are refused if sigma, the spec's complex
    exponent plus the weight's shift (WeightKind.asymptotics), has
    Re sigma >= -1 at r*x = 1 or >= 0 elsewhere on the circle; the same
    sigma drives the direct rule's drift clause.

    At r*x = 1 and r*x = -1, a weight with an expansion
    (WeightKind.expansion: the unit weight, Harmonic and
    HarmonicSqPlusGen2, up to log^2 n) takes the anchored rule (method
    "anchored"; see the module docstring): 2N terms, N = 64, plus the
    anchored tail, summed by _moments from the Taylor coefficients of
    the anchored expansion (Euler-Maclaurin at 1, Boole at -1), with the
    estimate

        |S(N,K) - S(N,K-2)| + |S(N,K) - S(2N,K)| + rounding + last term,

    the rounding part from the drift of the walk's terms (_rounding), and
    the last part the size of the last Taylor term of the tail at N. It
    returns S(2N,K) with terms_used = 2N once the estimate meets
    tol * max(1, |S|), and otherwise doubles N. A budget below 128 terms,
    or an estimate above the tolerance when the next doubling would
    overrun the budget or its rounding part alone misses the tolerance
    (the error then names that part), raises NonConvergentError; an
    expansion that overflows (shifts near 1e30) raises
    AccelerationBreakdown.

    Every other balanced sum on the circle (weights without an expansion,
    r*x other than 1 and -1) is extrapolated from a ladder (method
    "extrapolated"):
    partial sums at the _GRID checkpoints, and at each top T in _TOPS =
    (2^12, 2^13, 2^14) the limit of the tail model fitted to the 25
    checkpoints ending at T (see _limit_weights; model order
    _MODEL_ORDER = 4). The exponent s is sigma + 1 at r*x = 1 and sigma
    elsewhere on the circle; the log power is the weight's. The error
    estimate at top T is

        2 * max(|fit - fit of order 3|, |fit - fit on the marks <= T/2|)
          + (T + sum |w_k|) * eps * sum |t_n|,

    the second part covering rounding in the partial sums of the T terms
    t_n summed so far, as amplified by the fit weights w_k. The first top
    whose estimate meets tol * max(1, |S|) returns its fit with
    terms_used = T and the estimate as tail_bound. A budget below 2^14
    terms, divergent or non-decaying terms, or an estimate above the
    tolerance even at 2^14 raise NonConvergentError; a tail model that
    cannot be formed on the ladder raises AccelerationBreakdown.
    """
    x = complex(x)
    rx = spec.geometric_ratio * x
    if not cmath.isfinite(rx):
        raise DomainError(f"r*x = {rx:.6g} is not finite")
    mag = abs(rx)
    unit = mag > 1.0 - _UNIT_BAND
    if tol is None:
        tol = DEFAULT_TOL_UNIT if unit else DEFAULT_TOL_INSIDE
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol must be finite and positive, got {tol!r}")
    if max_terms is None:
        max_terms = DEFAULT_MAX_TERMS
    elif not (1 <= max_terms < math.inf and max_terms == int(max_terms)):
        # nan and inf would never meet the budget tests, and 2.5 would
        # stop after 3 terms
        raise DomainError(
            f"max_terms must be a whole number >= 1, got {max_terms!r}")
    if mag > 1.0 + _UNIT_BAND:
        raise NonConvergentError(f"|ratio*x| = {mag:.6g} exceeds 1; series diverges")
    nums = spec.numerator_shifts
    dens = spec.denominator_shifts
    p = spec.factorial_power
    # u_{n+1}/u_n ~ r*x * n^excess: factorial growth (excess > 0) or decay
    excess = len(nums) - len(dens) - p
    if excess > 0 and mag > 0.0 and all(_pole_index(a) is None for a in nums):
        raise NonConvergentError(
            f"{len(nums)} numerator against {len(dens) + p} denominator shifts "
            "(n! counted as one) and no terminating shift; terms grow factorially")
    # a terminating sum is finite, and factorially decaying terms (excess
    # < 0) leave a geometric tail: the direct rule below sums both
    if unit and excess >= 0 and all(_pole_index(a) is None for a in nums):
        sigma = _exponent(spec, weight)
        # at r*x = 1 the partial sums need sigma < -1, elsewhere on the
        # circle the terms need sigma < 0
        at_one = abs(rx - 1.0) <= _UNIT_BAND
        limit = -1.0 if at_one else 0.0
        if sigma.real >= limit:
            raise NonConvergentError(
                f"exponent {sigma.real:.3g} >= {limit:g} at |r*x| = 1 "
                f"(r*x = {rx:.6g}); sum diverges")
        # the anchored rule at r*x = 1 and -1, the ladder elsewhere
        z = 1 if at_one else -1 if abs(rx + 1.0) <= _UNIT_BAND else 0
        rows = (weight.expansion(_EXPANSION_ORDER,
                                 spec.start_index + _ANCHOR_N)
                if z else None)
        if rows is not None:
            return _eval_anchored(spec, weight, rows, rx, z, tol, sigma,
                                  max_terms)
        if max_terms < _TOPS[-1]:
            raise NonConvergentError(
                f"unit-argument series sums up to {_TOPS[-1]} terms; "
                f"budget {max_terms} is too small")
        return _eval_unit(spec, weight, rx, tol, sigma,
                          weight.asymptotics()[1])

    # the direct rule. sigma is formed only where the drift clause or the
    # refusal reads it
    sigma = None
    n0 = spec.start_index
    # w holds w_n: in line for a weight whose steps() is the walk of its
    # pairs, from its generator otherwise
    wpairs = weight.inline_pairs()
    if wpairs is None:
        step = weight.steps(n0).__next__
        w = step()
    else:
        step = None
        w, wpairs = _real_pairs(weight.value(n0), wpairs)
        if wpairs:
            (c0, s0), *wrest = wpairs
    wc = 0.0
    t, rx, nums, dens = _start(spec, rx)
    # the step factor written out for the registry's shapes (numerator
    # shifts, denominator shifts, p)
    shape = (len(nums), len(dens), p)
    if shape == (2, 1, 1):
        form = 1
        (a0, a1), (b0,) = nums, dens
    elif shape == (2, 0, 2):
        form = 2
        a0, a1 = nums
    elif shape == (3, 2, 1):
        form = 3
        (a0, a1, a2), (b0, b1) = nums, dens
    else:
        form = 0
    m = float(n0)               # n, the index of the term being added

    S = comp = 0.0
    count = consec = 0
    # the budget test also fires every _FINITE_EVERY terms, where the
    # partial sum must still be finite; checked terms were finite
    checked = 0
    check = min(max_terms, _FINITE_EVERY)
    # |t_n| of the three terms before this one, oldest first (-1 if none)
    back3 = back2 = back1 = -1.0

    while True:
        term = t * w
        y = term - comp
        hi = S + y
        comp = (hi - S) - y
        S = hi
        count += 1
        at = abs(term)

        scale = abs(S)
        if at <= tol * scale or at == 0.0:
            consec += 1
        else:
            consec = 0

        if consec >= 3 and count >= 6:
            ratios = (_ratio(back3, back2), _ratio(back2, back1),
                      _ratio(back1, at))
            r = max(ratios)
            if r < _RATIO_HARD_CAP:
                tail = max(back2, back1, at) * r / (1.0 - r)
                ok = r <= _RATIO_TRUST
                if not ok and count >= 10:
                    if sigma is None:
                        sigma = _exponent(spec, weight)
                    if sigma.real < 0.0:
                        # ratios of an algebraically decaying tail drift
                        # down toward |r*x|, so a non-increasing recent
                        # window makes the geometric bound safe beyond the
                        # usual trust cap
                        ok = all(ratios[i + 1] <= ratios[i] * (1.0 + 1e-9)
                                 for i in range(len(ratios) - 1))
                if ok and tail <= tol * max(1.0, scale):
                    return SeriesResult(complex(S), count, tail, True,
                                        "direct")

        if count >= check:
            if not cmath.isfinite(S):
                raise DomainError(
                    f"the terms overflowed: the partial sum stopped being "
                    f"finite between indices {n0 + checked} "
                    f"and {n0 + count - 1}")
            if count >= max_terms:
                break
            checked = count
            check = min(max_terms, count + _FINITE_EVERY)
        back3, back2, back1 = back2, back1, at

        # w_n -> w_{n+1}, by _walk_pairs's Kahan step where in line
        if step is not None:
            w = step()
        elif wpairs:
            q = c0 / (s0 + m)
            if wrest:
                for c, s in wrest:
                    q += c / (s + m)
            y = q - wc
            hi = w + y
            wc = (hi - w) - y
            w = hi
        # u_n -> u_{n+1}: t times r*x, each (a + n) and 1 / (b + n) in
        # shift order, then over (n + 1)^p
        if form == 1:
            t *= rx * (a0 + m) * (a1 + m) / (b0 + m)
            m += 1.0
            t /= m
        elif form == 2:
            t *= rx * (a0 + m) * (a1 + m)
            m += 1.0
            # m * m is float(n + 1) ** 2 while exact: (n + 1)^2 < 2^53,
            # the first 9.4e7 terms
            t /= m * m
        elif form == 3:
            t *= rx * (a0 + m) * (a1 + m) * (a2 + m) / (b0 + m) / (b1 + m)
            m += 1.0
            t /= m
        else:
            f = rx
            for a in nums:
                f *= a + m
            for b in dens:
                f /= b + m
            t *= f
            m += 1.0
            if p:
                t /= m ** p

    # budget exhausted: accept only if a trustworthy tail bound exists;
    # the slice keeps the ratios between terms summed (at most four terms)
    if count > 1:
        r = max((_ratio(back3, back2), _ratio(back2, back1),
                 _ratio(back1, at))[1 - count:])
        if 0.0 <= r < _RATIO_HARD_CAP:
            tail = max(back2, back1, at) * r / (1.0 - r)
            if tail <= tol * max(1.0, abs(S)):
                return SeriesResult(complex(S), count, tail, True, "direct")
    if sigma is None:
        sigma = _exponent(spec, weight)
    raise NonConvergentError(
        f"no tolerance-{tol:g} tail bound after {count} terms "
        f"(|r*x| = {mag:.6g}, 1 - |r*x| = {1.0 - mag:.3g}, "
        f"exponent {sigma.real:.3g})")


def _exponent(spec: PochhammerRatioSeries, weight: WeightKind) -> complex:
    """sigma, with w_n u_n ~ n^sigma (r*x)^n: the spec's effective exponent
    plus the weight's shift."""
    return spec.effective_exponent() + weight.asymptotics()[0]


def _ratio(prev: float, at: float) -> float:
    """|t_n| / |t_(n-1)| from the moduli prev and at. A nonzero term after
    an exact zero has no usable ratio: it gets 2.0, which poisons the
    window so the geometric bound is not trusted through it."""
    return at / prev if prev > 0.0 else 0.0 if at == 0.0 else 2.0


def _dot(weights, sums) -> complex:
    """sum_k w_k S_k for weights summing to 1, centred on the last S_k so
    that rounding scales with the spread of the sums, not their size."""
    ref = sums[-1]
    return ref + _lsum(w * (x - ref) for w, x in zip(weights, sums))


class _Walk:
    """Compensated partial sums of w_n u_n at |r*x| = 1, shared by the
    unit-circle rules: run(count) adds the next count terms to S and
    their moduli to abs_sum, and leaves u_n, the first term not yet
    added, in t. It also keeps the moduli by block, (last index, sum of
    |t_n|) in blocks, a block ending before each power of four of n - n0
    and at the end of each run, so that _rounding can charge each term
    the drift of the steps before the end of its block (at most about
    four times its own index) without work in the term loop.

    The rules amplify or extrapolate noise in the partial sums, so the
    term recurrence is compensated: each numerator shift a is paired
    with a denominator shift d (the n! factors count as d = 1; a
    balanced spec pairs every shift), the step factor prod (a + n)/(d + n)
    is formed as 1 + g with g accumulated from the small ratios
    (a - d)/(d + n), and t + t*g is added with an error term. The
    closest pair of unused shifts is taken first, ties broken by value,
    so the factors stay near 1 and the walk does not depend on the order
    in which the spec gives its shifts.

    The term loop is fitted to the walk's shape and gives the values of
    a plain loop over the pairs bit for bit: n runs as a float, g is
    written out for 2 and 3 pairs (the counts the registry walks), and a
    weight whose steps() is the walk of its pairs (inline_pairs: Unit,
    Harmonic with stride 1, DigammaDiffSum, DigammaLog and LinearCombo
    with pairs) takes that walk's Kahan step in the loop, on floats where
    _pair_steps would. Other weights (Harmonic with stride 2 or 3,
    HarmonicSqPlusGen2) keep their generators, one call per term.
    """

    __slots__ = ("pairs", "rx", "step", "w", "wpairs", "wc", "n0", "n", "t",
                 "tc", "S", "comp", "abs_sum", "blocks")

    def __init__(self, spec: PochhammerRatioSeries, weight: WeightKind,
                 rx: complex):
        self.t, self.rx, nums, dens = _start(spec, rx)
        nums = list(nums)
        dens = list(dens + (1.0,) * spec.factorial_power)
        pairs = []
        while nums and dens:
            a, d = min(itertools.product(nums, dens), key=lambda ad: (
                abs(ad[0] - ad[1]), ad[0].real, ad[0].imag, ad[1].real,
                ad[1].imag))
            nums.remove(a)
            dens.remove(d)
            pairs.append((a - d, d))
        self.pairs = tuple(pairs)
        self.n0 = self.n = spec.start_index
        # w holds w_n, the weight of the first term not yet added
        wpairs = weight.inline_pairs()
        if wpairs is None:
            self.step = weight.steps(self.n).__next__
            self.w, self.wpairs = self.step(), ()
        else:
            self.step = None
            self.w, self.wpairs = _real_pairs(weight.value(self.n), wpairs)
        self.wc = self.tc = self.S = self.comp = 0.0
        self.abs_sum = 0.0
        self.blocks = []

    def run(self, count: int) -> None:
        pairs, rx, step, n0, n = (self.pairs, self.rx, self.step, self.n0,
                                  self.n)
        t, tc, S, comp = self.t, self.tc, self.S, self.comp
        w, wc, abs_sum = self.w, self.wc, self.abs_sum
        two, three = len(pairs) == 2, len(pairs) == 3
        if two:
            (x0, d0), (x1, d1) = pairs
        elif three:
            (x0, d0), (x1, d1), (x2, d2) = pairs
        wpairs = self.wpairs
        if wpairs:
            (c0, a0), *wrest = wpairs
        end = n + count
        while n < end:
            block = abs_sum
            # the block ends before the next power of four above n - n0
            stop = min(end, n0 + 4 ** (((n - n0).bit_length() + 1) // 2))
            m = float(n)
            for _ in range(stop - n):
                term = t * w
                y = term - comp
                hi = S + y
                comp = (hi - S) - y
                S = hi
                abs_sum += abs(term)
                # advance u_n -> u_{n+1} = r * u_n * (1 + g); written out,
                # the loop's first step from g = 0.0, 0.0 + (e + 0.0 * e),
                # is e + 0.0 for every finite e
                if two:
                    g = x0 / (d0 + m) + 0.0
                    e = x1 / (d1 + m)
                    g += e + g * e
                elif three:
                    g = x0 / (d0 + m) + 0.0
                    e = x1 / (d1 + m)
                    g += e + g * e
                    e = x2 / (d2 + m)
                    g += e + g * e
                else:
                    g = 0.0
                    for delta, d in pairs:
                        e = delta / (d + m)
                        g += e + g * e
                inc = t * g + tc
                hi = t + inc
                back = hi - t
                tc = (t - (hi - back)) + (inc - back)
                t = hi * rx
                tc *= rx
                # w_n -> w_{n+1}
                if step is not None:
                    w = step()
                elif wpairs:
                    q = c0 / (a0 + m)
                    for c, a in wrest:
                        q += c / (a + m)
                    y = q - wc
                    hi = w + y
                    wc = (hi - w) - y
                    w = hi
                m += 1.0
            n = stop
            self.blocks.append((n - 1, abs_sum - block))
        self.n, self.t, self.tc, self.S, self.comp = n, t, tc, S, comp
        self.w, self.wc, self.abs_sum = w, wc, abs_sum


def _eval_unit(spec: PochhammerRatioSeries, weight: WeightKind, rx: complex,
               tol: float, sigma: complex, logs: int) -> SeriesResult:
    """The ladder rule of eval_weighted: partial sums at the _GRID
    checkpoints, cut at the first top whose fitted limit certifies."""
    walk = _Walk(spec, weight, rx)
    s = sigma
    theta = 0.0
    if abs(rx - 1.0) <= _UNIT_BAND:
        s += 1.0
    else:
        theta = cmath.phase(rx)

    sums = []
    done = 0
    for mark in _GRID:
        walk.run(mark - done)
        sums.append(walk.S)
        done = mark
        if mark not in _TOPS:
            continue
        marks = _GRID[len(sums) - _MARKS:len(sums)]
        window = sums[-_MARKS:]
        weights = _limit_weights(marks, s, theta, logs, _MODEL_ORDER)
        best = _dot(weights, window)
        lower = _dot(_limit_weights(marks, s, theta, logs, _MODEL_ORDER - 1),
                     window)
        short = _dot(_limit_weights(marks[:_SHORT], s, theta, logs,
                                    _MODEL_ORDER), window[:_SHORT])
        gain = math.fsum(map(abs, weights))
        tail = (_WIDEN * max(abs(best - lower), abs(best - short))
                + (mark + gain) * _EPS * walk.abs_sum)
        if tail <= tol * max(1.0, abs(best)):
            return SeriesResult(best, mark, tail, True, "extrapolated")
    raise NonConvergentError(
        f"extrapolated error estimate {tail:.3g} exceeds tolerance {tol:g} "
        f"after {done} terms (|r*x| = {abs(rx):.6g}, "
        f"exponent {s:.3g}, log power {logs})")


# ---------------------------------------------------------------------------
# anchored tail at r*x = 1 (Euler-Maclaurin) and r*x = -1 (Boole)


def _term_expansion(spec: PochhammerRatioSeries, order: int) -> list:
    """d_0 = 1, d_1, ..., d_order with u_n ~ C (r*x)^n n^sigma sum_k d_k
    n^-k for a balanced spec on the circle (sigma its effective
    exponent).

    By DLMF 5.11.8, log Gamma(n + a) - log Gamma(n + b) has the expansion
    (a - b) log n + sum_k (-1)^(k+1) (B_{k+1}(a) - B_{k+1}(b)) / (k(k+1)) n^-k
    (the ratio form is DLMF 5.11.13); summed over the shifts (n! as b = 1)
    the Bernoulli polynomials B_m(a) = sum_j binom(m, j) B_j a^(m-j) need
    only the power sums sum a^q - sum b^q, and d is the exponential of
    that series in 1/n.
    """
    dens = spec.denominator_shifts + (1.0,) * spec.factorial_power
    power = [0j] * (order + 2)
    for shifts, sign in ((spec.numerator_shifts, 1.0), (dens, -1.0)):
        for a in shifts:
            v = sign
            for q in range(order + 2):
                power[q] += v
                v *= a
    jc = [0j]                   # j c_j
    for k in range(1, order + 1):
        m = k + 1
        bern = _lsum(map(operator.mul, _BINOM_BERNOULLI[m], power[m::-1]))
        jc.append(k * ((-1) ** (k + 1) * bern / (k * m)))
    d = [1.0 + 0j]
    for k in range(1, order + 1):
        d.append(_lsum(map(operator.mul, jc[1:k + 1], d[k - 1::-1])) / k)
    return d


def _drift(pairs, n0: int, ends) -> list:
    """Bounds D(M) on sum_{n0 <= n < M} sum_i |a_i - d_i| / |a_i + n| for
    the walk's pairs (a_i - d_i, d_i), one for each M of the increasing
    ends.

    The walk forms the step factor prod (a_i + n)/(d_i + n) as 1 + g; its
    rounding in g moves the factor by a few eps * sum_i |a_i - d_i| /
    |a_i + n| relative, so eps times D(M) bounds the relative drift of
    u_M. Each inner sum is exact while n + Re a < 1, and beyond that at
    most its first term plus the integral of 1/(n + Re a).
    """
    totals = [0.0] * len(ends)
    for delta, d in pairs:
        a = delta + d
        re_a = a.real
        size = abs(delta)
        n = n0
        acc = 0.0
        for i, M in enumerate(ends):
            while n < M and n + re_a < 1.0:
                acc += 1.0 / abs(a + n)
                n += 1
            if n < M:
                first = n + re_a
                totals[i] += size * (acc + 1.0 / first
                                     + math.log((M - 1 + re_a) / first))
            else:
                totals[i] += size * acc
    return totals


def _rounding(walk: _Walk, tail: complex) -> float:
    """The rounding part of the anchored estimate, for a walk and the tail
    anchored at its u_M: the terms of each block carry the drift at the
    block's last index, the tail the drift of u_M (_drift), all a few eps
    of their own, and the compensated sum adds about eps |S|."""
    *drifts, anchor = _drift(walk.pairs, walk.n0,
                             [e for e, _ in walk.blocks] + [walk.n])
    weighted = _lsum(D * size for D, (_, size) in zip(drifts, walk.blocks))
    return _EPS * (_DRIFT_ULPS * (weighted + anchor * abs(tail))
                   + _TERM_ULPS * (walk.abs_sum + abs(tail)) + abs(walk.S))


@functools.lru_cache(maxsize=64)
def _folded_weights(M: int, logs: int, z: int) -> tuple:
    """The tables (full, last) of _moments: row l of full holds sum_{j >=
    i} e_j P_l[j - i] and row l of last e_(J-1) P_l[J - 1 - i], i < J,
    with e_j = _TAYLOR_WEIGHTS[z][j] M^-j; cached, as the doubling's
    anchors and every sum at the same M reuse them."""
    J = _TAYLOR_ORDER
    e = [w * float(M) ** -j for j, w in enumerate(_TAYLOR_WEIGHTS[z])]
    # log M + log(1 + x) = log M + x - x^2/2 + x^3/3 - ...
    first = [math.log(M)] + [(-1.0) ** (i + 1) / i for i in range(1, J)]
    powers = [[1.0] + [0.0] * (J - 1)]
    for _ in range(logs):
        p = powers[-1]
        powers.append([_lsum(p[i] * first[j - i] for i in range(j + 1))
                       for j in range(J)])
    # sum_j e_j [x^j](B P) = sum_i B_i sum_{j >= i} e_j P_(j-i)
    full = tuple(tuple(_lsum(e[j] * p[j - i] for j in range(i, J))
                       for i in range(J)) for p in powers)
    last = tuple(tuple(e[J - 1] * p[J - 1 - i] for i in range(J))
                 for p in powers)
    return full, last


def _moments(exponents, M: int, logs: int, z: int) -> list:
    """The moments of the tail at r*x = z, z = 1 or -1: for each s of the
    exponents, ((m_0, ..., m_logs), (t_0, ..., t_logs)) with m_l =
    sum_{m >= 0} z^m (1 + m/M)^-s log^l(M + m) and t_l the last term of
    the sum that gives it.

    With f(h) = (1 + h/M)^-s P_l(h/M), P_l(x) = (log M + log(1 + x))^l
    as a power series truncated after x^(J-1), and c_j its Taylor
    coefficients at 0, M^-j times the x^j coefficient of P_l and the
    binomial series of (1 + x)^-s, both sums are dots of the c_j, j < J,
    with weights W_j(z) M^-j (_folded_weights):

        z = -1, Boole (DLMF 24.17.1): W_j = 1/2 E_j(0);
        z = 1, Euler-Maclaurin (DLMF 2.10.1): W_j = -B_(j+1) / (j+1),
        plus the integral of f from 0 to infinity,
        I_l = (M log^l M + l I_(l-1)) / (s - 1), I_0 = M / (s - 1).

    Each s costs the J binomial coefficients and two dot products per
    moment, on floats for a real s (their values are the real parts of
    the complex ones). The terms shrink like (|s| / (pi M))^j at -1 and
    (|s| / (2 pi M))^j at 1, so for |s| well below those the last term
    (j = J - 1, odd; both weights vanish at even j >= 2) bounds the
    truncation.
    """
    full, last = _folded_weights(M, logs, z)
    J = _TAYLOR_ORDER
    log_m = math.log(M)
    out = []
    for s in exponents:
        s = s if s.imag else s.real
        b = [1.0]                   # binom(-s, i), the series of (1 + x)^-s
        for i in range(1, J):
            b.append(b[-1] * (-s - (i - 1)) / i)
        mom = [_lsum(map(operator.mul, b, w)) for w in full]
        if z == 1:
            integral = 0.0
            for l in range(logs + 1):
                integral = (M * log_m ** l + l * integral) / (s - 1.0)
                mom[l] += integral
        out.append((mom, [_lsum(map(operator.mul, b, w)) for w in last]))
    return out


def _anchored_tail(d, rows, sigma: complex, M: int, anchor: complex,
                   z: int):
    """sum_{n >= M} w_n u_n for u_n ~ C z^n n^sigma sum_k d_k n^-k (z = 1 or
    -1) and w_n u_n ~ C z^n n^sigma sum_l log^l n sum_k f_lk n^-k (rows
    f_0 and, for a weight with log powers, f_1 and f_2), with C fixed by
    the computed first term anchor = u_M, to the full order and to two
    orders less, and the size of the moments' truncation.

    With e_k = d_k M^-k, C z^M M^sigma = anchor / sum_k e_k. With
    the moments m_l(s) = sum_{m >= 0} z^m (1 + m/M)^-s log^l(M + m)
    (_moments) at s = k - sigma, the tail is anchor * sum_k M^-k sum_l
    f_lk m_l(k - sigma) / sum_k e_k: C and M^sigma drop out, and no Gamma
    value is needed. The truncation size is the modulus of the same sum
    over the moments' last terms t_l.
    """
    low = len(d) - 3
    num = den = cut = 0j
    scale = 1.0
    logs = range(1, len(rows))
    moments = _moments([k - sigma for k in range(len(d))], M, len(rows) - 1,
                       z)
    for k, (dk, (mom, last)) in enumerate(zip(d, moments)):
        part = rows[0][k] * scale * mom[0]
        for l in logs:
            part += rows[l][k] * scale * mom[l]
        num += part
        cut += scale * _lsum(row[k] * m for row, m in zip(rows, last))
        den += dk * scale
        if k == low:
            num_low, den_low = num, den
        scale /= M
    return (anchor * num / den, anchor * num_low / den_low,
            abs(anchor * cut / den))


def _eval_anchored(spec: PochhammerRatioSeries, weight: WeightKind,
                   rows, rx: complex, z: int, tol: float, sigma: complex,
                   max_terms: int) -> SeriesResult:
    """The anchored rule of eval_weighted at r*x = 1 and -1: 2N partial
    terms plus the anchored tail from the next index, whose moments come
    from _moments at the sign z, with N doubled until the error estimate
    certifies. rows is the weight's expansion at the first anchor,
    n0 + N."""
    d = _term_expansion(spec, _EXPANSION_ORDER)

    def tail(walk, rows):
        # the terms' rows: d times the weight's, truncated at the order
        f = [[_lsum(map(operator.mul, d[:k + 1], row[k::-1]))
              for k in range(_EXPANSION_ORDER + 1)] for row in rows]
        if not all(cmath.isfinite(v) for row in f for v in row):
            raise AccelerationBreakdown(
                "asymptotic expansion of the terms overflows")
        return _anchored_tail(d, f, sigma, walk.n, walk.t, z)

    N = _ANCHOR_N
    if max_terms < 2 * N:
        raise NonConvergentError(
            f"unit-argument series sums at least {2 * N} terms; "
            f"budget {max_terms} is too small")
    walk = _Walk(spec, weight, rx)
    walk.run(N)
    S, (tail1, tail1_low, cut1) = walk.S, tail(walk, rows)
    while True:
        walk.run(N)
        N *= 2
        S2, (tail2, tail2_low, cut2) = walk.S, tail(
            walk, weight.expansion(_EXPANSION_ORDER, walk.n))
        best = S2 + tail2
        rounding = _rounding(walk, tail2)
        est = (abs(tail1 - tail1_low) + abs(S + tail1 - best) + rounding
               + cut1)
        if est <= tol * max(1.0, abs(best)):
            return SeriesResult(best, N, est, True, "anchored")
        # the rounding part alone only grows with N
        floor = rounding > tol * max(1.0, abs(best))
        if 2 * N > max_terms or floor:
            break
        S, tail1, tail1_low, cut1 = S2, tail2, tail2_low, cut2
    cause = (f"rounding part {rounding:.3g} alone" if floor
             else f"error estimate {est:.3g}")
    raise NonConvergentError(
        f"anchored {cause} exceeds tolerance {tol:g} after {N} terms "
        f"(r*x = {rx:.6g}, exponent {sigma:.3g})")


def hyp2f1(a, b, c, x, *, tol: float = 1e-12,
           max_terms: int = DEFAULT_MAX_TERMS) -> complex:
    """Gauss 2F1 by its series, |x| <= 1 (see eval_weighted).

    This stays the plain series at x, also near x = 1, where the
    closed-form node expr.Hyp2F1 switches to Kummer's connection formulas:
    catalog.boundary_asymptotic_check measures the series' own growth
    there, which a connection formula would only read back.
    """
    spec = PochhammerRatioSeries((a, b), (c,), 1, 1.0, 0)
    return eval_weighted(spec, Unit(), x, tol=tol, max_terms=max_terms).value

