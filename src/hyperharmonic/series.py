"""Weighted hypergeometric-term series.

A PochhammerRatioSeries describes terms

    u_n = prod_i (a_i)_n / (prod_j (b_j)_n * (n!)**p) * (r*x)**n

summed against a weight sequence w_n (harmonic numbers and relatives).
The spec, the SeriesResult and the weights are Frozen value classes.
Each weight family is one WeightKind subclass. Every built-in kind is a
_PairWeight. A first-order kind is a derivative of Pochhammer symbols
(a_i + eps)_n in eps, stated once by its pairs (c_i, a_i), the step
adding sum_i c_i / (a_i + n). From them it gives value(n), steps(n0),
walk(n0) (the form that the term loops write out), asymptotics() and
expansion(K, M), in powers of 1/n and log n with the constant fixed by
the computed w_M. HarmonicSqPlusGen2, the one second-order weight H_n^2
+ H_n^(2), states its own steps and rows and is walked by its
generator. LinearCombo's pairs are its parts' pairs merged, so 2 H_2n -
H_n costs one division per step; it refuses a part without pairs and
gives no expansion. Both term loops,
the direct rule's and the unit-circle walk's (_Walk), are generated per
shape and weight walk from one template each (_kernel_source), so no
term branches on either.
Terms advance by one multiply-divide recurrence per index, run on floats
for a real spec at a real argument, with results identical to complex.
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
engine sums directly with a geometric tail bound, and only its stop
test certifies: a sum still running when the budget is spent raises
NonConvergentError, as in the two rules below. On the circle
(|r*x| = 1) the terms of balanced sums decay only algebraically, like
n^sigma (log n)^L.

At r*x = 1 and -1, with a weight that gives its expansion in powers of
1/n and log n (WeightKind.expansion: every built-in weight but
LinearCombo), the anchored rule sums 2N terms, N = 64, and adds the tail
in closed form. By DLMF 5.11.13, u_n ~ C z^n n^sigma sum_{k<=K} d_k n^-k
(z = r*x, K = 10, the d_k from Bernoulli polynomials of the shifts); by
DLMF 5.15.8 a first-order weight has w_n ~ L log n + g + sum_k h_k n^-k
(L = sum_i c_i, g taken from the computed w_M) and P^2 + Q a log^2 n
row, so w_n u_n ~ C z^n n^sigma sum_l log^l n sum_k f_lk n^-k with at
most two log powers. With C anchored at the computed u_M (no Gamma value
enters), the tail from index M is u_M sum_{m>=0} z^m f(m), f(h) the
anchored expansion of w_(M+h) u_(M+h) / u_M, and one routine sums it
from the Taylor coefficients c_j, j < J = 14, of f at 0 (binomial series
of (1 + h/M)^(sigma-k) times powers of log M + log(1 + h/M)): at -1 by
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

from ._frozen import Frozen, _set
from .errors import (
    AccelerationBreakdown,
    DomainError,
    NonConvergentError,
    PoleError,
)
from .specialfn import (_BERNOULLI_RATIONALS, _pole_index, _whole, harmonic,
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
# Bernoulli numbers B_0 .. B_20
_BERNOULLI = tuple(p / q for p, q in _BERNOULLI_RATIONALS)
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


class PochhammerRatioSeries(Frozen):
    """Term family u_n = prod (a_i)_n / (prod (b_j)_n (n!)**p) * r**n.

    factorial_power p >= 0, start_index in {0, 1}. Denominator shifts may
    not sit within 1e-12 of a non-positive integer (the recurrence would
    divide by zero); numerator shifts at non-positive integers are legal
    and terminate the series, and a numerator shift that is not finite
    raises DomainError. Shifts and r are stored as complex numbers.
    """

    __slots__ = ("numerator_shifts", "denominator_shifts", "factorial_power",
                 "geometric_ratio", "start_index")

    def __init__(self, numerator_shifts, denominator_shifts,
                 factorial_power=1, geometric_ratio=1.0, start_index=0):
        nums = tuple(map(complex, numerator_shifts))
        dens = tuple(map(complex, denominator_shifts))
        ratio = complex(geometric_ratio)
        factorial_power = _whole(factorial_power, "factorial_power")
        if start_index not in (0, 1):
            raise DomainError(f"start_index must be 0 or 1, got {start_index!r}")
        start_index = int(start_index.real)  # 1.0, 1+0j or True: the int
        for b in dens:
            if _pole_index(b) is not None:
                raise PoleError(f"denominator shift {b} hits a non-positive integer")
        if not all(map(cmath.isfinite, nums)):
            raise DomainError(f"numerator shifts {nums} are not all finite")
        Frozen.__init__(self, nums, dens, factorial_power, ratio,
                        start_index)

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


# ---------------------------------------------------------------------------
# weights


class WeightKind:
    """Base class for weight families; each subclass is the one definition
    of its family. The built-in families are also Frozen value classes
    whose fields are their __slots__, and _PairWeights; other subclasses
    need not be either.

    value(n) recomputes w_n from scratch, the reference that tests compare
    the walk against; steps(n0) yields w_n0, w_n0+1, ... with Kahan-
    compensated running sums; walk(n0) states steps(n0) as a walk that the
    term loops take in line. asymptotics() gives (shift, L) with w_n ~
    n^shift (log n)^L, the weight's part of the exponent sigma and the log
    power of the ladder's tail model; expansion(K, M) refines it to an expansion in 1/n
    for the anchored rule at r*x = 1 and -1.
    """
    __slots__ = ()

    def value(self, n: int) -> complex:
        raise NotImplementedError

    def steps(self, n0: int):
        raise NotImplementedError

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

    def walk(self, n0: int):
        """(form, state): steps(n0), bit for bit, as a walk that the term
        loops write out (_walk_code). form depends only on small integers;
        state holds the walk's variables at n0, w_n0 first. By default the
        form is ("next",), which calls the generator per term."""
        step = self.steps(n0).__next__
        return ("next",), (step(), step)


class _PairWeight(WeightKind):
    """A first-order weight stated by reciprocal pairs (c_i, a_i), as the
    derivative in eps of (a + eps)_n is (a)_n sum_{k<n} 1/(a + k): w_n =
    w_n0 + sum_{n0<=k<n} sum_i c_i / (a_i + k). A kind's __init__
    validates its fields and states its pairs, start value and start
    index once (_set_pairs, which raises DomainError for a c_i, a_i or
    start value that is not finite and PoleError for a shift a_i = -k at
    an index k >= n0), in hidden slots that reprs, equality, hashing and
    pickles do not see: _pairs (as given), _floats (as floats where they
    and the start value are all real), _start ((n0, w_n0)), _terms, _walks
    (each walk(n0) once stated) and _expansions (each expansion(K, M) once
    formed, its rows tuples; a copy or a pickle starts without them).

    value(n) fsums the start value and the separate terms c / (a + k), (c,
    a) in T and s n0 <= k < s n, where (T, s) = _terms is (_floats, 1), or
    for H_{sn+o} the terms 1/j, as harmonic() sums them (1/3 is inexact).
    A subclass that overrides steps() is walked as ("next",) and has no
    expansion, since the kind's own steps (_own_steps) no longer state its
    walk. The steps add sum_i c_i psi(a_i + n), so by DLMF 5.15.8 w_n ~ L
    log n + g + sum_k h_k n^-k, L = sum_i c_i (log power 0 where L = 0, as
    for DigammaLog) and h_k = sum_i c_i (-1)^(k+1) B_k(a_i) / k;
    expansion(K, M) takes g from the computed w_M. For H_{sn+o}, whose
    pairs are (1/s, (o+r)/s), r = 1..s, the multiplication theorem (DLMF
    24.4.17) gives h_k = (-1)^(k+1) B_k(o+1) / (k s^k).
    """

    __slots__ = ("_pairs", "_floats", "_start", "_terms", "_walks",
                 "_expansions")

    def _set_pairs(self, pairs, start, n0=0, terms=None):
        if not all(map(cmath.isfinite, itertools.chain(*pairs, (start,)))):
            raise DomainError(f"{self!r} has a pair or a start value that is "
                              f"not finite: pairs {pairs}, start {start}")
        for _, a in pairs:
            k = _pole_index(a)
            if k is not None and k >= n0:
                raise PoleError(f"{self!r} has the shift {a}, a pole at "
                                f"index {k}")
        _set(self, "_pairs", pairs)
        floats = _as_floats(pairs)
        if floats is not None and not start.imag:
            pairs, start = floats, start.real
        _set(self, "_floats", pairs)
        _set(self, "_start", (n0, start))
        _set(self, "_terms", terms or (pairs, 1))
        _set(self, "_walks", {})
        _set(self, "_expansions", {})

    def _at(self, n):
        n0, start = self._start
        if n == n0:
            return start
        if n < n0:
            raise DomainError(f"{self!r} starts at index {n0}, got {n}")
        pairs, s = self._terms
        return _fsum([start, *(c / (a + k) for k in range(s * n0, s * n)
                               for c, a in pairs)])

    def value(self, n):
        return self._at(n)

    def steps(self, n0):
        return _pair_steps(self._at(n0), self._floats, n0)

    # the steps that walk() and expansion() state; a kind with its own
    # names them again
    _own_steps = steps

    def walk(self, n0):
        if type(self).steps is not type(self)._own_steps:
            return WeightKind.walk(self, n0)
        return self._walks.get(n0) or self._walks.setdefault(n0, (
            ("pairs", len(self._floats)),
            (self._at(n0), 0.0, *itertools.chain(*self._floats))))

    def pairs(self):
        return self._pairs

    def asymptotics(self):
        return 0, (1 if _pair_rows(self._floats, 0)[0] else 0)

    def expansion(self, order, anchor):
        if type(self).steps is not type(self)._own_steps:
            return None
        key = order, anchor
        return self._expansions.get(key) or self._expansions.setdefault(
            key, self._expansion_at(order, anchor))

    def _expansion_at(self, order, anchor):
        log, h = _pair_rows(self._floats, order)
        A = _anchored_row(self._at(anchor) - log * math.log(anchor), h,
                          anchor)
        return (A, (log,) + (0.0,) * order) if log else (A,)


def _as_floats(pairs):
    """The pairs as floats where every value is real, else None."""
    floats = [(c.real, a.real) for c, a in pairs if not (c.imag or a.imag)]
    return tuple(floats) if len(floats) == len(pairs) else None


def _fsum(terms):
    """math.fsum, part by part where the first term is complex."""
    if type(terms[0]) is complex:
        return complex(math.fsum(map(_real, terms)),
                       math.fsum(map(_imag, terms)))
    return math.fsum(terms)


def _pair_rows(pairs, order: int) -> tuple:
    """(L, h) of _PairWeight for k = 1..order."""
    log, h = 0.0, [0.0] * order
    for c, a in pairs:
        log += c
        for k in range(1, order + 1):
            h[k - 1] += c * ((-1) ** (k + 1) * _bernoulli(k, a) / k)
    return log, tuple(h)


def _bernoulli(m: int, a):
    """The Bernoulli polynomial B_m(a) = sum_j binom(m, j) B_j a^(m-j)."""
    return _lsum(cb * a ** (m - j) for j, cb in enumerate(_BINOM_BERNOULLI[m]))


def _anchored_row(value, coeffs, anchor: int) -> tuple:
    """(r_0, *coeffs), r_0 = value - sum_k coeffs[k-1] M^-k at M = anchor."""
    M = float(anchor)
    return (value - _lsum(coeffs[k - 1] * M ** -k
                          for k in range(len(coeffs), 0, -1)), *coeffs)


class Unit(Frozen, _PairWeight):
    """w_n = 1: no pairs."""

    __slots__ = ()

    def __init__(self):
        self._set_pairs((), 1.0)


class Harmonic(Frozen, _PairWeight):
    """w_n = H_{stride*n + offset}, stride in {1,2,3}, offset in
    {-1,0,1,2}; offsets 1 and 2 weight the derivative series of an H_n
    generating function (catalog.ode_residual). From index 1 at offset -1."""

    __slots__ = ("stride", "offset")

    def __init__(self, stride=1, offset=0):
        if stride not in (1, 2, 3):
            raise DomainError(f"harmonic stride must be 1, 2 or 3, got {stride!r}")
        if offset not in (-1, 0, 1, 2):
            raise DomainError(f"harmonic offset must be -1, 0, 1 or 2, "
                              f"got {offset!r}")
        # an equal float (2.0) is stored as the int that indexing needs
        s, o = int(stride.real), int(offset.real)
        Frozen.__init__(self, s, o)
        n0 = 1 if o < 0 else 0
        # 1/(sn + o + r) = (1/s) / (n + (o + r)/s); value(n) sums 1/j
        self._set_pairs(tuple((1.0 / s, (o + r) / s) for r in range(1, s + 1)),
                        harmonic(s * n0 + o), n0=n0,
                        terms=(((1.0, o + 1.0),), s))


class HarmonicSqPlusGen2(Frozen, _PairWeight):
    """w_n = H_n**2 + H_n^(2) = P_n^2 + Q_n, the paper's one second-order
    weight: 2 [eps^2] of (1)_n / (1 - eps)_n. P = H_n steps by 1/(1 + k),
    the pair (1, 1), and Q = H_n^(2) by 1/(1 + k)^2, each by a Kahan
    step; value(n) fsums both, P as the base does. It has no pairs, so
    LinearCombo refuses it, and the term loops call its generator (walk
    ("next",)). By DLMF 5.15.8, P ~ log n + A(n) and Q ~ G(n) = zeta(2) - sum_k
    B_(k-1) n^-k (from psi'(n + 1)), so its rows are A^2 + G, 2 A and 1,
    with the constants of A and G taken from the computed P_M and Q_M.
    """

    __slots__ = ()

    walk = WeightKind.walk

    def __init__(self):
        self._set_pairs(((1.0, 1.0),), 0.0)

    def _gen2(self, n):
        """Q_n = H_n^(2), fsummed."""
        return math.fsum(1.0 / ((1.0 + k) * (1.0 + k)) for k in range(n))

    def value(self, n):
        P = self._at(n)
        return P * P + self._gen2(n)

    def steps(self, n0):
        ps = _kahan_steps(self._at(n0), (1.0 / (1.0 + k)
                                         for k in itertools.count(n0)))
        qs = _kahan_steps(self._gen2(n0), (1.0 / ((1.0 + k) * (1.0 + k))
                                          for k in itertools.count(n0)))
        return (p * p + q for p, q in zip(ps, qs))

    _own_steps = steps

    def pairs(self):
        return None

    def asymptotics(self):
        return 0, 2

    def _expansion_at(self, order, anchor):
        A = _PairWeight._expansion_at(self, order, anchor)[0]
        G = _anchored_row(self._gen2(anchor), tuple(
            -_BERNOULLI[k - 1] for k in range(1, order + 1)), anchor)
        return (tuple(G[k] + _lsum(A[j] * A[k - j] for j in range(k + 1))
                      for k in range(order + 1)),
                tuple(2.0 * v for v in A), (1.0,) + (0.0,) * order)


class DigammaDiffSum(Frozen, _PairWeight):
    """w_n = sum_{k=0}^{n-1} (2/(2b+k) - 1/(a+b+1/2+k)), which telescopes
    to psi differences; 2b and a+b+1/2 must stay away from poles."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        a, b = complex(a), complex(b)
        Frozen.__init__(self, a, b)
        self._set_pairs(((2.0, 2.0 * b), (-1.0, a + b + 0.5)), 0j)


class DigammaLog(Frozen, _PairWeight):
    """w_n = 2 psi(n+1) - psi(a+n) - psi(b+n) - log y, the weight of Kummer's
    logarithmic connection formula (A&S 15.3.10), given by its first value
    w0 = 2 psi(1) - psi(a) - psi(b) - log y. The walk adds
    2/(n+1) - 1/(a+n) - 1/(b+n) per step; a and b must stay away from
    non-positive integers.
    """

    __slots__ = ("a", "b", "w0")

    def __init__(self, a, b, w0):
        a, b, w0 = complex(a), complex(b), complex(w0)
        Frozen.__init__(self, a, b, w0)
        self._set_pairs(((2.0, 1.0), (-1.0, a), (-1.0, b)), w0)


class LinearCombo(Frozen, _PairWeight):
    """w_n = sum_i coeff_i * inner_i(n).

    Its pairs are the parts' pairs scaled by the coefficients, equal
    shifts merged and exact zeros dropped (2 H_2n - H_n is the one pair
    (1, 1/2)), and value(n) adds the parts' values. A part without pairs
    (HarmonicSqPlusGen2, a kind whose pairs() is None) or a coefficient
    that is not finite raises DomainError.
    """

    __slots__ = ("parts",)  # of (coeff, WeightKind)

    # no expansion, so the combinations keep the ladder at r*x = 1 and -1;
    # this line goes once the benchmark's memory bound allows (ROADMAP
    # items 1 and 2a)
    expansion = WeightKind.expansion

    def __init__(self, parts):
        norm, merged = [], {}
        for coeff, kind in parts:
            if not isinstance(kind, WeightKind):
                raise DomainError(f"LinearCombo parts need WeightKind entries, got {kind!r}")
            inner = kind.pairs()
            if inner is None:
                raise DomainError(f"LinearCombo part {kind!r} has no pairs "
                                  f"to merge")
            coeff = complex(coeff)
            if not cmath.isfinite(coeff):
                raise DomainError(f"LinearCombo coefficient {coeff} of "
                                  f"{kind!r} is not finite")
            norm.append((coeff, kind))
            for c, a in inner:
                merged[a] = merged.get(a, 0.0) + coeff * c
        Frozen.__init__(self, tuple(norm))
        # poles from the latest start among the parts: the shift 0 of
        # Harmonic(s, -1) is a pole only before its start index 1
        n0 = max((kind._start[0] for _, kind in norm
                  if isinstance(kind, _PairWeight)), default=0)
        self._set_pairs(tuple((c, a) for a, c in merged.items() if c != 0.0),
                        0.0, n0=n0)

    def _at(self, n):
        # the parts' values, real where they and the pairs are all real
        # (_floats then holds the pairs as floats)
        w = _lsum(c * kind.value(n) for c, kind in self.parts)
        return (w.real if not w.imag and _as_floats(self._pairs) is not None
                else w)


def _pair_steps(w, pairs, n):
    """w_n, w_n+1, ... from w = w_n, each step adding q = sum_i c_i /
    (a_i + n), formed in pair order; on floats where w and the pairs are
    floats, whose values are the real parts of the complex ones."""
    if not pairs:
        return itertools.repeat(w)
    return _kahan_steps(w, (functools.reduce(operator.add, [
        c / (a + k) for c, a in pairs]) for k in itertools.count(n)))


def _kahan_steps(acc, increments):
    """acc, then acc plus each increment in turn, by one Kahan step each."""
    comp = 0.0
    yield acc
    for q in increments:
        y = q - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t
        yield acc


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
    they come as floats: the loops then run the same recurrence in float
    arithmetic, whose values are the real parts of the complex ones,
    until a complex weight value makes the term complex."""
    nums, dens = spec.numerator_shifts, spec.denominator_shifts
    t = 1.0 + 0j
    if spec.start_index == 1:
        t = rx
        for a in nums:
            t *= a
        for b in dens:
            t /= b
    if rx.imag or t.imag or any(map(_imag, nums + dens)):
        return t, rx, nums, dens
    return t.real, rx.real, tuple(map(_real, nums)), tuple(map(_real, dens))


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
    built from recent term ratios also meets the tolerance. That stop
    test is the only way a direct sum certifies: at the budget the rule
    raises NonConvergentError, as the anchored rule and the ladder do.
    Every _FINITE_EVERY = 256 terms, and at the budget, the partial sum
    must be finite; terms that overflow raise DomainError there. The loop is
    generated for the spec's shape and the weight's walk (_kernel_source),
    bit for bit the plain recurrence and steps().

    On the unit circle (|r*x| = 1) a sum with a numerator shift at a
    non-positive integer terminates, and a sum with more denominator than
    numerator shifts has factorially decaying terms: both take the direct
    rule. The balanced sums left are refused if sigma, the spec's complex
    exponent plus the weight's shift (WeightKind.asymptotics), has
    Re sigma >= -1 at r*x = 1 or >= 0 elsewhere on the circle; the same
    sigma drives the direct rule's drift clause.

    At r*x = 1 and r*x = -1, a weight with an expansion
    (WeightKind.expansion: every built-in weight but LinearCombo, up to
    log^2 n) takes the anchored rule (method
    "anchored"; the module docstring gives its tail and estimate): 2N
    terms, N = 64, plus the anchored tail. It returns S(2N,K) with
    terms_used = 2N once the estimate meets tol * max(1, |S|), and
    otherwise doubles N. A budget below 128 terms, or an estimate above
    the tolerance when the next doubling would overrun the budget or its
    rounding part (_rounding) alone misses the tolerance (the error then
    names that part), raises NonConvergentError; an expansion that
    overflows (shifts near 1e30) raises AccelerationBreakdown.

    Every other balanced sum on the circle (weights without an expansion,
    r*x other than 1 and -1) is extrapolated from a ladder (method
    "extrapolated"; the module docstring gives its fit and estimate): the
    first top T in _TOPS whose estimate meets tol * max(1, |S|) returns
    its fit with terms_used = T and the estimate as tail_bound. A budget
    below 2^14 terms, divergent or non-decaying terms, or an estimate
    above the tolerance even at 2^14 raise NonConvergentError; a tail
    model that cannot be formed on the ladder raises
    AccelerationBreakdown.
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
    max_terms = int(max_terms)  # True or 2.0: the int the refusals name
    if mag > 1.0 + _UNIT_BAND:
        raise NonConvergentError(f"|ratio*x| = {mag:.6g} exceeds 1; series diverges")
    nums = spec.numerator_shifts
    dens = spec.denominator_shifts
    p = spec.factorial_power
    # u_{n+1}/u_n ~ r*x * n^excess: factorial growth (excess > 0) or decay.
    # A terminating sum is finite, and factorially decaying terms (excess
    # < 0) leave a geometric tail: the direct rule below sums both
    excess = len(nums) - len(dens) - p
    if (excess > 0 and mag > 0.0 or excess == 0 and unit) and all(
            _pole_index(a) is None for a in nums):
        if excess:
            raise NonConvergentError(
                f"{len(nums)} numerator against {len(dens) + p} denominator shifts "
                "(n! counted as one) and no terminating shift; terms grow factorially")
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

    # the direct rule, written out for the shape and the weight's walk
    form, state = weight.walk(spec.start_index)
    t, rx, nums, dens = _start(spec, rx)
    loop = _kernel("direct", (len(nums), len(dens), p), form)
    result = loop(spec, weight, tol, max_terms, t, rx, *nums, *dens, *state)
    if result is None:
        raise NonConvergentError(
            f"no tolerance-{tol:g} tail bound after {max_terms} terms "
            f"(|r*x| = {mag:.6g}, 1 - |r*x| = {1.0 - mag:.3g}, "
            f"exponent {_exponent(spec, weight).real:.3g})")
    return result


_DIRECT_LOOP = """\
def _direct_loop(spec, weight, tol, max_terms, t, rx, %(args)s):
    # sigma is formed only where the drift clause reads it
    sigma = None
    n0 = spec.start_index
    m = float(n0)               # n, the index of the term being added

    S = comp = 0.0
    count = consec = 0
    # the budget test also fires every _FINITE_EVERY terms, where the
    # partial sum must still be finite; checked terms were finite
    checked = 0
    check = min(max_terms, _FINITE_EVERY)
    # |t_n| of the three terms before this one, oldest first
    back3 = back2 = back1 = 0.0

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
                return None         # the budget is spent: the caller refuses
            checked = count
            check = min(max_terms, count + _FINITE_EVERY)
        back3, back2, back1 = back2, back1, at

        # w_n -> w_{n+1}
        %(step)s
        # u_n -> u_{n+1}: t times r*x, each (a + n) and 1 / (b + n) in
        # shift order, then over (n + 1)^p
        t *= rx%(factor)s
        m += 1.0
        %(divide)s
"""


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

    The loop is generated for the pair count and the weight's walk
    (_kernel_source), bit for bit a plain loop over the pairs and steps().
    """

    __slots__ = ("pairs", "rx", "loop", "wstate", "n0", "n", "t", "tc", "S",
                 "comp", "abs_sum", "blocks")

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
        # wstate holds the weight's walk at n, the first term not yet added
        form, self.wstate = weight.walk(self.n)
        self.loop = _kernel("walk", (len(pairs),), form)
        self.tc = self.S = self.comp = self.abs_sum = 0.0
        self.blocks = []

    def run(self, count: int) -> None:
        self.loop(self, count)


_WALK_LOOP = """\
def _walk_loop(self, count):
    rx, n0, n, abs_sum = self.rx, self.n0, self.n, self.abs_sum
    t, tc, S, comp = self.t, self.tc, self.S, self.comp
    [%(pairs)s] = self.pairs
    %(state)s, = self.wstate
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
            # advance u_n -> u_{n+1} = r * u_n * (1 + g)
            %(g)s
            inc = t * g + tc
            hi = t + inc
            back = hi - t
            tc = (t - (hi - back)) + (inc - back)
            t = hi * rx
            tc *= rx
            # w_n -> w_{n+1}
            %(step)s
            m += 1.0
        n = stop
        self.blocks.append((n - 1, abs_sum - block))
    self.n, self.t, self.tc, self.S, self.comp = n, t, tc, S, comp
    self.abs_sum, self.wstate = abs_sum, (%(state)s,)
"""


# ---------------------------------------------------------------------------
# the term loops, generated per shape and weight walk


def _kahan(acc: str, inc: str) -> list:
    """Lines adding inc to acc by a Kahan step, compensation in acc_c."""
    return [f"y = {inc} - {acc}_c", f"hi = {acc} + y",
            f"{acc}_c = (hi - {acc}) - y", f"{acc} = hi"]


def _walk_code(form: tuple, v: str):
    """(names, lines) of a walk form with the weight's value in v: the
    variables of its state, in order, and the lines that step them from
    index m to m + 1. ("pairs", k) adds sum_i p_i / (s_i + m)
    (_pair_steps), and ("next",) calls the generator."""
    if form[0] == "pairs":
        pairs = [(f"{v}_p{i}", f"{v}_s{i}") for i in range(form[1])]
        q = " + ".join(f"{c} / ({a} + m)" for c, a in pairs)
        names = [v, v + "_c", *itertools.chain(*pairs)]
        return names, _kahan(v, q) if q else []
    return [v, v + "_next"], [f"{v} = {v}_next()"]


def _kernel_source(loop: str, shape: tuple, form: tuple) -> str:
    """The text of a term loop: _DIRECT_LOOP (loop "direct") for shape
    (numerator shifts, denominator shifts, p) or _WALK_LOOP (loop "walk")
    for shape (pairs,), with the walk form written out (_walk_code). It
    depends on these small integers only; the shifts a_i, b_j or pairs
    (x_i, d_i) = (a - d, d), r*x and the walk's state are arguments."""
    names, step = _walk_code(form, "w")
    if loop == "direct":
        k, l, p = shape
        nums, dens = [f"a{i}" for i in range(k)], [f"b{j}" for j in range(l)]
        # m * m is float(n + 1) ** 2 while exact: (n + 1)^2 < 2^53, the
        # first 9.4e7 terms
        divide = ("" if p == 0 else "t /= m" if p == 1 else
                  "t /= m * m" if p == 2 else f"t /= m ** {p}")
        return _DIRECT_LOOP % dict(
            args=", ".join(nums + dens + names),
            factor="".join([f" * ({a} + m)" for a in nums]
                           + [f" / ({b} + m)" for b in dens]),
            divide=divide, step="\n        ".join(step))
    (k,) = shape
    # the plain loop's first step from g = 0.0, 0.0 + (e + 0.0 * e), is
    # e + 0.0 for every finite e
    g = ["g = 0.0"] if k == 0 else ["g = x0 / (d0 + m) + 0.0"]
    for i in range(1, k):
        g += [f"e = x{i} / (d{i} + m)", "g += e + g * e"]
    pairs = ", ".join(f"(x{i}, d{i})" for i in range(k))
    return _WALK_LOOP % dict(pairs=pairs, state=", ".join(names),
                             g="\n            ".join(g),
                             step="\n            ".join(step))


@functools.lru_cache(maxsize=128)
def _kernel(loop: str, shape: tuple, form: tuple):
    """_kernel_source's function, compiled once per loop, shape and walk
    form."""
    namespace = {}
    exec(compile(_kernel_source(loop, shape, form),
                 f"<{loop} {shape} {form}>", "exec"), globals(), namespace)
    return namespace.popitem()[1]


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


def _binomials(exponents) -> list:
    """(s, b) for each s of the exponents, s a float where it is real and
    b_i = binom(-s, i), i < J, the series of (1 + x)^-s: the part of the
    moments (_moments) that no anchor changes, formed once per sum."""
    out = []
    for s in exponents:
        s = s if s.imag else s.real
        b = [1.0]
        for i in range(1, _TAYLOR_ORDER):
            b.append(b[-1] * (-s - (i - 1)) / i)
        out.append((s, b))
    return out


def _moments(binomials, M: int, logs: int, z: int) -> list:
    """The moments of the tail at r*x = z, z = 1 or -1: for each (s, b) of
    binomials (_binomials), ((m_0, ..., m_logs), (t_0, ..., t_logs)) with
    m_l = sum_{m >= 0} z^m (1 + m/M)^-s log^l(M + m) and t_l the last
    term of the sum that gives it.

    With f(h) = (1 + h/M)^-s P_l(h/M), P_l(x) = (log M + log(1 + x))^l
    as a power series truncated after x^(J-1), and c_j its Taylor
    coefficients at 0, M^-j times the x^j coefficient of P_l and the
    binomial series b of (1 + x)^-s, both sums are dots of the c_j, j < J,
    with weights W_j(z) M^-j (_folded_weights):

        z = -1, Boole (DLMF 24.17.1): W_j = 1/2 E_j(0);
        z = 1, Euler-Maclaurin (DLMF 2.10.1): W_j = -B_(j+1) / (j+1),
        plus the integral of f from 0 to infinity,
        I_l = (M log^l M + l I_(l-1)) / (s - 1), I_0 = M / (s - 1).

    Each s costs two dot products per moment, on floats for a real s
    (their values are the real parts of the complex ones). The terms
    shrink like (|s| / (pi M))^j at -1 and (|s| / (2 pi M))^j at 1, so
    for |s| well below those the last term (j = J - 1, odd; both weights
    vanish at even j >= 2) bounds the truncation.
    """
    full, last = _folded_weights(M, logs, z)
    log_m = math.log(M)
    out = []
    for s, b in binomials:
        mom = [_lsum(map(operator.mul, b, w)) for w in full]
        if z == 1:
            integral = 0.0
            for l in range(logs + 1):
                integral = (M * log_m ** l + l * integral) / (s - 1.0)
                mom[l] += integral
        out.append((mom, [_lsum(map(operator.mul, b, w)) for w in last]))
    return out


def _anchored_tail(d, rows, binomials, M: int, anchor: complex, z: int):
    """sum_{n >= M} w_n u_n for u_n ~ C z^n n^sigma sum_k d_k n^-k (z = 1 or
    -1) and w_n u_n ~ C z^n n^sigma sum_l log^l n sum_k f_lk n^-k (rows
    f_0 and, for a weight with log powers, f_1 and f_2), with C fixed by
    the computed first term anchor = u_M, to the full order and to two
    orders less, and the size of the moments' truncation.

    With e_k = d_k M^-k, C z^M M^sigma = anchor / sum_k e_k. With
    the moments m_l(s) = sum_{m >= 0} z^m (1 + m/M)^-s log^l(M + m)
    (_moments, from the sum's binomials at s = k - sigma, k = 0..K), the
    tail is anchor * sum_k M^-k sum_l f_lk m_l(k - sigma) / sum_k e_k: C
    and M^sigma drop out, and no Gamma value is needed. The truncation
    size is the modulus of the same sum over the moments' last terms t_l.
    """
    low = len(d) - 3
    num = den = cut = 0j
    scale = 1.0
    logs = range(1, len(rows))
    moments = _moments(binomials, M, len(rows) - 1, z)
    for k, (dk, col, (mom, last)) in enumerate(zip(d, zip(*rows), moments)):
        part = col[0] * scale * mom[0]
        for l in logs:
            part += col[l] * scale * mom[l]
        num += part
        cut += scale * _lsum(map(operator.mul, col, last))
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
    n0 + N. The set-up that no anchor changes is formed once per sum:
    the terms' expansion d and the binomial series of the exponents
    k - sigma (_binomials); the weight keeps its rows per anchor
    (_PairWeight.expansion)."""
    d = _term_expansion(spec, _EXPANSION_ORDER)
    binomials = _binomials([k - sigma for k in range(len(d))])

    def tail(walk, rows):
        # the terms' rows: d times the weight's, truncated at the order. A
        # row (r_0, 0, ..., 0), such as Unit's and every log row, gives 0j
        # + d_k r_0, bit for bit: with d complex and finite, the other
        # products are complex zeros and 0 plus them is 0j (a d that is
        # not finite raises below either way)
        f = [[0j + v * row[0] for v in d] if not any(row[1:]) else
             [_lsum(map(operator.mul, d[:k + 1], row[k::-1]))
              for k in range(_EXPANSION_ORDER + 1)] for row in rows]
        if not all(cmath.isfinite(v) for row in f for v in row):
            raise AccelerationBreakdown(
                "asymptotic expansion of the terms overflows")
        return _anchored_tail(d, f, binomials, walk.n, walk.t, z)

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
    return eval_weighted(_gauss_spec(a, b, c), Unit(), x, tol=tol,
                         max_terms=max_terms).value


def _gauss_spec(a, b, c):
    """The spec of 2F1(a, b; c; x)'s series at x: (a)_n (b)_n / ((c)_n n!)."""
    return PochhammerRatioSeries((a, b), (c,), 1, 1.0, 0)

