"""Weighted hypergeometric-term series.

A PochhammerRatioSeries describes terms

    u_n = prod_i (a_i)_n / (prod_j (b_j)_n * (n!)**p) * (r*x)**n

summed against a weight sequence w_n (harmonic numbers and relatives).
The spec, the SeriesResult and the weights are Frozen value classes.
Each weight family is one WeightKind subclass: value(n) evaluates w_n
from scratch, steps(n0) walks w_n0, w_n0+1, ... with compensated
accumulation so that a million steps stay within a couple of ulps of
value(n), and asymptotics() gives its growth n^shift (log n)^L. Terms
advance by one multiply-divide recurrence per index.

Before summing, the engine refuses terms that grow factorially (more
numerator than denominator shifts, the n! factors counted as shifts,
and no terminating numerator shift). On the unit circle it also
refuses sums whose complex exponent sigma = sum(a) - sum(b) - p +
shift has Re sigma >= -1 at r*x = 1 or >= 0 elsewhere, unless there are
more denominator than numerator shifts, so the terms decay factorially,
or a numerator shift is a non-positive integer, so the sum terminates.

The argument alone picks the rule. Inside the unit circle, and for
terminating sums on it, the engine sums directly with a geometric tail
bound. On the circle (|r*x| = 1) the terms of other sums decay only
algebraically, like n^sigma (log n)^L. There the engine keeps the
partial sums at the checkpoints N = round(2^(j/4)), j = 24..56, and at
each top T = 2^12, 2^13, 2^14 fits the 25 checkpoints T/64..T by least
squares to the tail model

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
import itertools
import math
import operator
from collections import deque

from ._frozen import Frozen
from .errors import (
    AccelerationBreakdown,
    DomainError,
    NonConvergentError,
    PoleError,
)
from .specialfn import _pole_index, harmonic, generalized_harmonic, pochhammer

__all__ = [
    "PochhammerRatioSeries",
    "SeriesResult",
    "Unit",
    "Harmonic",
    "HarmonicSqPlusGen2",
    "ReciprocalShift",
    "DigammaDiffSum",
    "LinearCombo",
    "WeightKind",
    "eval_weighted",
    "hyp2f1",
    "finite_difference",
]

DEFAULT_MAX_TERMS = 200000
DEFAULT_TOL_INSIDE = 1e-10   # default tol inside the unit circle
DEFAULT_TOL_UNIT = 1e-6      # default tol on the unit circle
_UNIT_BAND = 1e-12           # |r*x| within this of 1 counts as unit argument
_RATIO_TRUST = 0.99          # empirical ratio below this is always trusted
_RATIO_HARD_CAP = 0.99995    # never trust a geometric bound beyond this

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


# ---------------------------------------------------------------------------
# series specification


class PochhammerRatioSeries(Frozen):
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
        nums = tuple(complex(a) for a in numerator_shifts)
        dens = tuple(complex(b) for b in denominator_shifts)
        ratio = complex(geometric_ratio)
        if factorial_power != int(factorial_power) or factorial_power < 0:
            raise DomainError(f"factorial_power must be a non-negative integer, "
                              f"got {factorial_power!r}")
        if start_index not in (0, 1):
            raise DomainError(f"start_index must be 0 or 1, got {start_index!r}")
        for b in dens:
            if _pole_index(b) is not None:
                raise PoleError(f"denominator shift {b} hits a non-positive integer")
        Frozen.__init__(self, nums, dens, int(factorial_power), ratio,
                        start_index)

    def effective_exponent(self) -> complex:
        """Complex exponent of u_n at |r*x| = 1 for balanced shifts:
        u_n ~ n**sigma (r*x)**n with sigma = sum(a) - sum(b) - p, the n!
        factors counting as denominator shifts b = 1."""
        return (sum(self.numerator_shifts)
                - sum(self.denominator_shifts + (1.0,) * self.factorial_power))

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
    ("direct" or "extrapolated")."""

    __slots__ = ("value", "terms_used", "tail_bound", "converged", "method")


# ---------------------------------------------------------------------------
# weights


class WeightKind:
    """Base class for weight families; each subclass is the one definition
    of its family. The families below are also Frozen value classes whose
    fields are their __slots__; other subclasses need not be.

    value(n) recomputes w_n from scratch, the reference that tests compare
    the walk against. steps(n0) yields w_n0, w_n0+1, ... incrementally;
    running sums carry Kahan compensation so a 10^6-term walk stays
    within ~2 ulp of the fsum reference. asymptotics() gives (shift, L)
    with w_n ~ n^shift * (log n)^L at large n, the weight's part of the
    exponent sigma and the log power of the unit-circle tail model.
    """
    __slots__ = ()

    def value(self, n: int) -> complex:
        raise NotImplementedError

    def steps(self, n0: int):
        raise NotImplementedError

    def asymptotics(self) -> tuple[int, int]:
        return 0, 0


class Unit(Frozen, WeightKind):
    """w_n = 1."""

    __slots__ = ()

    def value(self, n):
        return 1.0

    def steps(self, n0):
        return itertools.repeat(1.0)


class Harmonic(Frozen, WeightKind):
    """w_n = H_{stride*n + offset}, stride in {1,2,3}, offset in {-1,0}."""

    __slots__ = ("stride", "offset")

    def __init__(self, stride=1, offset=0):
        if stride not in (1, 2, 3):
            raise DomainError(f"harmonic stride must be 1, 2 or 3, got {stride!r}")
        if offset not in (-1, 0):
            raise DomainError(f"harmonic offset must be -1 or 0, got {offset!r}")
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

    def asymptotics(self):
        return 0, 1


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


class ReciprocalShift(Frozen, WeightKind):
    """w_n = inner_n / (n + 1)."""

    __slots__ = ("inner",)

    def __init__(self, inner=Unit()):
        object.__setattr__(self, "inner", inner)

    def value(self, n):
        return self.inner.value(n) / (n + 1.0)

    def steps(self, n0):
        for n, w in enumerate(self.inner.steps(n0), n0 + 1):
            yield w / n

    def asymptotics(self):
        shift, logs = self.inner.asymptotics()
        return shift - 1, logs


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
        b2, ab = 2.0 * self.b, self.a + self.b + 0.5
        acc = 0j
        for k in range(n):
            acc += 2.0 / (b2 + k) - 1.0 / (ab + k)
        return acc

    def steps(self, n0):
        b2, ab = 2.0 * self.b, self.a + self.b + 0.5
        acc, c, k = self.value(n0), 0j, n0
        while True:
            yield acc
            y = (2.0 / (b2 + k) - 1.0 / (ab + k)) - c
            t = acc + y
            c = (t - acc) - y
            acc = t
            k += 1

    def asymptotics(self):
        return 0, 1


class LinearCombo(Frozen, WeightKind):
    """w_n = sum_i coeff_i * inner_i(n)."""

    __slots__ = ("parts",)  # of (coeff, WeightKind)

    def __init__(self, parts):
        norm = []
        for coeff, kind in parts:
            if not isinstance(kind, WeightKind):
                raise DomainError(f"LinearCombo parts need WeightKind entries, got {kind!r}")
            norm.append((complex(coeff), kind))
        object.__setattr__(self, "parts", tuple(norm))

    def value(self, n):
        return sum(c * kind.value(n) for c, kind in self.parts)

    def steps(self, n0):
        coeffs = tuple(c for c, _ in self.parts)
        for ws in zip(*(kind.steps(n0) for _, kind in self.parts)):
            yield sum(map(operator.mul, coeffs, ws))

    def asymptotics(self):
        shapes = [kind.asymptotics() for _, kind in self.parts]
        return max(sh for sh, _ in shapes), max(lg for _, lg in shapes)


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
    d = sum(map(operator.mul, vc, tail)) / vv
    c[k:] = [e - d * w for e, w in zip(tail, v)]


# ---------------------------------------------------------------------------
# the summation engine


def _first_term(spec: PochhammerRatioSeries, rx: complex) -> complex:
    """u_{n0}: (a)_1 = a, (a)_0 = 1, so both legal starts are cheap."""
    t = 1.0 + 0j
    if spec.start_index == 1:
        t = rx
        for a in spec.numerator_shifts:
            t *= a
        for b in spec.denominator_shifts:
            t /= b
    return t


def eval_weighted(spec: PochhammerRatioSeries, weight: WeightKind, x,
                  *, tol: float | None = None,
                  max_terms: int | None = None) -> SeriesResult:
    """Sum w_n * u_n(x) for n >= spec.start_index.

    The argument picks the rule and the default tol: DEFAULT_TOL_UNIT on
    the unit circle, DEFAULT_TOL_INSIDE elsewhere. A non-finite r*x raises
    DomainError, and factorially growing terms or a divergent sum on the
    circle raise NonConvergentError, before any term is summed (see the
    module docstring for the pre-checks).

    Inside the unit circle the sum is direct, stopping once three
    consecutive terms fall below tol*|S| and the geometric tail bound
    built from recent term ratios also meets the tolerance.

    On the unit circle (|r*x| = 1) a sum with a numerator shift at a
    non-positive integer terminates and takes the direct rule. Any other
    sum is extrapolated from a ladder: partial sums at the _GRID
    checkpoints, and at each top T in _TOPS = (2^12, 2^13, 2^14) the limit
    of the tail model fitted to the 25 checkpoints ending at T (see
    _limit_weights; model order _MODEL_ORDER = 4). The exponent
    s is sigma + 1 at r*x = 1 and sigma elsewhere on the circle, where
    sigma is the spec's complex exponent plus the weight's shift; the log
    power is the weight's (WeightKind.asymptotics). The same sigma drives
    the pre-check and the direct rule's drift clause. The error estimate
    at top T is

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
    if max_terms is None:
        max_terms = DEFAULT_MAX_TERMS
    if max_terms < 1:
        raise DomainError(f"max_terms must be positive, got {max_terms!r}")
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
    shift, logs = weight.asymptotics()
    sigma = spec.effective_exponent() + shift  # w_n u_n ~ n^sigma (r*x)^n
    if unit:
        # a terminating sum is finite: the direct rule below sums it exactly
        if all(_pole_index(a) is None for a in nums):
            # at r*x = 1 the partial sums need sigma < -1, elsewhere on the
            # circle the terms need sigma < 0; factorial decay needs neither
            limit = -1.0 if abs(rx - 1.0) <= 1e-9 else 0.0
            if excess >= 0 and sigma.real >= limit:
                raise NonConvergentError(
                    f"exponent {sigma.real:.3g} >= {limit:g} at |r*x| = 1 "
                    f"(r*x = {rx:.6g}); sum diverges")
            if max_terms < _TOPS[-1]:
                raise NonConvergentError(
                    f"unit-argument series sums up to {_TOPS[-1]} terms; "
                    f"budget {max_terms} is too small")
            return _eval_unit(spec, weight, rx, tol, sigma, logs)

    n0 = spec.start_index
    step = weight.steps(n0).__next__
    t = _first_term(spec, rx)

    S = 0j
    comp = 0j
    n = n0
    count = 0
    consec = 0
    prev_at = -1.0
    r_hist = deque(maxlen=3)      # last 3 term ratios
    at_hist = deque(maxlen=3)     # last 3 |term| values

    while True:
        w = step()
        term = t * w
        y = term - comp
        hi = S + y
        comp = (hi - S) - y
        S = hi
        count += 1
        at = abs(term)

        if prev_at > 0.0:
            r_hist.append(at / prev_at)
        elif prev_at == 0.0:
            # a nonzero term after an exact zero has no usable ratio; poison
            # the window so the geometric bound is not trusted through it
            r_hist.append(0.0 if at == 0.0 else 2.0)
        prev_at = at
        at_hist.append(at)

        scale = abs(S)
        if at <= tol * scale or at == 0.0:
            consec += 1
        else:
            consec = 0

        if consec >= 3 and count >= 6 and r_hist:
            r = max(r_hist)
            if r < _RATIO_HARD_CAP:
                tail = max(at_hist) * r / (1.0 - r)
                ok = r <= _RATIO_TRUST
                if not ok and sigma.real < 0.0 and count >= 10:
                    # ratios of an algebraically decaying tail drift down
                    # toward |r*x|, so a non-increasing recent window makes
                    # the geometric bound safe beyond the usual trust cap
                    ok = all(r_hist[i + 1] <= r_hist[i] * (1.0 + 1e-9)
                             for i in range(len(r_hist) - 1))
                if ok and tail <= tol * max(1.0, scale):
                    return SeriesResult(S, count, tail, True, "direct")

        if count >= max_terms:
            break

        # advance u_n -> u_{n+1}
        f = rx
        for a in nums:
            f *= a + n
        for b in dens:
            f /= b + n
        t *= f
        if p:
            t /= float(n + 1) ** p
        n += 1

    # budget exhausted: accept only if a trustworthy tail bound exists
    if r_hist:
        r = max(r_hist)
        if 0.0 <= r < _RATIO_HARD_CAP:
            tail = max(at_hist) * r / (1.0 - r)
            if tail <= tol * max(1.0, abs(S)):
                return SeriesResult(S, count, tail, True, "direct")
    raise NonConvergentError(
        f"no tolerance-{tol:g} tail bound after {count} terms "
        f"(|r*x| = {mag:.6g}, exponent {sigma.real:.3g})")


def _dot(weights, sums) -> complex:
    """sum_k w_k S_k for weights summing to 1, centred on the last S_k so
    that rounding scales with the spread of the sums, not their size."""
    ref = sums[-1]
    return ref + sum(w * (x - ref) for w, x in zip(weights, sums))


def _eval_unit(spec: PochhammerRatioSeries, weight: WeightKind, rx: complex,
               tol: float, sigma: complex, logs: int) -> SeriesResult:
    """The unit-circle rule of eval_weighted: a ladder of partial sums,
    cut at the first top whose fitted limit certifies.

    The fit amplifies noise in the partial sums, so the term recurrence
    here is compensated: each numerator shift a is paired with a
    denominator shift d (the n! factors count as d = 1), the step factor
    prod (a + n)/(d + n) is formed as 1 + g with g accumulated from the
    small ratios (a - d)/(d + n), and t + t*g is added with an error term.
    Unpaired shifts, if any, multiply in directly.
    """
    nums = spec.numerator_shifts
    dens = spec.denominator_shifts + (1.0,) * spec.factorial_power
    pairs = tuple((a - d, d) for a, d in zip(nums, dens))
    more, less = nums[len(pairs):], dens[len(pairs):]
    unpaired = more + less
    n = spec.start_index
    step = weight.steps(n).__next__
    t = _first_term(spec, rx)
    tc = 0j
    r = rx

    s = sigma
    theta = 0.0
    if abs(rx - 1.0) <= 1e-9:
        s += 1.0
    else:
        theta = cmath.phase(rx)

    S = comp = 0j
    abs_sum = 0.0
    sums = []
    done = 0
    for mark in _GRID:
        for _ in range(mark - done):
            term = t * step()
            y = term - comp
            hi = S + y
            comp = (hi - S) - y
            S = hi
            abs_sum += abs(term)
            # advance u_n -> u_{n+1} = r * u_n * (1 + g)
            g = 0j
            for delta, d in pairs:
                e = delta / (d + n)
                g += e + g * e
            inc = t * g + tc
            hi = t + inc
            back = hi - t
            tc = (t - (hi - back)) + (inc - back)
            if unpaired:
                r = rx
                for a in more:
                    r *= a + n
                for d in less:
                    r /= d + n
            t = hi * r
            tc *= r
            n += 1
        sums.append(S)
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
                + (mark + gain) * _EPS * abs_sum)
        if tail <= tol * max(1.0, abs(best)):
            return SeriesResult(best, mark, tail, True, "extrapolated")
    raise NonConvergentError(
        f"extrapolated error estimate {tail:.3g} exceeds tolerance {tol:g} "
        f"after {done} terms (|r*x| = {abs(rx):.6g}, "
        f"exponent {s:.3g}, log power {logs})")


def hyp2f1(a, b, c, x, *, tol: float = 1e-12,
           max_terms: int = DEFAULT_MAX_TERMS) -> complex:
    """Gauss 2F1 by its series, |x| <= 1 (see eval_weighted)."""
    spec = PochhammerRatioSeries((a, b), (c,), 1, 1.0, 0)
    return eval_weighted(spec, Unit(), x, tol=tol, max_terms=max_terms).value


# ---------------------------------------------------------------------------
# differentiation helper


def finite_difference(f, at, order: int = 1, h: float = 1e-3) -> complex:
    """Central difference with one Richardson pass: (4 D(h/2) - D(h)) / 3.

    order 1 or 2. Error is O(h^4) for smooth f.
    """
    at = complex(at)
    if order == 1:
        def d(hh):
            return (f(at + hh) - f(at - hh)) / (2.0 * hh)
    elif order == 2:
        f0 = f(at)

        def d(hh):
            return (f(at + hh) - 2.0 * f0 + f(at - hh)) / (hh * hh)
    else:
        raise ValueError(f"finite_difference order must be 1 or 2, got {order!r}")
    return (4.0 * d(h / 2.0) - d(h)) / 3.0
