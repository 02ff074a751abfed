"""Every first-order weighted series of verify, checked by a complex step

A pair weight states w_n+1 - w_n = sum_i c_i / (a_i + n) (its pairs()),
and d/d eps (a + c eps)_n / (a)_n at eps = 0 is c sum_{k<n} 1/(a + k).
So the spec with one more numerator shift a_i + i c_i h and denominator
shift a_i per pair sums to S = sum u_n (1 + i h q_n), with q_n = sum_i c_i
sum_{k<n} 1/(a_i + k), to rounding at h = 1e-30 (Squire and Trapp, SIAM
Rev. 40 (1998)), and

    sum_{n >= n0} u_n w_n = Im S / h + (w_n0 - q_n0) Re S.

The stepped sum is unweighted: it shares the term recurrence and the
summation rules with the weighted one, and none of the weight code (the
pairs' walks, steps, expansion rows and kernels). It is summed at 1e-3
times the weighted sum's tol, since the stop test reads |S|, which the
real part dominates.

Covered: the sums that verify gives with weight Harmonic, DigammaDiffSum
or LinearCombo at real shifts, ratio and argument, at the registry
points of seeds 0-12, 101 and 202. A pair whose shift is a pole below
the start index (Harmonic(1, -1), whose w_n = H_(n-1) has the pair (1,
0)) cannot be a denominator shift; such a sum is skipped and counted.

    PYTHONPATH=src python tests/complex_step.py

prints the count covered, the count skipped and the worst gap against
its bound, and exits 1 if a gap exceeds its bound. It needs only the
standard library; tests/test_series.py runs the same check.
"""

import math
import sys

from hyperharmonic import (DigammaDiffSum, Harmonic, LinearCombo, PoleError,
                           PochhammerRatioSeries, Unit, build_registry,
                           eval_weighted, expr, verify)

SEEDS = (*range(13), 101, 202)
H = 1e-30
FIRST_ORDER = (Harmonic, DigammaDiffSum, LinearCombo)
# the stepped sum's tolerance, as a share of the weighted sum's
STEP_TOL = 1e-3
_EPS = sys.float_info.epsilon
_UNIT = Unit()


def _real(values) -> bool:
    return not any(complex(v).imag for v in values)


def stepped(spec, weight):
    """(the stepped unweighted spec, w_n0 - q_n0) of spec weighted by
    weight, or None where a pair's shift is a pole of the spec."""
    n0, pairs = spec.start_index, weight.pairs()
    try:
        unweighted = PochhammerRatioSeries(
            (*spec.numerator_shifts, *(a + 1j * c * H for c, a in pairs)),
            (*spec.denominator_shifts, *(a for _, a in pairs)),
            spec.factorial_power, spec.geometric_ratio, n0)
    except PoleError:
        return None
    below = math.fsum(c.real / (a.real + k) for c, a in pairs
                      for k in range(n0))
    return unweighted, weight.value(n0).real - below


def _steps(weight, n):
    """|q_n| over the pairs, the growth of the stepped sum's imaginary
    part against its real part at n terms."""
    return abs(math.fsum(c.real / (a.real + k) for c, a in weight.pairs()
                         for k in range(n)))


def check(spec, weight, x, tol, result):
    """(weighted value, stepped value, gap, bound) of one sum; None where
    stepped() skips it. The bound is the weighted sum's tail bound, the
    stepped sum's times the larger of (|q_N| + |w_n0 - q_n0|) and 1 at its
    N terms, and 16 ulps of the larger value."""
    step = stepped(spec, weight)
    if step is None:
        return None
    unweighted, shift = step
    res = eval_weighted(unweighted, _UNIT, x, tol=STEP_TOL * tol)
    value = res.value.imag / H + shift * res.value.real
    gap = abs(result.value - value)
    grow = max(1.0, _steps(weight, res.terms_used) + abs(shift))
    bound = (result.tail_bound + res.tail_bound * grow
             + 16.0 * _EPS * max(abs(result.value), abs(value)))
    return result.value, value, gap, bound


def covered_sums(seeds=SEEDS):
    """(spec, weight, x, tol, SeriesResult) of every first-order weighted
    sum at real arguments that verify gives at the registry points of
    seeds, in the order verify sums them."""
    sums = []
    summed = expr.eval_weighted

    def record(spec, weight, x, **kwargs):
        res = summed(spec, weight, x, **kwargs)
        if (isinstance(weight, FIRST_ORDER)
                and _real([v for pair in weight.pairs() for v in pair])
                and _real((*spec.numerator_shifts, *spec.denominator_shifts,
                           spec.geometric_ratio, x))):
            sums.append((spec, weight, x, kwargs["tol"], res))
        return res

    expr.eval_weighted = record
    try:
        for seed in seeds:
            registry = build_registry(seed)
            for ident_id in registry:
                verify(ident_id, registry=registry)
    finally:
        expr.eval_weighted = summed
    return sums


def run(seeds=SEEDS):
    """(covered, skipped, worst gap / bound, its sum, the sums whose gap
    exceeds the bound)."""
    covered = skipped = 0
    worst, worst_sum, failed = 0.0, None, []
    for spec, weight, x, tol, res in covered_sums(seeds):
        out = check(spec, weight, x, tol, res)
        if out is None:
            skipped += 1
            continue
        covered += 1
        _, _, gap, bound = out
        if gap > bound:
            failed.append((spec, weight, x, out))
        if gap / bound > worst:
            worst, worst_sum = gap / bound, (spec, weight, x, out)
    return covered, skipped, worst, worst_sum, failed


def main() -> int:
    covered, skipped, worst, worst_sum, failed = run()
    print(f"Python {sys.version.split()[0]}: {covered} weighted sums checked "
          f"by a complex step, {skipped} skipped (a pair at a pole below "
          f"the start index); worst gap {worst:.3g} of its bound")
    if worst_sum is not None:
        spec, weight, x, (value, step, gap, bound) = worst_sum
        print(f"  at {spec!r}, {weight!r}, x = {x!r}: {value!r} against "
              f"{step!r}, gap {gap:.3g}, bound {bound:.3g}")
    for spec, weight, x, (value, step, gap, bound) in failed:
        print(f"gap {gap:.3g} exceeds its bound {bound:.3g} at {spec!r}, "
              f"{weight!r}, x = {x!r}: {value!r} against {step!r}",
              file=sys.stderr)
    return 1 if failed or not covered else 0


if __name__ == "__main__":
    sys.exit(main())
