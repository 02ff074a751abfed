"""The pinned digests of the seeded draws of the series engine

sha256 over the outcomes (value, terms, bound and method, or the error)
of eval_weighted on seeded random draws: real specs at real arguments,
LinearCombo weights walked as their parts' zipped steps, complex terms
on the unit circle, and complex terms for the direct rule. The engine
adds floats in a fixed order, so every supported interpreter gives these
digests; a change that moves any outcome must re-pin them and say why.

    PYTHONPATH=src python tests/draw_digests.py

computes every digest and exits 1 unless each matches. It needs only the
standard library, so it also runs where the test extra is not
installed; tests/test_series.py imports the draws and digests from here.
"""

import cmath
import hashlib
import operator
import random
import re
import sys

from hyperharmonic import (DigammaDiffSum, DigammaLog, Harmonic,
                           HarmonicSqPlusGen2, HyperharmonicError,
                           LinearCombo, PochhammerRatioSeries, Unit,
                           WeightKind, eval_weighted)
from hyperharmonic.series import _lsum

# The digests were last re-pinned when every built-in weight became a
# walk of reciprocal pairs: Harmonic with stride 2 or 3 forms its s
# reciprocals as one step (and stride 3 its pairs (1/3, (o+r)/3)), so its
# walks and expansions moved in the last bits; DigammaLog's value(1), where
# walks from index 1 start, became the fsum of w0 and its three steps; and
# DigammaDiffSum and DigammaLog at r*x = 1 and -1 take the anchored rule,
# 128 terms where the ladder took 4,096 or refused a budget below 16,384.
# No other outcome moved.
#
# COMPLEX_UNIT_DRAWS_DIGEST was re-pinned since, when a pair weight's log
# power became 0 where its sum_i c_i is 0: the one DigammaLog draw on the
# ladder (at e^(i theta)) fits no log term, its value moved by 2.5e-15 and
# its bound from 7.7e-13 to 8.1e-12, at the same 4,096 terms.
#
# REAL_DRAWS_DIGEST and COMPLEX_DIRECT_DRAWS_DIGEST were re-pinned since,
# when the direct rule stopped accepting a sum at its budget from the
# ratios of its last terms: four draws that the budget cut before the
# stop test certified now raise "no tolerance-... tail bound after
# {budget} terms". They are real draw 125 (DigammaDiffSum at x = -0.994,
# budget 20), complex-direct draws 71 and 135 (terminating sums, budgets
# 2 and 4, bound 0) and complex-direct draw 159 (LinearCombo, p = 2, at
# |x| = 1, budget 8). No other outcome moved.
#
# sha256 over the outcomes of real_draws() (see draw_outcome) whose
# weight is not a LinearCombo; the kernels with _start and _pair_steps
# forced to complex give the same digest. Error texts are hashed without
# the "1 - |r*x| = ..." part of the direct rule's refusal
REAL_DRAWS_DIGEST = \
    "5ddd05a1a7724591f0d9343a29a8d03b14c71009416b072e8df925bfc9caa671"
# the same over the 57 LinearCombo draws, as the parts' zipped walks
# (Zipped) give them
ZIPPED_DRAWS_DIGEST = \
    "c4341f027b2c83ab533dc9609ac7210e834b34713c26ae34c6763350c051fd01"
# sha256 over the outcomes of complex_unit_draws()
COMPLEX_UNIT_DRAWS_DIGEST = \
    "ea5ec3518aa61775dba80a0a40d62a9699f869a253452afa2328eeffc46216d9"
# sha256 over the outcomes of complex_direct_draws()
COMPLEX_DIRECT_DRAWS_DIGEST = \
    "e9790e17c9c856ed2c5494492f89632b9a47b9f526e56df3363b16d996379578"
_GAP_CLAUSE = re.compile(r", 1 - \|r\*x\| = [^,]*")


def real_draws(count=300, seed=20181):
    """(spec, weight, x, tol, max_terms) with a real spec and real x: every
    weight kind (complex LinearCombo coefficients and a complex
    DigammaDiffSum among them), p = 0, 1, 2, start index 0 and 1,
    terminating shifts, x of both signs up to 0.97-0.999 and +-1, and
    budgets from 5 to 2,000 terms (100 or more at +-1); then six draws at
    +-1 with the digamma and LinearCombo weights, five of them balanced
    sums (the anchored rule, and the ladder for LinearCombo), at the
    ladder's 16,384-term budget."""
    rng = random.Random(seed)

    def uni(lo, hi):
        return round(rng.uniform(lo, hi), 3)

    weights = (
        lambda: Unit(),
        lambda: Harmonic(rng.randint(1, 3), rng.randint(0, 2)),
        lambda: HarmonicSqPlusGen2(),
        lambda: DigammaDiffSum(uni(0.1, 2.0), uni(0.2, 2.0)),
        lambda: DigammaDiffSum(complex(uni(0.1, 2.0), uni(-0.5, 0.5)),
                               uni(0.2, 2.0)),
        lambda: DigammaLog(uni(0.2, 2.5), uni(0.2, 2.5), uni(-1.0, 1.0)),
        lambda: LinearCombo(((uni(-2.0, 2.0), Harmonic()),
                             (uni(-2.0, 2.0), Unit()))),
        lambda: LinearCombo(((complex(uni(-2.0, 2.0), uni(-1.0, 1.0)),
                              Harmonic(2)), (1.0, Unit()))),
    )
    for _ in range(count):
        p = rng.choice((0, 1, 2))
        dens = [uni(0.2, 3.0) for _ in range(rng.choice((0, 1, 2)))]
        # as many numerator as denominator shifts (n! counted), or one fewer
        nums = [uni(-1.5, 2.5)
                for _ in range(max(0, len(dens) + p - rng.choice((0, 0, 1))))]
        if nums and rng.random() < 0.15:
            nums[0] = -float(rng.randint(0, 6))     # terminating
        start = rng.choice((0, 1))
        weight = rng.choice(weights)()
        budget = round(5 * 400 ** rng.random())
        u = rng.random()
        if u < 0.2:
            rx = rng.choice((1.0, -1.0))
            budget = round(100 * 20 ** rng.random())
            if nums and rng.random() < 0.8:
                # Re sigma in (-2.5, -1.1): a sum the unit-circle rules take
                sigma = sum(nums) - sum(dens) - p
                nums[-1] = round(nums[-1] + uni(-2.5, -1.1) - sigma, 3)
        elif u < 0.5:
            rx = rng.choice((1.0, -1.0)) * uni(0.97, 0.999)
        else:
            rx = uni(-0.95, 0.95)
        ratio = rng.choice((1.0, 1.0, -1.0, 0.5))
        yield (PochhammerRatioSeries(nums, dens, p, ratio, start), weight,
               rx / ratio, rng.choice((None, 1e-6, 1e-9, 1e-12)), budget)
    for rx, a, b, c in ((1.0, 0.5, 0.5, 2.5), (-1.0, 0.5, 0.5, 1.5),
                        (1.0, -3.0, 0.5, 1.5), (-1.0, 0.25, 0.75, 2.0),
                        (1.0, 0.3, 0.6, 2.2), (-1.0, 0.7, 0.2, 1.4)):
        yield (PochhammerRatioSeries((a, b), (c,), 1, 1.0, 0),
               rng.choice(weights[3:])(), rx, 1e-6, 2 ** 14)


def complex_unit_draws(count=48, seed=20182):
    """(spec, weight, x, tol, max_terms) on the unit circle with complex
    terms: balanced sums of complex shifts at r*x = 1 and -1 with every
    expansion weight (the anchored rule), 1 to 5 shift pairs, p = 0, 1,
    2, start index 0 and 1, and r = +-1 or +-i; then twelve ladder sums
    at r*x = e^(i theta) with the unit weight, the generator weights and
    the pair weights (one to three pairs, complex among them), at the
    ladder's 16,384-term budget."""
    rng = random.Random(seed)

    def uni(lo, hi):
        return round(rng.uniform(lo, hi), 3)

    def cplx(lo, hi):
        return complex(uni(lo, hi), uni(-0.5, 0.5))

    def spec(p, dens, target, ratio, start):
        nums = [cplx(-1.5, 2.5) for _ in range(len(dens) + p)]
        sigma = sum(nums) - sum(dens) - p
        nums[-1] += complex(round((target - sigma).real, 3),
                            round((target - sigma).imag, 3))
        return PochhammerRatioSeries(nums, dens, p, ratio, start)

    expansions = (
        lambda: Unit(),
        lambda: Harmonic(rng.randint(1, 3), rng.randint(0, 2)),
        lambda: HarmonicSqPlusGen2(),
    )
    for _ in range(count):
        p = rng.choice((0, 1, 2))
        dens = [cplx(0.2, 3.0) for _ in range(rng.choice((1, 2, 3)))]
        z = rng.choice((1.0, -1.0))
        ratio = rng.choice((1.0, -1.0, 1j, -1j))
        # Re sigma in (-2.5, -1.1)
        yield (spec(p, dens, cplx(-2.5, -1.1), ratio, rng.choice((0, 1))),
               rng.choice(expansions)(), z / ratio,
               rng.choice((1e-6, 1e-9, 1e-12)), rng.choice((512, 4096)))
    ladder = (
        lambda: Unit(),
        lambda: Harmonic(1, rng.randint(0, 2)),
        lambda: Harmonic(2),
        lambda: HarmonicSqPlusGen2(),
        lambda: LinearCombo(((2.0, Harmonic(2)), (-1.0, Harmonic()))),
        lambda: DigammaDiffSum(cplx(0.1, 2.0), uni(0.2, 2.0)),
        lambda: DigammaLog(cplx(0.2, 2.5), uni(0.2, 2.5), uni(-1.0, 1.0)),
    )
    for i in range(12):
        p = rng.choice((0, 1))
        dens = [cplx(0.2, 3.0) for _ in range(rng.choice((1, 2)))]
        theta = uni(0.3, 2.8) * rng.choice((1.0, -1.0))
        # Re sigma in (-2.5, -0.6)
        yield (spec(p, dens, cplx(-2.5, -0.6), 1.0, i % 2),
               ladder[i % len(ladder)](), cmath.exp(1j * theta), 1e-6,
               2 ** 14)


def draw_result(spec, weight, x, tol, max_terms):
    """The SeriesResult of a draw, or the error it raises."""
    try:
        return eval_weighted(spec, weight, x, tol=tol, max_terms=max_terms)
    except HyperharmonicError as exc:
        return exc


def draw_outcome(*draw) -> str:
    res = draw_result(*draw)
    if isinstance(res, HyperharmonicError):
        return f"{type(res).__name__}: {_GAP_CLAUSE.sub('', str(res))}"
    return repr((res.value, res.terms_used, res.tail_bound, res.method))


class Zipped(WeightKind):
    """w_n = sum_i coeff_i * inner_i(n), walked as its parts' zipped steps,
    each value added to 0 in part order as _lsum does: the generator that
    the term loops call per term (the walk ("next",)). Its parts need no
    pairs, so it also combines HarmonicSqPlusGen2, which LinearCombo
    refuses; like LinearCombo it gives no expansion, and its asymptotics
    are the largest of its parts'."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = tuple((complex(coeff), kind) for coeff, kind in parts)

    def value(self, n):
        return _lsum(c * kind.value(n) for c, kind in self.parts)

    def steps(self, n0):
        coeffs = tuple(c for c, _ in self.parts)
        walks = zip(*(kind.steps(n0) for _, kind in self.parts))
        return (_lsum(map(operator.mul, coeffs, ws)) for ws in walks)

    def asymptotics(self):
        shapes = [kind.asymptotics() for _, kind in self.parts]
        return max(sh for sh, _ in shapes), max(lg for _, lg in shapes)


def complex_direct_draws(count=240, seed=20183):
    """(spec, weight, x, tol, max_terms) for the direct rule with complex
    terms: 1 to 3 numerator and 0 to 2 denominator shifts, complex among
    them, p = 0, 1, 2 (the registry's shapes (2, 1, 1), (2, 0, 2) and
    (3, 2, 1) in half the draws), start index 0 and 1, terminating shifts,
    complex r*x up to |r*x| = 0.999, and on the circle the terminating and
    factorially decaying sums, with every weight kind and budgets of 1 to
    2,000 terms; then one sum whose terms overflow."""
    rng = random.Random(seed)

    def uni(lo, hi):
        return round(rng.uniform(lo, hi), 3)

    def cplx(lo, hi):
        return complex(uni(lo, hi), uni(-0.5, 0.5))

    weights = (
        lambda: Unit(),
        lambda: Harmonic(rng.randint(1, 3), rng.randint(0, 2)),
        lambda: HarmonicSqPlusGen2(),
        lambda: DigammaDiffSum(cplx(0.1, 2.0), cplx(0.2, 2.0)),
        lambda: DigammaLog(cplx(0.2, 2.5), uni(0.2, 2.5), cplx(-1.0, 1.0)),
        lambda: LinearCombo(((cplx(-2.0, 2.0), Harmonic(2)),
                             (uni(-2.0, 2.0), Harmonic()))),
        lambda: Zipped(((cplx(-2.0, 2.0), HarmonicSqPlusGen2()),
                        (1.0, Unit()))),
    )
    for _ in range(count):
        if rng.random() < 0.5:
            num_count, den_count, p = rng.choice(((2, 1, 1), (2, 0, 2),
                                                  (3, 2, 1)))
        else:
            p, den_count = rng.randint(0, 2), rng.randint(0, 2)
            num_count = rng.randint(1, max(1, min(3, den_count + p)))
        dens = [rng.choice((uni, cplx))(0.2, 3.0) for _ in range(den_count)]
        nums = [rng.choice((uni, cplx))(-1.5, 2.5) for _ in range(num_count)]
        ratio = rng.choice((1.0, -1.0, 1j, 0.5 - 0.5j))
        # on the circle only terminating sums and factorially decaying
        # terms take the direct rule
        circle = rng.random() < 0.15
        mag = 1.0 if circle else rng.choice((uni(0.05, 0.95),
                                             uni(0.95, 0.999)))
        rx = cmath.rect(mag, uni(-3.1, 3.1))
        if rng.random() < 0.1 or num_count > den_count + p or (
                circle and num_count == den_count + p):
            nums[0] = -float(rng.randint(0, 6))     # terminating
        budget = rng.choice((2000, round(2000 ** rng.random())))
        yield (PochhammerRatioSeries(nums, dens, p, ratio, rng.choice((0, 1))),
               rng.choice(weights)(), rx / ratio,
               rng.choice((None, 1e-6, 1e-9, 1e-12, 1e-15)), budget)
    yield (PochhammerRatioSeries((300 + 1j, 300), (1.0,), 1, 1.0, 0),
           Harmonic(), 0.9j, None, 2000)


def digests() -> dict:
    """The four digests, computed: name -> sha256 hex digest."""
    real, zipped = hashlib.sha256(), hashlib.sha256()
    for spec, weight, *rest in real_draws():
        if isinstance(weight, LinearCombo):
            zipped.update(draw_outcome(spec, Zipped(weight.parts),
                                       *rest).encode())
        else:
            real.update(draw_outcome(spec, weight, *rest).encode())
    unit, direct = hashlib.sha256(), hashlib.sha256()
    for draw in complex_unit_draws():
        unit.update(draw_outcome(*draw).encode())
    for draw in complex_direct_draws():
        direct.update(draw_outcome(*draw).encode())
    return {"REAL_DRAWS_DIGEST": real.hexdigest(),
            "ZIPPED_DRAWS_DIGEST": zipped.hexdigest(),
            "COMPLEX_UNIT_DRAWS_DIGEST": unit.hexdigest(),
            "COMPLEX_DIRECT_DRAWS_DIGEST": direct.hexdigest()}


def main() -> int:
    failed = 0
    for name, got in digests().items():
        expected = globals()[name]
        print(f"Python {sys.version.split()[0]}: {name} {got}")
        if got != expected:
            print(f"expected {expected}", file=sys.stderr)
            failed = 1
    return failed


if __name__ == "__main__":
    sys.exit(main())
