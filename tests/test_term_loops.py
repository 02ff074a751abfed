"""The generated term loops against the loops they replaced.

series._kernel_source writes each term loop out per shape and weight
walk. The references below are the generic loops as they stood before
that: the direct rule forming its step factor shift by shift, and
_Walk.run looping over its pairs, both stepping every weight by its
steps() generator. Over seeded draws of shapes, shifts, arguments,
budgets and weights, the generated loops give the same values, term
counts, bounds, methods and error texts, float for float.
"""

import cmath
import itertools
import random
import re

import pytest

from hyperharmonic import (DigammaDiffSum, DigammaLog, DomainError, Harmonic,
                           HarmonicSqPlusGen2, HyperharmonicError,
                           LinearCombo, NonConvergentError,
                           PochhammerRatioSeries, SeriesResult, Unit,
                           WeightKind, eval_weighted, series)
from hyperharmonic.series import (_FINITE_EVERY, _RATIO_HARD_CAP,
                                  _RATIO_TRUST, _exponent, _kernel_source,
                                  _ratio, _start, _Walk)
from draw_digests import Zipped


class _Reciprocal(WeightKind):
    """w_n = 1 / (n + 1), a kind defined outside the package: it states no
    walk, so the loops call its own steps() per term."""

    def value(self, n):
        return 1.0 / (n + 1)

    def steps(self, n0):
        return (1.0 / (n + 1) for n in itertools.count(n0))


def _reference_direct(spec, weight, x, *, tol, max_terms):
    """The direct rule of eval_weighted with the generic loop it had
    before its loops were generated, for a sum that takes that rule,
    less the branch that once accepted a sum at the budget (the rule now
    certifies by its stop test alone)."""
    rx = spec.geometric_ratio * complex(x)
    mag = abs(rx)
    p = spec.factorial_power
    sigma = None
    n0 = spec.start_index
    step = weight.steps(n0).__next__
    w = step()
    t, rx, nums, dens = _start(spec, rx)
    m = float(n0)

    S = comp = 0.0
    count = consec = 0
    checked = 0
    check = min(max_terms, _FINITE_EVERY)
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

        w = step()
        f = rx
        for a in nums:
            f *= a + m
        for b in dens:
            f /= b + m
        t *= f
        m += 1.0
        if p:
            t /= m ** p

    if sigma is None:
        sigma = _exponent(spec, weight)
    raise NonConvergentError(
        f"no tolerance-{tol:g} tail bound after {count} terms "
        f"(|r*x| = {mag:.6g}, 1 - |r*x| = {1.0 - mag:.3g}, "
        f"exponent {sigma.real:.3g})")


class _ReferenceWalk(_Walk):
    """_Walk with the generic run it had before its loops were generated:
    g formed pair by pair, the weight from its generator."""

    __slots__ = ("step", "w")

    def __init__(self, spec, weight, rx):
        super().__init__(spec, weight, rx)
        self.step = weight.steps(self.n).__next__
        self.w = self.step()

    def run(self, count):
        pairs, rx, step, n0, n = (self.pairs, self.rx, self.step, self.n0,
                                  self.n)
        t, tc, S, comp = self.t, self.tc, self.S, self.comp
        w, abs_sum = self.w, self.abs_sum
        end = n + count
        while n < end:
            block = abs_sum
            stop = min(end, n0 + 4 ** (((n - n0).bit_length() + 1) // 2))
            m = float(n)
            for _ in range(stop - n):
                term = t * w
                y = term - comp
                hi = S + y
                comp = (hi - S) - y
                S = hi
                abs_sum += abs(term)
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
                w = step()
                m += 1.0
            n = stop
            self.blocks.append((n - 1, abs_sum - block))
        self.n, self.t, self.tc, self.S, self.comp = n, t, tc, S, comp
        self.w, self.abs_sum = w, abs_sum


def _outcome(sum_, spec, weight, x, tol, max_terms) -> str:
    try:
        res = sum_(spec, weight, x, tol=tol, max_terms=max_terms)
    except HyperharmonicError as exc:
        return f"{type(exc).__name__}: {exc}"
    return repr((res.value, res.terms_used, res.tail_bound, res.converged,
                 res.method))


def _weights(rng):
    """A weight of every kind: the built-ins, real and complex, a
    LinearCombo, a kind with its own steps(), and the zipped combinations
    of parts without pairs (a HarmonicSqPlusGen2 part or such a kind),
    which LinearCombo refuses."""

    def uni(lo, hi):
        return round(rng.uniform(lo, hi), 3)

    def cplx(lo, hi):
        return complex(uni(lo, hi), uni(-0.5, 0.5))

    return rng.choice((
        lambda: Unit(),
        lambda: Harmonic(rng.randint(1, 3), rng.randint(0, 2)),
        lambda: HarmonicSqPlusGen2(),
        lambda: DigammaDiffSum(uni(0.1, 2.0), uni(0.2, 2.0)),
        lambda: DigammaDiffSum(cplx(0.1, 2.0), cplx(0.2, 2.0)),
        lambda: DigammaLog(uni(0.2, 2.5), uni(0.2, 2.5), uni(-1.0, 1.0)),
        lambda: DigammaLog(cplx(0.2, 2.5), uni(0.2, 2.5), cplx(-1.0, 1.0)),
        lambda: LinearCombo(((uni(-2.0, 2.0), Harmonic(2)),
                             (cplx(-2.0, 2.0), Harmonic()))),
        lambda: Zipped(((cplx(-2.0, 2.0), HarmonicSqPlusGen2()),
                        (uni(-2.0, 2.0), Harmonic(3, 1)), (1.0, Unit()))),
        lambda: _Reciprocal(),
        lambda: Zipped(((2.0, _Reciprocal()), (-1.0, Harmonic()))),
    ))()


def _shifts(rng, count, lo, hi, complex_ok):
    def shift():
        re_ = round(rng.uniform(lo, hi), 3)
        if complex_ok and rng.random() < 0.5:
            return complex(re_, round(rng.uniform(-0.5, 0.5), 3))
        return re_
    return [shift() for _ in range(count)]


def _direct_draws(count=320, seed=20261):
    """(spec, weight, x, tol, max_terms) that take the direct rule: 0 to 4
    numerator and 0 to 3 denominator shifts, p = 0 to 3, real or complex
    shifts and r*x, start index 0 and 1, terminating shifts, |r*x| up to
    0.999 and on the circle (terminating or factorially decaying terms),
    budgets of 1 to 2,000 terms; then one sum whose terms overflow."""
    rng = random.Random(seed)
    for _ in range(count):
        k, l, p = rng.randint(0, 4), rng.randint(0, 3), rng.randint(0, 3)
        complex_ok = rng.random() < 0.5
        dens = _shifts(rng, l, 0.2, 3.0, complex_ok)
        nums = _shifts(rng, k, -1.5, 2.5, complex_ok)
        circle = rng.random() < 0.15 and (k < l + p or k > 0)
        if nums and (k > l + p or rng.random() < 0.1
                     or (circle and k >= l + p)):
            nums[0] = -float(rng.randint(0, 6))     # terminating
        mag = 1.0 if circle else round(rng.choice((
            rng.uniform(0.05, 0.95), rng.uniform(0.95, 0.999))), 3)
        rx = (cmath.rect(mag, round(rng.uniform(-3.1, 3.1), 3))
              if complex_ok else rng.choice((mag, -mag)))
        ratio = rng.choice((1.0, -1.0, 0.5) + ((1j,) if complex_ok else ()))
        budget = rng.choice((2000, round(2000 ** rng.random())))
        yield (PochhammerRatioSeries(nums, dens, p, ratio, rng.randint(0, 1)),
               _weights(rng), rx / ratio,
               rng.choice((1e-6, 1e-9, 1e-12, 1e-15)), budget)
    yield (PochhammerRatioSeries((300 + 1j, 300), (1.0,), 1, 1.0, 0),
           Harmonic(), 0.9j, 1e-10, 2000)


def _walk_draws(count=160, seed=20262):
    """(spec, weight, r*x) for _Walk: 0 to 4 numerator and 0 to 3
    denominator shifts, p = 0 to 3 (0 to 4 pairs), real or complex
    shifts, r*x on the unit circle, start index 0 and 1."""
    rng = random.Random(seed)
    for _ in range(count):
        k, l, p = rng.randint(0, 4), rng.randint(0, 3), rng.randint(0, 3)
        complex_ok = rng.random() < 0.5
        spec = PochhammerRatioSeries(_shifts(rng, k, -1.5, 2.5, complex_ok),
                                     _shifts(rng, l, 0.2, 3.0, complex_ok),
                                     p, 1.0, rng.randint(0, 1))
        rx = rng.choice((1.0, -1.0) + ((1j, cmath.exp(0.7j))
                                       if complex_ok else ()))
        yield spec, _weights(rng), rx


def _unit_draws(seed=20263):
    """(spec, weight, x, tol, max_terms) for the unit-circle rules, whose
    walks are _Walk's: balanced sums of real or complex shifts at r*x = 1
    and -1 with the weights that have an expansion (the anchored rule),
    1 to 4 pairs, p = 0 to 2; then ladder sums at r*x = -1 and e^(i
    theta) with the pair weights, a Zipped with a HarmonicSqPlusGen2
    part and a kind with its own steps()."""
    rng = random.Random(seed)
    for i in range(40):
        p = rng.randint(0, 2)
        complex_ok = i % 2 == 1
        dens = _shifts(rng, rng.randint(1, 4 - p), 0.2, 3.0, complex_ok)
        nums = _shifts(rng, len(dens) + p, -1.5, 2.5, complex_ok)
        # Re sigma in (-2.5, -1.1)
        nums[-1] += round(rng.uniform(-2.5, -1.1), 3) - (
            sum(nums) - sum(dens) - p).real
        weight = rng.choice((Unit(), Harmonic(rng.randint(1, 3),
                                              rng.randint(0, 2)),
                             HarmonicSqPlusGen2()))
        yield (PochhammerRatioSeries(nums, dens, p, 1.0, rng.randint(0, 1)),
               weight, rng.choice((1.0, -1.0)),
               rng.choice((1e-6, 1e-9, 1e-12)), rng.choice((128, 512, 4096)))
    ladder = (DigammaLog(0.3 + 0.1j, 0.6, 0.2), DigammaDiffSum(0.4, 0.7),
              Zipped(((0.5, HarmonicSqPlusGen2()), (1.0, Harmonic()))),
              _Reciprocal())
    for i, weight in enumerate(ladder):
        yield (PochhammerRatioSeries((0.5, 0.25 + 0.1j * i), (2.75,), 1, 1.0,
                                     i % 2),
               weight, (-1.0, cmath.exp(1.3j))[i % 2], 1e-6, 2 ** 14)


class TestDirectLoop:
    def test_draws_match_the_generic_loop(self):
        outcomes = []
        for spec, weight, x, tol, budget in _direct_draws():
            got = _outcome(eval_weighted, spec, weight, x, tol, budget)
            want = _outcome(_reference_direct, spec, weight, x, tol, budget)
            assert got == want, (spec, weight, x, tol, budget)
            outcomes.append(got)
        # every way out of the loop: certified, refused once the budget ran
        # out, and overflowed
        assert sum(o.endswith("'direct')") for o in outcomes) > 200
        assert any(o.startswith("NonConvergentError: no tolerance-")
                   for o in outcomes)
        assert outcomes[-1].startswith("DomainError: the terms overflowed")


class TestWalkLoop:
    COUNTS = (1, 3, 60, 200)

    def test_walks_match_the_generic_loop(self):
        for spec, weight, rx in _walk_draws():
            walk = _Walk(spec, weight, rx)
            ref = _ReferenceWalk(spec, weight, rx)
            for count in self.COUNTS:
                walk.run(count)
                ref.run(count)
                state = (walk.n, walk.t, walk.tc, walk.S, walk.comp,
                         walk.abs_sum, walk.blocks, walk.wstate[0])
                want = (ref.n, ref.t, ref.tc, ref.S, ref.comp, ref.abs_sum,
                        ref.blocks, ref.w)
                assert repr(state) == repr(want), (spec, weight, rx, count)

    def test_unit_circle_rules_match_the_generic_walk(self, monkeypatch):
        got = [_outcome(eval_weighted, *draw) for draw in _unit_draws()]
        monkeypatch.setattr(series, "_Walk", _ReferenceWalk)
        want = [_outcome(eval_weighted, *draw) for draw in _unit_draws()]
        assert got == want
        assert {o.rsplit(", ", 1)[-1] for o in got} == {"'anchored')",
                                                        "'extrapolated')"}


class TestKernelSource:
    """Each loop is one template: only the written-out lines differ
    between shapes and walks, never the control flow."""

    FORMS = (("pairs", 0), ("pairs", 1), ("pairs", 3), ("next",))
    SHAPES = {"direct": [(k, l, p) for k in range(5) for l in range(4)
                         for p in range(4)],
              "walk": [(k,) for k in range(6)]}
    CONTROL = re.compile(r"\b(if|elif|else|for|while|and|or)\b")

    @pytest.mark.parametrize("loop", SHAPES)
    def test_no_term_branches_on_shape_or_walk(self, loop):
        flows = set()
        for shape, form in itertools.product(self.SHAPES[loop], self.FORMS):
            source = _kernel_source(loop, shape, form)
            compile(source, "<kernel>", "exec")
            flows.add(tuple(line.strip() for line in source.splitlines()
                            if self.CONTROL.search(line)))
            # the weight reaches the loop only through its walk's state
            body = source.partition("while")[2].partition("\n    return")[0]
            assert "weight" not in body.replace("_exponent(spec, weight)", "")
        assert len(flows) == 1

    def test_step_factor_and_divisor_are_written_out(self):
        source = _kernel_source("direct", (2, 1, 2), ("pairs", 0))
        assert "t *= rx * (a0 + m) * (a1 + m) / (b0 + m)" in source
        assert "t /= m * m" in source
        assert "t /= m ** 3" in _kernel_source("direct", (0, 0, 3),
                                                ("pairs", 0))
        source = _kernel_source("walk", (3,), ("pairs", 0))
        assert "g = x0 / (d0 + m) + 0.0" in source
        assert source.count("g += e + g * e") == 2
