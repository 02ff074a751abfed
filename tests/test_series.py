"""Series engine: term recurrences, weight steppers, the unit-circle
rules (anchored tail and ladder), convergence guards, and the 2F1
wrapper."""

import cmath
import collections
import copy
import hashlib
import itertools
import math
import pickle
import random
import re

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperharmonic import (AccelerationBreakdown, DigammaDiffSum, DigammaLog,
                           DomainError, Harmonic, HarmonicSqPlusGen2,
                           HyperharmonicError, LinearCombo, NonConvergentError,
                           PochhammerRatioSeries, PoleError, Unit, WeightKind,
                           build_registry, eval_weighted, harmonic, hyp2f1,
                           pochhammer, series, verify)
from hyperharmonic.catalog import _derivative_sums
from hyperharmonic.series import (_EULER_AT_ZERO, _binomials, _moments,
                                  _pair_steps, _PairWeight, _rounding, _Walk,
                                  _walk_code)
from draw_digests import (COMPLEX_DIRECT_DRAWS_DIGEST,
                          COMPLEX_UNIT_DRAWS_DIGEST, REAL_DRAWS_DIGEST,
                          ZIPPED_DRAWS_DIGEST, Zipped, complex_direct_draws,
                          complex_unit_draws, draw_outcome, draw_result,
                          real_draws)
from sum_digests import (ANCHORED_DIGEST, ANCHORED_SUMS, SUM_DIGEST, SUMS,
                         registry_outcomes)
from sum_digests import registry_sums as walk_registry_sums
from sum_digests import digest as outcomes_digest
from oracles import alternating_mp, harmonic_gauss_mp, mp_number
import complex_step

_EPS = 2.0 ** -52
# frozen at 40 digits
EX1_VALUE = 0.2177751606844838071823350370302293726395
F21_R = 1.1779196550701314091744402021002208716499
F21_C = complex(1.0705542645157026013120740481842515651534,
                -0.0379394951411739184233317759007260169656)
F21_NEG = 0.9205459388780172109453484311563885565609
# sum_n ((1/2)_n / n!)^2 H_n / (n+1), frozen at 30 digits from
# mpmath.nsum(..., method='e'); nsum's default r+s method is off by 2e-4
RECIP_HARMONIC_SUM = "0.469830397557574505656697086112"
# sum_{n>=1} (1/2)_n^2 / ((6)_n n!) (H_n^2 + H_n^(2)), frozen at 30 digits
# as d^2/de^2 3F2(1/2, 1/2, 1; 6, 1 - e; 1) at e = 0, since (1)_n /
# (1 - e)_n = exp(e H_n + e^2 H_n^(2) / 2 + ...); the first 4,000 terms
# fall short of it by 6.2e-16
FAST_DECAY_SQ_SUM = "0.122095709112727969333428035183"
# sum_{n>=1} (2a)_n (2b)_n / ((a+b+1/2)_n (n+1)!) H_n at the (a, b) that
# TestReciprocalPair draws with the H_n weight at r*x = 1, frozen at 30
# digits (real and imaginary part) as d/de 3F2(2a, 2b, 1 + e; a+b+1/2, 2; 1)
# at e = 0, since (1 + e)_n / (1)_n = 1 + e H_n + O(e^2): mpmath.diff of
# mpmath.hyper at 45 digits, about 150 s each. They agree with THM-C's
# closed form to 1.2e-30.
RECIPROCAL_HARMONIC_SUMS = {
    ((-0.39-0.324j), (-0.373+0j)):
        ("-0.943726275067496219146135670178", "0.320544264281042559871179521959"),
    ((0.701-0.205j), (-0.862+0j)):
        ("-0.535802439623182772154963333618", "-0.237144550727319010720446973088"),
    ((-0.165+0j), (0.143-0.374j)):
        ("-0.269603173598729355305695498942", "0.275044473219533426104752082843"),
    ((-0.097+0j), (0.095+0j)):
        ("-0.0688499310285620672612558145415", "0.0"),
    ((-0.323+0j), (0.956+0j)):
        ("-1.05246920272933395636494730818", "0.0"),
    ((-0.363-0.27j), (0.703-0.306j)):
        ("-0.89517756625058051444562586646", "-0.0133166981445717379508616852835"),
    ((0.351+0.097j), (0.259-0.09j)):
        ("0.835124006623367336231341226762", "-0.0631114717488402133600454423191"),
    ((-0.6-0.369j), (0.627-0.15j)):
        ("-1.04149205773368295409872447332", "-0.0279370589242887399266130331326"),
    ((0.868-0.32j), (-1.392+0j)):
        ("-0.572819108313106593952535044648", "1.62855014443939469157711765322"),
    ((-0.041+0j), (0.13-0.1j)):
        ("-0.038897983259942703897251656371", "0.0257236296172727194673898158626"),
    ((-0.107+0j), (-0.207+0.049j)):
        ("0.300692680315140366752270654202", "-0.142466860187308539422007079127"),
    ((-0.165+0j), (0.111-0.062j)):
        ("-0.146501193232730959217879466881", "0.0646020544740644043074938449204"),
}


class TestSpecValidation:
    def test_bad_factorial_power(self):
        with pytest.raises(DomainError):
            PochhammerRatioSeries((0.5,), (), -1, 1.0, 0)
        with pytest.raises(DomainError):
            PochhammerRatioSeries((0.5,), (), 1.5, 1.0, 0)
        for p in (math.nan, math.inf):
            with pytest.raises(DomainError, match="non-negative integer"):
                PochhammerRatioSeries((0.5,), (1.5,), p)

    def test_bad_start_index(self):
        with pytest.raises(DomainError):
            PochhammerRatioSeries((0.5,), (), 1, 1.0, 2)

    def test_denominator_pole(self):
        with pytest.raises(PoleError):
            PochhammerRatioSeries((0.5,), (-1.0,), 1, 1.0, 0)
        with pytest.raises(PoleError):
            PochhammerRatioSeries((0.5,), (1e-14,), 1, 1.0, 0)

    @pytest.mark.parametrize("shift", [math.nan, math.inf, -math.inf,
                                       complex(0.5, math.nan)])
    def test_non_finite_numerator_shift(self, shift):
        with pytest.raises(DomainError, match="not all finite"):
            PochhammerRatioSeries((0.5, shift), (1.5,), 1, 1.0, 0)
        # finite shifts whose sum overflows are still shifts
        spec = PochhammerRatioSeries((1e308, 1e308), (1.5,), 1, 1.0, 0)
        assert spec.numerator_shifts == (1e308, 1e308)

    def test_effective_exponent(self):
        spec = PochhammerRatioSeries((0.5, 0.5), (1.5,), 1, 1.0, 0)
        assert spec.effective_exponent() == pytest.approx(-1.5, abs=1e-15)

    def test_term_matches_pochhammer_products(self):
        spec = PochhammerRatioSeries((0.3, 0.7 + 0.2j), (1.1,), 2, 0.5, 0)
        for n in (0, 1, 5, 23):
            want = (pochhammer(0.3, n) * pochhammer(0.7 + 0.2j, n)
                    / pochhammer(1.1, n)
                    / pochhammer(1.0, n) ** 2 * (0.5 * 0.8) ** n)
            got = spec.term(n, 0.8)
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want))

    def test_term_below_start_raises(self):
        spec = PochhammerRatioSeries((0.5,), (), 1, 1.0, 1)
        with pytest.raises(DomainError):
            spec.term(0)


class TestWeights:
    def test_harmonic_validation(self):
        with pytest.raises(DomainError):
            Harmonic(stride=4)
        for offset in (3, -2):
            with pytest.raises(DomainError):
                Harmonic(offset=offset)
        assert Harmonic(offset=1).value(3) == harmonic(4)
        assert Harmonic(offset=2).value(3) == harmonic(5)
        # H_(n-1) starts at n = 1: index 0 would be H_(-1)
        with pytest.raises(DomainError, match="starts at index 1, got 0"):
            Harmonic(1, -1).value(0)

    def test_linear_combo_validation(self):
        with pytest.raises(DomainError):
            LinearCombo(((2.0, "H"),))

    def test_shift_at_a_pole_is_refused_at_construction(self):
        # a shift a = -k with k at or past the start index would divide
        # by zero in the walk (once a bare ZeroDivisionError)
        class PolePairs(WeightKind):
            def pairs(self):
                return ((1.0, -2.0),)

        for make in (lambda: DigammaDiffSum(0.3, 0.0),
                     lambda: DigammaDiffSum(0.3, -1.5),
                     lambda: DigammaDiffSum(-1.7, 0.2),
                     lambda: DigammaLog(0.0, 0.5, 1.0),
                     lambda: DigammaLog(0.5, -3.0 + 1e-13, 1.0),
                     lambda: LinearCombo(((1.0, PolePairs()),))):
            with pytest.raises(PoleError, match="a pole at index"):
                make()
        with pytest.raises(DomainError, match="not finite"):
            DigammaDiffSum(math.nan, 0.25)
        # Harmonic(s, -1) has the shift 0 but starts at index 1, also as
        # a part
        for s in (1, 2, 3):
            part = Harmonic(s, -1)
            w = LinearCombo(((1.0, part),))
            assert w.value(5) == part.value(5) == harmonic(5 * s - 1)
            assert list(itertools.islice(w.steps(1), 5)) == pytest.approx(
                [part.value(n) for n in range(1, 6)], abs=1e-15)

    def test_value_that_is_not_finite_is_refused_at_construction(self):
        # a nan or inf coefficient, shift or start value was stored without
        # a word, and the sum then reported an overflow
        spec = PochhammerRatioSeries((0.5,), (1.5,), 1, 1.0, 0)

        class BadPairs(WeightKind):
            def __init__(self, c, a):
                self.pair = (c, a)

            def pairs(self):
                return (self.pair,)

        for bad in (math.nan, math.inf, -math.inf, complex(0.5, math.inf)):
            for make in (lambda: DigammaDiffSum(bad, 0.25),
                         lambda: DigammaDiffSum(0.3, bad),
                         lambda: DigammaLog(bad, 0.3, 1.0),
                         lambda: DigammaLog(0.2, bad, 1.0),
                         lambda: DigammaLog(0.2, 0.3, bad),
                         lambda: LinearCombo(((bad, Harmonic()),)),
                         lambda: LinearCombo(((bad, Unit()),)),
                         lambda: LinearCombo(((1.0, Harmonic()),
                                              (bad, Harmonic(2)))),
                         lambda: LinearCombo(((1.0, BadPairs(bad, 1.0)),)),
                         lambda: LinearCombo(((1.0, BadPairs(1.0, bad)),))):
                with pytest.raises(DomainError, match="not finite") as info:
                    eval_weighted(spec, make(), 0.5)
                assert info.traceback[-1].name in ("_set_pairs", "__init__")
                name = re.match(r"\w+", str(info.value)).group()
                assert name in ("DigammaDiffSum", "DigammaLog", "LinearCombo")
        # finite values whose product overflows
        with pytest.raises(DomainError, match="LinearCombo.*not finite"):
            LinearCombo(((1e300, BadPairs(1e10, 1.0)),))
        with pytest.raises(DomainError, match="DigammaDiffSum.*not finite"):
            DigammaDiffSum(0.3, 1e308)

    def test_harmonic_float_stride_is_stored_as_int(self):
        # 2.0 is a valid stride; it used to be stored as given, and the
        # walk died with a TypeError from range(2.0)
        w = Harmonic(stride=2.0, offset=-1.0)
        assert w == Harmonic(stride=2, offset=-1)
        assert type(w.stride) is int and type(w.offset) is int
        spec = PochhammerRatioSeries((0.5, 0.5), (), 2, 0.5, 1)
        got = eval_weighted(spec, w, 1.0, tol=1e-12)
        want = eval_weighted(spec, Harmonic(stride=2, offset=-1), 1.0, tol=1e-12)
        assert got == want
        with pytest.raises(DomainError):
            Harmonic(stride=2.5)

    def test_weight_value_reference(self):
        assert Unit().value(17) == 1.0
        assert Harmonic().value(6) == pytest.approx(49.0 / 20.0, abs=1e-14)
        assert Harmonic(stride=2).value(3) == pytest.approx(
            harmonic(6), abs=1e-14)
        assert Harmonic(stride=3, offset=-1).value(2) == pytest.approx(
            harmonic(5), abs=1e-14)
        h4 = harmonic(4)
        g4 = 1.0 + 1.0 / 4 + 1.0 / 9 + 1.0 / 16
        assert HarmonicSqPlusGen2().value(4) == pytest.approx(
            h4 * h4 + g4, abs=1e-13)
        combo = LinearCombo(((4.0, Harmonic(stride=2)), (-3.0, Harmonic())))
        assert combo.value(5) == pytest.approx(
            4.0 * harmonic(10) - 3.0 * harmonic(5), abs=1e-13)

    def test_harmonic_value_is_harmonic_bit_for_bit(self):
        # value(n) sums the terms 1/j one by one, as harmonic() does, also
        # at stride 3, whose pairs (1/3, (o + r)/3) are rounded
        for s in (1, 2, 3):
            for o in (-1, 0, 1, 2):
                w, n0 = Harmonic(s, o), 1 if o < 0 else 0
                for n in range(n0, 400):
                    assert w.value(n) == harmonic(s * n + o), (s, o, n)

    def test_digamma_diff_sum_brute_force(self):
        w = DigammaDiffSum(0.3 + 0.1j, 0.2)
        for n in (0, 1, 4, 9):
            acc = 0j
            for k in range(n):
                acc += 2.0 / (2.0 * 0.2 + k) - 1.0 / (0.3 + 0.1j + 0.2 + 0.5 + k)
            assert abs(w.value(n) - acc) <= 1e-13

    @pytest.mark.parametrize("weight", [
        Unit(),
        Harmonic(),
        Harmonic(stride=2),
        Harmonic(stride=3),
        HarmonicSqPlusGen2(),
        DigammaDiffSum(0.25, 0.4),
        DigammaDiffSum(0.3 + 0.1j, 0.2 - 0.2j),
        LinearCombo(((4.0, Harmonic(stride=2)), (-3.0, Harmonic()))),
        DigammaLog(0.25, 0.75, 1.2),
        DigammaLog(0.3 + 0.1j, 0.7 - 0.1j, -0.4 + 0.25j),
        Zipped(((0.5j, HarmonicSqPlusGen2()),
                (2.0, DigammaDiffSum(0.25, 0.4)), (-1.0, Unit()))),
    ])
    @pytest.mark.parametrize("n0", [0, 1, 7])
    def test_stepper_matches_reference(self, weight, n0):
        steps = weight.steps(n0)
        for n in range(n0, n0 + 60):
            got = next(steps)
            want = weight.value(n)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (weight, n)

    def test_stepper_offset_weights_from_one(self):
        steps = Harmonic(stride=2, offset=-1).steps(1)
        for n in range(1, 40):
            assert next(steps) == pytest.approx(harmonic(2 * n - 1), abs=1e-13)


def _weight_mp(kind, n):
    """w_n at 30 digits from the definition of a kind: harmonic numbers,
    H_n^2 + H_n^(2), and the digamma differences that DigammaDiffSum's and
    DigammaLog's sums telescope to."""
    mpmath.mp.dps = 30
    psi = mpmath.digamma
    if isinstance(kind, Unit):
        return mpmath.mpf(1)
    if isinstance(kind, Harmonic):
        return mpmath.harmonic(kind.stride * n + kind.offset)
    if isinstance(kind, HarmonicSqPlusGen2):
        return _gen2_mp(n)
    if isinstance(kind, LinearCombo):
        return sum(mp_number(c) * _weight_mp(part, n) for c, part in kind.parts)
    a, b = mp_number(kind.a), mp_number(kind.b)
    if isinstance(kind, DigammaDiffSum):
        ab = a + b + mpmath.mpf(0.5)
        return 2 * (psi(2 * b + n) - psi(2 * b)) - (psi(ab + n) - psi(ab))
    return (mp_number(kind.w0) + 2 * (psi(n + 1) - psi(1))
            - (psi(a + n) - psi(a)) - (psi(b + n) - psi(b)))


_NESTED = LinearCombo(((4.0, Harmonic(stride=2)), (-3.0, Harmonic())))


def _walked(weight, n0, count):
    """The first count values of weight.walk(n0), stepped by the lines
    that the term loops write out for it (_walk_code)."""
    form, state = weight.walk(n0)
    names, lines = _walk_code(form, "w")
    source = "\n".join([
        "def walked(state, m, count):",
        f"    {', '.join(names)}, = state",
        "    out = []",
        "    for _ in range(count):",
        "        out.append(w)",
        *(f"        {line}" for line in lines),
        "        m += 1.0",
        "    return out"])
    namespace = {}
    exec(source, namespace)
    return namespace["walked"](state, float(n0), count)


class TestPairs:
    """pairs() states a first-order weight's step as sum_i c_i / (a_i + n),
    and _pair_steps walks any list of them; LinearCombo merges its
    parts' pairs and walks them as one."""

    MARKS = (0, 1, 2, 3, 10, 100, 1000, 10 ** 4)

    @pytest.mark.parametrize("weight", [
        *(Harmonic(s, o) for s in (1, 2, 3) for o in (-1, 0, 1, 2)),
        DigammaDiffSum(0.25, 0.4),
        DigammaDiffSum(0.3 + 0.1j, 0.2 - 0.2j),
        DigammaLog(0.25, 0.75, 1.2),
        DigammaLog(0.3 + 0.1j, 0.7 - 0.1j, -0.4 + 0.25j),
        LinearCombo(((0.5j, _NESTED), (2.0, DigammaDiffSum(0.25, 0.4)),
                     (-1.0, Unit()), (1.5, Harmonic(3, 1)))),
        LinearCombo(((2.0, _NESTED), (1.0, LinearCombo(
            ((1.0, DigammaLog(0.25, 0.75, 1.2)), (3.0, Harmonic(2, 1))))))),
    ])
    def test_pair_walk_reproduces_the_weight(self, weight):
        # to 4 ulps of the 30-digit reference for n <= 10^4, and to 16 of
        # value(n), which fsums separately rounded steps (a LinearCombo
        # adds its parts' values)
        n0 = 1 if isinstance(weight, Harmonic) and weight.offset < 0 else 0
        walk = _pair_steps(weight.value(n0), weight.pairs(), n0)
        for n, got in zip(range(n0, self.MARKS[-1] + 1), walk):
            if n not in self.MARKS:
                continue
            want = complex(_weight_mp(weight, n))
            ulp = _EPS * max(1.0, abs(want))
            assert abs(got - want) <= 4.0 * ulp, (weight, n)
            assert abs(got - weight.value(n)) <= 16.0 * ulp, (weight, n)

    @pytest.mark.parametrize("a, b", [(0.25, 0.4), (1.3, 0.2), (0.1, 1.9),
                                      (0.3 + 0.1j, 0.2 - 0.2j),
                                      (1.7 - 0.4j, 0.6)])
    def test_digamma_diff_sum_value_within_two_ulps(self, a, b):
        # value(n) is the reference the walks are held to; a plain loop
        # over its n steps read 25 to 61 ulps off at n = 10^4 here
        weight = DigammaDiffSum(a, b)
        for n in self.MARKS[2:] + (4321,):
            want = complex(_weight_mp(weight, n))
            assert abs(weight.value(n) - want) <= 2 * math.ulp(abs(want)), n
        # the walks start from value(0) and value(1), which keep the bits of
        # the plain loop's first step, on floats for real parameters
        b2, ab = 2.0 * weight.b, weight.a + weight.b + 0.5
        real = not (weight.a.imag or weight.b.imag)
        first = 0j + (2.0 / (b2 + 0) - 1.0 / (ab + 0))
        assert repr(weight.value(0)) == repr(0.0 if real else 0j)
        assert repr(weight.value(1)) == repr(first.real if real else first)

    @pytest.mark.parametrize("a, b, w0", [(0.25, 0.75, 1.2),
                                          (1 / 6, 0.4, 0.3),
                                          (0.1, 1.9, -2.0),
                                          (0.3 + 0.1j, 0.7 - 0.1j,
                                           -0.4 + 0.25j)])
    def test_digamma_log_value_within_two_ulps(self, a, b, w0):
        # differences of digamma values read up to 6.8 ulps off here
        weight = DigammaLog(a, b, w0)
        for n in range(1, 12):
            want = complex(_weight_mp(weight, n))
            assert abs(weight.value(n) - want) <= 2 * math.ulp(abs(want)), n
        for n in self.MARKS[4:] + (4321,):
            want = complex(_weight_mp(weight, n))
            assert abs(weight.value(n) - want) <= 2 * math.ulp(abs(want)), n
        # the walks from n = 0 start at w0, on floats where all is real
        real = not any(complex(v).imag for v in (a, b, w0))
        assert repr(weight.value(0)) == repr(w0 if real else complex(w0))

    @pytest.mark.parametrize("offset, n0", [
        (o, n0) for o in (-1, 0, 1, 2) for n0 in (0, 1) if o + n0 >= 0])
    def test_unit_stride_harmonic_steps_are_its_pair_walk(self, offset, n0):
        # Harmonic(1, o)'s own loop and the walk of its one pair (1, o + 1)
        # agree bit for bit
        w = Harmonic(1, offset)
        own = w.steps(n0)
        walk = _pair_steps(w.value(n0), w.pairs(), n0)
        for _ in range(10 ** 4):
            a, b = next(own), next(walk)
            assert a == b and type(a) is type(b) is float

    def test_every_walk_is_the_walk_of_steps(self):
        class OwnSteps(WeightKind):
            def steps(self, n0):
                return itertools.repeat(0.0)

        class OwnDigammaSteps(DigammaDiffSum):
            def steps(self, n0):
                return itertools.repeat(0.0)

        # every built-in kind states the walk of its steps, bit for bit,
        # as the term loops write it out; a kind with its own steps and
        # no walk of its own, also a subclass of a built-in kind, has its
        # generator called per term
        own, own_digamma = OwnSteps(), OwnDigammaSteps(0.3, 0.2)
        for w in (Unit(), Harmonic(1, 2), Harmonic(2), Harmonic(3, 1),
                  HarmonicSqPlusGen2(), DigammaLog(0.25, 0.75, 1.2),
                  DigammaDiffSum(0.3 + 0.1j, 0.2 - 0.2j), _NESTED,
                  Zipped(_NESTED.parts),
                  Zipped(((0.5j, HarmonicSqPlusGen2()), (2.0, _NESTED))),
                  own, Zipped(((1.0, Harmonic()), (1.0, own))), own_digamma):
            for n0 in (0, 1):
                got = _walked(w, n0, 2000)
                want = list(itertools.islice(w.steps(n0), 2000))
                assert repr(got) == repr(want), (w, n0)
        assert own.walk(0)[0] == ("next",)
        assert own_digamma.walk(0)[0] == ("next",)
        res = eval_weighted(PochhammerRatioSeries((0.5,), (1.5,), 1, 0.5, 0),
                            own_digamma, 1.0)
        assert res.value == 0.0 and res.method == "direct"

    def test_first_order_kinds_walk_pairs_and_the_square_its_steps(self):
        # the term loops write out the pairs of every first-order kind;
        # H_n^2 + H_n^(2) has none and is walked by its generator, as is a
        # subclass with its own steps, which also loses the rows of the
        # kind's steps and takes the ladder at r*x = 1
        for w in (Unit(), *(Harmonic(s, o) for s in (1, 2, 3)
                            for o in (0, 1, 2)),
                  DigammaDiffSum(0.3 + 0.1j, 0.2 - 0.2j),
                  DigammaLog(0.25, 0.75, 1.2), _NESTED):
            assert w.walk(0)[0] == ("pairs", len(w.pairs())), w

        class OwnSquare(HarmonicSqPlusGen2):
            def steps(self, n0):
                return (w + 1.0 for w in HarmonicSqPlusGen2.steps(self, n0))

            def value(self, n):
                return HarmonicSqPlusGen2.value(self, n) + 1.0

        own = OwnSquare()
        assert HarmonicSqPlusGen2().walk(0)[0] == own.walk(0)[0] == ("next",)
        assert own.expansion(10, 65) is None and own._expansions == {}
        ident = build_registry(0)["THM-A2"]
        spec, weight, x = ident.rhs.bind(ident.sample_points[0])
        assert type(weight) is HarmonicSqPlusGen2
        res = eval_weighted(spec, weight, x, tol=ident.tol)
        assert res.method == "anchored"
        res_own, res_unit = (eval_weighted(spec, w, x, tol=ident.tol)
                             for w in (own, Unit()))
        assert res_own.method == "extrapolated"
        assert abs(res_own.value - res.value - res_unit.value) <= (
            res_own.tail_bound + res.tail_bound + res_unit.tail_bound)

    def test_gauss_weight_is_one_pair_on_floats(self):
        # 2 H_2n - H_n = sum_{k<n} 1/(k + 1/2) = psi(n + 1/2) - psi(1/2)
        w = LinearCombo(((2.0, Harmonic(stride=2)), (-1.0, Harmonic())))
        assert w.pairs() == ((1.0, 0.5),)
        mpmath.mp.dps = 30
        half = mpmath.mpf(0.5)
        for n, got in zip(range(1, 4097), w.steps(1)):
            assert type(got) is float
            if n in self.MARKS or n == 4096:
                want = mpmath.digamma(n + half) - mpmath.digamma(half)
                assert abs(got - float(want)) <= 2.0 * _EPS * float(want), n

    def test_merging_drops_zeros_and_keeps_unit_constants(self):
        assert _NESTED.pairs() == ((2.0, 0.5), (-1.0, 1.0))
        assert Unit().pairs() == () and HarmonicSqPlusGen2().pairs() is None
        w = LinearCombo(((2.0, Harmonic()), (3.0, Unit()),
                         (-2.0, Harmonic())))
        assert w.pairs() == ()
        assert list(itertools.islice(w.steps(0), 3)) == [3.0] * 3
        w = LinearCombo(((1.0, Harmonic(stride=3)), (-3.0, Harmonic())))
        assert [a for _, a in w.pairs()] == [1.0 / 3.0, 2.0 / 3.0, 1.0]

    def test_complex_coefficient_walks_in_complex(self):
        w = LinearCombo(((0.5j, Harmonic()), (2.0, Unit())))
        assert w.pairs() == ((0.5j, 1.0),)
        for n, got in zip(range(30), w.steps(0)):
            assert type(got) is complex
            assert abs(got - (2.0 + 0.5j * harmonic(n))) <= 2.0 * _EPS * 4

    def test_part_without_pairs_is_refused(self):
        # a combination is a pair weight: a part whose pairs() is None, a
        # log^2 weight or a kind defined elsewhere, has none to merge
        class OwnSteps(WeightKind):
            def steps(self, n0):
                return itertools.repeat(0.0)

        own = OwnSteps()
        for part in (HarmonicSqPlusGen2(), own):
            with pytest.raises(DomainError, match=re.escape(repr(part))):
                LinearCombo(((1.0, Harmonic()), (2.0, part)))

    def test_combination_is_a_pair_weight(self):
        # its walk is its merged pairs' walk, stated once per start index
        w = LinearCombo(((2.0, Harmonic(stride=2)), (-1.0, Harmonic())))
        assert isinstance(w, _PairWeight)
        assert w.walk(1) is w.walk(1)
        assert w.walk(1)[0] == ("pairs", 1) and type(w.walk(1)[1][0]) is float
        assert w.asymptotics() == (0, 1)
        # on floats where the value and the pairs are real, also where
        # there are no pairs, and complex otherwise
        assert type(LinearCombo(((1.0, Unit()),)).walk(0)[1][0]) is float
        assert type(LinearCombo(((1j, Unit()),)).walk(0)[1][0]) is complex
        # H_2n - H_n tends to log 2: sum_i c_i = 0, so log power 0
        assert LinearCombo(((1.0, Harmonic(stride=2)),
                            (-1.0, Harmonic()))).asymptotics() == (0, 0)


class TestEvalWeighted:
    def test_frozen_half_kernel_value(self):
        spec = PochhammerRatioSeries((0.5, 0.5), (), 2, 0.5, 1)
        res = eval_weighted(spec, Harmonic(), 1.0, tol=1e-13)
        assert res.converged and res.method == "direct"
        assert res.terms_used <= 300
        assert abs(res.value - EX1_VALUE) < 1e-12

    def test_binomial_series_closed_form(self):
        spec = PochhammerRatioSeries((1.25,), (), 1, 1.0, 0)
        res = eval_weighted(spec, Unit(), 0.4, tol=1e-12)
        assert abs(res.value - 0.6 ** -1.25) <= 1e-11

    def test_terminating_series_is_exact(self):
        spec = PochhammerRatioSeries((-3.0,), (1.5,), 1, 1.0, 0)
        res = eval_weighted(spec, Unit(), 0.7, tol=1e-12)
        want = sum(spec.term(n, 0.7) for n in range(4))
        assert abs(res.value - want) < 1e-14

    def test_diverges_outside_disk(self):
        spec = PochhammerRatioSeries((0.5,), (), 0, 1.0, 0)
        with pytest.raises(NonConvergentError):
            eval_weighted(spec, Unit(), 1.2)

    def test_unit_argument_needs_no_flag(self):
        # 2F1(1/2, 1/2; 3/2; 1) = arcsin(1) = pi/2: at r*x = 1 the argument
        # and the unit weight alone pick the anchored rule
        spec = PochhammerRatioSeries((0.5, 0.5), (1.5,), 1, 1.0, 0)
        res = eval_weighted(spec, Unit(), 1.0)
        assert res.converged and res.method == "anchored"
        assert abs(res.value - math.pi / 2.0) <= res.tail_bound

    def test_default_tolerance_near_the_circle_is_the_inside_one(self):
        # 2F1(1/2, 1/2; 1; 0.97): |x| < 1, so tol=None means 1e-10 however
        # close x comes to the circle
        mpmath.mp.dps = 30
        spec = PochhammerRatioSeries((0.5, 0.5), (1.0,), 1, 1.0, 0)
        res = eval_weighted(spec, Unit(), 0.97, tol=None)
        assert res.method == "direct"
        assert res.tail_bound <= 1e-10 * max(1.0, abs(res.value))
        want = complex(mpmath.hyp2f1(0.5, 0.5, 1, 0.97))
        assert abs(res.value - want) <= res.tail_bound

    @pytest.mark.parametrize("x", [1.0 - 1e-13, 1.0 - 2e-12])
    def test_just_inside_the_circle_is_not_at_one(self, x):
        # 2F1(0.3, 0.4; 0.75; x) falls short of its value 4.7612 at 1 by
        # the order of (1 - x)^0.05, about 0.85 at 1 - 1e-13; summed as at
        # x = 1, the first call returned 4.7612 with a bound of 1.9e-11
        spec = PochhammerRatioSeries((0.3, 0.4), (0.75,), 1, 1.0, 0)
        try:
            res = eval_weighted(spec, Unit(), x, tol=1e-10)
        except NonConvergentError:
            return
        mpmath.mp.dps = 30
        want = complex(mpmath.hyp2f1(0.3, 0.4, 0.75, x))
        assert abs(res.value - want) <= res.tail_bound

    def test_refusal_inside_the_disk_gives_its_distance_to_the_circle(self):
        # |r*x| = 1 - 1e-13 prints as 1 at six digits, which read as a
        # point on the circle; 1 - |r*x| tells the two apart
        spec = PochhammerRatioSeries((0.3, 0.4), (0.75,), 1, 1.0, 0)
        with pytest.raises(NonConvergentError, match=(
                r"^no tolerance-1e-10 tail bound after 200000 terms "
                r"\(\|r\*x\| = 1, 1 - \|r\*x\| = 1e-13, "
                r"exponent -1\.05\)$")):
            eval_weighted(spec, Unit(), 1 - 1e-13, tol=1e-10)

    def test_no_rule_keyword(self):
        spec = PochhammerRatioSeries((0.5, 0.5), (1.5,), 1, 1.0, 0)
        with pytest.raises(TypeError):
            eval_weighted(spec, Unit(), 1.0, accel=True)
        with pytest.raises(TypeError):
            hyp2f1(0.5, 0.5, 1.5, 1.0, accel=True)

    def test_divergent_at_one_even_with_accel(self):
        # effective exponent -0.5 >= -1: partial sums grow without bound
        spec = PochhammerRatioSeries((0.5, 0.5), (0.5,), 1, 1.0, 0)
        with pytest.raises(NonConvergentError):
            eval_weighted(spec, Unit(), 1.0)

    def test_nondecaying_alternating_raises(self):
        # terms grow like n^0.5 at |x| = 1, so even Abel-style averaging
        # is refused
        spec = PochhammerRatioSeries((1.5,), (), 1, -1.0, 0)
        with pytest.raises(NonConvergentError):
            eval_weighted(spec, Unit(), 1.0)

    def test_factorially_growing_terms_raise_before_summing(self):
        # 2F0(1, 1; ; 1/2) = sum n! 2^-n: more numerator than denominator
        # shifts and none terminates, so the terms grow factorially
        class Counted(WeightKind):
            def __init__(self):
                self.advanced = 0

            def steps(self, n0):
                while True:
                    self.advanced += 1
                    yield 1.0

        spec = PochhammerRatioSeries((1.0, 1.0), (), 1, 1.0, 0)
        weight = Counted()
        with pytest.raises(NonConvergentError, match="grow factorially"):
            eval_weighted(spec, weight, 0.5)
        assert weight.advanced == 0

    @pytest.mark.parametrize("ratio, x", [
        (1.0, math.nan), (1.0, math.inf), (1.0, complex(0.0, -math.inf)),
        (1e200, 1e200), (0.0, math.inf)])
    def test_non_finite_argument_raises_before_summing(self, ratio, x):
        # r*x = nan used to walk 200,000 terms and then raise
        # NonConvergentError; r*x = inf raised "exceeds 1"
        class Counted(WeightKind):
            def __init__(self):
                self.advanced = 0

            def steps(self, n0):
                while True:
                    self.advanced += 1
                    yield 1.0

        spec = PochhammerRatioSeries((0.5, 0.5), (), 2, ratio, 0)
        weight = Counted()
        with pytest.raises(DomainError, match="not finite"):
            eval_weighted(spec, weight, x)
        assert weight.advanced == 0

    @pytest.mark.parametrize("p, want", [(1, 37.0 / 64.0), (0, -1.0 / 32.0)])
    def test_terminating_numerator_excess_sums(self, p, want):
        # 2F0(-3, 1/2; ; 1/2) (p = 1) and sum (-3)_n (1/2)_n 2^-n (p = 0)
        # stop at n = 3
        spec = PochhammerRatioSeries((-3.0, 0.5), (), p, 1.0, 0)
        res = eval_weighted(spec, Unit(), 0.5, tol=1e-12)
        assert res.value == want

    def test_budget_exhaustion_raises(self):
        spec = PochhammerRatioSeries((0.5, 0.5), (1.5,), 1, 1.0, 0)
        with pytest.raises(NonConvergentError):
            eval_weighted(spec, Unit(), 0.5, tol=1e-10, max_terms=5)
        # at the budget the ratios of the last terms certify nothing: from
        # them 2F1(5, 5.5; 2; -0.998) was certified as 275,249 (mpmath:
        # -0.00119), with H_n as -247,555 (-0.0498), and sum x^n at 0.999
        # with a bound of 1.3e-84 against an error of 5e-13
        gauss = PochhammerRatioSeries((5.0, 5.5), (2.0,), 1, 1.0, 0)
        for spec, weight, x in ((gauss, Unit(), -0.998),
                                (gauss, Harmonic(), -0.998),
                                (PochhammerRatioSeries((), (), 0, 1.0, 0),
                                 Unit(), 0.999)):
            with pytest.raises(NonConvergentError,
                               match="after 200000 terms"):
                eval_weighted(spec, weight, x, tol=1e-10)

    @pytest.mark.parametrize("budget", [1, 2, 3, 4, 5, 6])
    def test_budget_below_the_ratio_window(self, budget):
        # at x = 0 only u_0 = 1 is nonzero, so the tail bound is 0 once the
        # stop test may run, from the sixth term on; a smaller budget is
        # refused, not certified by the ratios of the terms summed so far
        spec = PochhammerRatioSeries((0.5,), (), 1, 1.0, 0)
        if budget < 6:
            with pytest.raises(NonConvergentError,
                               match=f"after {budget} terms"):
                eval_weighted(spec, Unit(), 0.0, max_terms=budget)
            return
        res = eval_weighted(spec, Unit(), 0.0, max_terms=budget)
        assert (res.value, res.terms_used, res.tail_bound) == (1, 6, 0)

    def test_a_nonzero_term_after_a_zero_gives_no_ratio(self):
        # w_3 = 0, so the fifth term follows an exact zero: its ratio
        # poisons the window instead of reading as 0 (a zero tail), and the
        # sum stops at the eighth term, the first window without it, where
        # with w_3 = 1 it stops at the sixth
        class Gap(WeightKind):
            def value(self, n):
                return 0.0 if n == 3 else 1.0

            def steps(self, n0):
                return map(self.value, itertools.count(n0))

        spec = PochhammerRatioSeries((0.5,), (), 1, 1.0, 0)
        assert eval_weighted(spec, Unit(), 1e-20).terms_used == 6
        assert eval_weighted(spec, Gap(), 1e-20).terms_used == 8

    def test_overflowing_terms_raise_at_a_checkpoint(self):
        # 2F1(300, 300; 1; 0.9) is about 6e770: the terms overflow a float
        # by n = 240, and the sum stops at the next finiteness checkpoint
        # instead of walking its whole budget
        class Counting(WeightKind):
            def __init__(self):
                self.steps_taken = 0

            def value(self, n):
                return 1.0

            def steps(self, n0):
                while True:
                    yield 1.0
                    self.steps_taken += 1

        w = Counting()
        spec = PochhammerRatioSeries((300.0, 300.0), (1.0,), 1, 1.0, 0)
        with pytest.raises(DomainError, match="terms overflowed"):
            eval_weighted(spec, w, 0.9, tol=1e-12)
        assert w.steps_taken < 2000

    def test_bad_budget(self):
        spec = PochhammerRatioSeries((0.5,), (), 1, 1.0, 0)
        with pytest.raises(DomainError):
            eval_weighted(spec, Unit(), 0.5, max_terms=0)
        # a whole budget is used, and named, as the int it equals: True
        # once passed as 1 and was named "True"
        for budget, n in ((True, 1), (2.0, 2)):
            with pytest.raises(NonConvergentError,
                               match=f" after {n} terms "):
                eval_weighted(spec, Unit(), 0.5, max_terms=budget)

    def test_bad_budget_raises_before_summing(self):
        # max_terms = nan never met the budget tests (sum x^n at x =
        # 0.99999 ran without end), and 2.5 stopped after 3 terms; the
        # direct rule, the anchored rule and the ladder now refuse them
        spec = PochhammerRatioSeries((0.5, 0.5), (1.5,), 1, 1.0, 0)
        for budget in (math.nan, math.inf, 2.5, 0):
            for x in (0.5, 1.0, cmath.exp(2j)):
                with pytest.raises(DomainError, match="whole number >= 1"):
                    eval_weighted(spec, Unit(), x, max_terms=budget)
            with pytest.raises(DomainError, match="whole number >= 1"):
                hyp2f1(0.5, 0.5, 1.5, 0.5, max_terms=budget)

    def test_bad_tolerance_raises_before_summing(self):
        # a negative or nan tol ran the direct rule to its budget (200,000
        # terms) and the anchored rule to 131,072 terms before raising, and
        # tol = inf certified after 6 terms; the direct rule, the anchored
        # rule at 1 and -1 and the ladder now refuse it first
        spec = PochhammerRatioSeries((0.5, 0.5), (1.5,), 1, 1.0, 0)
        for tol in (0.0, -1e-8, math.nan, math.inf):
            for x in (0.5, 1.0, -1.0, cmath.exp(2j)):
                with pytest.raises(DomainError, match="tol must be finite"):
                    eval_weighted(spec, Unit(), x, tol=tol)
            with pytest.raises(DomainError, match="tol must be finite"):
                hyp2f1(0.5, 0.5, 1.5, 0.5, tol=tol)

    def test_alternating_unit_argument_accelerated(self):
        # sum (1/2)_n (1/2)_n / ((3/2)_n n!) (-1)^n = asinh(1); a
        # LinearCombo has no expansion, so it keeps the ladder
        spec = PochhammerRatioSeries((0.5, 0.5), (1.5,), 1, 1.0, 0)
        res = eval_weighted(spec, LinearCombo(((1.0, Unit()),)), -1.0,
                            tol=1e-9)
        assert res.method == "extrapolated"
        assert abs(res.value - math.asinh(1.0)) < 1e-9

    def test_log_series_at_minus_one(self):
        assert abs(hyp2f1(1.0, 1.0, 2.0, -1.0, tol=1e-9)
                   - math.log(2.0)) < 1e-9

    @given(st.floats(min_value=-2.5, max_value=2.5),
           st.floats(min_value=-0.7, max_value=0.7))
    @settings(max_examples=30, deadline=None)
    def test_binomial_series_property(self, a, q):
        # sum (a)_n / n! q^n = (1-q)^(-a)
        spec = PochhammerRatioSeries((a,), (), 1, 1.0, 0)
        res = eval_weighted(spec, Unit(), q, tol=1e-12)
        want = (1.0 - q) ** -a
        assert abs(res.value - want) <= 1e-9 * max(1.0, abs(want))


LADDER_TOPS = (4096, 8192, 16384)


def _gauss_mp(a, b, c, start=0):
    """2F1(a, b; c; 1) from the term n = start at 30 digits (the first
    term is dropped before rounding, which keeps a small sum exact)."""
    mpmath.mp.dps = 30
    return complex(mpmath.hyp2f1(a, b, c, 1) - start)


class TestAnchoredTail:
    """The rule at r*x = 1 for weights with an expansion (the unit weight):
    2N terms plus the anchored Euler-Maclaurin tail, N doubled until the
    estimate certifies; mpmath at 30 digits is the oracle."""

    def test_slowest_unit_weight_case_against_mpmath(self):
        # 2F1(a, b; a+b+1/2; 1): terms ~ n^-3/2
        for a, b in ((0.3 + 0.1j, 0.2 - 0.2j), (0.25 - 0.3j, 0.4 + 0.15j)):
            spec = PochhammerRatioSeries((a, b), (a + b + 0.5,), 1, 1.0, 0)
            res = eval_weighted(spec, Unit(), 1.0, tol=1e-10)
            want = _gauss_mp(a, b, a + b + 0.5)
            assert res.converged and res.method == "anchored"
            assert res.terms_used == 128
            assert abs(res.value - want) <= res.tail_bound, (a, b)
            assert res.tail_bound <= 1e-10 * max(1.0, abs(res.value))
            assert hyp2f1(a, b, a + b + 0.5, 1.0, tol=1e-10) == res.value

    def test_rounding_floor_case_certifies(self):
        # the ladder's rounding term (2^12 eps sum |t_n|) read 3.84e-12
        # here and raised; 128 terms keep it near 3e-14
        spec = PochhammerRatioSeries((0.3, 0.4), (3.0,), 1, 1.0, 0)
        res = eval_weighted(spec, Unit(), 1.0, tol=1e-13)
        want = _gauss_mp(0.3, 0.4, 3.0)
        assert res.method == "anchored" and res.terms_used == 128
        assert abs(res.value - want) <= res.tail_bound
        assert res.tail_bound <= 1e-13 * abs(res.value)

    @pytest.mark.parametrize("a, b, c", [
        (0.3, 0.4, 0.75),                      # Re(c - a - b) = 0.05
        (0.3 + 0.2j, 0.4 - 0.1j, 0.75 + 0.1j),
        (0.25 - 0.3j, 0.1, 0.45 - 0.3j),
        (0.2, 0.5, 0.8),
        (-0.4 + 0.3j, 0.6, 0.45 + 0.3j),
    ])
    def test_small_exponent_excess_and_complex_shifts(self, a, b, c):
        # terms ~ n^-(1 + Re(c-a-b)) with complex shifts: the tail is most
        # of the sum, and the anchored expansion still carries it
        spec = PochhammerRatioSeries((a, b), (c,), 1, 1.0, 0)
        res = eval_weighted(spec, Unit(), 1.0, tol=1e-12)
        want = _gauss_mp(a, b, c)
        assert res.method == "anchored" and res.terms_used == 128
        assert abs(res.value - want) <= res.tail_bound, (a, b, c)
        assert res.tail_bound <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("a, b, c", [
        (0.4, 0.6, 2.0), (0.5, 2.0 / 3.0, 2.5), (0.3 + 0.2j, 0.5, 1.1),
        (0.3, 0.4 - 0.2j, 1.8)])
    def test_watson_3f2(self, a, b, c):
        # 3F2(a, b, c; (a+b+1)/2, 2c; 1) by Watson's theorem (DLMF 16.4.6)
        mpmath.mp.dps = 30
        a, b, c = mpmath.mpc(a), mpmath.mpc(b), mpmath.mpc(c)
        g = mpmath.gamma
        want = complex(mpmath.sqrt(mpmath.pi) * g(c + 0.5) * g((a + b + 1) / 2)
                       * g(c - (a + b) / 2 + 0.5)
                       / (g((a + 1) / 2) * g((b + 1) / 2) * g(c - a / 2 + 0.5)
                          * g(c - b / 2 + 0.5)))
        spec = PochhammerRatioSeries((a, b, c), ((a + b + 1) / 2, 2 * c), 1,
                                     1.0, 0)
        res = eval_weighted(spec, Unit(), 1.0, tol=1e-12)
        assert res.method == "anchored" and res.terms_used == 128
        assert abs(res.value - want) <= res.tail_bound
        assert res.tail_bound <= 1e-12 * max(1.0, abs(want))

    def test_bound_covers_a_grid(self):
        # shifts, start index and tolerance varied together; where the
        # expansion in a^2/N needs it, N doubles beyond 64
        doubled = 0
        for a in (-0.45, 0.1, 0.3 + 0.25j, 1.7, 4.0):
            for b in (0.2, 0.5 - 0.15j, 2.5):
                for excess in (0.1, 0.6, 1.5):
                    c = a + b + excess
                    for start, tol in ((0, 1e-6), (1, 1e-10), (0, 1e-12)):
                        spec = PochhammerRatioSeries((a, b), (c,), 1, 1.0,
                                                     start)
                        res = eval_weighted(spec, Unit(), 1.0, tol=tol)
                        want = _gauss_mp(a, b, c, start)
                        assert abs(res.value - want) <= res.tail_bound, \
                            (a, b, c, start, tol)
                        assert res.tail_bound <= tol * max(1.0, abs(res.value))
                        doubled += res.terms_used > 128
        assert doubled > 0

    def test_large_shift_doubles_until_it_certifies(self):
        # 2F1(100, 1/2; 102; 1): the expansion is in 100^2/n, so N doubles
        spec = PochhammerRatioSeries((100.0, 0.5), (102.0,), 1, 1.0, 0)
        res = eval_weighted(spec, Unit(), 1.0, tol=1e-10)
        assert res.terms_used == 2048
        assert abs(res.value - _gauss_mp(100, 0.5, 102)) <= res.tail_bound

    def test_exponent_minus_400(self):
        # sum (1/2)_n / (400.5)_n = 2F1(1/2, 1; 400.5; 1) = 399.5/399:
        # N^sigma underflows and B_k(400.5) is huge, but the scaled tail
        # needs neither
        spec = PochhammerRatioSeries((0.5,), (400.5,), 0, 1.0, 0)
        try:
            res = eval_weighted(spec, Unit(), 1.0)
        except HyperharmonicError:
            return
        assert math.isfinite(res.tail_bound)
        assert abs(res.value - 399.5 / 399.0) <= res.tail_bound

    def test_rounding_counts_each_terms_own_drift(self):
        # sum (1/2)_n / (400.5)_n = 399.5/399: the step factors (1/2 + n) /
        # (400.5 + n) drift u_n by about 2,840 eps by n = 128, but the sum
        # is nearly all in u_0 = 1 (no drift) and u_1 = 1/801; charged the
        # drift up to 128 on every term, the bound read 2.5e-12
        spec = PochhammerRatioSeries((0.5,), (400.5,), 0, 1.0, 0)
        res = eval_weighted(spec, Unit(), 1.0, tol=1e-14)
        mpmath.mp.dps = 30
        want = complex(mpmath.mpf(399.5) / 399)
        assert res.method == "anchored" and res.terms_used == 128
        assert abs(res.value - want) <= res.tail_bound
        assert res.tail_bound < 1e-14

    def test_expansion_that_overflows_raises_breakdown(self):
        # shifts of modulus 1e30: their powers overflow in the expansion
        spec = PochhammerRatioSeries((1e30j, 0.5 - 1e30j), (2.0,), 1, 1.0, 0)
        with pytest.raises(AccelerationBreakdown, match="overflows"):
            eval_weighted(spec, Unit(), 1.0)

    def test_budget_and_rounding_floor_raise(self):
        spec = PochhammerRatioSeries((0.5, 0.5), (1.5,), 1, 1.0, 0)
        with pytest.raises(NonConvergentError, match="budget 127"):
            eval_weighted(spec, Unit(), 1.0, max_terms=127)
        # 2F1(5, 4.5; 10; 1) = 512: tol 1e-17 is below the rounding part's
        # eps |S| at every N, so the rule raises without doubling on
        spec = PochhammerRatioSeries((5.0, 4.5), (10.0,), 1, 1.0, 0)
        with pytest.raises(NonConvergentError, match="after 128 terms"):
            eval_weighted(spec, Unit(), 1.0, tol=1e-17)
        # 2F1(20, 1/2; 21; 1): at 128 terms the estimate itself misses tol,
        # and the next doubling would overrun the budget; 1,024 certify
        spec = PochhammerRatioSeries((20.0, 0.5), (21.0,), 1, 1.0, 0)
        with pytest.raises(NonConvergentError, match=re.escape(
                "anchored error estimate 7.03e-05 exceeds tolerance 1e-12 "
                "after 128 terms")):
            eval_weighted(spec, Unit(), 1.0, tol=1e-12, max_terms=128)
        res = eval_weighted(spec, Unit(), 1.0, tol=1e-12, max_terms=1024)
        assert res.terms_used == 1024
        assert abs(res.value - _gauss_mp(20, 0.5, 21)) <= res.tail_bound

    def test_rounding_floor_refusal_names_the_rounding_part(self):
        # the estimate of the last step (0.00188) is not what stops the
        # doubling: the rounding part alone misses tol = 1e-12
        spec = PochhammerRatioSeries((200.3, 0.5), (202.4,), 1, -1.0, 0)
        with pytest.raises(NonConvergentError, match=re.escape(
                "anchored rounding part 1.09e-12 alone exceeds tolerance "
                "1e-12 after 512 terms")):
            eval_weighted(spec, HarmonicSqPlusGen2(), 1.0, tol=1e-12)
        res = eval_weighted(spec, HarmonicSqPlusGen2(), 1.0, tol=1e-10)
        assert (res.terms_used, res.tail_bound) == (4096,
                                                    1.5044763875595675e-12)

    def test_doubled_sum_certifies_a_tight_tolerance(self):
        # 2F1(5, 4.5; 10; 1) = 512 needs N > 64; a rounding part of
        # 2N eps sum |t_n| raised here after 512 terms (estimate 5.6e-10)
        spec = PochhammerRatioSeries((5.0, 4.5), (10.0,), 1, 1.0, 0)
        res = eval_weighted(spec, Unit(), 1.0, tol=1e-13)
        assert res.method == "anchored" and res.terms_used <= 1024
        assert abs(res.value - _gauss_mp(5, 4.5, 10)) <= res.tail_bound
        assert res.tail_bound <= 1e-13 * 512

    @pytest.mark.parametrize("nums, dens, weight, x", [
        ((40.3, 0.5), (41.7,), Unit(), 1.0),
        ((0.5, 40.2), (41.5,), Harmonic(), 1.0),
        ((39.5 + 0.5j, 1.2), (41.3 + 0.5j,), Harmonic(2, 1), 1.0),
        ((0.3 + 0.2j, 0.4 - 0.1j), (0.75 + 0.1j,), Harmonic(3, 2), 1.0),
        ((0.3, 0.4), (0.75,), Unit(), 1.0),
        ((0.5, 40.2), (41.5,), Harmonic(), -1.0),
    ])
    def test_rounding_part_bounds_the_walk(self, nums, dens, weight, x):
        # shifts near 40, complex shifts, Re sigma = -1.05 and an
        # alternating sign: at every N the rounding part covers the walk's
        # partial sum and the relative error of u_N, the anchor, against
        # the same walk at 30 digits
        spec = PochhammerRatioSeries(nums, dens, 1, 1.0, 0)
        walk = _Walk(spec, weight, x)
        mpmath.mp.dps = 30
        pairs = [(mp_number(a), mp_number(d))
                 for a, d in zip(nums, dens + (1.0,))]
        stride, offset = ((weight.stride, weight.offset)
                          if isinstance(weight, Harmonic) else (0, 0))
        u, S, n = mpmath.mpf(1), mpmath.mpf(0), 0
        h = mpmath.fsum(mpmath.mpf(1) / k for k in range(1, offset + 1))
        for top in (128 * 2 ** j for j in range(8)):
            walk.run(top - n)
            while n < top:
                S += u * (h if stride else 1)
                for a, d in pairs:
                    u = u * (a + n) / (d + n)
                u *= x
                n += 1
                for k in range(stride * n + offset - stride + 1,
                               stride * n + offset + 1):
                    h += mpmath.mpf(1) / k
            sum_part = _rounding(walk, 0.0)
            anchor_part = _rounding(walk, 1.0) - sum_part
            assert abs(walk.S - complex(S)) <= sum_part, top
            assert abs(walk.t / complex(u) - 1.0) <= anchor_part, top

    def test_pair_weights_have_an_expansion_and_linear_combos_none(self):
        assert Unit().expansion(3, 64) == ((1.0, 0.0, 0.0, 0.0),)
        # H_n ~ log n + gamma + 1/(2n) - 1/(12 n^2), gamma from H_64
        const, log_row = Harmonic().expansion(10, 64)
        assert log_row == (1.0,) + (0.0,) * 10
        assert const[:4] == pytest.approx(
            (0.57721566490153286, 0.5, -1.0 / 12.0, 0.0), abs=2e-15)
        # H_{2n+1} = H_{2n} + 1/(2n+1) ~ log n + gamma + log 2 + 3/(4n)
        # - 13/(48 n^2)
        const, _ = Harmonic(2, 1).expansion(10, 65)
        assert const[:3] == pytest.approx(
            (0.57721566490153286 + math.log(2.0), 0.75, -13.0 / 48.0),
            abs=2e-15)
        # the log coefficient is L = sum_i c_i: 1 for DigammaDiffSum, 0
        # for DigammaLog, which tends to a constant, so it has log power
        # 0 and one row
        w = DigammaDiffSum(0.2, 0.3)
        assert w.asymptotics() == (0, 1)
        assert w.expansion(3, 64)[1] == (1.0, 0.0, 0.0, 0.0)
        w = DigammaLog(0.2, 0.3, 1.0)
        assert w.asymptotics() == (0, 0)
        assert len(w.expansion(3, 64)) == 1
        assert LinearCombo(((1.0, Unit()),)).expansion(3, 64) is None
        # weights without an expansion, and r*x other than 1 and -1, keep
        # the ladder
        spec = PochhammerRatioSeries((0.3, 0.2), (2.0,), 1, 1.0, 0)
        for weight, x in ((Zipped(((1.0, HarmonicSqPlusGen2()),)), 1.0),
                          (LinearCombo(((1.0, Unit()),)), 1.0),
                          (LinearCombo(((1.0, Unit()),)), -1.0),
                          (Unit(), cmath.exp(2j)), (Harmonic(), 1j)):
            res = eval_weighted(spec, weight, x, tol=1e-8)
            assert res.method == "extrapolated", (weight, x)


class Shifted(Harmonic):
    """w_n = H_n + 1 by its own steps() and value(): a subclass whose
    pairs, those of H_n, no longer state its steps."""

    def steps(self, n0):
        return (w + 1.0 for w in Harmonic.steps(self, n0))

    def value(self, n):
        return Harmonic.value(self, n) + 1.0


class TestAnchoredSetUp:
    """What no anchor changes is formed once per anchored sum, and a pair
    weight forms its expansion rows once per anchor, kept in a hidden
    cache that no comparison, repr, copy or pickle sees."""

    def test_set_up_is_formed_once(self, monkeypatch):
        counts = collections.Counter()
        rows_at = collections.Counter()
        alive = []          # no id of a counted weight is reused
        anchored, binomials, at = (series._eval_anchored, series._binomials,
                                   _PairWeight._at)

        def count_sums(*args):
            counts["sums"] += 1
            return anchored(*args)

        def count_tables(exponents):
            counts["tables"] += 1
            return binomials(exponents)

        def count_at(self, n):
            if n >= 64:
                alive.append(self)
                rows_at[id(self), n] += 1
            return at(self, n)

        monkeypatch.setattr(series, "_eval_anchored", count_sums)
        monkeypatch.setattr(series, "_binomials", count_tables)
        monkeypatch.setattr(_PairWeight, "_at", count_at)
        registry = build_registry(101)
        for ident_id in ("THM-A1", "THM-C"):
            # a deep copy builds its weights anew, with empty caches
            assert verify(copy.deepcopy(registry[ident_id])).passed
        # the unit-argument side of each of the 12 + 6 points, 128 terms
        # each: two anchors per sum, and two weights (one Harmonic() per
        # identity) at the anchors 65 and 129
        assert counts == {"sums": 18, "tables": 18}
        assert sorted(rows_at.values()) == [1, 1, 1, 1]
        assert sorted(n for _, n in rows_at) == [65, 65, 129, 129]

    @pytest.mark.parametrize("weight", [
        Unit(), *(Harmonic(s, o) for s in (1, 2, 3) for o in (-1, 0, 1, 2)),
        HarmonicSqPlusGen2(), DigammaDiffSum(0.25, 0.4),
        DigammaDiffSum(0.3 + 0.1j, 0.2 - 0.2j), DigammaLog(0.25, 0.75, 1.2),
        DigammaLog(0.3 + 0.1j, 0.7 - 0.1j, -0.4 + 0.25j),
    ], ids=repr)
    def test_cached_rows_match_a_fresh_weight_and_stay_hidden(self, weight):
        weight = copy.copy(weight)
        fresh = pickle.loads(pickle.dumps(weight))
        n0 = weight._start[0]
        anchors = [n0 + 64 * 2 ** k for k in range(4)]
        for M in anchors:
            rows = weight.expansion(10, M)
            assert weight.expansion(10, M) is rows
            assert type(rows) is tuple
            assert all(type(row) is tuple for row in rows)
        assert list(weight._expansions) == [(10, M) for M in anchors]
        # copies and pickles start without them, and see nothing of them
        for other in (copy.copy(weight), pickle.loads(pickle.dumps(weight))):
            assert other._expansions == {}
        assert weight == fresh and hash(weight) == hash(fresh)
        assert repr(weight) == repr(fresh)
        assert pickle.dumps(weight) == pickle.dumps(fresh)
        for M in reversed(anchors):
            assert repr(fresh.expansion(10, M)) == repr(
                weight.expansion(10, M))

    def test_linear_combo_and_own_steps_have_no_rows(self):
        combo = LinearCombo(((2.0, Harmonic(2)), (-1.0, Harmonic())))
        shifted = Shifted()
        for weight in (combo, shifted):
            assert weight.expansion(10, 64) is None
            assert weight.expansion(10, 64) is None
            assert weight._expansions == {}

    @pytest.mark.parametrize("nums, dens, tol", [
        ((0.5, 0.5), (1.5,), 1e-9), ((0.25, 0.5), (1.75,), 1e-6)])
    @pytest.mark.parametrize("x", [1.0, -1.0])
    def test_own_steps_take_the_ladder(self, nums, dens, tol, x):
        # Shifted was walked by its own steps but anchored on H_n's rows:
        # at 1 the first sum raised after 131,072 terms and the second
        # returned with err/bound 0.99999; the ladder sums them
        spec = PochhammerRatioSeries(nums, dens, 1, 1.0, 0)
        res = eval_weighted(spec, Shifted(), x, tol=tol)
        parts = [eval_weighted(spec, w, x, tol=tol)
                 for w in (Harmonic(), Unit())]
        assert res.method == "extrapolated" and res.terms_used <= 2 ** 14
        err = abs(res.value - parts[0].value - parts[1].value)
        assert err <= res.tail_bound + parts[0].tail_bound \
            + parts[1].tail_bound


class TestAnchoredHarmonic:
    """The anchored rule for Harmonic(stride, offset) weights at r*x = 1:
    the log row of the expansion summed with the s-derivative of the
    Hurwitz zeta; mpmath at 30 digits is the oracle."""

    @pytest.mark.parametrize("s, M, z", [
        (1.05, 64, 1), (2.5 + 0.3j, 64, 1), (11.2 - 1.0j, 128, 1),
        (5.25, 1024, 1), (60.3, 64, 1), (120.5 + 2.0j, 64, 1),
        (420.5, 65, 1),
        (1.05, 64, -1), (2.5 + 0.3j, 64, -1), (11.2 - 1.0j, 128, -1),
        (5.25, 1024, -1), (60.3, 64, -1)])
    def test_moments_against_mpmath(self, s, M, z):
        # m_l = sum_{m>=0} z^m (1 + m/M)^-s log^l(M + m) is M^s times
        # (-d/ds)^l of zeta(s, M) at 1 and of 2^-s (zeta(s, M/2) -
        # zeta(s, (M+1)/2)) at -1; 60 digits, because fewer lose digits to
        # M^s at s = 11.2 - 1i (and mpmath's zeta needs a real s as an
        # mpf). Each error lies within the last term's size t_l (at s =
        # 420.5, M = 65 Euler-Maclaurin's terms no longer shrink, and t_l
        # says so); at -1 only |s| < pi M / 2, where Boole's terms shrink
        (mom, last), = _moments(_binomials([complex(s)]), M, 2, z)
        mpmath.mp.dps = 60
        sm, mm = mp_number(s), mpmath.mpf(M)
        log2 = mpmath.log(2)
        for l in range(3):
            if z == 1:
                want = (-1) ** l * mpmath.zeta(sm, mm, derivative=l)
            else:
                want = sum(
                    math.comb(l, k) * log2 ** (l - k) * (-1) ** k * 2 ** -sm
                    * (mpmath.zeta(sm, mm / 2, derivative=k)
                       - mpmath.zeta(sm, (mm + 1) / 2, derivative=k))
                    for k in range(l + 1))
            want = complex(want * mm ** sm)
            err = abs(mom[l] - want)
            assert err <= abs(last[l]) + 4 * _EPS * abs(want), (l, err)
            if abs(s) <= 20:
                assert err <= 4e-16 * abs(want), (l, err)

    @pytest.mark.parametrize("stride, offset, a, b, c, start", [
        (1, -1, 0.3, 0.4, 0.75, 1),                  # Re sigma = -1.05
        (1, 0, 0.3 + 0.2j, 0.4 - 0.1j, 1.7 + 0.1j, 0),
        (1, 1, -0.4 + 0.3j, 0.6, 2.2 + 0.3j, 1),
        (1, 2, 0.25, 1.5, 5.73, 0),                  # Re sigma = -3.98
        (2, -1, 0.5, 0.2 - 0.3j, 0.8 - 0.3j, 1),
        (2, 0, 0.5, -0.2, 1.7, 1),
        (2, 1, 0.3, 0.4 + 0.2j, 2.4 + 0.2j, 0),
        (2, 2, 1.2, 0.7, 3.0, 0),
        (3, -1, 0.3, 0.4, 0.8, 1),
        (3, 0, 0.1 - 0.25j, 0.35 + 0.05j, 0.95 - 0.2j, 0),
        (3, 1, 0.45, 1 / 3, 3.8, 1),
        (3, 2, 0.3 + 0.2j, 0.4 - 0.1j, 0.75 + 0.1j, 0),
    ])
    def test_grid_against_mpmath(self, stride, offset, a, b, c, start):
        spec = PochhammerRatioSeries((a, b), (c,), 1, 1.0, start)
        res = eval_weighted(spec, Harmonic(stride, offset), 1.0, tol=1e-12)
        want = harmonic_gauss_mp(a, b, c, stride, offset, start)
        assert res.method == "anchored" and res.terms_used == 128
        assert abs(res.value - want) <= res.tail_bound, (stride, offset)
        assert res.tail_bound <= 1e-12 * max(1.0, abs(res.value))

    def test_exponent_minus_400(self):
        # sum (1/2)_n / (400.5)_n H_n: the terms fall by 1/800 at once, so
        # 400 terms at 30 digits are the whole sum
        spec = PochhammerRatioSeries((0.5,), (400.5,), 0, 1.0, 0)
        try:
            res = eval_weighted(spec, Harmonic(), 1.0)
        except HyperharmonicError:
            return
        mpmath.mp.dps = 30
        u, h, want = mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0)
        for n in range(400):
            want += u * h
            u *= (n + mpmath.mpf(0.5)) / (n + mpmath.mpf(400.5))
            h += mpmath.mpf(1) / (n + 1)
        assert math.isfinite(res.tail_bound)
        assert abs(res.value - complex(want)) <= res.tail_bound


class TestAnchoredLogSquared:
    """The anchored rule for the weight H_n^2 + H_n^(2) at r*x = 1: rows
    up to log^2 n, summed with the second s-derivative of the Hurwitz
    zeta; mpmath at 30 digits is the oracle."""

    def test_expansion_rows(self):
        const, log_row, sq_row = HarmonicSqPlusGen2().expansion(10, 64)
        assert sq_row == (1.0,) + (0.0,) * 10
        # the constant is gamma^2 + zeta(2), from H_64 and H_64^(2)
        assert const[0] == pytest.approx(
            0.57721566490153286 ** 2 + math.pi ** 2 / 6.0, abs=4e-15)
        # 2 (gamma + 1/(2n) - 1/(12 n^2) + ...)
        assert log_row[:4] == pytest.approx(
            (2.0 * 0.57721566490153286, 1.0, -1.0 / 6.0, 0.0), abs=4e-15)
        n = 10 ** 4
        log_n = math.log(n)
        rows = (const, log_row, sq_row)
        got = math.fsum(log_n ** l * row[k] * float(n) ** -k
                        for l, row in enumerate(rows) for k in range(11))
        want = HarmonicSqPlusGen2().value(n)
        assert abs(got - want) <= 4 * math.ulp(want)

    def test_exponent_minus_400(self):
        # sum (1/2)_n / (400.5)_n (H_n^2 + H_n^(2)): the ladder's tail
        # model N^-399 overflowed here; the terms fall by 1/800 at once,
        # so 400 terms at 30 digits are the whole sum
        spec = PochhammerRatioSeries((0.5,), (400.5,), 0, 1.0, 0)
        res = eval_weighted(spec, HarmonicSqPlusGen2(), 1.0)
        mpmath.mp.dps = 30
        u, h, h2, want = mpmath.mpf(1), 0, 0, 0
        for n in range(400):
            want += u * (h * h + h2)
            u *= (n + mpmath.mpf(0.5)) / (n + mpmath.mpf(400.5))
            h += mpmath.mpf(1) / (n + 1)
            h2 += mpmath.mpf(1) / (n + 1) ** 2
        assert res.method == "anchored"
        assert abs(res.value - complex(want)) <= res.tail_bound
        assert res.tail_bound <= 1e-6 * abs(res.value)


def _h_mp(pairs, k):
    """h_k = sum_i c_i (-1)^(k+1) B_k(a_i) / k at 30 digits."""
    return mpmath.fsum(mp_number(c) * (-1) ** (k + 1)
                       * mpmath.bernpoly(k, mp_number(a)) / k
                       for c, a in pairs)


class TestExpansionRows:
    """Every kind's expansion(K, M) against its 30-digit weight: the rows
    anchored at M = 64, summed at n = 64, 128 and 256, meet w_n to their
    rounding plus three times the first two dropped terms at M (B_k(a)
    vanishes at odd k for some a), for every order K from 1 to 10. For a
    first-order kind the term of order k is |h_k| M^-k, h_k = sum_i c_i
    (-1)^(k+1) B_k(a_i) / k (DLMF 5.15.8); for P^2 + Q (one pair (c, a))
    it is (2 |P_n| |h_k| + |q_k| + sum_{0<j<k} |h_j h_(k-j)|) M^-k, with
    q_k = -c^2 B_(k-1)(1 - a) from psi'."""

    @pytest.mark.parametrize("weight", [
        *(Harmonic(s, o) for s in (1, 2, 3) for o in (-1, 0, 1, 2)),
        HarmonicSqPlusGen2(),
        DigammaDiffSum(0.25, 0.4),
        DigammaDiffSum(0.3 + 0.1j, 0.2 - 0.2j),
        DigammaLog(0.25, 0.75, 1.2),
        DigammaLog(0.3 + 0.1j, 0.7 - 0.1j, -0.4 + 0.25j),
    ], ids=repr)
    def test_rows_match_the_weight(self, weight):
        M = 64
        square = isinstance(weight, HarmonicSqPlusGen2)
        pairs = ((1.0, 1.0),) if square else weight.pairs()
        wants = {n: _weight_mp(weight, n) for n in (64, 128, 256)}
        for K in range(1, 11):
            rows = weight.expansion(K, M)
            # DigammaLog's c_i cancel: no log row
            assert len(rows) == (3 if square else
                                 1 if isinstance(weight, DigammaLog) else 2)
            h = [0] + [_h_mp(pairs, k) for k in range(1, K + 3)]
            for n, want in wants.items():
                log_n = mpmath.log(n)
                terms = [mp_number(v) * log_n ** l * mpmath.mpf(n) ** -k
                         for l, row in enumerate(rows)
                         for k, v in enumerate(row)]
                dropped = 0
                for k in (K + 1, K + 2):
                    size = abs(h[k])
                    if square:
                        size = (2 * abs(mpmath.harmonic(n)) * size
                                + abs(mpmath.bernpoly(k - 1, 0))
                                + mpmath.fsum(abs(h[j] * h[k - j])
                                              for j in range(1, k)))
                    dropped += size * mpmath.mpf(M) ** -k
                bound = (16 * _EPS * mpmath.fsum(map(abs, terms))
                         + 3 * dropped)
                err = abs(mpmath.fsum(terms) - want)
                assert err <= bound, (K, n, float(err), float(bound))


def _psi_weight_mp(kind):
    """n -> w_n of a digamma kind at the working precision, from psi."""
    psi = mpmath.digamma
    a, b = mp_number(kind.a), mp_number(kind.b)
    if isinstance(kind, DigammaDiffSum):
        ab = a + b + mpmath.mpf(0.5)
        return lambda n: (2 * (psi(2 * b + n) - psi(2 * b))
                          - (psi(ab + n) - psi(ab)))
    w0 = mp_number(kind.w0)
    return lambda n: (w0 + 2 * (psi(n + 1) - psi(1))
                      - (psi(a + n) - psi(a)) - (psi(b + n) - psi(b)))


class TestAnchoredDigamma:
    """DigammaDiffSum and DigammaLog at r*x = 1 and -1 take the anchored
    rule from their pairs' expansion. At 1 the oracle is Gauss's sum F =
    2F1(A, B; C; 1) and its derivatives: with u_n = (A)_n (B)_n / ((C)_n
    n!), sum u_n (psi(A + n) - psi(A)) = dF/dA and sum u_n (psi(C + n) -
    psi(C)) = -dF/dC, so DigammaDiffSum(C - A/2 - 1/2, A/2) sums to
    2 dF/dA + dF/dC, and DigammaLog(A, B, w0) to w0 F - dF/dA - dF/dB +
    2 sum u_n H_n (harmonic_gauss_mp). At -1 the alternating-series oracle
    sums the psi differences. Both at 30 digits."""

    @pytest.mark.parametrize("A, B, C", [
        (0.3, 0.4, 2.2), (0.6, -0.35, 1.55),
        (0.5, 0.45, 1.2),                           # Re sigma = -1.25
        (0.3 + 0.1j, 0.45, 1.8 - 0.2j), (0.25, 0.5 + 0.2j, 1.1 + 0.2j)])
    @pytest.mark.parametrize("kind", ["diff", "log", "log complex w0"])
    @pytest.mark.parametrize("x", [1.0, -1.0])
    def test_against_mpmath(self, A, B, C, kind, x):
        weight = (DigammaDiffSum(C - A / 2 - 0.5, A / 2) if kind == "diff"
                  else DigammaLog(A, B, 0.2 - 0.1j if "complex" in kind
                                  else 0.2))
        spec = PochhammerRatioSeries((A, B), (C,), 1, 1.0, 0)
        res = eval_weighted(spec, weight, x, tol=1e-12)
        assert res.method == "anchored" and res.terms_used == 128
        if x == -1.0:
            want = alternating_mp((A, B), (C,), 1, 0, _psi_weight_mp(weight))
        else:
            mpmath.mp.dps = 30
            psi = mpmath.digamma
            a, b, c = mp_number(A), mp_number(B), mp_number(C)
            F = mpmath.gammaprod([c, c - a - b], [c - a, c - b])
            dA = F * (psi(c - a) - psi(c - a - b))
            if kind == "diff":
                dC = F * (psi(c) + psi(c - a - b) - psi(c - a) - psi(c - b))
                want = complex(2 * dA + dC)
            else:
                dB = F * (psi(c - b) - psi(c - a - b))
                want = (complex(mp_number(weight.w0) * F - dA - dB)
                        + 2 * harmonic_gauss_mp(A, B, C, 1, 0, 0))
        assert abs(res.value - want) <= res.tail_bound
        assert res.tail_bound <= 1e-12 * max(1.0, abs(res.value))


class TestWalkPairing:
    """_Walk pairs each numerator shift with the nearest unused
    denominator shift, whatever the order in which they are given."""

    def test_far_pairs_in_given_order_certify(self):
        # 2F1(1/2, 40.2; 41.5; 1): paired in the given order, the step
        # factors (1/2+n)/(41.5+n) and (40.2+n)/(1+n) drift, and tol 1e-13
        # raised; paired by distance the sum certifies
        want = _gauss_mp(0.5, 40.2, 41.5)
        values = set()
        for nums in ((0.5, 40.2), (40.2, 0.5)):
            spec = PochhammerRatioSeries(nums, (41.5,), 1, 1.0, 0)
            res = eval_weighted(spec, Unit(), 1.0, tol=1e-13)
            assert res.method == "anchored" and res.terms_used == 2048
            assert abs(res.value - want) <= res.tail_bound
            assert res.tail_bound <= 1e-13 * abs(want)
            values.add((res.value, res.tail_bound))
        assert len(values) == 1

    def test_pairs_do_not_depend_on_the_order_given(self):
        # the two pairs at distance 1/2 tie, and the smaller numerator
        # goes first; 3.5 is left with the n! factor's d = 1
        pairs = set()
        for nums in itertools.permutations((0.25 + 0.1j, 3.5, 7.0)):
            for dens in ((7.5, 0.75 + 0.1j), (0.75 + 0.1j, 7.5)):
                spec = PochhammerRatioSeries(nums, dens, 1, 1.0, 0)
                pairs.add(_Walk(spec, Unit(), 1.0).pairs)
        assert pairs == {((-0.5, 0.75 + 0.1j), (-0.5, 7.5), (2.5, 1.0))}


def _gen2_mp(n):
    """H_n^2 + H_n^(2) at 30 digits."""
    return mpmath.harmonic(n) ** 2 + mpmath.fsum(
        mpmath.mpf(1) / k ** 2 for k in range(1, n + 1))


class TestAnchoredAlternating:
    """The anchored rule at r*x = -1: the same walk of 2N terms plus a
    Boole tail from the Taylor coefficients of the anchored expansion;
    the alternating-series oracle at 30 digits is the reference."""

    def test_euler_numbers_at_zero(self):
        # E_j(0) = -2 (2^(j+1) - 1) B_(j+1) / (j+1), checked against
        # mpmath's Euler polynomials and Bernoulli numbers
        mpmath.mp.dps = 30
        assert len(_EULER_AT_ZERO) == 14
        for j, value in enumerate(_EULER_AT_ZERO):
            want = mpmath.eulerpoly(j, 0)
            assert want == -2 * (2 ** (j + 1) - 1) * mpmath.bernoulli(
                j + 1) / (j + 1)
            assert value == float(want), j

    def test_unit_weight_against_closed_form(self):
        # sum (1/2)_n (1/2)_n / ((3/2)_n n!) (-1)^n = asinh(1), and
        # 2F1(1, 1; 2; -1) = log 2
        spec = PochhammerRatioSeries((0.5, 0.5), (1.5,), 1, 1.0, 0)
        res = eval_weighted(spec, Unit(), -1.0, tol=1e-13)
        assert res.method == "anchored" and res.terms_used == 128
        assert abs(res.value - math.asinh(1.0)) <= res.tail_bound
        assert res.tail_bound <= 1e-13
        assert abs(hyp2f1(1.0, 1.0, 2.0, -1.0, tol=1e-13)
                   - math.log(2.0)) <= 1e-13

    @pytest.mark.parametrize("seed", [0, 1])
    def test_bound_covers_a_seeded_grid(self, seed):
        # Re sigma from -0.2 to -3, complex shifts, start index 0 and 1,
        # the three weights with an expansion and tol from 1e-13 to 1e-6:
        # no bound misses; every tolerance down to 1e-10 certifies, and
        # tighter ones may meet the rounding part and raise
        weights = ((Unit(), None), (Harmonic(), mpmath.harmonic),
                   (Harmonic(2, 1), lambda n: mpmath.harmonic(2 * n + 1)),
                   (HarmonicSqPlusGen2(), _gen2_mp))
        rng = random.Random(seed)
        certified = 0
        for i in range(40):
            sigma = -rng.uniform(0.2, 3.0)
            a = complex(rng.uniform(-0.45, 1.5),
                        rng.choice((0.0, rng.uniform(-0.4, 0.4))))
            b = complex(rng.uniform(0.1, 2.0),
                        rng.choice((0.0, rng.uniform(-0.4, 0.4))))
            c = a + b - 1.0 - sigma
            start = rng.randint(0, 1)
            tol = rng.choice((1e-13, 1e-12, 1e-10, 1e-8, 1e-6))
            weight, weight_mp = weights[i % len(weights)]
            spec = PochhammerRatioSeries((a, b), (c,), 1, -1.0, start)
            case = (a, b, c, start, weight, tol)
            try:
                res = eval_weighted(spec, weight, 1.0, tol=tol)
            except NonConvergentError:
                assert tol < 1e-10, case
                continue
            want = alternating_mp((a, b), (c,), 1, start, weight_mp)
            assert res.method == "anchored", case
            assert abs(res.value - want) <= res.tail_bound, case
            assert res.tail_bound <= tol * max(1.0, abs(res.value)), case
            certified += 1
        assert certified >= 36

    def test_exponent_minus_400(self):
        # sum (1/2)_n / (400.5)_n H_n (-1)^n: the anchor underflows to
        # zero and the Boole tail with it, and 400 terms at 30 digits are
        # the whole sum
        spec = PochhammerRatioSeries((0.5,), (400.5,), 0, -1.0, 0)
        res = eval_weighted(spec, Harmonic(), 1.0, tol=1e-13)
        mpmath.mp.dps = 30
        u, h, want = mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0)
        for n in range(400):
            want += u * h
            u *= -(n + mpmath.mpf(0.5)) / (n + mpmath.mpf(400.5))
            h += mpmath.mpf(1) / (n + 1)
        assert res.method == "anchored"
        assert abs(res.value - complex(want)) <= res.tail_bound
        assert res.tail_bound <= 1e-13 * max(1.0, abs(res.value))

    def test_only_minus_one_to_a_few_ulps_takes_the_boole_tail(self):
        # the Boole tail takes the sign as exactly (-1)^m: e^{i pi} is -1
        # to an ulp, while a phase 1e-9 off would move the tail by about
        # 1e-9 |u_M| and keeps the ladder
        spec = PochhammerRatioSeries((0.5, 0.5), (1.5,), 1, 1.0, 0)
        res = eval_weighted(spec, Unit(), cmath.exp(1j * math.pi), tol=1e-8)
        assert res.method == "anchored"
        assert abs(res.value - math.asinh(1.0)) <= 1e-15
        res = eval_weighted(spec, Unit(), cmath.exp(1j * (math.pi - 1e-9)),
                            tol=1e-8)
        assert res.method == "extrapolated"

    def test_budget_below_two_blocks_raises(self):
        spec = PochhammerRatioSeries((0.5, 0.5), (1.5,), 1, 1.0, 0)
        with pytest.raises(NonConvergentError, match="budget 127"):
            eval_weighted(spec, Unit(), -1.0, max_terms=127)


class TestReciprocalPair:
    """A weight w_n/(n+1) written as w_n and the spec pair (1; 2), since
    (1)_n / (2)_n = 1/(n+1): THM-C's shape, sum_{n>=1} (2a)_n (2b)_n /
    ((a+b+1/2)_n (n+1)!) w_n (+-1)^n, takes the anchored rule of w_n."""

    def test_bound_covers_a_seeded_grid(self):
        # complex a and b with Re(a+b) from -1 to 0.7, the unit and H_n
        # weights at r*x = 1 and -1, tol from 1e-13 to 1e-6: no bound
        # misses, and every tolerance down to 1e-10 certifies
        rng = random.Random(0)
        certified = 0
        for i in range(48):
            re_ab = rng.uniform(-1.0, 0.7)
            re_a = rng.uniform(-0.6, 0.9)
            a = complex(round(re_a, 3),
                        round(rng.choice((0.0, rng.uniform(-0.4, 0.4))), 3))
            b = complex(round(re_ab - re_a, 3),
                        round(rng.choice((0.0, rng.uniform(-0.4, 0.4))), 3))
            tol = rng.choice((1e-13, 1e-12, 1e-10, 1e-8, 1e-6))
            harmonic_weight, minus = divmod(i % 4, 2)
            z, c = (-1.0 if minus else 1.0), a + b + 0.5
            weight = Harmonic() if harmonic_weight else Unit()
            spec = PochhammerRatioSeries((2 * a, 2 * b, 1), (c, 2), 1, z, 1)
            case = (a, b, z, weight, tol)
            try:
                res = eval_weighted(spec, weight, 1.0, tol=tol)
            except NonConvergentError:
                assert tol < 1e-10, case
                continue
            if minus:
                want = alternating_mp(
                    (2 * a, 2 * b, 1), (c, 2), 1, 1,
                    mpmath.harmonic if harmonic_weight else None)
            elif harmonic_weight:
                want = complex(mpmath.mpc(*RECIPROCAL_HARMONIC_SUMS[a, b]))
            else:
                want = _reciprocal_gauss_mp(2 * a, 2 * b, c, start=1)
            assert res.method == "anchored", case
            assert abs(res.value - want) <= res.tail_bound, case
            assert res.tail_bound <= tol * max(1.0, abs(res.value)), case
            certified += 1
        assert certified >= 44


def _reciprocal_gauss_mp(a, b, c, start=0):
    """sum_{n>=start} (a)_n (b)_n / ((c)_n (n+1)!) at 30 digits, start 0
    or 1, which is (c-1)/((a-1)(b-1)) (2F1(a-1, b-1; c-1; 1) - 1) - start."""
    mpmath.mp.dps = 30
    a, b, c = mp_number(a), mp_number(b), mp_number(c)
    return complex((c - 1) / ((a - 1) * (b - 1))
                   * (mpmath.hyp2f1(a - 1, b - 1, c - 1, 1) - 1) - start)


class TestUnitLadder:
    """The ladder rule, which sums every balanced unit-circle series but
    the anchored ones: a ladder of partial sums cut at the first top
    (2^12, 2^13 or 2^14) where the fitted limit of the known-exponent
    tail model certifies. A one-part LinearCombo, or Zipped for a part
    without pairs, has no expansion, so it stands in for its part at r*x
    = 1 and -1."""

    @pytest.mark.parametrize("tol, top", [(1e-10, 8192), (1e-11, 16384)])
    def test_later_tops_against_mpmath(self, tol, top):
        # sum (a)_n (b)_n / ((a+b-1/2)_n (n+1)!): terms ~ n^-3/2, and more
        # than 2^12 of them at these tolerances; the fit at the later top
        # still bounds its error
        a, b = 0.1 - 0.25j, 0.35 + 0.05j
        spec = PochhammerRatioSeries((a, b, 1), (a + b - 0.5, 2), 1, 1.0, 0)
        res = eval_weighted(spec, LinearCombo(((1.0, Unit()),)), 1.0, tol=tol)
        want = _reciprocal_gauss_mp(a, b, a + b - 0.5)
        assert res.method == "extrapolated" and res.terms_used == top
        assert abs(res.value - want) <= res.tail_bound
        assert res.tail_bound <= tol * max(1.0, abs(res.value))

    def test_every_unit_sum_stops_at_a_ladder_top(self):
        cases = [
            (PochhammerRatioSeries((0.5, 0.5), (1.5,), 1, 1.0, 0),
             LinearCombo(((1.0, Unit()),)), -1.0),
            (PochhammerRatioSeries((0.3, 0.2, 1), (2.0, 2), 1, 1.0, 0),
             LinearCombo(((1.0, Unit()),)), 1.0),
            (PochhammerRatioSeries((0.25, 0.25), (1.0,), 1, 1.0, 1),
             Zipped(((1.0, HarmonicSqPlusGen2()),)), 1.0),
            (PochhammerRatioSeries((0.5, 0.6), (1.25, 1.5), 0, 1.0, 1),
             Harmonic(), 1.0j),
        ]
        for spec, weight, x in cases:
            res = eval_weighted(spec, weight, x, tol=1e-8)
            assert res.terms_used in LADDER_TOPS
            assert res.tail_bound <= 1e-8 * max(1.0, abs(res.value))

    def test_terminating_unit_sum_is_exact(self):
        spec = PochhammerRatioSeries((-3.0, 0.5), (1.5,), 1, 1.0, 0)
        res = eval_weighted(spec, Unit(), 1.0, tol=1e-10)
        want = sum(spec.term(n) for n in range(4))
        assert abs(res.value - want) <= 1e-14

    def test_terminating_unit_sum_skips_the_exponent_check(self):
        # sum (-3)_n (5)_n / ((1/2)_n n!) = -21: the spec's exponent 0.5
        # would refuse the sum, but it stops after four terms
        spec = PochhammerRatioSeries((-3.0, 5.0), (0.5,), 1, 1.0, 0)
        res = eval_weighted(spec, Unit(), 1.0)
        assert res.value == -21.0
        assert res.method == "direct" and res.tail_bound == 0.0
        assert res.terms_used <= 10

    def test_fast_decaying_tail_drops_dependent_columns(self):
        # s = -5 at log power 2: some model columns are numerically
        # dependent on the ladder, yet the sum plainly converges (the
        # weight inside Zipped has no expansion, so it keeps the ladder;
        # alone it takes the anchored rule)
        spec = PochhammerRatioSeries((0.5, 0.5), (6.0,), 1, 1.0, 1)
        ladder = eval_weighted(
            spec, Zipped(((1.0, HarmonicSqPlusGen2()),)), 1.0, tol=1e-11)
        anchored = eval_weighted(spec, HarmonicSqPlusGen2(), 1.0, tol=1e-11)
        assert ladder.method == "extrapolated"
        assert anchored.method == "anchored"
        want = complex(mpmath.mpf(FAST_DECAY_SQ_SUM))
        for res in (ladder, anchored):
            assert abs(res.value - want) <= res.tail_bound

    def test_unpaired_shifts_multiply_in_directly(self):
        # sum (-1)^n / n! and sum (1/2)_n / (n!)^2: more denominator
        # shifts than numerator ones, so the terms die off factorially
        # and the direct rule sums them
        res = eval_weighted(PochhammerRatioSeries((), (), 1, -1.0, 0), Unit(),
                            1.0, tol=1e-12)
        assert abs(res.value - math.exp(-1.0)) <= 1e-15
        res = eval_weighted(PochhammerRatioSeries((0.5,), (), 2, 1.0, 0),
                            Unit(), 1.0, tol=1e-10)
        mpmath.mp.dps = 20
        want = complex(mpmath.hyp1f1(0.5, 1, 1))
        assert abs(res.value - want) <= max(res.tail_bound, 1e-15)

    def test_factorially_decaying_terms_skip_the_exponent_check(self):
        # sum 1/n! = e: the spec's exponent is -1, but one more
        # denominator than numerator shift makes the terms decay factorially
        res = eval_weighted(PochhammerRatioSeries((), (), 1, 1.0, 0), Unit(),
                            1.0, tol=1e-10)
        assert abs(res.value - math.e) <= res.tail_bound
        assert res.tail_bound <= 1e-10 * math.e

    def test_exponent_counts_the_reciprocal_pair(self):
        # sum ((1/2)_n / n!)^2 H_n / (n+1): the exponent of ((1/2)_n / n!)^2
        # is -1, and the pair (1; 2), (1)_n / (2)_n = 1/(n+1), brings it to -2
        mpmath.mp.dps = 30
        want = mpmath.mpf(RECIP_HARMONIC_SUM)
        assert abs(want - (4 - 16 * mpmath.log(2) / mpmath.pi)) < 1e-28
        spec = PochhammerRatioSeries((0.5, 0.5, 1), (1.0, 2), 1, 1.0, 0)
        res = eval_weighted(spec, LinearCombo(((1.0, Harmonic()),)), 1.0,
                            tol=1e-10)
        assert abs(res.value - complex(want)) <= res.tail_bound
        assert res.tail_bound <= 1e-10

    def test_budget_below_ladder_raises(self):
        spec = PochhammerRatioSeries((0.5, 0.5), (1.5,), 1, 1.0, 0)
        with pytest.raises(NonConvergentError):
            eval_weighted(spec, LinearCombo(((1.0, Unit()),)), -1.0,
                          max_terms=16383)

    def test_last_top_that_fails_to_certify_raises(self):
        # at r*x = e^{2i} the ladder runs to its last top, 2^14, where the
        # fit still misses the tolerance
        spec = PochhammerRatioSeries((0.5, 0.5), (1.5,), 1, 1.0, 0)
        with pytest.raises(NonConvergentError, match=(
                r"extrapolated error estimate .* exceeds tolerance 1e-15 "
                r"after 16384 terms")):
            eval_weighted(spec, Unit(), cmath.exp(2j), tol=1e-15)

    def test_unrepresentable_model_raises_breakdown(self):
        # a balanced spec with exponent -400 and a log^2 weight without an
        # expansion: N^-399 overflows on the ladder (the weights with an
        # expansion take the anchored rule)
        spec = PochhammerRatioSeries((0.5,), (400.5,), 0, 1.0, 0)
        with pytest.raises(AccelerationBreakdown, match="N\\^-399"):
            eval_weighted(spec, Zipped(((1.0, HarmonicSqPlusGen2()),)), 1.0)

    @pytest.mark.parametrize("spec, x, terms, oracle", [
        (PochhammerRatioSeries((), (), 1, 1.0, 0), 1.0, 18,
         lambda: mpmath.e),
        (PochhammerRatioSeries((), (), 1, 1.0, 0), -1.0, 19,
         lambda: mpmath.exp(-1)),
        (PochhammerRatioSeries((0.5,), (400.5,), 1, 1.0, 0), 1.0, 8,
         lambda: mpmath.hyp1f1(0.5, 400.5, 1)),
    ])
    def test_factorially_decaying_unit_sums_take_the_direct_rule(
            self, spec, x, terms, oracle):
        # more denominator than numerator shifts: the terms decay
        # factorially, so a geometric tail bound holds after a few terms
        # (the ladder's tail model N^-400 of 1F1(1/2; 400.5; 1) overflows)
        res = eval_weighted(spec, Unit(), x, tol=1e-12)
        mpmath.mp.dps = 30
        want = complex(oracle())
        assert res.converged and res.method == "direct"
        assert res.terms_used == terms
        assert abs(res.value - want) <= res.tail_bound
        assert res.tail_bound <= 1e-12 * abs(want)


class TestHyp2F1:
    def test_frozen_values(self):
        assert abs(hyp2f1(0.3, 0.7, 1.1, 0.6) - F21_R) < 1e-12
        assert abs(hyp2f1(0.3 + 0.1j, 0.5, 1.2, 0.4 - 0.3j) - F21_C) < 1e-12
        assert abs(hyp2f1(0.25, 0.75, 1.5, -0.85) - F21_NEG) < 1e-12

    def test_against_mpmath_grid(self):
        mpmath.mp.dps = 30
        cases = [
            (0.1, 0.9, 1.3, 0.5),
            (-0.4, 0.6, 0.9, -0.3),
            (0.5, 0.5, 1.5, 0.81),
            (0.2 + 0.3j, 0.4, 1.1 - 0.2j, 0.35 + 0.25j),
        ]
        for a, b, c, x in cases:
            want = complex(mpmath.hyp2f1(a, b, c, x))
            assert abs(hyp2f1(a, b, c, x) - want) <= 1e-11 * max(1.0, abs(want))

    def test_gauss_value_at_one(self):
        # 2F1(a, b; c; 1) = Gamma(c)Gamma(c-a-b)/(Gamma(c-a)Gamma(c-b))
        from hyperharmonic import gamma_ratio
        a, b, c = 0.3, 0.2, 2.0
        want = gamma_ratio([c, c - a - b], [c - a, c - b])
        got = hyp2f1(a, b, c, 1.0, tol=1e-9)
        assert abs(got - want) <= 1e-8 * abs(want)


def _derivative_mp(a, x, k: int, homogeneous: bool) -> complex:
    """k-th x-derivative at 30 digits of 2F1(a, 1-a; 1; x) or, as
    d/dc 1/(c)_n = -H_n/n! at c = 1, of -d/dc 2F1(a, 1-a; c; x) at c = 1,
    which is sum (a)_n (1-a)_n / (n!)^2 H_n x^n."""
    mpmath.mp.dps = 30
    a, x = mpmath.mpc(a), mpmath.mpc(x)
    if homogeneous:
        return complex(mpmath.diff(lambda t: mpmath.hyp2f1(a, 1 - a, 1, t),
                                   x, k))
    return complex(-mpmath.diff(lambda c, t: mpmath.hyp2f1(a, 1 - a, c, t),
                                (1, x), (1, k)))


class TestDerivativeSeries:
    """The exact derivative series that catalog.ode_residual sums, against
    mpmath.diff of mpmath's 2F1."""

    @staticmethod
    def _check(a, x, homogeneous, ks):
        got = _derivative_sums(complex(a), complex(x), homogeneous)
        for k in ks:
            want = _derivative_mp(a, x, k, homogeneous)
            assert abs(got[k] - want) <= 1e-11 * max(1.0, abs(want)), (a, x, k)

    def test_harmonic_weight_k_0_1_2(self):
        for a in (0.2, 1.0 / 3.0, 0.45):
            self._check(a, 0.4, False, (0, 1, 2))

    def test_plain_2f1_k_1_2(self):
        for a in (0.2, 0.45):
            self._check(a, 0.65, True, (1, 2))

    def test_complex_parameter(self):
        for homogeneous in (False, True):
            self._check(0.3 + 0.1j, 0.15, homogeneous, (0, 1, 2))

    def test_near_the_circle(self):
        for homogeneous in (False, True):
            self._check(1.0 / 3.0, 0.9, homogeneous, (0, 1, 2))


class TestRealSpecsOnFloats:
    """Real specs and arguments run the term loops on floats: the values,
    stops, bounds and errors must be those of the complex loops, bit for
    bit, and every rule must still return a complex value. LinearCombo
    weights walk their merged pairs, whose last bits differ from the
    zipped walks of their parts."""

    def test_real_draws_match_the_complex_kernels(self):
        digest = hashlib.sha256()
        for draw in real_draws():
            if not isinstance(draw[1], LinearCombo):
                digest.update(draw_outcome(*draw).encode())
        assert digest.hexdigest() == REAL_DRAWS_DIGEST

    def test_merged_pairs_keep_the_zipped_stops(self):
        # same stop, rule and error class as the zipped walk, and a value
        # within its bound plus 16 eps (the direct rule counts no rounding)
        digest = hashlib.sha256()
        count = 0
        for spec, weight, *rest in real_draws():
            if not isinstance(weight, LinearCombo):
                continue
            count += 1
            zipped = (spec, Zipped(weight.parts), *rest)
            digest.update(draw_outcome(*zipped).encode())
            want = draw_result(*zipped)
            got = draw_result(spec, weight, *rest)
            assert type(got) is type(want), (spec, weight)
            if isinstance(want, HyperharmonicError):
                continue
            assert (got.terms_used, got.method) == (want.terms_used,
                                                   want.method)
            assert abs(got.value - want.value) <= (
                want.tail_bound + 16 * _EPS * max(1.0, abs(want.value)))
        assert count == 57
        assert digest.hexdigest() == ZIPPED_DRAWS_DIGEST

    @pytest.mark.parametrize("spec, weight, x, method", [
        (PochhammerRatioSeries((0.5, 0.5), (1.0,), 1, 1.0, 0), Unit(), 0.5,
         "direct"),
        (PochhammerRatioSeries((-3.0, 0.5), (1.5,), 1, 1.0, 0), Unit(), 0.5,
         "direct"),
        (PochhammerRatioSeries((0.5, 0.5), (2.5,), 1, 1.0, 0), Harmonic(),
         1.0, "anchored"),
        (PochhammerRatioSeries((0.5, 0.5), (1.5,), 1, 1.0, 0), Harmonic(),
         -1.0, "anchored"),
        (PochhammerRatioSeries((0.5, 0.5), (2.5,), 1, 1.0, 0),
         LinearCombo(((1.0, Harmonic()),)), 1.0, "extrapolated"),
    ])
    def test_every_rule_returns_a_complex_value(self, spec, weight, x,
                                                method):
        res = eval_weighted(spec, weight, x, tol=1e-8)
        assert res.method == method
        assert type(res.value) is complex

    def test_hyp2f1_and_verify_give_complex_values(self):
        assert type(hyp2f1(0.5, 0.5, 1.0, 0.5)) is complex
        report = verify("THM-B", points=[{"a": 0.5, "x": 0.5}])
        chk = report.checks[0]
        assert type(chk.lhs) is complex and type(chk.rhs) is complex


class TestComplexWalk:
    """Complex terms on the unit circle: the anchored rule and the ladder
    give the values, stops, bounds and errors of the frozen digest, bit
    for bit."""

    def test_complex_unit_draws_keep_their_digest(self):
        digest = hashlib.sha256()
        methods = set()
        for draw in complex_unit_draws():
            digest.update(draw_outcome(*draw).encode())
            methods.add(getattr(draw_result(*draw), "method", None))
        assert methods == {"anchored", "extrapolated"}
        assert digest.hexdigest() == COMPLEX_UNIT_DRAWS_DIGEST


@pytest.fixture(scope="module")
def registry_sums():
    """The sums of sum_digests' one walk, for both digests and the
    complex-step check."""
    return walk_registry_sums()


class TestAnchoredDigest:
    """Every anchored sum of the registries at seeds 0-12, 101 and 202
    keeps its value, term count, bound and method, bit for bit."""

    def test_anchored_sums_keep_their_digest(self, registry_sums):
        outcomes = registry_outcomes(registry_sums)[0]
        assert len(outcomes) == ANCHORED_SUMS
        assert outcomes_digest(outcomes) == ANCHORED_DIGEST


class TestSumDigest:
    """Every direct and ladder sum that verify makes at the registries of
    seeds 0-12, 101 and 202 keeps its value, term count, bound and method,
    bit for bit."""

    def test_direct_and_ladder_sums_keep_their_digest(self, registry_sums):
        outcomes = registry_outcomes(registry_sums)[1]
        assert len(outcomes) == SUMS
        assert outcomes_digest(outcomes) == SUM_DIGEST


class TestComplexDirect:
    """Complex terms inside the disk, and terminating or factorially
    decaying ones on the circle: the direct rule gives the values, stops,
    bounds and errors of the frozen digest, bit for bit, through every
    branch of its loop."""

    def test_complex_direct_draws_keep_their_digest(self):
        digest = hashlib.sha256()
        results = []
        for draw in complex_direct_draws():
            digest.update(draw_outcome(*draw).encode())
            results.append((draw[-1], draw_result(*draw)))
        sums = [res for _, res in results
                if not isinstance(res, HyperharmonicError)]
        errors = [str(res) for _, res in results
                  if isinstance(res, HyperharmonicError)]
        assert {res.method for res in sums} == {"direct"}
        assert any(type(res.value) is complex and res.value.imag
                   for res in sums)
        # past the first finiteness checkpoint, and refused once the budget
        # ran out: only the stop test certifies, never the budget
        assert any(res.terms_used > 256 for res in sums)
        refused = [(budget, str(res)) for budget, res in results
                   if str(res).startswith("no tolerance-")]
        assert any(budget > 1 for budget, _ in refused)
        assert all(f" after {budget} terms " in e for budget, e in refused)
        assert errors[-1] == ("the terms overflowed: the partial sum stopped "
                              "being finite between indices 0 and 255")
        assert digest.hexdigest() == COMPLEX_DIRECT_DRAWS_DIGEST


class TestComplexStep:
    """Each first-order weighted sum equals the complex step of its
    unweighted spec, with one more numerator shift a + i c h and
    denominator shift a per pair (c, a) (tests/complex_step.py)."""

    def test_stepped_spec_gives_the_weighted_sum(self):
        # 2F1(0.5, 0.2; 1.2; 0.7) H_n at tol 1e-10: the weighted sum is off
        # by about 8e-12, the step at 1e-13 by about 2e-13
        spec = PochhammerRatioSeries((0.5, 0.2), (1.2,), 1, 1.0, 0)
        res = eval_weighted(spec, Harmonic(), 0.7, tol=1e-10)
        value, step, gap, bound = complex_step.check(spec, Harmonic(), 0.7,
                                                     1e-10, res)
        mpmath.mp.dps = 30
        want = mpmath.nsum(lambda n: mpmath.rf(0.5, n) * mpmath.rf(0.2, n)
                           / (mpmath.rf(1.2, n) * mpmath.factorial(n))
                           * mpmath.harmonic(n) * mpmath.mpf(0.7) ** n,
                           [0, mpmath.inf])
        assert abs(value - complex(want)) <= res.tail_bound
        assert abs(step - float(want)) <= 1e-12
        assert gap <= bound

    @pytest.mark.parametrize("weight, start", [
        (DigammaDiffSum(0.3, 0.2), 0), (DigammaDiffSum(0.3, 0.2), 1),
        (Harmonic(2, 1), 0), (Harmonic(3, 0), 1), (Harmonic(1, -1), 1),
        (LinearCombo(((2.0, Harmonic(2)), (-1.0, Harmonic()))), 0),
        (LinearCombo(((0.5, Harmonic(1, -1)), (1.0, Harmonic(2)))), 1)])
    def test_constant_term_is_the_weight_at_the_start_less_the_steps(
            self, weight, start):
        # sum_n u_n w_n = Im S / h + (w_n0 - q_n0) Re S; a pair at a pole
        # below the start index is skipped
        spec = PochhammerRatioSeries((0.5, 0.25), (1.5,), 1, 1.0, start)
        step = complex_step.stepped(spec, weight)
        if any(a == 0.0 for _, a in weight.pairs()):
            assert step is None
            return
        res = eval_weighted(spec, weight, -0.6, tol=1e-12)
        assert complex_step.check(spec, weight, -0.6, 1e-12, res)[2] <= 1e-13

    def test_every_registry_sum_matches_its_complex_step(self,
                                                         registry_sums):
        # seeds 0-12, 101 and 202; none of their sums has a pair at a pole
        # below its start index
        covered, skipped, worst, _, failed = complex_step.run(registry_sums)
        assert failed == []
        assert (covered, skipped) == (1774, 0)
        assert worst < 1.0
