"""Closed-form Gauss 2F1 nodes: Kummer's connection formulas near x = 1
against mpmath, the direct sum everywhere else, and the calls the node
makes through the module attributes of `expr`; and the spec a Series
node binds."""

import cmath
import pickle

import mpmath
import pytest

from hyperharmonic import (REGISTRY, NonConvergentError, PoleError, digamma,
                           expr, gamma_ratio, verify)
from hyperharmonic.expr import C, P, Hyp2F1, Series
from hyperharmonic.series import (DigammaDiffSum, Harmonic, LinearCombo,
                                  PochhammerRatioSeries, Unit, eval_weighted)


def node(a, b, c, x):
    return Hyp2F1(C(a), C(b), C(c), C(x)).eval({})


def direct(a, b, c, x):
    spec = PochhammerRatioSeries((a, b), (c,), 1, 1.0, 0)
    return eval_weighted(spec, Unit(), x, tol=1e-12).value


def assert_matches_mpmath(a, b, c, x):
    mpmath.mp.dps = 30
    want = complex(mpmath.hyp2f1(a, b, c, x))
    assert abs(node(a, b, c, x) - want) <= 1e-11 * max(1.0, abs(want))


@pytest.fixture
def counted(monkeypatch):
    """Calls and terms the node passes through expr's module attributes."""
    counts = {"eval_weighted": 0, "terms": 0, "_gamma_ratio": 0,
              "_digamma": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            out = fn(*args, **kwargs)
            if name == "eval_weighted":
                counts["terms"] += out.terms_used
            return out
        monkeypatch.setattr(expr, name, wrapper)

    for name in ("eval_weighted", "_gamma_ratio", "_digamma"):
        counting(name, getattr(expr, name))
    return counts


NEAR_ONE = (0.76, 0.9, 0.99, 0.998, 0.9999, 0.85 + 0.1j)


class TestConnectionNearOne:
    @pytest.mark.parametrize("x", NEAR_ONE)
    @pytest.mark.parametrize("a", (0.5, 1 / 3, 0.25, 1 / 6, 0.3 + 0.1j))
    def test_logarithmic_case(self, a, x):
        # c - a - b = 0: A&S 15.3.10
        assert_matches_mpmath(a, 1 - a, 1.0, x)

    @pytest.mark.parametrize("x", NEAR_ONE)
    @pytest.mark.parametrize("a, b", ((0.3 + 0.2j, 0.1 - 0.4j),
                                      (-0.3 + 0.5j, 0.7 + 0.1j),
                                      (1.2 - 0.3j, 0.4 + 0.6j)))
    def test_complex_shifts_half_apart(self, a, b, x):
        # c - a - b = 1/2: A&S 15.3.6
        assert_matches_mpmath(a, b, a + b + 0.5, x)

    @pytest.mark.parametrize("x", (0.9 + 0.05j, 0.95 - 0.1j, 0.8 + 0.12j,
                                   0.999 - 0.001j))
    @pytest.mark.parametrize("a, b", ((0.2 + 0.1j, 0.35), (0.15, -0.2 + 0.3j),
                                      (0.6, 0.1 - 0.25j)))
    def test_doubled_shifts_at_complex_x(self, a, b, x):
        # the TR-2.11.7 kernel 2F1(2a, 2b; a + b + 1/2; x)
        assert_matches_mpmath(2 * a, 2 * b, a + b + 0.5, x)

    def test_zero_prefactor_drops_its_sum(self, counted):
        # c - a = 0 is a pole of Gamma(c - a): only the y^s sum remains
        assert_matches_mpmath(0.3, 0.4, 0.3, 0.95)
        assert counted["eval_weighted"] == 1

    def test_few_terms_at_0_998(self, counted):
        # the direct sum passes 31,626 terms here
        node(0.25, 0.75, 1.0, 0.998)
        assert counted["eval_weighted"] == 1
        assert counted["terms"] <= 20

    def test_value_at_0_9999(self):
        # the direct sum raises NonConvergentError after 200,000 terms
        assert_matches_mpmath(0.25, 0.75, 1.0, 0.9999)

    def test_thm_b_near_one(self):
        report = verify("THM-B", points=[{"a": 0.25, "x": 0.9999}])
        assert report.passed

    @pytest.mark.parametrize("y", (0.01, 0.1, 0.24, 0.2 + 0.1j))
    @pytest.mark.parametrize("a, b", ((0.25, 0.75), (1 / 6, 0.4),
                                      (0.3 + 0.1j, 0.7 - 0.1j)))
    def test_logarithmic_weight_matches_its_four_part_sum(self, a, b, y):
        # the A&S 15.3.10 weight 2 psi(n+1) - psi(a+n) - psi(b+n) - log y
        # as it was first written: two psi-difference sums, -2 H_n and
        # the constant at n = 0
        pref = gamma_ratio([a + b], [a, b])
        const = 2.0 * digamma(1.0) - digamma(a) - digamma(b) - cmath.log(y)
        weight = LinearCombo(((1.0, DigammaDiffSum(a - 1.0, 0.5)),
                              (1.0, DigammaDiffSum(b - 1.0, 0.5)),
                              (-2.0, Harmonic()), (const, Unit())))
        spec = PochhammerRatioSeries((a, b), (), 2, 1.0, 0)
        tol = 1e-12 / max(1.0, abs(pref))
        want = pref * eval_weighted(spec, weight, y, tol=tol).value
        assert abs(node(a, b, a + b, 1.0 - y) - want) <= 1e-15 * abs(want)

    def test_calls_go_through_expr(self, counted):
        node(0.25, 0.75, 1.0, 0.95)
        assert counted == {"eval_weighted": 1, "terms": counted["terms"],
                           "_gamma_ratio": 1, "_digamma": 3}
        counted.update(dict.fromkeys(counted, 0))
        node(0.25, 0.5, 1.25, 0.95)
        assert counted == {"eval_weighted": 2, "terms": counted["terms"],
                           "_gamma_ratio": 2, "_digamma": 0}


class TestDirectSum:
    @pytest.mark.parametrize("a, b, c, x", (
        (0.3, 0.4, 0.75, 0.9),       # s = 0.05
        (0.3, 0.4, 0.65, 0.9),       # s = -0.05
        (0.3, 0.4, 1.72, 0.9),       # s = 1.02
        (0.25, 0.75, 3.0, 0.95),     # s = 2
        (-3.0, 0.4, 0.9, 0.95),      # terminating
        (0.25, 0.75, 1.0, 0.74),     # |1 - x| >= 1/4
        (0.25, 0.75, 1.0, -0.9),
        (0.25, 0.75, 1.0, 0.5 + 0.5j),
    ))
    def test_outside_the_formulas_is_the_direct_sum(self, a, b, c, x):
        assert node(a, b, c, x) == direct(a, b, c, x)

    @pytest.mark.parametrize("a, y", ((100.0, 0.01), (150.0, 0.1)))
    def test_prefactor_that_is_not_finite_falls_back(self, a, y):
        # y^s overflows (y = 0.01), or y^s times its gamma ratio does
        assert expr._hyp2f1_near_one(a, a, -0.3, y) is None

    def test_unit_circle_rule_at_one(self, counted):
        got = node(0.3, 0.2, 2.0, 1.0)
        assert got == direct(0.3, 0.2, 2.0, 1.0)
        assert counted["terms"] == 128  # the anchored rule's 2N terms

    def test_outside_the_disk_raises(self):
        with pytest.raises(NonConvergentError):
            node(0.25, 0.75, 1.0, 1.05)

    def test_pole_at_c_raises(self):
        with pytest.raises(PoleError):
            node(0.25, 0.75, -2.0, 0.95)


class TestSeriesNode:
    def test_constant_shifts_build_the_spec_once(self, monkeypatch):
        # EX-1's shifts are constants: its first evaluation builds its spec,
        # and later ones build none; a shift on a parameter is bound anew
        node = REGISTRY["EX-1"].lhs
        value = node.eval({})
        built = []

        def counting(*args):
            built.append(args)
            return PochhammerRatioSeries(*args)

        monkeypatch.setattr(expr, "PochhammerRatioSeries", counting)
        assert node.eval({}) == value
        assert node.bind({})[0] is node.bind({})[0]
        assert built == []
        param = Series((P("a"), 0.5), (), 2, 0.5, 1, Harmonic(), 1.0)
        assert param.eval({"a": 0.5}) == value
        assert len(built) == 1

    def test_cached_spec_is_not_a_field(self):
        # repr, equality and pickles see only the formula, and a copy
        # rebuilds the spec through the constructor
        node = REGISTRY["EX-1"].lhs
        twin = pickle.loads(pickle.dumps(node))
        assert twin == node and hash(twin) == hash(node)
        assert repr(twin) == repr(node) and "_spec" not in repr(node)
        assert twin.bind({})[0] == node.bind({})[0]
        assert twin.eval({}) == node.eval({})
