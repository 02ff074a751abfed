"""Closed-form Gauss 2F1 nodes: Kummer's connection formulas near x = 1
against mpmath, the direct sum everywhere else, and the calls the node
makes through the module attributes of `expr`; the spec a Series node
binds; and the values that one verify call's table shares between its
nodes and points, which must be a fresh node's values bit for bit."""

import cmath
import copy
import math
import pickle
import sys
import threading

import mpmath
import pytest

from hyperharmonic import (REGISTRY, NonConvergentError, PoleError, catalog,
                           digamma, expr, gamma_ratio, verify)
from hyperharmonic.expr import (C, P, Digamma, Gamma, GammaRatio, Hyp2F1,
                                Series)
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
        near = expr._connection(a, a, -0.3)
        assert near and expr._hyp2f1_near_one(near, y) is None

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
    def test_constant_shifts_bind_equal_specs(self, monkeypatch):
        # EX-1's shifts are constants: every bind builds its spec anew, and
        # the specs are equal; a shift on a parameter binds the same spec
        node = REGISTRY["EX-1"].lhs
        value = node.eval({})
        built = []

        def counting(*args):
            built.append(args)
            return PochhammerRatioSeries(*args)

        monkeypatch.setattr(expr, "PochhammerRatioSeries", counting)
        assert node.eval({}) == value
        assert node.bind({})[0] == node.bind({})[0]
        assert len(built) == 3
        param = Series((P("a"), 0.5), (), 2, 0.5, 1, Harmonic(), 1.0)
        assert param.bind({"a": 0.5})[0] == node.bind({})[0]
        assert param.eval({"a": 0.5}) == value
        assert len(built) == 6

    def test_cached_spec_is_not_a_field(self):
        # repr, equality and pickles see only the formula, and a copy
        # binds the same spec
        node = REGISTRY["EX-1"].lhs
        twin = pickle.loads(pickle.dumps(node))
        assert twin == node and hash(twin) == hash(node)
        assert repr(twin) == repr(node) and "_spec" not in repr(node)
        assert twin.bind({})[0] == node.bind({})[0]
        assert twin.eval({}) == node.eval({})


def outcome(node, env):
    """repr of node's value at env, which shows the signs of zero parts,
    or the error it raises."""
    try:
        return repr(node.eval(env))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def z(re, im):
    return complex(re, im)


def scoped(env, table):
    """env as catalog's scope, sharing the closed-form values of table."""
    scope = catalog._Scope(env)
    scope.table = table
    return scope


_NAN = float("nan")
a_, b_, c_, x_ = P("a"), P("b"), P("c"), P("x")


class TestReuse:
    """Digamma, Gamma, GammaRatio and Hyp2F1 nodes share their values
    through a verify call's table, keyed by the exact bits of their
    argument values: a node that reads the table gives a fresh node's
    value, bit for bit, at every point."""

    NODES = {
        "Digamma": Digamma(1 - a_ / 2),
        "Gamma": Gamma(a_),
        "GammaRatio": GammaRatio((C(0.5), a_ + b_ + 0.5), (a_ + 0.5, b_ + 0.5)),
        "Hyp2F1": Hyp2F1(a_, b_, c_, x_),
        "Hyp2F1-log": Hyp2F1(a_, 1 - a_, C(1), x_),
        "Series": Series((a_, 1 - a_), (), 2, 1.0, 1, Harmonic(), x_),
        "Series-kind": Series((2 * a_, 2 * b_), (a_ + b_ + 0.5,), 1, 0.5, 1,
                              (DigammaDiffSum, a_, b_), x_),
        "Series-weight": Series((0.5, 0.5), (), 2, 0.5, 1,
                                (DigammaDiffSum, a_, b_), x_),
    }

    # alternating points, near x = 1 and away from it, a zero of either
    # sign, a NaN, and points that raise (a pole of Gamma and digamma, a
    # pole at c, a denominator shift at a pole)
    POINTS = [
        {"a": 0.25, "b": 0.4, "c": 1.15, "x": 0.9},
        {"a": 0.3 + 0.1j, "b": 0.2, "c": 1.0, "x": 0.3},
        {"a": 0.25, "b": 0.4, "c": 1.15, "x": 0.3},
        {"a": 0.3 + 0.1j, "b": 0.2, "c": 1.0, "x": 0.95},
        {"a": 0.25, "b": 0.4, "c": 1.15, "x": 0.9},
        {"a": z(0.25, 0.0), "b": z(0.4, -0.0), "c": z(1.15, 0.0), "x": 0.8},
        {"a": z(0.25, -0.0), "b": z(0.4, 0.0), "c": z(1.15, -0.0), "x": 0.8},
        {"a": z(-0.0, 0.3), "b": z(0.4, -0.0), "c": z(-0.0, 1.0), "x": 0.85},
        {"a": z(0.0, 0.3), "b": z(0.4, -0.0), "c": z(0.0, 1.0), "x": 0.85},
        {"a": _NAN, "b": 0.4, "c": 1.15, "x": 0.9},
        {"a": 0.25, "b": 0.4, "c": 1.15, "x": _NAN},
        {"a": 0.25, "b": 0.4, "c": 1.15, "x": 0.9},
        {"a": 2.0, "b": 0.4, "c": -2.0, "x": 0.95},
        {"a": -1.0, "b": -1.5, "c": -3.0, "x": 0.2},
        {"a": 0.25, "b": 0.4, "c": 1.15, "x": 0.9},
        {"a": 2.0, "b": 0.4, "c": -2.0, "x": 0.95},
        {"a": 0.3 + 0.1j, "b": 0.2, "c": 1.0, "x": 0.3},
        {"a": 0.3 + 0.1j, "b": 0.2, "c": 1.4, "x": 0.3},
        {"a": 0.3 + 0.1j, "b": 0.2, "c": 1.4, "x": 0.9},
        {"a": 0.3 + 0.1j, "b": 0.2, "c": 1.0, "x": 0.9},
    ]

    @pytest.mark.parametrize("name", NODES)
    def test_kept_node_gives_a_fresh_nodes_bits(self, name):
        # one node and one table for every point, against a fresh node
        # that shares nothing
        kept, table = copy.deepcopy(self.NODES[name]), {}
        for env in self.POINTS:
            fresh = copy.deepcopy(self.NODES[name])
            assert (outcome(kept, scoped(env, table))
                    == outcome(fresh, env)), env

    def test_the_points_raise_and_repeat_where_intended(self):
        # the sequence above exercises every case it names
        raised = {name: {i for i, env in enumerate(self.POINTS)
                         if "Error: " in outcome(copy.deepcopy(node), env)}
                  for name, node in self.NODES.items()}
        assert raised == {"Digamma": {9, 12, 15}, "Gamma": {9, 13},
                          "GammaRatio": {9}, "Hyp2F1": {9, 10, 12, 13, 15},
                          "Hyp2F1-log": {9, 10}, "Series": {9, 10},
                          "Series-kind": {9, 10, 13},
                          "Series-weight": {9, 10, 13}}

    def test_key_is_the_exact_bits(self):
        assert expr._bits(z(0.3, 0.0)) != expr._bits(z(0.3, -0.0))
        assert expr._bits(z(0.0, 0.3)) != expr._bits(z(-0.0, 0.3))
        assert expr._bits(z(0.3, 0.1)) == expr._bits(z(0.3, 0.1))
        assert expr._bits(z(_NAN, 0.0)) == expr._bits(z(_NAN, 0.0))
        assert expr._bits(z(_NAN, 0.0)) != expr._bits(z(-_NAN, 0.0))
        assert expr._bits([z(0.5, 0.0)]) != expr._bits([z(0.5, -0.0)])

    @pytest.mark.parametrize("name, node", [
        ("_digamma", Digamma(a_)), ("_ln_gamma", Gamma(a_)),
        ("_gamma_ratio", GammaRatio((a_,), (C(0.5),)))])
    def test_reused_only_while_the_bits_repeat(self, monkeypatch, name,
                                               node):
        # a stand-in function that shows the signs of its argument's zero
        # parts: a table that keyed them together would give the old signs
        calls = []

        def signs(*args):
            calls.append(args)
            w = args[0][0] if name == "_gamma_ratio" else args[0]
            return z(math.copysign(1.0, w.real), math.copysign(1.0, w.imag))

        monkeypatch.setattr(expr, name, signs)
        table = {}
        show = cmath.exp if name == "_ln_gamma" else (lambda v: v)
        for re, im in ((0.0, 0.0), (0.0, 0.0), (0.0, -0.0), (-0.0, -0.0),
                       (-0.0, -0.0), (0.0, 0.0)):
            want = show(z(math.copysign(1.0, re), math.copysign(1.0, im)))
            got = node.eval(scoped({"a": z(re, im)}, table))
            assert repr(got) == repr(want)
        # one call per sign pattern, then the table's value
        assert len(calls) == 3

    def test_series_spec_keeps_the_signs_of_its_shifts(self):
        node = copy.deepcopy(self.NODES["Series"])
        for av in (z(0.25, 0.0), z(0.25, -0.0), z(0.25, -0.0), z(0.25, 0.0)):
            spec, _, _ = node.bind({"a": av, "x": 0.5})
            assert repr(spec.numerator_shifts[0]) == repr(av)

    def test_kept_parts_are_reused(self, counted):
        # THM-B's node at one a, with one table: the connection parts come
        # once for the points near x = 1
        node, table = self.NODES["Hyp2F1-log"], {}
        for xv in (0.1, 0.9, 0.2, 0.95, 0.8, 0.3):
            node.eval(scoped({"a": 0.25, "x": xv}, table))
        assert counted["_gamma_ratio"] == 1 and counted["_digamma"] == 3
        assert counted["eval_weighted"] == 6

    @pytest.mark.parametrize("ident_id, shared, alone", [
        # THM-B's 36 points hold 4 values of a and 9 of x, whose 1 - x are
        # x's of other points; 36 of its sums are the lhs Series sums
        ("THM-B", (84, 21, 4), (108, 192, 16)),
        ("EQ-H3N", (21, 3, 1), (27, 12, 4)),
        ("TR-2.11.7", (32, 0, 12), (32, 0, 14))])
    def test_a_verify_call_computes_each_closed_form_value_once(
            self, counted, ident_id, shared, alone):
        # (eval_weighted, digamma, gamma ratio) calls on fresh nodes at
        # registry seed 101: in one verify call, and with each side
        # evaluated in a plain scope, which shares nothing
        ident = catalog.build_registry(101)[ident_id]
        verify(copy.deepcopy(ident))
        calls = ("eval_weighted", "_digamma", "_gamma_ratio")
        assert tuple(counted[name] for name in calls) == shared
        counted.update(dict.fromkeys(calls, 0))
        fresh = copy.deepcopy(ident)
        for env in ident.sample_points:
            for side in ("lhs", "rhs"):
                catalog._eval_side(fresh, env, side)
        assert tuple(counted[name] for name in calls) == alone

    def test_threads_sharing_nodes_get_their_own_points_values(self):
        # nodes keep nothing between points: a result kept on a shared
        # node could hand a thread another point's value
        names = ("Digamma", "GammaRatio", "Hyp2F1", "Series-weight")
        nodes = [copy.deepcopy(self.NODES[name]) for name in names]
        points = [self.POINTS[i] for i in (0, 1, 3, 7, 17, 18)]
        want = [[outcome(copy.deepcopy(node), env) for env in points]
                for node in nodes]
        wrong = []

        def work(shift):
            for r in range(20):
                for k in range(len(points)):
                    j = (k * (shift + 1) + r) % len(points)
                    for node, values in zip(nodes, want):
                        if outcome(node, points[j]) != values[j]:
                            wrong.append((node, points[j]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    @pytest.mark.parametrize("ident_id", ("THM-B", "COR-A2", "SUM-CHOI",
                                          "TR-2.11.2", "TR-2.11.7"))
    def test_sums_are_recorded_as_from_fresh_nodes(self, ident_id):
        # the registry's shared trees keep nothing between points, so they
        # give the sums of a deep copy per point
        ident = REGISTRY[ident_id]
        points = list(ident.sample_points)
        points = points + points[::-1] + points[::2]
        for env in points:
            fresh = copy.deepcopy(ident)
            for side in ("lhs", "rhs"):
                value, sums = catalog._eval_side(ident, env, side)
                want, want_sums = catalog._eval_side(fresh, env, side)
                assert repr(value) == repr(want)
                assert repr(sums) == repr(want_sums)
