"""Identity registry: structure, determinism, comparison semantics, and
the structural checks that go beyond plain value comparison."""

import copy
import hashlib
import math
import pickle

import mpmath
import pytest

import hyperharmonic
from hyperharmonic import (DEFAULT_SEED, Harmonic, HarmonicSqPlusGen2,
                           Identity, NonConvergentError, REGISTRY,
                           UnknownIdentityError, Unit,
                           build_registry, eval_lhs, eval_rhs, eval_weighted,
                           get_identity, harmonic, ode_residual, verify,
                           with_perturbed_rhs)
from hyperharmonic import catalog, errors, expr, series, specialfn
from hyperharmonic.expr import C, Digamma, Hyp2F1, Log, P, PI, Sin
from oracles import alternating_mp, harmonic_gauss_mp
from report_digest import FORMULA_DIGEST, formula_digest

# frozen at 40 digits: twice the weighted half-argument series of the
# first doubling identity at a = 0.3+0.1i, b = 0.2
A1_ANCHOR = complex(0.4229624741123296821076775726203319023677,
                    0.1150825930482065571198596934557606971966)
# gamma-prefactor closed form of the terminating instance at b = 2
THME_B2 = 0.5545177444479562475337856971665412544604

EXPECTED_IDS = (
    "THM-A1", "THM-A2", "COR-A1", "COR-A2",
    "EX-1", "EX-2", "EX-3", "EX-4",
    "SUM-CHOI", "SUM-MIX", "GF-K1", "GF-K2",
    "THM-B", "EQ-H3N", "VAL-ALG",
    "THM-C", "SUM-GAUSSD", "THM-D", "COR-D", "THM-E",
    "TR-2.11.2", "TR-2.11.7", "TR-2.11.5", "TR-4.5.1",
    "SUM-2.8.46", "SUM-2.8.50", "SUM-2.8.51",
    "WATSON", "WATSON-PM",
)

# sha256 over (id, kind, description, param_names, tol, accel,
# repr(sample_points)) of each entry in registry order, one per seed, as
# the registry was built before its definitions and points were split
REGISTRY_DIGESTS = {
    0: "e184171f930f9fc5585ff8092cb51020b7ed0122c2f469a5aeda058a9c2e5e9d",
    1: "0552933bc6a555f5b73335ae8484b4c74217d32a6c8e583bd738100eeecbe78b",
    2: "9ee5e831352d9ac8789cd5865706dd8f5593c7765740222e0e879b2b48eea0f1",
    3: "297fd0e01583add6289c284dd593e71acdc070c811e05ea42c1356d4d379f298",
    4: "62e0d1116f13fd2ec449cd936cd6b52e9a6ae10049ad0a15253aa82a37564c3d",
    5: "18c5155a774c3e4d4956822531b59417b11b99b311158e2eef2d21fe248f6e7e",
    6: "39f76856a31890a9865c6268caf36f5c31537131ad5cb1be47d1fb6352e91618",
    7: "f001223f73a7068de03696903ccb63810df19f2e9c92bc078bbb68a032f5237a",
    8: "a0a16f9d3e4b107545b375acc4e0d69d27d4069a90aa28ddded0893fd7987274",
    9: "9da954eea0e37255cf9b9d4b46127e0f22d32a214acce72acb5beca336f5741d",
    10: "a4f6b6a508de99c54f64769d8a1d20ce772390dcd39a1e606db70f14467d90eb",
    11: "4ca1f4b218b5ccf6568356d0876dc6de6f3cb24da759e0f8d429772e225d7d0d",
    12: "19664500fecbd71409d5165e7311875e5294fc7be727a1005348ff2eb3ad2bd5",
    101: "eb5ba421f76f65dbf8027d82b40e39ed8a12961dd6da40da209b15d70079945b",
    202: "c923b80c38a0a7df876d43c1bc514c89f96eabe2edcdeb0a72f5aa0c0a3eebc5",
}
# sha256 of the concatenated hex digests of seeds 0..300
REGISTRY_DIGEST_0_300 = \
    "42d4b278228972678e2b090a101a9c2403c301d1f6a398c8456a96050728d807"


def registry_digest(registry) -> str:
    h = hashlib.sha256()
    for ident in registry.values():
        h.update(repr((ident.id, ident.kind, ident.description,
                       ident.param_names, ident.tol, ident.accel,
                       repr(ident.sample_points))).encode())
    return h.hexdigest()


class TestRegistryShape:
    def test_ids_and_order(self):
        assert tuple(REGISTRY) == EXPECTED_IDS

    def test_entries_are_well_formed(self):
        for ident in REGISTRY.values():
            assert ident.kind in ("identity", "transformation")
            assert ident.description
            assert ident.tol > 0
            assert ident.sample_points
            for pt in ident.sample_points:
                assert set(pt) == set(ident.param_names)

    def test_point_counts(self):
        counts = {
            "THM-A1": 12, "THM-A2": 8, "COR-A1": 9, "THM-B": 36,
            "THM-C": 6, "SUM-GAUSSD": 6, "THM-D": 5, "THM-E": 4,
            "TR-2.11.2": 10, "TR-2.11.7": 10, "TR-2.11.5": 10,
            "TR-4.5.1": 10, "WATSON": 4, "WATSON-PM": 4,
        }
        for ident_id, n in counts.items():
            assert len(REGISTRY[ident_id].sample_points) == n

    def test_documented_domain_constraints(self):
        for seed in (DEFAULT_SEED, 7, 5150):
            reg = build_registry(seed)
            for pt in reg["THM-C"].sample_points:
                assert (pt["a"] + pt["b"]).real <= 0.2 + 1e-12
            for pt in reg["THM-A2"].sample_points:
                assert (pt["a"] + pt["b"]).real <= 0.75 + 1e-12
            for pt in reg["THM-D"].sample_points:
                assert (pt["a"] + pt["b"]).real > 0.0
            for pt in reg["TR-2.11.2"].sample_points:
                z = pt["z"]
                assert abs(4.0 * z * (1.0 - z)) <= 0.9 + 1e-12

    def test_same_seed_reproduces_points(self):
        r1 = build_registry(321)
        r2 = build_registry(321)
        for ident_id in EXPECTED_IDS:
            assert r1[ident_id].sample_points == r2[ident_id].sample_points

    def test_different_seed_moves_points(self):
        r1 = build_registry(DEFAULT_SEED)
        r2 = build_registry(DEFAULT_SEED + 1)
        assert any(r1[i].sample_points != r2[i].sample_points
                   for i in EXPECTED_IDS)

    @pytest.mark.parametrize("seed", sorted(REGISTRY_DIGESTS))
    def test_digest_pins_entries_and_points(self, seed):
        assert registry_digest(build_registry(seed)) == REGISTRY_DIGESTS[seed]

    def test_digests_of_seeds_0_to_300(self):
        chained = "".join(registry_digest(build_registry(s))
                          for s in range(301))
        assert hashlib.sha256(chained.encode()).hexdigest() \
            == REGISTRY_DIGEST_0_300

    def test_formula_digest(self):
        # the formulas themselves, which the digests above do not see;
        # tests/report_digest.py also checks them on the other versions
        assert formula_digest() == FORMULA_DIGEST

    @pytest.mark.parametrize("ident_id", EXPECTED_IDS)
    def test_entries_are_data(self, ident_id):
        # both sides are expression trees: an entry copies and pickles
        # through its formulas and compares equal afterwards
        ident = REGISTRY[ident_id]
        assert copy.deepcopy(ident) == ident
        assert pickle.loads(pickle.dumps(ident)) == ident

    def test_registries_share_their_definitions(self):
        r1, r2 = build_registry(1), build_registry(2)
        for ident_id in EXPECTED_IDS:
            assert r1[ident_id].rhs is r2[ident_id].rhs, ident_id
            assert r1[ident_id].lhs is r2[ident_id].lhs, ident_id

    def test_fixed_point_ids_ignore_seed(self):
        r2 = build_registry(DEFAULT_SEED + 1)
        for ident_id in ("EX-1", "COR-A1", "GF-K1", "THM-B", "VAL-ALG",
                         "SUM-2.8.50", "WATSON"):
            assert r2[ident_id].sample_points == REGISTRY[ident_id].sample_points


class TestLookup:
    def test_get_identity_by_id(self):
        ident = get_identity("EX-1")
        assert ident.id == "EX-1"

    def test_get_identity_passthrough(self):
        ident = REGISTRY["EX-2"]
        assert get_identity(ident) is ident

    def test_unknown_id(self):
        with pytest.raises(UnknownIdentityError):
            get_identity("THM-Z9")
        with pytest.raises(UnknownIdentityError):
            verify("nope")

    def test_custom_registry(self):
        reg = build_registry(909)
        ident = get_identity("THM-C", registry=reg)
        assert ident.sample_points == reg["THM-C"].sample_points


class TestVerifySemantics:
    def test_report_structure(self):
        report = verify("COR-A1")
        assert report.identity_id == "COR-A1"
        assert report.tol == 1e-9
        assert len(report.checks) == 9
        assert report.passed and not report.failures
        for c in report.checks:
            assert set(c.params) == {"a"}
            assert c.terms_used > 0
            assert c.method == "direct"
            assert c.rel_err is not None
            assert c.abs_err <= 1e-9 * max(1.0, abs(c.rhs))

    @pytest.mark.parametrize("ident_id, method", [
        ("SUM-2.8.46", "anchored"),     # one unit-weight sum at r*x = 1
        ("THM-A1", "anchored"),         # a direct side and an anchored one
        ("THM-D", "anchored"),          # anchored at +1 and at -1
        ("THM-C", "anchored"),          # H_n/(n+1) as H_n and the pair (1; 2)
        ("SUM-GAUSSD", "extrapolated"),
        ("EX-1", "direct"),
    ])
    def test_check_method_names_its_sums_rules(self, ident_id, method):
        # "extrapolated" if any sum took the ladder, else "anchored" if
        # any took the anchored tail, else "direct"
        point = REGISTRY[ident_id].sample_points[0]
        (chk,) = verify(ident_id, points=[point]).checks
        assert chk.method == method

    def test_direct_sums_leave_an_anchored_check_anchored(self):
        # THM-E at b = 2: its H_{2n} sum terminates after six direct terms
        (chk,) = verify("THM-E", points=[{"b": 2.0}]).checks
        assert chk.method == "anchored" and chk.terms_used == 134

    # terms of the lhs sum of each identity at x = 0.99, 0.995 and 0.998
    # (k = sqrt(x) for the GF pair), THM-B at a = 1/2, 1/3, 1/4, 1/6: the
    # 21 near-circle sums of the disk-sweep benchmark, 432,683 terms
    NEAR_CIRCLE_TERMS = {
        "THM-B": ((1650, 1650, 1649, 1649), (29997,) * 4, (29997,) * 4),
        "EQ-H3N": ((1851,), (30163,), (30163,)),
        "GF-K1": ((1869,), (29997,), (29997,)),
        "GF-K2": ((1857,), (30106,), (30106,)),
    }

    @pytest.mark.parametrize("ident_id", sorted(NEAR_CIRCLE_TERMS))
    def test_near_circle_stops_are_pinned(self, ident_id):
        got = []
        for x in (0.99, 0.995, 0.998):
            envs = ([{"a": a, "x": x} for a in (0.5, 1 / 3, 0.25, 1 / 6)]
                    if ident_id == "THM-B" else
                    [{"k": math.sqrt(x)}] if ident_id.startswith("GF")
                    else [{"x": x}])
            got.append(tuple(
                catalog._eval_side(REGISTRY[ident_id], env, "lhs")[1][0]
                .terms_used for env in envs))
        assert tuple(got) == self.NEAR_CIRCLE_TERMS[ident_id]

    def test_anchor_value(self):
        got = eval_lhs("THM-A1", a=0.3 + 0.1j, b=0.2)
        assert abs(got - A1_ANCHOR) < 1e-8

    def test_eval_sides_agree(self):
        lhs = eval_lhs("EX-3")
        rhs = eval_rhs("EX-3")
        assert abs(lhs - rhs) < 1e-10

    def test_closed_form_pole_raises_cleanly(self):
        from hyperharmonic import PoleError
        with pytest.raises(PoleError):
            eval_rhs("THM-C", a=0.5, b=0.15)
        with pytest.raises(errors.DomainError,
                           match="log of zero in closed form"):
            Log(C(0)).eval({})

    def test_evaluation_error_names_identity_point_and_side(self):
        from hyperharmonic import PoleError
        with pytest.raises(NonConvergentError, match=(
                r"^THM-B at \{'a': 0\.25, 'x': 1\.0\}, lhs term 0: "
                r"exponent -1 >= -1 at \|r\*x\| = 1")):
            verify("THM-B", points=[{"a": 0.25, "x": 0.5},
                                    {"a": 0.25, "x": 1.0}])
        with pytest.raises(PoleError, match=(
                r"^THM-C at \{'a': 0\.5, 'b': 0\.15\}, rhs expression: ")):
            verify("THM-C", points=[{"a": 0.5, "b": 0.15}])
        # the shift 2b of SUM-CHOI's weight is a pole at these b: its walk
        # once raised a bare ZeroDivisionError, which escaped verify
        for b in (-3.0, -2.0, -1.5, -1.0, -0.5, 0.0):
            with pytest.raises(PoleError, match=(
                    rf"^SUM-CHOI at \{{'a': 0\.25, 'b': {b}\}}, lhs term 0: "
                    r"DigammaDiffSum\(.*\) has the shift .*, a pole at")):
                verify("SUM-CHOI", points=[{"a": 0.25, "b": b}])
        # a point without one of the identity's parameters
        with pytest.raises(errors.DomainError, match=(
                r"^THM-B at \{'a': 0\.25\}, lhs term 0: "
                r"missing parameter 'x'$")):
            verify("THM-B", points=[{"a": 0.25}])

    def test_overflow_and_non_finite_sides_raise_domain_error(self):
        # Gamma((a+1)/2) overflows at a = 400.3, and a perturbation of
        # 1e308 takes the rhs past the largest float
        with pytest.raises(errors.DomainError, match=(
                r"^COR-A2 at \{'a': 400\.3\}, rhs expression: "
                r"math range error")):
            verify("COR-A2", points=[{"a": 400.3}])
        with pytest.raises(errors.DomainError, match=(
                r"^COR-A1 at \{'a': 0\.7\}, rhs expression: "
                r"value \(inf\+0j\) is not finite")):
            verify(with_perturbed_rhs("COR-A1", 1e308), points=[{"a": 0.7}])

    @pytest.mark.parametrize("ident_id, point, prefix", [
        ("COR-A1", {"a": math.nan}, r"^COR-A1 at \{'a': nan\}, lhs term 0: "),
        ("SUM-2.8.50", {"a": math.nan, "b": 0.25},
         r"^SUM-2\.8\.50 at \{'a': nan, 'b': 0\.25\}, lhs term 0: "),
        ("THM-B", {"a": math.nan, "x": 0.5},
         r"^THM-B at \{'a': nan, 'x': 0\.5\}, lhs term 0: "),
    ])
    def test_nan_parameter_raises_domain_error(self, ident_id, point,
                                               prefix):
        # a NaN shift is no pole: the pole checks once raised a bare
        # ValueError from round(nan) before the side could name itself
        with pytest.raises(errors.DomainError, match=prefix):
            verify(ident_id, points=[point])

    @pytest.mark.parametrize("ident_id, point, place, name, value", [
        ("THM-B", {"a": "x", "x": 0.5}, "lhs term 0", "a", "'x'"),
        ("THM-B", {"a": None, "x": 0.5}, "lhs term 0", "a", "None"),
        ("THM-B", {"a": 0.25, "x": [0.5]}, "lhs term 0", "x", r"\[0\.5\]"),
        ("VAL-ALG", {"x": 0.5, "scale": "s"}, "lhs expression", "scale",
         "'s'"),
    ])
    def test_parameter_that_is_not_a_number_raises_domain_error(
            self, ident_id, point, place, name, value):
        # complex() raised a bare ValueError ('x') or TypeError (None, a
        # list) through Param.eval, which caught only a missing parameter
        with pytest.raises(errors.DomainError, match=(
                rf"^{ident_id} at .*, {place}: parameter '{name}' is not a "
                rf"number: {value}$")):
            verify(ident_id, points=[point])

    def test_every_identity_on_a_pole_grid_returns_or_raises_a_package_error(
            self):
        # each parameter in turn at poles and half-poles of the shifts,
        # the others at the first sample point: every point returns or
        # raises a HyperharmonicError, never a bare Python error
        raised = checked = 0
        for ident in REGISTRY.values():
            for name in ident.param_names if ident.sample_points else ():
                for v in (-3.0, -2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5,
                          2.0):
                    point = dict(ident.sample_points[0], **{name: v})
                    checked += 1
                    try:
                        verify(ident, points=[point])
                    except errors.HyperharmonicError:
                        raised += 1
        assert checked == 490 and raised == 146

    @pytest.mark.parametrize("a", [math.nan, math.inf])
    def test_non_finite_numerator_shift_is_refused_before_summing(self, a):
        # THM-B's lhs sums inside the disk, where a NaN shift was summed
        # for 256 terms and then reported as an overflow
        with pytest.raises(errors.DomainError, match=(
                rf"^THM-B at \{{'a': {a}, 'x': 0\.5\}}, lhs term 0: "
                r"numerator shifts .* are not all finite$")):
            verify("THM-B", points=[{"a": a, "x": 0.5}])

    @pytest.mark.parametrize("ident_id, point, prefix", [
        # the second of THM-D's three lhs series diverges at r*x = -1
        ("THM-D", {"a": -0.1, "b": -0.1},
         r"^THM-D at \{'a': -0\.1, 'b': -0\.1\}, lhs term 1: "
         r"exponent 0\.4 >= 0"),
        # the series of TR-4.5.1's rhs sits behind a power prefactor
        ("TR-4.5.1", {"a": 0.2, "b": 0.3, "c": 0.4, "z": 0.5j},
         r"^TR-4\.5\.1 at \{'a': 0\.2, 'b': 0\.3, 'c': 0\.4, 'z': 0\.5j\}, "
         r"rhs term 0: \|ratio\*x\| = 1\.6 exceeds 1"),
    ])
    def test_evaluation_error_names_the_series_of_a_side(self, ident_id,
                                                         point, prefix):
        # term k is the side's k-th Series node in evaluation order
        with pytest.raises(NonConvergentError, match=prefix):
            verify(ident_id, points=[point])

    def test_mismatch_is_reported_not_raised(self):
        bad = with_perturbed_rhs("EX-1", 1e-6)
        report = verify(bad)
        assert not report.passed
        assert len(report.failures) == 1
        assert report.failures[0].abs_err > 1e-8

    def test_negligible_perturbation_passes(self):
        assert verify(with_perturbed_rhs("EX-1", 1e-13)).passed

    @pytest.mark.parametrize("ident_id", ["THM-A1", "THM-A2", "TR-4.5.1"])
    def test_perturbation_scales_a_series_rhs(self, ident_id):
        # these right-hand sides are a series, alone or behind a prefactor
        assert not verify(with_perturbed_rhs(ident_id, 1e-3)).passed
        assert verify(with_perturbed_rhs(ident_id, 1e-13)).passed

    def test_perturbation_does_not_touch_registry(self):
        before = REGISTRY["EX-1"].rhs
        with_perturbed_rhs("EX-1", 0.5)
        assert REGISTRY["EX-1"].rhs is before

    def test_explicit_points_override(self):
        report = verify("COR-A1", points=[{"a": 0.35}, {"a": 0.65}])
        assert len(report.checks) == 2
        assert report.passed
        assert report.checks[0].params == {"a": 0.35}

    def test_tol_override_can_fail(self):
        report = verify(with_perturbed_rhs("EX-1", 1e-13), tol=1e-15)
        assert not report.passed

    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1.0])
    def test_tol_that_is_not_finite_and_positive_raises(self, tol):
        # tol=inf passed a closed form 50 % off, and nan, 0 and -1 failed
        # every check without a word
        bad = with_perturbed_rhs("THM-B", 0.5)
        with pytest.raises(errors.DomainError, match=(
                rf"^THM-B: tol must be finite and positive, got {tol!r}$")):
            verify(bad, tol=tol, points=[{"a": 0.25, "x": 0.5}])
        # an entry's own tol is held to the same rule
        with pytest.raises(errors.DomainError, match=(
                rf"^EX-1: tol must be finite and positive, got {tol!r}$")):
            verify(REGISTRY["EX-1"].replace(tol=tol))

    @pytest.mark.parametrize("ident_id", [
        "EX-1", "EX-2", "SUM-2.8.50", "SUM-2.8.51", "TR-2.11.2",
    ])
    def test_margin_survives_tighter_tolerance(self, ident_id):
        # a genuine identity keeps passing when asked for 10x more accuracy;
        # a lucky cancellation would not
        ident = REGISTRY[ident_id]
        tight = ident.replace(tol=ident.tol / 10.0)
        assert verify(tight).passed


class TestSharedValues:
    """The points of one verify call share a table of closed-form values
    (expr): each check is that of fresh nodes, bit for bit, however the
    points are grouped or ordered, and no table outlives its call."""

    @pytest.mark.parametrize("seed", [*range(13), 101, 202])
    def test_checks_do_not_depend_on_the_grouping_of_points(self, seed):
        # all points in one call, one point per call and all in reverse
        # order, against fresh nodes that share no table
        registry = build_registry(seed)
        for ident in registry.values():
            points = ident.sample_points
            together = verify(copy.deepcopy(ident), points=points).checks
            alone = tuple(verify(ident, points=[p]).checks[0] for p in points)
            reverse = verify(ident, points=points[::-1]).checks[::-1]
            fresh = copy.deepcopy(ident)
            unshared = tuple(catalog._check_point(fresh, dict(p), ident.tol,
                                                  None) for p in points)
            assert (repr(together) == repr(alone) == repr(reverse)
                    == repr(unshared)), ident.id

    def test_no_table_outlives_its_call(self, monkeypatch):
        seen = []
        eval_side = catalog._eval_side

        def spy(ident, env, side, table=None):
            try:
                return eval_side(ident, env, side, table)
            finally:
                seen.append((table, None if table is None else len(table)))

        monkeypatch.setattr(catalog, "_eval_side", spy)
        verify("THM-B")
        tables = {id(table) for table, _ in seen}
        assert len(seen) == 2 * len(REGISTRY["THM-B"].sample_points)
        assert len(tables) == 1 and seen[-1][1] > 0 and seen[0][0] == {}
        first = seen[0][0]
        seen.clear()
        # the second point raises after the first filled the table
        with pytest.raises(NonConvergentError):
            verify("THM-B", points=[{"a": 0.25, "x": 0.5},
                                    {"a": 0.25, "x": 1.0}])
        # (the lhs is a Series node, which shares nothing)
        assert [n > 0 for _, n in seen] == [False, True, True]
        assert seen[0][0] is not first and seen[0][0] == {}
        # a side evaluated alone shares nothing
        seen.clear()
        eval_lhs("THM-B", a=0.25, x=0.5)
        assert seen == [(None, None)]


class TestStructuralChecks:
    def test_ode_residual_small_on_solution(self):
        assert ode_residual(0.3, 0.45) < 1e-12

    def test_ode_residual_homogeneous(self):
        assert ode_residual(0.25, 0.3, homogeneous=True) < 1e-12

    @pytest.mark.parametrize("b", [2, 3])
    def test_terminating_instance(self, b):
        # at integer b the H_{2n} companion of THM-E stops after b-1 terms
        report = verify("THM-E", points=[{"b": float(b)}])
        assert report.passed and report.checks[0].abs_err <= 1e-6
        if b == 2:
            assert abs(eval_rhs("THM-E", b=2.0) - THME_B2) < 1e-12
        spec, _, _ = REGISTRY["THM-E"].lhs.right.bind({"b": float(b)})
        assert spec.term(b) == 0
        assert all(spec.term(n) != 0 for n in range(1, b))

    @pytest.mark.parametrize("b", [2, 3])
    def test_terminating_companion_is_summed_directly(self, b):
        # THM-E's H_{2n} series at integer b has b-1 nonzero terms at
        # argument 1: the direct rule sums them, not the unit-circle ladder
        ident = REGISTRY["THM-E"]
        spec, weight, x = ident.lhs.right.bind({"b": float(b)})
        res = eval_weighted(spec, weight, x, tol=ident.tol / 4.0)
        want = sum(spec.term(n) * harmonic(2 * n) for n in range(1, b))
        assert res.method == "direct" and res.terms_used < 10
        assert abs(res.value - want) <= 1e-15

    def test_terminating_instance_beyond_the_seeded_points(self):
        assert verify("THM-E", points=[{"b": 4.0}]).passed


def _thmb_rhs(with_log: bool):
    """THM-B's rhs as the registry writes it, or without its log term."""
    a, x = P("a"), P("x")
    log = Log((1 - x) / x) if with_log else C(0)
    return (PI / (2 * Sin(PI * a)) * Hyp2F1(a, 1 - a, C(1), 1 - x)
            + C(0.5) * (Digamma(1 - a / 2) + Digamma((a + 1) / 2)
                        - Digamma(C(1)) - Digamma(C(0.5))
                        - PI / Sin(PI * a) - log)
            * Hyp2F1(a, 1 - a, C(1), x))


class TestStructuralMutants:
    """verify must fail a wrong identity, not only a scaled one: each
    mutant changes one piece of a formula at registry seed 101."""

    def test_shifted_harmonic_index(self):
        ident = REGISTRY["THM-B"]
        mutant = ident.replace(lhs=ident.lhs.replace(weight=Harmonic(offset=-1)))
        report = verify(mutant)
        assert (len(report.failures), len(report.checks)) == (36, 36)

    def test_dropped_log_term(self):
        assert _thmb_rhs(True) == REGISTRY["THM-B"].rhs
        report = verify(REGISTRY["THM-B"].replace(rhs=_thmb_rhs(False)))
        assert (len(report.failures), len(report.checks)) == (32, 36)
        # at x = 1/2 the log is 0, so the mutant is the identity there
        assert {c.params["x"] for c in report.checks if c.passed} == {0.5}

    def test_shifted_parameter(self):
        ident = REGISTRY["THM-A1"]
        a, b = P("a"), P("b")
        mutant = ident.replace(rhs=ident.rhs.replace(
            denominator_shifts=(a + b + 0.501,)))
        report = verify(mutant)
        assert (len(report.failures), len(report.checks)) == (12, 12)


def test_exports_resolve_and_agree():
    # the package re-exports these three modules; expr is used by path
    modules = (specialfn, series, catalog)
    for mod in (hyperharmonic, expr) + modules:
        for name in mod.__all__:
            assert hasattr(mod, name), (mod.__name__, name)
    error_classes = {"AccelerationBreakdown", "DomainError",
                     "HyperharmonicError", "NonConvergentError", "PoleError",
                     "UnknownIdentityError"}
    assert error_classes <= set(vars(errors))
    want = set().union(*(m.__all__ for m in modules)) | error_classes
    assert set(hyperharmonic.__all__) == want | {"__version__"}
    assert len(hyperharmonic.__all__) == len(set(hyperharmonic.__all__))


def _half_side_mp(a, b, squared: bool) -> complex:
    """sum_{n>=1} (2a)_n (2b)_n / ((a+b+1/2)_n n!) 2^-n w_n at 30 digits,
    w_n = H_n or H_n^2 + H_n^(2): the half-argument side of THM-A1/A2."""
    mpmath.mp.dps = 30
    a, b = mpmath.mpc(a), mpmath.mpc(b)
    c = a + b + mpmath.mpf(1) / 2
    term = 2 * a * 2 * b / c / 2
    h = h2 = total = mpmath.mpf(0)
    n = 1
    while True:
        h += mpmath.mpf(1) / n
        h2 += mpmath.mpf(1) / n ** 2
        inc = term * (h * h + h2 if squared else h)
        total += inc
        if n > 60 and abs(inc) < mpmath.mpf(10) ** -32:
            return complex(total)
        term *= (2 * a + n) * (2 * b + n) / ((c + n) * (n + 1)) / 2
        n += 1


def _alternating_harmonic_mp(nums, dens) -> complex:
    """sum_{n>=1} prod (a)_n / prod (b)_n H_n (-1)^n at 30 digits."""
    return alternating_mp(nums, dens, 0, 1, mpmath.harmonic)


def _anchored_sum_mp(ident_id, point, weight, rx=1.0) -> complex:
    """At 30 digits, the series at r*x = 1 and -1 of these identities that
    take the anchored rule.

    Unit weight: Gauss's sum, Watson's sum and its half-step variant by
    their gamma forms, and THM-D's sum_{n>=1} (1/2)_n (a+b)_n /
    ((1+a)_n (1+b)_n) as a 3F2 at 1. H_n weights: THM-A1 as twice its
    half-argument side; THM-E's Gauss-type sums by their integral
    (oracles.harmonic_gauss_mp); THM-C, whose H_n/(n+1) is H_n and the
    pair (1; 2), and THM-D and COR-D by their closed forms, the latter
    with the sum at -1 from the alternating oracle, which also gives
    their sums at -1. H_n^2 + H_n^(2) weights: THM-A2 as four times its
    half-argument side.
    """
    if rx == -1.0:
        if ident_id == "COR-D":
            return _alternating_harmonic_mp((0.75, 0.5), (1.25, 1.5))
        a, b = complex(point["a"]), complex(point["b"])
        return _alternating_harmonic_mp((1 - a, 1 - b), (1 + a, 1 + b))
    mpmath.mp.dps = 30
    p = {k: mpmath.mpc(v) for k, v in point.items()}
    g = mpmath.gamma
    if isinstance(weight, HarmonicSqPlusGen2):
        return 4.0 * _half_side_mp(point["a"], point["b"], True)
    if isinstance(weight, Harmonic):
        if ident_id == "THM-A1":
            return 2.0 * _half_side_mp(point["a"], point["b"], False)
        if ident_id == "THM-E":
            b = complex(point["b"])
            if weight.stride == 1:
                return harmonic_gauss_mp(0.5, b, 2 * b, 1, 0, 1)
            return harmonic_gauss_mp(0.5, 1 - b, b + 0.5, 2, 0, 1)
        if ident_id == "THM-C":
            a, b, pi, psi = p["a"], p["b"], mpmath.pi, mpmath.digamma
            trig = (mpmath.sin(pi * a) * mpmath.sin(pi * b)
                    / ((2 * a - 1) * (2 * b - 1) * mpmath.cos(pi * (a + b))))
            return complex((2 * a + 2 * b - 1) * trig
                           * (psi(mpmath.mpf(0.5)) + psi(1.5 - a - b)
                              - psi(1 - a) - psi(1 - b)))
        if ident_id == "COR-D":
            minus = _alternating_harmonic_mp((0.75, 0.5), (1.25, 1.5))
            mpmath.mp.dps = 30
            rhs = g(mpmath.mpf(1) / 4) ** 4 * mpmath.log(2) / (64 * mpmath.pi)
            return complex(4 * (rhs + minus))
        # THM-D: sum_H(+1) - 4 sum_H(-1) - log 4 sum_1(+1) = log 4
        a, b = complex(point["a"]), complex(point["b"])
        minus = _alternating_harmonic_mp((1 - a, 1 - b), (1 + a, 1 + b))
        ln4 = math.log(4.0)
        return (ln4 + 4 * minus
                + ln4 * _anchored_sum_mp(ident_id, point, Unit()))
    if ident_id == "SUM-2.8.46":
        a, b, c = p["a"], p["b"], p["c"]
        return complex(g(c) * g(c - a - b) / (g(c - a) * g(c - b)))
    if ident_id == "THM-D":
        a, b = p["a"], p["b"]
        return complex(mpmath.hyper([0.5, a + b, 1], [1 + a, 1 + b], 1) - 1)
    a, b, c = p["a"], p["b"], p["c"]
    if ident_id == "WATSON":
        return complex(g(0.5) * g(a + b + 0.5) * g(c + 0.5) * g(0.5 - a - b + c)
                       / (g(a + 0.5) * g(b + 0.5) * g(0.5 - a + c)
                          * g(0.5 - b + c)))
    common = g(0.5) * g(c) * g(a + b + 0.5) * g(c - a - b)
    return complex(common / (g(a + 0.5) * g(b + 0.5) * g(c - a) * g(c - b))
                   + p["eps"] * common
                   / (g(a) * g(b) * g(c - a + 0.5) * g(c - b + 0.5)))


class TestUnitArgumentExtrapolation:
    @pytest.mark.parametrize("seed", [0, 1, 3, 4, 5, 6, 8, 9, 10, 11])
    def test_doubling_identities_certify_at_registry_seed(self, seed):
        # registry seeds at which the unit-argument side of THM-A2 used to
        # exhaust its budget without certifying
        reg = build_registry(seed)
        for ident_id in ("THM-A1", "THM-A2"):
            report = verify(ident_id, registry=reg)
            assert report.passed, (seed, ident_id, report.failures)

    @pytest.mark.parametrize("a, b", [
        (0.25, 0.25), (0.45, 1.0 / 3.0), (0.3 + 0.1j, 0.2),
        (0.3 + 0.1j, 0.2 - 0.2j),
    ])
    def test_unit_side_against_half_argument_oracle(self, a, b):
        # THM-A1: unit side = 2 x half side; THM-A2: unit side = 4 x half
        # side. The actual error stays below a quarter of the claimed
        # bound (a margin of at least 4), and the bound below the tolerance.
        for ident_id, squared, mult in (("THM-A1", False, 2.0),
                                        ("THM-A2", True, 4.0)):
            ident = REGISTRY[ident_id]
            spec, weight, x = ident.rhs.bind({"a": a, "b": b})
            res = eval_weighted(spec, weight, x, tol=ident.tol / 4.0)
            want = mult * _half_side_mp(a, b, squared)
            assert abs(res.value - want) <= 0.25 * res.tail_bound, \
                (ident_id, a, b)
            assert res.tail_bound <= ident.tol

    @pytest.mark.parametrize("a, b", [(0.45, 0.25), (0.25, 0.3 + 0.1j)])
    def test_tighter_tolerance_never_stops_at_a_lower_top(self, a, b):
        # THM-A2's unit side from tol/4 to tol/40: the anchored rule
        # certifies every tolerance, its stop never moves down, and every
        # value lies within its bound of 4 x the half-argument side
        ident = REGISTRY["THM-A2"]
        spec, weight, x = ident.rhs.bind({"a": a, "b": b})
        want = 4.0 * _half_side_mp(a, b, True)
        stops = []
        for div in (4.0, 8.0, 12.0, 16.0, 24.0, 40.0):
            res = eval_weighted(spec, weight, x, tol=ident.tol / div)
            assert res.method == "anchored", (div, res)
            assert abs(res.value - want) <= res.tail_bound, (div, res)
            assert res.tail_bound <= ident.tol / div * max(1.0, abs(res.value))
            stops.append(res.terms_used)
        assert stops == sorted(stops)

    @pytest.mark.parametrize("seed", [*range(13), 202])
    def test_thm_a2_unit_side_is_anchored_at_registry_seed(self, seed):
        # every point's unit side takes the anchored rule and lies within
        # its bound of 4 x the half-argument side
        ident = build_registry(seed)["THM-A2"]
        for point in ident.sample_points:
            spec, weight, x = ident.rhs.bind(point)
            res = eval_weighted(spec, weight, x, tol=ident.tol)
            want = 4.0 * _half_side_mp(point["a"], point["b"], True)
            assert res.method == "anchored" and res.terms_used == 128
            assert abs(res.value - want) <= res.tail_bound, (seed, point)

    @pytest.mark.parametrize("seed", [*range(13), 101, 202])
    def test_minus_one_sums_are_anchored_at_registry_seed(self, seed,
                                                          monkeypatch):
        # every sum at r*x = -1 (THM-D's and COR-D's H_n sums) takes the
        # anchored rule's 128 terms and lies within its bound of the
        # alternating oracle
        minus = []

        def spy(spec, weight, x, **kwargs):
            res = eval_weighted(spec, weight, x, **kwargs)
            if spec.geometric_ratio * x == -1.0:
                minus.append((spec, weight, res))
            return res

        monkeypatch.setattr(expr, "eval_weighted", spy)
        registry = build_registry(seed)
        for ident_id in ("THM-D", "COR-D"):
            assert verify(ident_id, registry=registry).passed
        assert len(minus) == 6
        for spec, weight, res in minus:
            assert weight == Harmonic()
            want = alternating_mp(spec.numerator_shifts,
                                  spec.denominator_shifts,
                                  spec.factorial_power, spec.start_index,
                                  mpmath.harmonic)
            assert res.method == "anchored" and res.terms_used == 128
            assert abs(res.value - want) <= res.tail_bound, spec

    @pytest.mark.parametrize("seed", [*range(13), 101, 202])
    def test_reciprocal_harmonic_sums_are_anchored_at_registry_seed(
            self, seed, monkeypatch):
        # every THM-C sum, its H_n/(n+1) written as H_n and the pair
        # (1; 2), takes the anchored rule's 128 terms and lies within its
        # bound of the closed form
        sums = []

        def spy(spec, weight, x, **kwargs):
            res = eval_weighted(spec, weight, x, **kwargs)
            sums.append(res)
            return res

        monkeypatch.setattr(expr, "eval_weighted", spy)
        registry = build_registry(seed)
        for point in registry["THM-C"].sample_points:
            sums.clear()
            assert verify("THM-C", points=[point], registry=registry).passed
            (res,) = sums
            want = _anchored_sum_mp("THM-C", point, Harmonic())
            assert res.method == "anchored" and res.terms_used == 128
            assert abs(res.value - want) <= res.tail_bound, (seed, point)

    @pytest.mark.parametrize("tol", [2e-9, 1e-12])
    def test_thm_a2_verifies_below_the_ladder_floor(self, tol):
        # the ladder could not certify THM-A2 below tol ~ 4e-9
        report = verify(REGISTRY["THM-A2"].replace(tol=tol))
        assert report.passed, report.failures
        assert {chk.method for chk in report.checks} == {"anchored"}

    @staticmethod
    def _gate_registry_terms(monkeypatch, seed, budget):
        # term counts are deterministic: the 61 sums at r*x = 1 and -1
        # whose weights have an expansion (unit, H_n, H_n^2 + H_n^(2)) take
        # the anchored rule's 128 terms, every other extrapolated
        # unit-argument sum stops at a ladder top, and terminating ones
        # take a few direct terms
        unit_terms = []

        def spy(spec, weight, x, **kwargs):
            res = eval_weighted(spec, weight, x, **kwargs)
            if abs(abs(spec.geometric_ratio * complex(x)) - 1.0) <= 1e-12:
                unit_terms.append((res.method, res.terms_used))
            return res

        monkeypatch.setattr(expr, "eval_weighted", spy)
        registry = build_registry(seed)
        total = sum(chk.terms_used for ident_id in registry
                    for chk in verify(ident_id, registry=registry).checks)
        assert total == budget
        assert len(unit_terms) == 69
        assert sum(method == "anchored" for method, _ in unit_terms) == 61
        for method, terms in unit_terms:
            if method == "extrapolated":
                assert terms in (4096, 8192, 16384)
            elif method == "anchored":
                assert terms == 128
            else:
                assert method == "direct" and terms <= 10

    def test_registry_term_budget(self, monkeypatch):
        self._gate_registry_terms(monkeypatch, DEFAULT_SEED, 39_010)

    def test_registry_term_budget_at_held_out_seed(self, monkeypatch):
        self._gate_registry_terms(monkeypatch, 202, 39_620)

    def test_anchored_sums_against_mpmath(self, monkeypatch):
        # every anchored sum at r*x = 1 and -1 of the default registry
        # lies within its bound of its value at 30 digits
        anchored = []

        def spy(spec, weight, x, **kwargs):
            res = eval_weighted(spec, weight, x, **kwargs)
            if res.method == "anchored":
                anchored.append((weight, spec.geometric_ratio * x, res))
            return res

        monkeypatch.setattr(expr, "eval_weighted", spy)
        checked = 0
        for ident_id in ("SUM-2.8.46", "WATSON", "WATSON-PM", "THM-D",
                         "THM-A1", "THM-A2", "COR-D", "THM-E", "THM-C"):
            for point in REGISTRY[ident_id].sample_points:
                anchored.clear()
                assert verify(ident_id, points=[point]).passed
                for weight, rx, res in anchored:
                    want = _anchored_sum_mp(ident_id, point, weight, rx)
                    assert abs(res.value - want) <= res.tail_bound, \
                        (ident_id, point, weight, rx)
                    assert res.terms_used == 128
                    checked += 1
        assert checked == 61

    def test_linear_combo_sums_against_mpmath(self, monkeypatch):
        # SUM-GAUSSD's six ladder sums and SUM-MIX's direct sum walk their
        # LinearCombo weights' merged pairs; each lies within its bound of
        # its value at 30 digits: minus SUM-GAUSSD's closed form (a Gamma
        # ratio times digammas) and SUM-MIX's
        sums = []

        def spy(spec, weight, x, **kwargs):
            res = eval_weighted(spec, weight, x, **kwargs)
            sums.append(res)
            return res

        monkeypatch.setattr(expr, "eval_weighted", spy)
        mpmath.mp.dps = 30
        g, psi, half = mpmath.gamma, mpmath.digamma, mpmath.mpf(0.5)
        points = REGISTRY["SUM-GAUSSD"].sample_points
        assert len(points) == 6
        for point in points:
            sums.clear()
            assert verify("SUM-GAUSSD", points=[point]).passed
            (res,) = sums
            a, b = mpmath.mpc(point["a"]), mpmath.mpc(point["b"])
            want = -(g(half) * g(half - a - b) / (g(half - a) * g(half - b))
                     * (psi(half) + psi(half - a - b) - psi(half - a)
                        - psi(half - b)))
            assert res.method == "extrapolated" and res.terms_used == 4096
            assert abs(res.value - complex(want)) <= res.tail_bound, point
        sums.clear()
        assert verify("SUM-MIX").passed
        (res,) = sums
        want = (g(mpmath.mpf(0.25)) ** 2 / (4 * mpmath.sqrt(mpmath.pi))
                * (6 * mpmath.log(2) / mpmath.pi - 1))
        assert res.method == "direct"
        assert abs(res.value - complex(want)) <= res.tail_bound
