"""Identity registry: structure, determinism, comparison semantics, and
the structural checks that go beyond plain value comparison."""

import hashlib
import math

import mpmath
import pytest

from hyperharmonic import (DEFAULT_SEED, DomainError, Identity,
                           NonConvergentError, REGISTRY, UnknownIdentityError,
                           build_registry, eval_lhs, eval_rhs, eval_weighted,
                           finite_sum_instance, get_identity, harmonic,
                           ode_residual, verify, with_perturbed_rhs)
from hyperharmonic import catalog

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
            assert ident.lhs or ident.rhs_series

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

    def test_registries_share_their_definitions(self):
        r1, r2 = build_registry(1), build_registry(2)
        for ident_id in EXPECTED_IDS:
            assert r1[ident_id].rhs is r2[ident_id].rhs, ident_id
            assert r1[ident_id].lhs is r2[ident_id].lhs, ident_id
            assert r1[ident_id].rhs_series is r2[ident_id].rhs_series

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

    def test_mismatch_is_reported_not_raised(self):
        bad = with_perturbed_rhs("EX-1", 1e-6)
        report = verify(bad)
        assert not report.passed
        assert len(report.failures) == 1
        assert report.failures[0].abs_err > 1e-8

    def test_negligible_perturbation_passes(self):
        assert verify(with_perturbed_rhs("EX-1", 1e-13)).passed

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

    @pytest.mark.parametrize("ident_id", [
        "EX-1", "EX-2", "SUM-2.8.50", "SUM-2.8.51", "TR-2.11.2",
    ])
    def test_margin_survives_tighter_tolerance(self, ident_id):
        # a genuine identity keeps passing when asked for 10x more accuracy;
        # a lucky cancellation would not
        ident = REGISTRY[ident_id]
        tight = ident.replace(tol=ident.tol / 10.0)
        assert verify(tight).passed


class TestStructuralChecks:
    def test_ode_residual_small_on_solution(self):
        assert ode_residual(0.3, 0.45) < 1e-5

    def test_ode_residual_homogeneous(self):
        assert ode_residual(0.25, 0.3, homogeneous=True) < 1e-5

    def test_finite_sum_termination(self):
        inst = finite_sum_instance("THM-E", 2)
        assert inst["termination_index"] == 1
        assert inst["term_count"] == 1
        assert inst["vanishing_term"] == 0.0
        assert inst["identity_holds"]
        assert abs(inst["closed_form"] - THME_B2) < 1e-12
        assert inst["residual"] <= 1e-6

    def test_finite_sum_b3(self):
        inst = finite_sum_instance("THM-E", 3)
        assert inst["termination_index"] == 2
        assert inst["term_count"] == 2
        assert inst["vanishing_term"] == 0.0
        assert inst["identity_holds"]

    @pytest.mark.parametrize("b", [2, 3])
    def test_terminating_companion_is_summed_directly(self, b):
        # THM-E's H_{2n} series at integer b has b-1 nonzero terms at
        # argument 1: the direct rule sums them, not the unit-circle ladder
        ident = REGISTRY["THM-E"]
        spec, weight, x = ident.lhs[1].build({"b": float(b)})
        res = eval_weighted(spec, weight, x, tol=ident.tol / 4.0)
        want = sum(spec.term(n) * harmonic(2 * n) for n in range(1, b))
        assert res.method == "direct" and res.terms_used < 10
        assert abs(res.value - want) <= 1e-15

    def test_finite_sum_bad_args(self):
        with pytest.raises(DomainError):
            finite_sum_instance("THM-E", 1)
        with pytest.raises(DomainError):
            finite_sum_instance("THM-E", 2.5)
        with pytest.raises(UnknownIdentityError):
            finite_sum_instance("THM-D", 3)


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
            spec, weight, x = ident.rhs_series[0].build({"a": a, "b": b})
            res = eval_weighted(spec, weight, x, tol=ident.tol / 4.0)
            want = mult * _half_side_mp(a, b, squared)
            assert abs(res.value - want) <= 0.25 * res.tail_bound, \
                (ident_id, a, b)
            assert res.tail_bound <= ident.tol

    @pytest.mark.parametrize("a, b", [(0.45, 0.25), (0.25, 0.3 + 0.1j)])
    def test_tighter_tolerance_never_stops_at_a_lower_top(self, a, b):
        # THM-A2's unit side from tol/4 to tol/40: the stop moves up the
        # ladder tops (inf: not certified even at 2^14), and every fit it
        # returns lies within its bound of 4 x the half-argument side
        ident = REGISTRY["THM-A2"]
        spec, weight, x = ident.rhs_series[0].build({"a": a, "b": b})
        want = 4.0 * _half_side_mp(a, b, True)
        stops = []
        for div in (4.0, 8.0, 12.0, 16.0, 24.0, 40.0):
            try:
                res = eval_weighted(spec, weight, x, tol=ident.tol / div)
            except NonConvergentError:
                stops.append(math.inf)
                continue
            assert abs(res.value - want) <= res.tail_bound, (div, res)
            stops.append(res.terms_used)
        assert stops == sorted(stops)
        assert set(stops) <= {4096, 8192, 16384, math.inf}
        assert stops[0] == 4096 and 16384 in stops and stops[-1] == math.inf

    def test_registry_term_budget(self, monkeypatch):
        # term counts are deterministic: gate the whole registry at its
        # default seed; every extrapolated unit-argument sum stops at a
        # ladder top, and terminating ones take a few direct terms
        unit_terms = []

        def spy(spec, weight, x, **kwargs):
            res = eval_weighted(spec, weight, x, **kwargs)
            if abs(abs(spec.geometric_ratio * complex(x)) - 1.0) <= 1e-12:
                unit_terms.append((res.method, res.terms_used))
            return res

        monkeypatch.setattr(catalog, "eval_weighted", spy)
        total = sum(chk.terms_used for ident_id in REGISTRY
                    for chk in verify(ident_id).checks)
        assert total <= 285_154
        assert len(unit_terms) == 69
        for method, terms in unit_terms:
            if method == "extrapolated":
                assert terms in (4096, 8192, 16384)
            else:
                assert method == "direct" and terms <= 10
