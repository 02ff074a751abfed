"""Acceptance suite: each test pins one verifiable claim at its stated
tolerance and parameter points.

Closed forms carry gamma/digamma/log constants; series sides are summed
by the engine with its own (tighter) evaluation tolerances, so every
comparison here is between two independently computed numbers.
"""

import cmath
import json
import math

import mpmath
import pytest

from hyperharmonic import (REGISTRY, boundary_asymptotic_check, digamma,
                           generalized_harmonic, harmonic, ln_gamma,
                           ode_residual, pochhammer, verify)
from hyperharmonic.cli import main


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("HYPERHARMONIC_SEED", raising=False)


def assert_all_within(ident_id, rel_tol, *, expect_points=None):
    report = verify(ident_id)
    if expect_points is not None:
        assert len(report.checks) == expect_points
    assert report.passed, report.failures
    for chk in report.checks:
        assert chk.rel_err is not None and chk.rel_err <= rel_tol, \
            (ident_id, chk.params, chk.rel_err)
    return report


# --- fixed-constant harmonic sums -----------------------------------------


def test_central_binomial_harmonic_sum():
    report = assert_all_within("EX-1", 1e-10, expect_points=1)
    assert report.checks[0].terms_used <= 300


def test_triple_factorial_harmonic_sum():
    assert_all_within("EX-2", 1e-10, expect_points=1)


def test_central_binomial_even_harmonic_sum():
    assert_all_within("EX-3", 1e-10, expect_points=1)


def test_triple_factorial_triple_harmonic_sum():
    assert_all_within("EX-4", 1e-10, expect_points=1)


# --- two-parameter doubling identities ------------------------------------


def test_doubling_identities_at_twenty_seeded_points():
    r1 = assert_all_within("THM-A1", 1e-8, expect_points=12)
    r2 = assert_all_within("THM-A2", 1e-8, expect_points=8)
    assert len(r1.checks) + len(r2.checks) == 20
    for report in (r1, r2):
        params = [c.params for c in report.checks]
        assert any(complex(p["a"]).imag != 0.0 or complex(p["b"]).imag != 0.0
                   for p in params), "complex coverage missing"
        assert any(complex(p["a"]).imag == 0.0 and complex(p["b"]).imag == 0.0
                   for p in params), "real coverage missing"


def test_digamma_closed_form_grid():
    report = assert_all_within("COR-A1", 1e-9, expect_points=9)
    grid = sorted(c.params["a"] for c in report.checks)
    assert grid == pytest.approx([0.1 * k for k in range(1, 10)])


def test_gamma_prefactor_square_sum_and_half_argument_3f2():
    report = assert_all_within("COR-A2", 1e-9, expect_points=5)
    sampled = sorted(c.params["a"] for c in report.checks)
    assert sampled == pytest.approx([1 / 6, 1 / 4, 1 / 3, 1 / 2, 0.7])
    assert_all_within("SUM-2.8.51", 1e-10, expect_points=5)


def test_digamma_difference_sum_and_mixed_harmonic_sum():
    assert_all_within("SUM-CHOI", 1e-8, expect_points=3)
    assert_all_within("SUM-MIX", 1e-8, expect_points=1)


def test_elliptic_integral_generating_functions():
    for ident_id in ("GF-K1", "GF-K2"):
        report = assert_all_within(ident_id, 1e-9, expect_points=9)
        grid = sorted(c.params["k"] for c in report.checks)
        assert grid == pytest.approx([0.1 * k for k in range(1, 10)])


# --- the generating-function identity and its structure --------------------


def test_harmonic_generating_function_identity():
    report = assert_all_within("THM-B", 1e-8, expect_points=36)
    a_values = {round(c.params["a"], 6) for c in report.checks}
    assert a_values == {round(v, 6) for v in (0.5, 1 / 3, 0.25, 1 / 6)}


def test_generating_function_ode_residual():
    for a in (0.2, 1 / 3, 0.45):
        for x in (0.15, 0.4, 0.65):
            assert ode_residual(a, x) <= 1e-12, (a, x)
    assert ode_residual(0.3, 0.5, homogeneous=True) <= 1e-12


def test_generating_function_boundary_slope():
    for a in (0.25, 1 / 3):
        result = boundary_asymptotic_check(a)
        assert result["slope_rel_err"] <= 0.05, result
        assert all(abs(o) <= 1.0 for o in result["offsets"]), result
        assert result["passed"]


def test_algebraic_argument_special_values():
    report = assert_all_within("VAL-ALG", 1e-9, expect_points=2)
    x1 = 3.0 * (3.0 - math.sqrt(3.0)) / 4.0
    assert report.checks[0].params["x"] == pytest.approx(x1)
    assert report.checks[0].terms_used <= 200000
    assert report.checks[0].method == "direct"


def test_triple_stride_harmonic_generating_function():
    report = assert_all_within("EQ-H3N", 1e-9, expect_points=9)
    grid = sorted(c.params["x"] for c in report.checks)
    assert grid == pytest.approx([0.1 * k for k in range(1, 10)])


# --- unit-argument series needing acceleration ------------------------------


def test_shifted_harmonic_unit_series():
    report = assert_all_within("THM-C", 1e-6, expect_points=6)
    for chk in report.checks:
        assert (complex(chk.params["a"]) + complex(chk.params["b"])).real \
            <= 0.2 + 1e-12
        assert chk.method == "anchored"
    gauss = assert_all_within("SUM-GAUSSD", 1e-6)
    assert [c.params for c in gauss.checks] == \
        [c.params for c in report.checks], "companion sum must share points"
    assert all(chk.method == "extrapolated" for chk in gauss.checks)


def test_watson_type_sums():
    for ident_id in ("WATSON", "WATSON-PM"):
        report = assert_all_within(ident_id, 1e-6, expect_points=4)
        ident = REGISTRY[ident_id]
        for pt in ident.sample_points:
            spec, _, x = ident.lhs.bind(dict(pt))
            assert abs(spec.geometric_ratio * x) == pytest.approx(1.0)
            assert spec.effective_exponent().real < -1.0, \
                "points must keep absolute convergence"


def test_ln4_identity_and_curious_sum():
    report = assert_all_within("THM-D", 1e-6, expect_points=5)
    for chk in report.checks:
        assert (complex(chk.params["a"]) + complex(chk.params["b"])).real > 0.0
    assert_all_within("COR-D", 1e-8, expect_points=1)


def test_ln2_identity_and_terminating_instances():
    report = assert_all_within("THM-E", 1e-6, expect_points=4)
    grid = sorted(c.params["b"] for c in report.checks)
    assert grid == pytest.approx([0.75, 1.2, 2.0, 3.0])
    for b in (2, 3):
        # at integer b the H_{2n} companion has exactly b-1 nonzero terms
        check = verify("THM-E", points=[{"b": float(b)}]).checks[0]
        assert check.passed and check.abs_err <= 1e-6, check
        spec, _, _ = REGISTRY["THM-E"].lhs.right.bind({"b": float(b)})
        assert spec.term(b) == 0.0
        assert all(spec.term(n) != 0.0 for n in range(1, b))


# --- property suites --------------------------------------------------------


def test_property_gamma_reflection_and_recurrence():
    pts = (0.3, 0.72, 0.25 + 0.6j, -1.3 + 0.4j, 2.1 - 1.7j)
    for z in pts:
        w = cmath.exp(ln_gamma(z) + ln_gamma(1.0 - z))
        want = math.pi / cmath.sin(math.pi * z)
        assert abs(w - want) <= 1e-11 * abs(want), z
        ratio = cmath.exp(ln_gamma(z + 1.0) - ln_gamma(z))
        assert abs(ratio - z) <= 1e-12 * max(1.0, abs(z)), z
        got = digamma(1.0 - z) - digamma(z)
        want = math.pi / cmath.tan(math.pi * z)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), z
    for a, n in ((0.37, 11), (-2.6 + 0.4j, 23), (1.5, 64), (0.2 - 0.9j, 100)):
        left = pochhammer(a, n + 1)
        right = pochhammer(a, n) * (a + n)
        assert abs(left - right) <= 1e-12 * max(1.0, abs(right))


def test_property_weight_incrementality():
    from hyperharmonic import (DigammaDiffSum, Harmonic, HarmonicSqPlusGen2,
                               LinearCombo, Unit)
    kinds = (
        Unit(), Harmonic(), Harmonic(stride=2), Harmonic(stride=3),
        Harmonic(offset=1), Harmonic(offset=2), HarmonicSqPlusGen2(),
        DigammaDiffSum(0.3 + 0.1j, 0.2),
        LinearCombo(((4.0, Harmonic(stride=2)), (-3.0, Harmonic()))),
    )
    for kind in kinds:
        for n0 in (0, 1):
            steps = kind.steps(n0)
            for n in range(n0, n0 + 300):
                got = next(steps)
                want = kind.value(n)
                assert abs(got - want) <= 1e-11 * max(1.0, abs(want)), (kind, n)


def test_property_pochhammer_derivative_lemma():
    # d/dc [1/(c)_n] at c=1 is -H_n/n!; the second derivative is
    # (H_n^2 + H_n^(2))/n!
    mpmath.mp.dps = 30
    for n in range(1, 51):
        def f(c):
            return 1 / mpmath.rf(c, n)
        fac = float(math.factorial(n))
        d1 = complex(mpmath.diff(f, 1, 1))
        got1 = -harmonic(n) / fac
        assert abs(got1 - d1) <= 1e-12 * abs(d1), n
        d2 = complex(mpmath.diff(f, 1, 2))
        got2 = (harmonic(n) ** 2 + generalized_harmonic(n, 2)) / fac
        assert abs(got2 - d2) <= 1e-12 * abs(d2), n


def test_property_transformation_residuals():
    for ident_id in ("TR-2.11.2", "TR-2.11.7", "TR-2.11.5", "TR-4.5.1"):
        report = assert_all_within(ident_id, 1e-10, expect_points=10)
        for chk in report.checks:
            assert chk.abs_err <= 1e-10 * max(1.0, abs(chk.rhs))


# --- command-line interface --------------------------------------------------


def test_cli_verify_all_passes(capsys, tmp_path):
    path = tmp_path / "all.json"
    rc = main(["verify", "--all", "--quiet", "--json", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert f"{len(REGISTRY)} checked: {len(REGISTRY)} passed, 0 failed, " \
           "0 errors" in out
    payload = json.loads(path.read_text())
    assert len(payload["results"]) == len(REGISTRY)
    assert all(r["passed"] for r in payload["results"])
    assert [r["id"] for r in payload["results"]] == list(REGISTRY)


def test_cli_json_report_deterministic_for_fixed_seed(capsys):
    def run():
        rc = main(["verify", "--ids", "TR-2.11.2", "SUM-CHOI",
                   "--seed", "4242", "--json", "-"])
        out = capsys.readouterr().out
        assert rc == 0
        text, brace, rest = out.partition("{")
        payload = json.loads(brace + rest)
        return text, payload

    text1, payload1 = run()
    text2, payload2 = run()
    assert text1 == text2
    payload1["run"].pop("timestamp")
    payload2["run"].pop("timestamp")
    assert payload1 == payload2


def test_cli_corrupted_constant_flips_one_row(capsys):
    rc = main(["verify", "--ids", "EX-1", "EX-2", "EX-3", "--quiet",
               "--perturb", "EX-2=1e-5", "--json", "-"])
    out = capsys.readouterr().out
    assert rc == 2
    payload = json.loads(out[out.index("{"):])
    flags = {r["id"]: r["passed"] for r in payload["results"]}
    assert flags == {"EX-1": True, "EX-2": False, "EX-3": True}
    lines = out[:out.index("{")].strip().splitlines()
    assert sum("FAIL" in line for line in lines) == 1
