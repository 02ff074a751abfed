"""Registry of verifiable series identities and transformation checks.

Each entry pairs weighted Pochhammer-ratio series (the `lhs`, plus any
series that belong on the right-hand side) with a closed-form expression
tree, a comparison tolerance, and deterministic sample points. The
definitions do not depend on the seed and are built once, at import; a
registry is those shared definitions plus one seed's points. The
records (SeriesTerm, Identity, PointCheck, VerifyReport) are Frozen
value classes; Identity.replace(...) derives a copy, as build_registry
and with_perturbed_rhs do. verify() evaluates both sides and reports
mismatches as failed checks rather than exceptions; genuine evaluation
trouble (divergence, domain violations) still raises, naming the
identity, the point and the side.

Comparison rule: relative error when |rhs| >= 1, absolute error below
that, always against the named tolerance. Every series is evaluated at
a quarter of that tolerance so both sides contribute headroom.
"""

from __future__ import annotations

import math
import random

from ._frozen import Frozen
from .errors import DomainError, HyperharmonicError, UnknownIdentityError
from .expr import (C, Const, Cos, Digamma, EllipticK, Gamma, GammaRatio,
                   Hyp2F1, Log, Mul, P, PI, Pow, Sin, Sqrt)
from .series import (DigammaDiffSum, Harmonic, HarmonicSqPlusGen2,
                     LinearCombo, PochhammerRatioSeries, ReciprocalShift, Unit,
                     eval_weighted, finite_difference, hyp2f1)
from .specialfn import gamma_ratio, harmonic

__all__ = [
    "DEFAULT_SEED", "Identity", "SeriesTerm", "PointCheck", "VerifyReport",
    "REGISTRY", "build_registry", "get_identity", "verify", "eval_lhs",
    "eval_rhs", "with_perturbed_rhs", "ode_residual",
    "boundary_asymptotic_check", "finite_sum_instance",
]

DEFAULT_SEED = 101

_LN2 = math.log(2.0)
_LN4 = math.log(4.0)


class SeriesTerm(Frozen):
    """One weighted series with a scalar (possibly parameter-dependent)
    coefficient Expr. build(env) -> (spec, weight, argument)."""

    __slots__ = ("coefficient", "build")


class Identity(Frozen):
    """A registry entry. kind is "identity" or "transformation"; lhs and
    rhs_series are tuples of SeriesTerm, rhs an Expr; accel is data only:
    it marks identities with unit-argument sides."""

    __slots__ = ("id", "kind", "description", "param_names", "sample_points",
                 "lhs", "rhs", "rhs_series", "tol", "accel")

    def __init__(self, id, kind, description, param_names, sample_points,
                 lhs, rhs, rhs_series=(), tol=1e-9, accel=False):
        Frozen.__init__(self, id, kind, description, param_names,
                        sample_points, lhs, rhs, rhs_series, tol, accel)


class PointCheck(Frozen):
    """One compared point; rel_err is None where rhs == 0."""

    __slots__ = ("params", "lhs", "rhs", "abs_err", "rel_err", "passed",
                 "terms_used", "method")


class VerifyReport(Frozen):
    __slots__ = ("identity_id", "tol", "checks")  # checks: PointChecks

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[PointCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)


# ---------------------------------------------------------------------------
# evaluation


def _located(exc: HyperharmonicError, ident: Identity, env: dict,
             where: str) -> HyperharmonicError:
    """The same error class, its message prefixed with the identity, the
    point and the side (lhs term k, rhs series term k or rhs expression,
    k counting from 0) where it was raised."""
    return type(exc)(f"{ident.id} at {env}, {where}: {exc}")


def _sum_terms(ident: Identity, terms, env: dict, side: str):
    total = 0j
    used = 0
    methods = set()
    for k, term in enumerate(terms):
        try:
            spec, weight, x = term.build(env)
            res = eval_weighted(spec, weight, x, tol=ident.tol / 4.0)
            total += term.coefficient.eval(env) * res.value
        except HyperharmonicError as exc:
            raise _located(exc, ident, env, f"{side} term {k}") from exc
        used += res.terms_used
        methods.add(res.method)
    return total, used, methods


def _eval_rhs_expr(ident: Identity, env: dict) -> complex:
    try:
        return ident.rhs.eval(env)
    except HyperharmonicError as exc:
        raise _located(exc, ident, env, "rhs expression") from exc


def _check_point(ident: Identity, env: dict, tol: float) -> PointCheck:
    lhs, used_l, methods = _sum_terms(ident, ident.lhs, env, "lhs")
    rhs, used_r, methods_r = _sum_terms(ident, ident.rhs_series, env,
                                        "rhs series")
    rhs += _eval_rhs_expr(ident, env)
    methods |= methods_r
    abs_err = abs(lhs - rhs)
    rel_err = abs_err / abs(rhs) if rhs != 0 else None
    passed = (rel_err <= tol) if abs(rhs) >= 1.0 else (abs_err <= tol)
    return PointCheck(dict(env), lhs, rhs, abs_err, rel_err, passed,
                      used_l + used_r,
                      "extrapolated" if "extrapolated" in methods else "direct")


def get_identity(identity, registry: dict | None = None) -> Identity:
    if isinstance(identity, Identity):
        return identity
    reg = REGISTRY if registry is None else registry
    try:
        return reg[identity]
    except KeyError:
        raise UnknownIdentityError(identity) from None


def verify(identity, *, points=None, tol: float | None = None,
           registry: dict | None = None) -> VerifyReport:
    """Check an identity at its sample points (or the given ones).

    Numerical disagreement comes back as failed PointChecks; evaluation
    failures (divergent series, domain violations) raise the same error
    class with a message that names the identity, the point and the side.
    """
    ident = get_identity(identity, registry)
    if tol is None:
        tol = ident.tol
    pts = ident.sample_points if points is None else tuple(dict(p) for p in points)
    return VerifyReport(ident.id, tol, tuple(_check_point(ident, dict(p), tol)
                                             for p in pts))


def eval_lhs(identity, registry: dict | None = None, **params) -> complex:
    ident = get_identity(identity, registry)
    val, _, _ = _sum_terms(ident, ident.lhs, params, "lhs")
    return val


def eval_rhs(identity, registry: dict | None = None, **params) -> complex:
    ident = get_identity(identity, registry)
    val, _, _ = _sum_terms(ident, ident.rhs_series, params, "rhs series")
    return val + _eval_rhs_expr(ident, params)


def with_perturbed_rhs(identity, eps: float, registry: dict | None = None) -> Identity:
    """Copy of an identity with its closed-form side scaled by (1 + eps).

    Fault-injection helper: a perturbed copy must fail verification, which
    exercises the failure-reporting path end to end. Only the expression
    part is scaled, so pick an identity whose rhs expression is nonzero.
    """
    ident = get_identity(identity, registry)
    return ident.replace(rhs=Mul(ident.rhs, C(1.0 + eps)))


# ---------------------------------------------------------------------------
# structural checks beyond value comparison


def ode_residual(a, x, h: float = 1e-3, homogeneous: bool = False) -> float:
    """Residual of the second-order equation satisfied by the H_n
    generating function v(x) = sum (a)_n (1-a)_n / (n!)^2 H_n x^n:

        x(1-x) v'' + (1-2x) v' - a(1-a) v = a(1-a) 2F1(a+1, 2-a; 2; x)

    (the right side is d/dx 2F1(a, 1-a; 1; x)). With homogeneous=True the
    plain 2F1 replaces v and the forcing term is zero. Derivatives are
    Richardson-extrapolated central differences with step h; the residual
    is normalized by max(1, |forcing|).
    """
    a = complex(a)
    x = complex(x)
    if homogeneous:
        def v(t):
            return hyp2f1(a, 1.0 - a, 1.0, t, tol=1e-12)
        forcing = 0j
    else:
        spec = PochhammerRatioSeries((a, 1.0 - a), (), 2, 1.0, 1)

        def v(t):
            return eval_weighted(spec, Harmonic(), t, tol=1e-12).value
        forcing = a * (1.0 - a) * hyp2f1(a + 1.0, 2.0 - a, 2.0, x, tol=1e-12)
    v0 = v(x)
    v1 = finite_difference(v, x, 1, h)
    v2 = finite_difference(v, x, 2, h)
    resid = x * (1.0 - x) * v2 + (1.0 - 2.0 * x) * v1 - a * (1.0 - a) * v0 - forcing
    return abs(resid) / max(1.0, abs(forcing))


def boundary_asymptotic_check(a: float, xs=(1e-3, 1e-4)) -> dict:
    """Logarithmic blow-up of 2F1(a, 1-a; 1; 1-x) as x -> 0.

    The function grows like (sin(pi a)/pi) log(1/x) + O(1). Returns the
    measured slope across the xs pair, the O(1) offsets, and pass flags:
    slope within 5 percent and offsets bounded by 1.
    """
    a = float(a)
    expected = math.sin(math.pi * a) / math.pi
    logs = [math.log(1.0 / x) for x in xs]
    vals = [hyp2f1(a, 1.0 - a, 1.0, 1.0 - x, tol=1e-7, max_terms=500000).real
            for x in xs]
    offsets = tuple(v - expected * L for v, L in zip(vals, logs))
    slope = (vals[0] - vals[1]) / (logs[0] - logs[1])
    slope_rel_err = abs(slope - expected) / abs(expected)
    bounded = all(abs(o) <= 1.0 for o in offsets)
    return {
        "a": a,
        "slope": slope,
        "expected_slope": expected,
        "slope_rel_err": slope_rel_err,
        "offsets": offsets,
        "bounded": bounded,
        "passed": bounded and slope_rel_err <= 0.05,
    }


def finite_sum_instance(identity_id: str, b: int) -> dict:
    """Terminating instance of THM-E at integer b >= 2.

    The H_{2n} companion series has numerator shift 1-b, so its terms
    vanish from n = b on: exactly b-1 nonzero terms. Sums that small are
    evaluated exactly and checked against the gamma-ratio closed form.
    """
    if identity_id != "THM-E":
        raise UnknownIdentityError(identity_id)
    if b != int(b) or b < 2:
        raise DomainError(f"terminating instances need integer b >= 2, got {b!r}")
    b = int(b)
    spec2 = PochhammerRatioSeries((0.5, 1.0 - b), (b + 0.5,), 1, 1.0, 1)
    companion = 0j
    for n in range(1, b):
        companion += spec2.term(n) * harmonic(2 * n)
    # term at n = b must vanish identically
    vanish = spec2.term(b)
    spec1 = PochhammerRatioSeries((0.5, float(b)), (2.0 * b,), 1, 1.0, 1)
    s1 = eval_weighted(spec1, Harmonic(), 1.0, tol=2.5e-7)
    closed = gamma_ratio([b + 0.5, 2.0 * b - 1.0], [b, 2.0 * b - 0.5]) * _LN2
    lhs = 0.25 * s1.value - companion
    residual = abs(lhs - closed)
    return {
        "b": b,
        "termination_index": b - 1,
        "term_count": b - 1,
        "vanishing_term": abs(vanish),
        "companion_value": companion,
        "lhs": lhs,
        "closed_form": closed,
        "residual": residual,
        "identity_holds": residual <= 1e-6 * max(1.0, abs(closed)),
    }


# ---------------------------------------------------------------------------
# registry construction

_REAL_POOL = (0.1, 0.2, 0.25, 1.0 / 3.0, 0.45)
_COMPLEX_POOL = (0.3 + 0.1j, 0.2 - 0.2j)
_FULL_POOL = _REAL_POOL + _COMPLEX_POOL


def _rng_for(seed: int, ident_id: str) -> random.Random:
    return random.Random(f"{seed}:{ident_id}")


def _draw_points(rng, names, pool, count, pred=None, seed_points=()):
    pts = [dict(p) for p in seed_points]
    tries = 0
    while len(pts) < count:
        tries += 1
        if tries > 100000:
            raise RuntimeError("sample-point predicate too restrictive")
        cand = {nm: rng.choice(pool) for nm in names}
        if pred is not None and not pred(cand):
            continue
        if any(all(cand[nm] == q[nm] for nm in names) for q in pts):
            continue
        pts.append(cand)
    return tuple(pts)


def _draw_z(rng, pred, lo=-0.9, hi=0.9, im=0.45):
    while True:
        z = complex(rng.uniform(lo, hi), rng.uniform(-im, im))
        if pred(z):
            return z


def _doubling_kernels(env):
    a, b = env["a"], env["b"]
    half = PochhammerRatioSeries((2.0 * a, 2.0 * b), (a + b + 0.5,), 1, 0.5, 1)
    unit = PochhammerRatioSeries((a, b), (a + b + 0.5,), 1, 1.0, 1)
    return half, unit


def _seeded_points(seed: int) -> dict:
    """{id: sample points} of the entries whose points the seed draws.

    Each entry draws from its own stream, _rng_for(seed, id), so no entry
    moves another's points; SUM-GAUSSD shares THM-C's draw.
    """
    pts = {}
    pts["THM-A1"] = _draw_points(
        _rng_for(seed, "THM-A1"), ("a", "b"), _FULL_POOL, 12,
        seed_points=({"a": 0.3 + 0.1j, "b": 0.2}, {"a": 0.25, "b": 0.25}))
    # the unit side certifies beyond the cap on Re(a+b); the cap stays
    # because it fixes the seeded sample points
    pts["THM-A2"] = _draw_points(
        _rng_for(seed, "THM-A2"), ("a", "b"), _FULL_POOL, 8,
        pred=lambda e: (complex(e["a"]) + complex(e["b"])).real <= 0.75,
        seed_points=({"a": 0.25, "b": 0.25}, {"a": 0.3 + 0.1j, "b": 0.2}))

    def _c_pred(e):
        av, bv = complex(e["a"]), complex(e["b"])
        s = av + bv
        return (abs(av) >= 0.05 and abs(bv) >= 0.05
                and s.real <= 0.2
                and abs(s + 0.5) >= 0.15 and abs(s - 0.5) >= 0.15
                and abs(2.0 * av - 1.0) >= 0.2 and abs(2.0 * bv - 1.0) >= 0.2)

    pts["THM-C"] = pts["SUM-GAUSSD"] = _draw_points(
        _rng_for(seed, "THM-C"), ("a", "b"),
        (-0.35, -0.25, -0.15, 0.1, 0.15, 0.2, 0.25, -0.3 + 0.1j, 0.1 - 0.15j),
        6, pred=_c_pred, seed_points=({"a": -0.25, "b": 0.15},))
    pts["THM-D"] = _draw_points(
        _rng_for(seed, "THM-D"), ("a", "b"),
        (0.15, 0.25, 1.0 / 3.0, 0.45, 0.6, 0.3 + 0.1j, 0.2 - 0.2j), 5,
        pred=lambda e: (complex(e["a"]) + complex(e["b"])).real >= 0.25,
        seed_points=({"a": 0.25, "b": 0.25},))

    def _z_rational_pred(w):
        return (abs(w) <= 0.5 and w.real >= -0.1
                and abs(4.0 * w / (1.0 + w) ** 2) <= 0.92)

    # (id, parameters drawn from the pool, then z's predicate and box)
    for ident_id, names, z_pred, lo, hi, im in (
            ("TR-2.11.2", ("a", "b"),
             lambda w: (w.real < 0.5 and abs(w) <= 0.38
                        and abs(4.0 * w * (1.0 - w)) <= 0.9),
             -0.38, 0.38, 0.38),
            ("TR-2.11.7", ("a", "b"),
             lambda w: (abs(w) <= 0.9 and abs((1.0 + w) / 2.0) <= 0.95
                        and abs((1.0 - w) / 2.0) <= 0.95),
             -0.9, 0.9, 0.45),
            ("TR-2.11.5", ("a", "b"), _z_rational_pred, -0.1, 0.5, 0.35),
            ("TR-4.5.1", ("a", "b", "c"), _z_rational_pred, -0.1, 0.5, 0.35)):
        rng = _rng_for(seed, ident_id)
        drawn = []
        for _ in range(10):
            params = _draw_points(rng, names, _FULL_POOL, 1)[0]
            params["z"] = _draw_z(rng, z_pred, lo=lo, hi=hi, im=im)
            drawn.append(params)
        pts[ident_id] = tuple(drawn)
    return pts


def _definitions() -> dict:
    """Every entry without its seeded points, keyed by id in display
    order. An entry whose points _seeded_points draws has none here."""
    a, b, c, k, x, z = P("a"), P("b"), P("c"), P("k"), P("x"), P("z")
    ids: list[Identity] = []

    # --- harmonic-weight identities -------------------------------------

    ids.append(Identity(
        id="THM-A1", kind="identity",
        description="H_n-weighted doubled kernel at argument 1/2 equals the "
                    "base kernel at unit argument",
        param_names=("a", "b"), sample_points=(),
        lhs=(SeriesTerm(C(2), lambda e: (_doubling_kernels(e)[0], Harmonic(), 1.0)),),
        rhs=C(0),
        rhs_series=(SeriesTerm(C(1), lambda e: (_doubling_kernels(e)[1], Harmonic(), 1.0)),),
        tol=1e-8, accel=True))

    ids.append(Identity(
        id="THM-A2", kind="identity",
        description="(H_n^2 + H_n^(2))-weighted form of the argument doubling",
        param_names=("a", "b"), sample_points=(),
        lhs=(SeriesTerm(C(4), lambda e: (_doubling_kernels(e)[0],
                                         HarmonicSqPlusGen2(), 1.0)),),
        rhs=C(0),
        rhs_series=(SeriesTerm(C(1), lambda e: (_doubling_kernels(e)[1],
                                                HarmonicSqPlusGen2(), 1.0)),),
        tol=1e-8, accel=True))

    ids.append(Identity(
        id="COR-A1", kind="identity",
        description="terminating-direction H_n sum at 1/2 in digamma form",
        param_names=("a",),
        sample_points=tuple({"a": round(0.1 * j, 1)} for j in range(1, 10)),
        lhs=(SeriesTerm(C(1), lambda e: (PochhammerRatioSeries(
            (2.0 * e["a"], 2.0), (e["a"] + 1.5,), 1, 0.5, 1), Harmonic(), 1.0)),),
        rhs=(a + 0.5) * (Digamma(a + 0.5) - Digamma(C(0.5))),
        tol=1e-9))

    ids.append(Identity(
        id="COR-A2", kind="identity",
        description="symmetric-pair H_n sum at 1/2: gamma-digamma closed form",
        param_names=("a",),
        sample_points=tuple({"a": v} for v in
                            (1.0 / 6.0, 0.25, 1.0 / 3.0, 0.5, 0.7)),
        lhs=(SeriesTerm(C(1), lambda e: (PochhammerRatioSeries(
            (e["a"], 1.0 - e["a"]), (), 2, 0.5, 1), Harmonic(), 1.0)),),
        rhs=(Sqrt(PI) / (2 * Gamma(1 - a / 2) * Gamma((a + 1) / 2)))
            * (Digamma(1 - a / 2) + Digamma((a + 1) / 2)
               - Digamma(C(1)) - Digamma(C(0.5))),
        tol=1e-9))

    _sq_half = PochhammerRatioSeries((0.5, 0.5), (), 2, 0.5, 1)
    _tt_half = PochhammerRatioSeries((1.0 / 3.0, 2.0 / 3.0), (), 2, 0.5, 1)
    _g14 = Gamma(C(0.25))
    _g13 = Gamma(C(1.0 / 3.0))

    ids.append(Identity(
        id="EX-1", kind="identity",
        description="H_n against the squared-half kernel at 1/2",
        param_names=(), sample_points=({},),
        lhs=(SeriesTerm(C(1), lambda e: (_sq_half, Harmonic(), 1.0)),),
        rhs=_g14 ** 2 / (4 * Sqrt(PI)) * (1 - 4 * Log(C(2)) / PI),
        tol=1e-10))

    ids.append(Identity(
        id="EX-2", kind="identity",
        description="H_n against the third-pair kernel at 1/2",
        param_names=(), sample_points=({},),
        lhs=(SeriesTerm(C(1), lambda e: (_tt_half, Harmonic(), 1.0)),),
        rhs=_g13 ** 3 / (C(2.0 ** (7.0 / 3.0)) * PI)
            * (Sqrt(C(3)) - 9 * Log(C(3)) / (2 * PI)),
        tol=1e-10))

    ids.append(Identity(
        id="EX-3", kind="identity",
        description="H_{2n} against the squared-half kernel at 1/2",
        param_names=(), sample_points=({},),
        lhs=(SeriesTerm(C(1), lambda e: (_sq_half, Harmonic(stride=2), 1.0)),),
        rhs=_g14 ** 2 / (8 * Sqrt(PI)) * (1 - 3 * Log(C(2)) / PI),
        tol=1e-10))

    ids.append(Identity(
        id="EX-4", kind="identity",
        description="H_{3n} against the third-pair kernel at 1/2",
        param_names=(), sample_points=({},),
        lhs=(SeriesTerm(C(1), lambda e: (_tt_half, Harmonic(stride=3), 1.0)),),
        rhs=_g13 ** 3 / (C(2.0 ** (7.0 / 3.0)) * PI)
            * (1 / Sqrt(C(3)) + (2 * Log(C(2)) - 3 * Log(C(3))) / (2 * PI)),
        tol=1e-10))

    ids.append(Identity(
        id="SUM-CHOI", kind="identity",
        description="partial-fraction digamma weight against the doubled "
                    "kernel at 1/2",
        param_names=("a", "b"),
        sample_points=({"a": 0.25, "b": 0.25}, {"a": 0.3, "b": 0.2},
                       {"a": 0.3 + 0.1j, "b": 0.25}),
        lhs=(SeriesTerm(C(1), lambda e: (_doubling_kernels(e)[0],
                                         DigammaDiffSum(e["a"], e["b"]), 1.0)),),
        rhs=GammaRatio((C(0.5), a + b + 0.5), (a + 0.5, b + 0.5))
            * (Digamma(a + b + 0.5) - Digamma(b + 0.5)),
        tol=1e-8))

    ids.append(Identity(
        id="SUM-MIX", kind="identity",
        description="mixed 4H_{2n} - 3H_n weight at 1/2",
        param_names=(), sample_points=({},),
        lhs=(SeriesTerm(C(1), lambda e: (_sq_half, LinearCombo(
            ((4.0, Harmonic(stride=2)), (-3.0, Harmonic()))), 1.0)),),
        rhs=_g14 ** 2 / (4 * Sqrt(PI)) * (6 * Log(C(2)) / PI - 1),
        tol=1e-8))

    _k_grid = tuple({"k": round(0.1 * j, 1)} for j in range(1, 10))
    _sq_unit = PochhammerRatioSeries((0.5, 0.5), (), 2, 1.0, 1)

    ids.append(Identity(
        id="GF-K1", kind="identity",
        description="H_n generating function at k^2: complete elliptic "
                    "integral combination",
        param_names=("k",), sample_points=_k_grid,
        lhs=(SeriesTerm(C(1), lambda e: (_sq_unit, Harmonic(), e["k"] ** 2)),),
        rhs=EllipticK(Sqrt(1 - k ** 2))
            + EllipticK(k) * Log(k ** 2 / (16 * (1 - k ** 2))) / PI,
        tol=1e-9))

    ids.append(Identity(
        id="GF-K2", kind="identity",
        description="H_{2n} generating function at k^2 via elliptic integrals",
        param_names=("k",), sample_points=_k_grid,
        lhs=(SeriesTerm(C(1), lambda e: (_sq_unit, Harmonic(stride=2),
                                         e["k"] ** 2)),),
        rhs=C(0.5) * EllipticK(Sqrt(1 - k ** 2))
            + EllipticK(k) * Log(k / (4 * (1 - k ** 2))) / PI,
        tol=1e-9))

    _thmb_pts = tuple({"a": av, "x": round(0.1 * j, 1)}
                      for av in (0.5, 1.0 / 3.0, 0.25, 1.0 / 6.0)
                      for j in range(1, 10))
    ids.append(Identity(
        id="THM-B", kind="identity",
        description="H_n generating function as a two-term Gauss-series "
                    "combination with logarithmic coefficient",
        param_names=("a", "x"), sample_points=_thmb_pts,
        lhs=(SeriesTerm(C(1), lambda e: (PochhammerRatioSeries(
            (e["a"], 1.0 - e["a"]), (), 2, 1.0, 1), Harmonic(), e["x"])),),
        rhs=PI / (2 * Sin(PI * a)) * Hyp2F1(a, 1 - a, C(1), 1 - x)
            + C(0.5) * (Digamma(1 - a / 2) + Digamma((a + 1) / 2)
                        - Digamma(C(1)) - Digamma(C(0.5))
                        - PI / Sin(PI * a) - Log((1 - x) / x))
            * Hyp2F1(a, 1 - a, C(1), x),
        tol=1e-8))

    ids.append(Identity(
        id="EQ-H3N", kind="identity",
        description="H_{3n} generating function for the third-pair kernel",
        param_names=("x",),
        sample_points=tuple({"x": round(0.1 * j, 1)} for j in range(1, 10)),
        lhs=(SeriesTerm(C(1), lambda e: (PochhammerRatioSeries(
            (1.0 / 3.0, 2.0 / 3.0), (), 2, 1.0, 1), Harmonic(stride=3), e["x"])),),
        rhs=PI / C(3.0 * math.sqrt(3.0))
            * Hyp2F1(C(1.0 / 3.0), C(2.0 / 3.0), C(1), 1 - x)
            - Hyp2F1(C(1.0 / 3.0), C(2.0 / 3.0), C(1), x)
            * (C(0.5) * Log(3 * (1 - x)) - Log(x) / 6),
        tol=1e-9))

    _x1 = 3.0 * (3.0 - math.sqrt(3.0)) / 4.0
    _x2 = (3.0 * math.sqrt(3.0) - 5.0) / 4.0
    ids.append(Identity(
        id="VAL-ALG", kind="identity",
        description="algebraic special values of the third-pair Gauss series "
                    "at a conjugate argument pair",
        param_names=("x", "scale"),
        sample_points=({"x": _x1, "scale": 1.0},
                       {"x": _x2, "scale": math.sqrt(3.0)}),
        lhs=(SeriesTerm(P("scale"), lambda e: (PochhammerRatioSeries(
            (1.0 / 3.0, 2.0 / 3.0), (), 2, 1.0, 0), Unit(), e["x"])),),
        rhs=Pow(C(3), C(0.375)) * Pow(C(2.0 + math.sqrt(3.0)), C(0.25))
            * _g14 ** 2 / Pow(2 * PI, C(1.5)),
        tol=1e-9))

    ids.append(Identity(
        id="THM-C", kind="identity",
        description="H_n/(n+1) weight against the doubled kernel at unit "
                    "argument: trigonometric-digamma closed form",
        param_names=("a", "b"), sample_points=(),
        lhs=(SeriesTerm(C(1), lambda e: (PochhammerRatioSeries(
            (2.0 * e["a"], 2.0 * e["b"]), (e["a"] + e["b"] + 0.5,), 1, 1.0, 1),
            ReciprocalShift(Harmonic()), 1.0)),),
        rhs=(2 * a + 2 * b - 1) * Sin(PI * a) * Sin(PI * b)
            / ((2 * a - 1) * (2 * b - 1) * Cos(PI * (a + b)))
            * (Digamma(C(0.5)) + Digamma(1.5 - a - b)
               - Digamma(1 - a) - Digamma(1 - b)),
        tol=1e-6, accel=True))

    ids.append(Identity(
        id="SUM-GAUSSD", kind="identity",
        description="(2H_{2n} - H_n)-weighted unit-argument sum equal to a "
                    "digamma-weighted gamma ratio",
        param_names=("a", "b"), sample_points=(),
        lhs=(SeriesTerm(C(-1), lambda e: (PochhammerRatioSeries(
            (e["a"], e["b"]), (0.5,), 1, 1.0, 1), LinearCombo(
            ((2.0, Harmonic(stride=2)), (-1.0, Harmonic()))), 1.0)),),
        rhs=GammaRatio((C(0.5), 0.5 - a - b), (0.5 - a, 0.5 - b))
            * (Digamma(C(0.5)) + Digamma(0.5 - a - b)
               - Digamma(0.5 - a) - Digamma(0.5 - b)),
        tol=1e-6, accel=True))

    def _thmd_mono(e):
        return PochhammerRatioSeries(
            (0.5, e["a"] + e["b"]), (1.0 + e["a"], 1.0 + e["b"]), 0, 1.0, 1)

    ids.append(Identity(
        id="THM-D", kind="identity",
        description="three-series combination tying H_n weights at arguments "
                    "+1 and -1 to log 4",
        param_names=("a", "b"), sample_points=(),
        lhs=(SeriesTerm(C(1), lambda e: (_thmd_mono(e), Harmonic(), 1.0)),
             SeriesTerm(C(-4), lambda e: (PochhammerRatioSeries(
                 (1.0 - e["a"], 1.0 - e["b"]), (1.0 + e["a"], 1.0 + e["b"]),
                 0, -1.0, 1), Harmonic(), 1.0)),
             SeriesTerm(C(-_LN4), lambda e: (_thmd_mono(e), Unit(), 1.0))),
        rhs=C(_LN4),
        tol=1e-6, accel=True))

    _cord_spec = PochhammerRatioSeries((0.75, 0.5), (1.25, 1.5), 0, 1.0, 1)
    _cord_alt = PochhammerRatioSeries((0.75, 0.5), (1.25, 1.5), 0, -1.0, 1)
    ids.append(Identity(
        id="COR-D", kind="identity",
        description="quarter-parameter instance of the two-argument H_n "
                    "combination",
        param_names=(), sample_points=({},),
        lhs=(SeriesTerm(C(0.25), lambda e: (_cord_spec, Harmonic(), 1.0)),
             SeriesTerm(C(-1), lambda e: (_cord_alt, Harmonic(), 1.0))),
        rhs=_g14 ** 4 * Log(C(2)) / (64 * PI),
        tol=1e-8, accel=True))

    ids.append(Identity(
        id="THM-E", kind="identity",
        description="H_n and H_{2n} sums over contiguous kernels differing "
                    "by a gamma-ratio multiple of log 2",
        param_names=("b",),
        sample_points=({"b": 0.75}, {"b": 1.2}, {"b": 2.0}, {"b": 3.0}),
        lhs=(SeriesTerm(C(0.25), lambda e: (PochhammerRatioSeries(
            (0.5, e["b"]), (2.0 * e["b"],), 1, 1.0, 1), Harmonic(), 1.0)),
             SeriesTerm(C(-1), lambda e: (PochhammerRatioSeries(
                 (0.5, 1.0 - e["b"]), (e["b"] + 0.5,), 1, 1.0, 1),
                 Harmonic(stride=2), 1.0))),
        rhs=GammaRatio((b + 0.5, 2 * b - 1), (b, 2 * b - 0.5)) * Log(C(2)),
        tol=1e-6, accel=True))

    # --- transformation and evaluation cross-checks ----------------------

    ids.append(Identity(
        id="TR-2.11.2", kind="transformation",
        description="quadratic argument map z -> 4z(1-z) between doubled and "
                    "base kernels",
        param_names=("a", "b", "z"), sample_points=(),
        lhs=(SeriesTerm(C(1), lambda e: (PochhammerRatioSeries(
            (2.0 * e["a"], 2.0 * e["b"]), (e["a"] + e["b"] + 0.5,), 1, 1.0, 0),
            Unit(), e["z"])),),
        rhs=Hyp2F1(a, b, a + b + 0.5, 4 * z * (1 - z)),
        tol=1e-10))

    ids.append(Identity(
        id="TR-2.11.7", kind="transformation",
        description="splitting of the squared-argument kernel into the two "
                    "half-shifted arguments",
        param_names=("a", "b", "z"), sample_points=(),
        lhs=(SeriesTerm(2 * GammaRatio((C(0.5), a + b + 0.5), (a + 0.5, b + 0.5)),
                        lambda e: (PochhammerRatioSeries(
                            (e["a"], e["b"]), (0.5,), 1, 1.0, 0), Unit(),
                            e["z"] ** 2)),),
        rhs=Hyp2F1(2 * a, 2 * b, a + b + 0.5, (1 + z) / 2)
            + Hyp2F1(2 * a, 2 * b, a + b + 0.5, (1 - z) / 2),
        tol=1e-10))

    ids.append(Identity(
        id="TR-2.11.5", kind="transformation",
        description="rational pullback 4z/(1+z)^2 with algebraic prefactor "
                    "against the squared-argument kernel",
        param_names=("a", "b", "z"), sample_points=(),
        lhs=(SeriesTerm(Pow(1 + z, -2 * a), lambda e: (PochhammerRatioSeries(
            (e["a"], e["b"]), (2.0 * e["b"],), 1, 1.0, 0), Unit(),
            4.0 * e["z"] / (1.0 + e["z"]) ** 2)),),
        rhs=Hyp2F1(a, a + 0.5 - b, b + 0.5, z ** 2),
        tol=1e-10))

    ids.append(Identity(
        id="TR-4.5.1", kind="transformation",
        description="rational transformation of the two-denominator kernel "
                    "with power prefactor",
        param_names=("a", "b", "c", "z"), sample_points=(),
        lhs=(SeriesTerm(C(1), lambda e: (PochhammerRatioSeries(
            (e["a"], e["b"], e["c"]),
            (e["a"] - e["b"] + 1.0, e["a"] - e["c"] + 1.0), 1, 1.0, 0),
            Unit(), -e["z"])),),
        rhs=C(0),
        rhs_series=(SeriesTerm(Pow(1 + z, -a), lambda e: (PochhammerRatioSeries(
            (e["a"] - e["b"] - e["c"] + 1.0, e["a"] / 2.0, (e["a"] + 1.0) / 2.0),
            (e["a"] - e["b"] + 1.0, e["a"] - e["c"] + 1.0), 1, 1.0, 0),
            Unit(), 4.0 * e["z"] / (1.0 + e["z"]) ** 2)),),
        tol=1e-10))

    ids.append(Identity(
        id="SUM-2.8.46", kind="transformation",
        description="unit-argument Gauss sum as a gamma ratio",
        param_names=("a", "b", "c"),
        sample_points=({"a": 0.3, "b": 0.4, "c": 3.0},
                       {"a": 0.25, "b": 0.5, "c": 2.75},
                       {"a": 0.1 + 0.2j, "b": 0.3, "c": 2.6},
                       {"a": -0.2, "b": 0.35, "c": 2.2}),
        lhs=(SeriesTerm(C(1), lambda e: (PochhammerRatioSeries(
            (e["a"], e["b"]), (e["c"],), 1, 1.0, 0), Unit(), 1.0)),),
        rhs=GammaRatio((c, c - a - b), (c - a, c - b)),
        tol=1e-8, accel=True))

    ids.append(Identity(
        id="SUM-2.8.50", kind="transformation",
        description="half-argument evaluation of the doubled kernel",
        param_names=("a", "b"),
        sample_points=({"a": 0.25, "b": 0.25}, {"a": 0.2, "b": 0.3},
                       {"a": 0.15 + 0.1j, "b": 0.2}, {"a": -0.3, "b": 0.45},
                       {"a": 1.0 / 3.0, "b": 1.0 / 6.0}),
        lhs=(SeriesTerm(C(1), lambda e: (PochhammerRatioSeries(
            (2.0 * e["a"], 2.0 * e["b"]), (e["a"] + e["b"] + 0.5,), 1, 1.0, 0),
            Unit(), 0.5)),),
        rhs=GammaRatio((C(0.5), a + b + 0.5), (a + 0.5, b + 0.5)),
        tol=1e-10))

    ids.append(Identity(
        id="SUM-2.8.51", kind="transformation",
        description="half-argument evaluation of the symmetric-pair kernel "
                    "with shifted denominator",
        param_names=("a", "c"),
        sample_points=({"a": 0.3, "c": 0.7}, {"a": 0.5, "c": 1.2},
                       {"a": 0.25 + 0.15j, "c": 0.8}, {"a": -0.4, "c": 0.6},
                       {"a": 2.0 / 3.0, "c": 5.0 / 3.0}),
        lhs=(SeriesTerm(C(1), lambda e: (PochhammerRatioSeries(
            (e["a"], 1.0 - e["a"]), (e["c"] + 1.0,), 1, 1.0, 0), Unit(), 0.5)),),
        rhs=GammaRatio((c / 2 + 1, (c + 1) / 2),
                       ((c - a) / 2 + 1, (c + a + 1) / 2)),
        tol=1e-10))

    _watson_pts = ({"a": 0.2, "b": 0.3, "c": 2.0},
                   {"a": 0.25, "b": 1.0 / 3.0, "c": 2.5},
                   {"a": 0.2 + 0.1j, "b": 0.3, "c": 2.0},
                   {"a": 0.15, "b": 0.2 - 0.1j, "c": 1.8})
    ids.append(Identity(
        id="WATSON", kind="transformation",
        description="balanced unit-argument double-kernel sum as a "
                    "four-over-four gamma product",
        param_names=("a", "b", "c"), sample_points=_watson_pts,
        lhs=(SeriesTerm(C(1), lambda e: (PochhammerRatioSeries(
            (2.0 * e["a"], 2.0 * e["b"], e["c"]),
            (e["a"] + e["b"] + 0.5, 2.0 * e["c"]), 1, 1.0, 0), Unit(), 1.0)),),
        rhs=GammaRatio((C(0.5), a + b + 0.5, c + 0.5, 0.5 - a - b + c),
                       (a + 0.5, b + 0.5, 0.5 - a + c, 0.5 - b + c)),
        tol=1e-6, accel=True))

    _eps = P("eps")
    ids.append(Identity(
        id="WATSON-PM", kind="transformation",
        description="half-step shifted variant of the balanced unit-argument "
                    "sum: symmetric and antisymmetric gamma terms",
        param_names=("a", "b", "c", "eps"),
        sample_points=({"a": 0.2, "b": 0.3, "c": 2.0, "eps": 1.0},
                       {"a": 0.2, "b": 0.3, "c": 2.0, "eps": -1.0},
                       {"a": 0.25, "b": 1.0 / 3.0, "c": 2.5, "eps": 1.0},
                       {"a": 0.15, "b": 0.2 - 0.1j, "c": 1.8, "eps": -1.0}),
        lhs=(SeriesTerm(C(1), lambda e: (PochhammerRatioSeries(
            (2.0 * e["a"], 2.0 * e["b"], e["c"] + complex(e["eps"]) / 2.0),
            (e["a"] + e["b"] + 0.5, 2.0 * e["c"]), 1, 1.0, 0), Unit(), 1.0)),),
        rhs=GammaRatio((C(0.5), c, a + b + 0.5, c - a - b),
                       (a + 0.5, b + 0.5, c - a, c - b))
            + _eps * GammaRatio((C(0.5), c, a + b + 0.5, c - a - b),
                                (a, b, c - a + 0.5, c - b + 0.5)),
        tol=1e-6, accel=True))

    out = {ident.id: ident for ident in ids}
    if len(out) != len(ids):
        raise RuntimeError("duplicate identity ids in registry")
    return out


_DEFINITIONS = _definitions()


def build_registry(seed: int = DEFAULT_SEED) -> dict:
    """All identities and transformation checks, keyed by id, in display
    order: the shared definitions, built once at import, plus this seed's
    sample points. Registries of different seeds share every expression
    tree and series builder; their points are reproducible functions of
    the seed."""
    points = _seeded_points(seed)
    return {ident_id: (ident.replace(sample_points=points[ident_id])
                       if ident_id in points else ident)
            for ident_id, ident in _DEFINITIONS.items()}


REGISTRY = build_registry(DEFAULT_SEED)
