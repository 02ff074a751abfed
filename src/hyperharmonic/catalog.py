"""Registry of verifiable series identities and transformation checks.

Each entry states its two sides as expression trees (expr): weighted
Pochhammer-ratio series are Series nodes, combined with Gauss functions
and elementary terms as the formula reads. An entry also carries a
comparison tolerance and deterministic sample points. The definitions
do not depend on the seed and are built once, at import; a registry is
those shared definitions plus one seed's points. The records (Identity,
PointCheck, VerifyReport) are Frozen value classes, so an entry is data
that compares, pickles and reprs by its formulas; Identity.replace(...)
derives a copy, as build_registry and with_perturbed_rhs do. verify()
evaluates both sides and reports mismatches as failed checks rather than
exceptions; genuine evaluation trouble (divergence, domain violations)
still raises, naming the identity, the point and the side. Beyond value
comparison, ode_residual checks the equation of THM-B's generating
function on exact derivative series, and boundary_asymptotic_check its
logarithmic growth toward x = 1.

Comparison rule: relative error when |rhs| >= 1, absolute error below
that, always against the named tolerance. Every series is evaluated at
a quarter of that tolerance so both sides contribute headroom.
"""

from __future__ import annotations

import cmath
import math
import random

from ._frozen import Frozen
from .errors import DomainError, HyperharmonicError, UnknownIdentityError
from .expr import (C, Cos, Digamma, EllipticK, Gamma, GammaRatio, Hyp2F1,
                   Log, Mul, P, PI, Pow, Series, Sin, Sqrt)
from .series import (DigammaDiffSum, Harmonic, HarmonicSqPlusGen2,
                     LinearCombo, PochhammerRatioSeries, Unit, eval_weighted,
                     hyp2f1)

__all__ = [
    "DEFAULT_SEED", "Identity", "PointCheck", "VerifyReport",
    "REGISTRY", "build_registry", "get_identity", "verify", "eval_lhs",
    "eval_rhs", "with_perturbed_rhs", "ode_residual",
    "boundary_asymptotic_check",
]

DEFAULT_SEED = 101

_LN4 = math.log(4.0)


class Identity(Frozen):
    """A registry entry. kind is "identity" or "transformation"; lhs and
    rhs are Exprs whose Series nodes are the summed series; accel is data
    only: it marks identities with unit-argument sides."""

    __slots__ = ("id", "kind", "description", "param_names", "sample_points",
                 "lhs", "rhs", "tol", "accel")

    def __init__(self, id, kind, description, param_names, sample_points,
                 lhs, rhs, tol=1e-9, accel=False):
        Frozen.__init__(self, id, kind, description, param_names,
                        sample_points, lhs, rhs, tol, accel)


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


class _Scope(dict):
    """A point's parameters, plus the tolerance that a side's Series
    nodes sum at, the list of their SeriesResults (see expr.Series), and
    the verify call's table of closed-form values (see expr), or None."""

    __slots__ = ("tol", "sums", "table")


def _eval_side(ident: Identity, env: dict, side: str, table=None):
    """(value, SeriesResults of its Series nodes) of ident's side ("lhs"
    or "rhs") at the point env, every series summed at ident.tol / 4, its
    closed-form nodes sharing values through table (a dict, or None to
    share none). An error is raised again as the same class, its message
    prefixed with the identity, the point and the place: "{side} term k"
    for the k-th Series node in evaluation order (from 0), "{side}
    expression" for any other node. An OverflowError, and a value that
    is not finite, raise DomainError with that prefix."""
    scope = _Scope(env)
    scope.tol = ident.tol / 4.0
    scope.sums = sums = []
    scope.table = table
    try:
        # from 0j, as a sum of series: a negated side's zero imaginary
        # part then reads +0.0
        value = 0j + getattr(ident, side).eval(scope)
        if not cmath.isfinite(value):
            raise DomainError(f"value {value} is not finite")
        return value, sums
    except (HyperharmonicError, OverflowError) as exc:
        where = (f"term {len(sums) - 1}" if sums and sums[-1] is None
                 else "expression")
        cls = DomainError if isinstance(exc, OverflowError) else type(exc)
        raise cls(f"{ident.id} at {env}, {side} {where}: {exc}") from exc


def _check_point(ident: Identity, env: dict, tol: float,
                 table: dict | None) -> PointCheck:
    lhs, sums = _eval_side(ident, env, "lhs", table)
    rhs, sums_r = _eval_side(ident, env, "rhs", table)
    abs_err = abs(lhs - rhs)
    rel_err = abs_err / abs(rhs) if rhs != 0 else None
    passed = (rel_err <= tol) if abs(rhs) >= 1.0 else (abs_err <= tol)
    # the terms of both sides, and the method: "extrapolated" if any sum
    # took the ladder, else "anchored" if any took the anchored tail, else
    # "direct"
    terms = 0
    method = "direct"
    for r in sums + sums_r:
        terms += r.terms_used
        if r.method != "direct" and method != "extrapolated":
            method = r.method
    return PointCheck(dict(env), lhs, rhs, abs_err, rel_err, passed, terms,
                      method)


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
    A tol that is not finite and positive raises DomainError. The call's
    points share one table of closed-form values (see expr), emptied
    when the call returns or raises.
    """
    ident = get_identity(identity, registry)
    if tol is None:
        tol = ident.tol
    if not 0.0 < tol < math.inf:
        raise DomainError(f"{ident.id}: tol must be finite and positive, "
                          f"got {tol!r}")
    pts = ident.sample_points if points is None else tuple(dict(p) for p in points)
    table = {}
    try:
        checks = tuple(_check_point(ident, dict(p), tol, table) for p in pts)
    finally:
        # a raised error's traceback keeps this frame, and the table in it
        table.clear()
    return VerifyReport(ident.id, tol, checks)


def eval_lhs(identity, registry: dict | None = None, **params) -> complex:
    return _eval_side(get_identity(identity, registry), params, "lhs")[0]


def eval_rhs(identity, registry: dict | None = None, **params) -> complex:
    return _eval_side(get_identity(identity, registry), params, "rhs")[0]


def with_perturbed_rhs(identity, eps: float, registry: dict | None = None) -> Identity:
    """Copy of an identity with its right-hand side scaled by (1 + eps).

    Fault-injection helper: a perturbed copy must fail verification, which
    exercises the failure-reporting path end to end.
    """
    ident = get_identity(identity, registry)
    return ident.replace(rhs=Mul(ident.rhs, C(1.0 + eps)))


# ---------------------------------------------------------------------------
# structural checks beyond value comparison


def _derivative_sums(a: complex, x: complex, homogeneous: bool) -> list:
    """[v, v', v''] at x of v = sum (a)_n (1-a)_n / (n!)^2 H_n x^n, or of
    2F1(a, 1-a; 1; x) with homogeneous=True, each summed as a series of
    its own. Termwise (as DLMF 15.5.1 does for 2F1),

        v^(k)(x) = c_k sum (a+k)_n (1+k-a)_n / ((1+k)_n n!) H_{n+k} x^n,

    c_0 = 1, c_{k+1} = c_k (a+k)(1+k-a)/(1+k), with weight 1 for 2F1."""
    sums = []
    c = 1.0
    for k in range(3):
        spec = PochhammerRatioSeries((a + k, 1.0 + k - a), (1.0 + k,), 1, 1.0, 0)
        weight = Unit() if homogeneous else Harmonic(offset=k)
        sums.append(c * eval_weighted(spec, weight, x, tol=1e-15).value)
        c *= (a + k) * (1.0 + k - a) / (1.0 + k)
    return sums


def ode_residual(a, x, homogeneous: bool = False) -> float:
    """Residual of the second-order equation satisfied by the H_n
    generating function v(x) = sum (a)_n (1-a)_n / (n!)^2 H_n x^n:

        x(1-x) v'' + (1-2x) v' - a(1-a) v = a(1-a) 2F1(a+1, 2-a; 2; x)

    (the right side is d/dx 2F1(a, 1-a; 1; x)). With homogeneous=True the
    plain 2F1(a, 1-a; 1; x) replaces v and the forcing term is zero. v,
    v' and v'' are exact derivative series (_derivative_sums), and the
    residual is normalized by max(1, |forcing|).
    """
    a, x = complex(a), complex(x)
    if homogeneous:
        forcing = 0j
    else:
        forcing = a * (1.0 - a) * hyp2f1(a + 1.0, 2.0 - a, 2.0, x, tol=1e-15)
    v0, v1, v2 = _derivative_sums(a, x, homogeneous)
    resid = x * (1.0 - x) * v2 + (1.0 - 2.0 * x) * v1 - a * (1.0 - a) * v0 - forcing
    return abs(resid) / max(1.0, abs(forcing))


def boundary_asymptotic_check(a: float) -> dict:
    """Logarithmic blow-up of 2F1(a, 1-a; 1; 1-x) as x -> 0.

    The function grows like (sin(pi a)/pi) log(1/x) + O(1). Returns the
    measured slope between x = 1e-3 and 1e-4, the O(1) offsets, and pass
    flags: slope within 5 percent and offsets bounded by 1. The values
    come from the plain series (series.hyp2f1), not from expr.Hyp2F1:
    near 1 that node sums a connection formula whose log(1/x) term is
    written in, so the slope would read back the formula instead of
    testing the series.
    """
    a = float(a)
    xs = (1e-3, 1e-4)
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
    # shifts of the doubled kernel (2a)_n (2b)_n / (a+b+1/2)_n
    _doubled = ((2 * a, 2 * b), (a + b + 0.5,))

    # --- harmonic-weight identities -------------------------------------

    ids.append(Identity(
        id="THM-A1", kind="identity",
        description="H_n-weighted doubled kernel at argument 1/2 equals the "
                    "base kernel at unit argument",
        param_names=("a", "b"), sample_points=(),
        lhs=2 * Series(*_doubled, 1, 0.5, 1, Harmonic(), 1.0),
        rhs=Series((a, b), (a + b + 0.5,), 1, 1.0, 1, Harmonic(), 1.0),
        tol=1e-8, accel=True))

    ids.append(Identity(
        id="THM-A2", kind="identity",
        description="(H_n^2 + H_n^(2))-weighted form of the argument doubling",
        param_names=("a", "b"), sample_points=(),
        lhs=4 * Series(*_doubled, 1, 0.5, 1, HarmonicSqPlusGen2(), 1.0),
        rhs=Series((a, b), (a + b + 0.5,), 1, 1.0, 1, HarmonicSqPlusGen2(), 1.0),
        tol=1e-8, accel=True))

    ids.append(Identity(
        id="COR-A1", kind="identity",
        description="terminating-direction H_n sum at 1/2 in digamma form",
        param_names=("a",),
        sample_points=tuple({"a": round(0.1 * j, 1)} for j in range(1, 10)),
        lhs=Series((2 * a, 2), (a + 1.5,), 1, 0.5, 1, Harmonic(), 1.0),
        rhs=(a + 0.5) * (Digamma(a + 0.5) - Digamma(C(0.5))),
        tol=1e-9))

    ids.append(Identity(
        id="COR-A2", kind="identity",
        description="symmetric-pair H_n sum at 1/2: gamma-digamma closed form",
        param_names=("a",),
        sample_points=tuple({"a": v} for v in
                            (1.0 / 6.0, 0.25, 1.0 / 3.0, 0.5, 0.7)),
        lhs=Series((a, 1 - a), (), 2, 0.5, 1, Harmonic(), 1.0),
        rhs=(Sqrt(PI) / (2 * Gamma(1 - a / 2) * Gamma((a + 1) / 2)))
            * (Digamma(1 - a / 2) + Digamma((a + 1) / 2)
               - Digamma(C(1)) - Digamma(C(0.5))),
        tol=1e-9))

    # shifts, factorial power, ratio and start of the squared-half and
    # third-pair kernels
    _sq_half = ((0.5, 0.5), (), 2, 0.5, 1)
    _tt_half = ((1.0 / 3.0, 2.0 / 3.0), (), 2, 0.5, 1)
    _g14 = Gamma(C(0.25))
    _g13 = Gamma(C(1.0 / 3.0))

    ids.append(Identity(
        id="EX-1", kind="identity",
        description="H_n against the squared-half kernel at 1/2",
        param_names=(), sample_points=({},),
        lhs=Series(*_sq_half, Harmonic(), 1.0),
        rhs=_g14 ** 2 / (4 * Sqrt(PI)) * (1 - 4 * Log(C(2)) / PI),
        tol=1e-10))

    ids.append(Identity(
        id="EX-2", kind="identity",
        description="H_n against the third-pair kernel at 1/2",
        param_names=(), sample_points=({},),
        lhs=Series(*_tt_half, Harmonic(), 1.0),
        rhs=_g13 ** 3 / (C(2.0 ** (7.0 / 3.0)) * PI)
            * (Sqrt(C(3)) - 9 * Log(C(3)) / (2 * PI)),
        tol=1e-10))

    ids.append(Identity(
        id="EX-3", kind="identity",
        description="H_{2n} against the squared-half kernel at 1/2",
        param_names=(), sample_points=({},),
        lhs=Series(*_sq_half, Harmonic(stride=2), 1.0),
        rhs=_g14 ** 2 / (8 * Sqrt(PI)) * (1 - 3 * Log(C(2)) / PI),
        tol=1e-10))

    ids.append(Identity(
        id="EX-4", kind="identity",
        description="H_{3n} against the third-pair kernel at 1/2",
        param_names=(), sample_points=({},),
        lhs=Series(*_tt_half, Harmonic(stride=3), 1.0),
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
        lhs=Series(*_doubled, 1, 0.5, 1, (DigammaDiffSum, a, b), 1.0),
        rhs=GammaRatio((C(0.5), a + b + 0.5), (a + 0.5, b + 0.5))
            * (Digamma(a + b + 0.5) - Digamma(b + 0.5)),
        tol=1e-8))

    ids.append(Identity(
        id="SUM-MIX", kind="identity",
        description="mixed 4H_{2n} - 3H_n weight at 1/2",
        param_names=(), sample_points=({},),
        lhs=Series(*_sq_half, LinearCombo(
            ((4.0, Harmonic(stride=2)), (-3.0, Harmonic()))), 1.0),
        rhs=_g14 ** 2 / (4 * Sqrt(PI)) * (6 * Log(C(2)) / PI - 1),
        tol=1e-8))

    _k_grid = tuple({"k": round(0.1 * j, 1)} for j in range(1, 10))
    _sq_unit = ((0.5, 0.5), (), 2, 1.0, 1)

    ids.append(Identity(
        id="GF-K1", kind="identity",
        description="H_n generating function at k^2: complete elliptic "
                    "integral combination",
        param_names=("k",), sample_points=_k_grid,
        lhs=Series(*_sq_unit, Harmonic(), k ** 2),
        rhs=EllipticK(Sqrt(1 - k ** 2))
            + EllipticK(k) * Log(k ** 2 / (16 * (1 - k ** 2))) / PI,
        tol=1e-9))

    ids.append(Identity(
        id="GF-K2", kind="identity",
        description="H_{2n} generating function at k^2 via elliptic integrals",
        param_names=("k",), sample_points=_k_grid,
        lhs=Series(*_sq_unit, Harmonic(stride=2), k ** 2),
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
        lhs=Series((a, 1 - a), (), 2, 1.0, 1, Harmonic(), x),
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
        lhs=Series((1.0 / 3.0, 2.0 / 3.0), (), 2, 1.0, 1, Harmonic(stride=3), x),
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
        lhs=P("scale") * Series((1.0 / 3.0, 2.0 / 3.0), (), 2, 1.0, 0, Unit(), x),
        rhs=Pow(C(3), C(0.375)) * Pow(C(2.0 + math.sqrt(3.0)), C(0.25))
            * _g14 ** 2 / Pow(2 * PI, C(1.5)),
        tol=1e-9))

    ids.append(Identity(
        id="THM-C", kind="identity",
        description="H_n/(n+1) weight against the doubled kernel at unit "
                    "argument: trigonometric-digamma closed form",
        param_names=("a", "b"), sample_points=(),
        # 1/(n+1) = (1)_n / (2)_n: the pair (1; 2) leaves the weight H_n
        lhs=Series((2 * a, 2 * b, 1), (a + b + 0.5, 2), 1, 1.0, 1, Harmonic(),
                   1.0),
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
        lhs=-Series((a, b), (0.5,), 1, 1.0, 1, LinearCombo(
            ((2.0, Harmonic(stride=2)), (-1.0, Harmonic()))), 1.0),
        rhs=GammaRatio((C(0.5), 0.5 - a - b), (0.5 - a, 0.5 - b))
            * (Digamma(C(0.5)) + Digamma(0.5 - a - b)
               - Digamma(0.5 - a) - Digamma(0.5 - b)),
        tol=1e-6, accel=True))

    _mono = ((0.5, a + b), (1 + a, 1 + b), 0, 1.0, 1)
    ids.append(Identity(
        id="THM-D", kind="identity",
        description="three-series combination tying H_n weights at arguments "
                    "+1 and -1 to log 4",
        param_names=("a", "b"), sample_points=(),
        lhs=Series(*_mono, Harmonic(), 1.0)
            - 4 * Series((1 - a, 1 - b), (1 + a, 1 + b), 0, -1.0, 1,
                         Harmonic(), 1.0)
            - _LN4 * Series(*_mono, Unit(), 1.0),
        rhs=C(_LN4),
        tol=1e-6, accel=True))

    _cord = ((0.75, 0.5), (1.25, 1.5), 0)
    ids.append(Identity(
        id="COR-D", kind="identity",
        description="quarter-parameter instance of the two-argument H_n "
                    "combination",
        param_names=(), sample_points=({},),
        lhs=0.25 * Series(*_cord, 1.0, 1, Harmonic(), 1.0)
            - Series(*_cord, -1.0, 1, Harmonic(), 1.0),
        rhs=_g14 ** 4 * Log(C(2)) / (64 * PI),
        tol=1e-8, accel=True))

    ids.append(Identity(
        id="THM-E", kind="identity",
        description="H_n and H_{2n} sums over contiguous kernels differing "
                    "by a gamma-ratio multiple of log 2",
        param_names=("b",),
        sample_points=({"b": 0.75}, {"b": 1.2}, {"b": 2.0}, {"b": 3.0}),
        lhs=0.25 * Series((0.5, b), (2 * b,), 1, 1.0, 1, Harmonic(), 1.0)
            - Series((0.5, 1 - b), (b + 0.5,), 1, 1.0, 1, Harmonic(stride=2),
                     1.0),
        rhs=GammaRatio((b + 0.5, 2 * b - 1), (b, 2 * b - 0.5)) * Log(C(2)),
        tol=1e-6, accel=True))

    # --- transformation and evaluation cross-checks ----------------------

    ids.append(Identity(
        id="TR-2.11.2", kind="transformation",
        description="quadratic argument map z -> 4z(1-z) between doubled and "
                    "base kernels",
        param_names=("a", "b", "z"), sample_points=(),
        lhs=Series(*_doubled, 1, 1.0, 0, Unit(), z),
        rhs=Hyp2F1(a, b, a + b + 0.5, 4 * z * (1 - z)),
        tol=1e-10))

    ids.append(Identity(
        id="TR-2.11.7", kind="transformation",
        description="splitting of the squared-argument kernel into the two "
                    "half-shifted arguments",
        param_names=("a", "b", "z"), sample_points=(),
        lhs=2 * GammaRatio((C(0.5), a + b + 0.5), (a + 0.5, b + 0.5))
            * Series((a, b), (0.5,), 1, 1.0, 0, Unit(), z ** 2),
        rhs=Hyp2F1(2 * a, 2 * b, a + b + 0.5, (1 + z) / 2)
            + Hyp2F1(2 * a, 2 * b, a + b + 0.5, (1 - z) / 2),
        tol=1e-10))

    ids.append(Identity(
        id="TR-2.11.5", kind="transformation",
        description="rational pullback 4z/(1+z)^2 with algebraic prefactor "
                    "against the squared-argument kernel",
        param_names=("a", "b", "z"), sample_points=(),
        lhs=Pow(1 + z, -2 * a) * Series((a, b), (2 * b,), 1, 1.0, 0, Unit(),
                                        4 * z / (1 + z) ** 2),
        rhs=Hyp2F1(a, a + 0.5 - b, b + 0.5, z ** 2),
        tol=1e-10))

    ids.append(Identity(
        id="TR-4.5.1", kind="transformation",
        description="rational transformation of the two-denominator kernel "
                    "with power prefactor",
        param_names=("a", "b", "c", "z"), sample_points=(),
        lhs=Series((a, b, c), (a - b + 1, a - c + 1), 1, 1.0, 0, Unit(), -z),
        rhs=Pow(1 + z, -a) * Series(
            (a - b - c + 1, a / 2, (a + 1) / 2), (a - b + 1, a - c + 1), 1, 1.0,
            0, Unit(), 4 * z / (1 + z) ** 2),
        tol=1e-10))

    ids.append(Identity(
        id="SUM-2.8.46", kind="transformation",
        description="unit-argument Gauss sum as a gamma ratio",
        param_names=("a", "b", "c"),
        sample_points=({"a": 0.3, "b": 0.4, "c": 3.0},
                       {"a": 0.25, "b": 0.5, "c": 2.75},
                       {"a": 0.1 + 0.2j, "b": 0.3, "c": 2.6},
                       {"a": -0.2, "b": 0.35, "c": 2.2}),
        lhs=Series((a, b), (c,), 1, 1.0, 0, Unit(), 1.0),
        rhs=GammaRatio((c, c - a - b), (c - a, c - b)),
        tol=1e-8, accel=True))

    ids.append(Identity(
        id="SUM-2.8.50", kind="transformation",
        description="half-argument evaluation of the doubled kernel",
        param_names=("a", "b"),
        sample_points=({"a": 0.25, "b": 0.25}, {"a": 0.2, "b": 0.3},
                       {"a": 0.15 + 0.1j, "b": 0.2}, {"a": -0.3, "b": 0.45},
                       {"a": 1.0 / 3.0, "b": 1.0 / 6.0}),
        lhs=Series(*_doubled, 1, 1.0, 0, Unit(), 0.5),
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
        lhs=Series((a, 1 - a), (c + 1,), 1, 1.0, 0, Unit(), 0.5),
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
        lhs=Series((2 * a, 2 * b, c), (a + b + 0.5, 2 * c), 1, 1.0, 0, Unit(),
                   1.0),
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
        lhs=Series((2 * a, 2 * b, c + _eps / 2), (a + b + 0.5, 2 * c), 1, 1.0,
                   0, Unit(), 1.0),
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
    tree; their points are reproducible functions of the seed."""
    points = _seeded_points(seed)
    return {ident_id: (ident.replace(sample_points=points[ident_id])
                       if ident_id in points else ident)
            for ident_id, ident in _DEFINITIONS.items()}


REGISTRY = build_registry(DEFAULT_SEED)
