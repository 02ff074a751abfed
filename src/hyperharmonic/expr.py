"""Expression trees: both sides of every registry identity.

Nodes evaluate to complex numbers in a parameter environment (a dict).
Arithmetic operators are overloaded so registry entries read like the
formulas they encode; `C` and `P` are shorthand constructors for
constants and parameters. Nodes are immutable Frozen value classes whose
fields are their __slots__, so a side is plain data that compares,
hashes, pickles and reprs by its formula.

A Series node is one weighted Pochhammer-ratio series, summed by
eval_weighted; Hyp2F1 is the closed-form Gauss function. Special
functions and series sums are called through this module's attributes
(_gamma_ratio, _digamma, eval_weighted, ...). A Hyp2F1 node near x = 1
sums at 1 - x by Kummer's connection formulas, a few terms where the
direct sum at x would take tens of thousands.

A verify's points share most of what these nodes compute: digamma and
gamma values on parameters alone, Gamma ratios, connection prefactors,
series specs. Digamma, Gamma, GammaRatio, Hyp2F1 and Series keep their
last result in a hidden slot (_Memo), keyed by the exact bits of their
argument values, and reuse it while those repeat. Where the env has a
`table` dict (one per catalog.verify call), a closed-form node that
misses its slot looks there next, under the function plus those bits:
Digamma, Gamma and GammaRatio values, and Hyp2F1's values, direct specs
and connection parts, so equal arguments at other nodes and points of
the call are computed once. Either way the values are bit for bit those
of a fresh node.
"""

from __future__ import annotations

import cmath
import marshal
import math

from ._frozen import Frozen, _set
from .errors import DomainError, PoleError
from .series import (DigammaLog, PochhammerRatioSeries, Unit, WeightKind,
                     _lsum, eval_weighted)
from .specialfn import _pole_index
from .specialfn import digamma as _digamma
from .specialfn import elliptic_K as _elliptic_K
from .specialfn import gamma_ratio as _gamma_ratio
from .specialfn import ln_gamma as _ln_gamma

__all__ = [
    "Expr", "Const", "Param", "Add", "Sub", "Mul", "Div", "Neg", "Pow",
    "Sqrt", "Log", "Sin", "Cos", "Gamma", "Digamma",
    "GammaRatio", "EllipticK", "Hyp2F1", "Series", "C", "P", "PI",
]


_UNIT = Unit()


def _bits(values) -> bytes:
    """A memo key: the exact bits of a complex number, or of a tuple or
    list of them. marshal's version 2 writes each float as its 8 bytes and
    keeps no back-references, so a -0.0 never matches a +0.0 and a NaN
    matches only a NaN of the same bits."""
    return marshal.dumps(values, 2)


def _wrap(v) -> "Expr":
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, float, complex)):
        return Const(v)
    raise TypeError(f"cannot use {v!r} in an expression")


class Expr(Frozen):
    __slots__ = ()

    def eval(self, env: dict) -> complex:
        raise NotImplementedError

    def __add__(self, other):
        return Add(self, _wrap(other))

    def __radd__(self, other):
        return Add(_wrap(other), self)

    def __sub__(self, other):
        return Sub(self, _wrap(other))

    def __rsub__(self, other):
        return Sub(_wrap(other), self)

    def __mul__(self, other):
        return Mul(self, _wrap(other))

    def __rmul__(self, other):
        return Mul(_wrap(other), self)

    def __truediv__(self, other):
        return Div(self, _wrap(other))

    def __rtruediv__(self, other):
        return Div(_wrap(other), self)

    def __pow__(self, other):
        return Pow(self, _wrap(other))

    def __neg__(self):
        return Neg(self)


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        Frozen.__init__(self, complex(value))

    def eval(self, env):
        return self.value


class Param(Expr):
    __slots__ = ("name",)

    def eval(self, env):
        try:
            return complex(env[self.name])
        except KeyError:
            raise DomainError(f"missing parameter {self.name!r}") from None
        except (TypeError, ValueError):
            raise DomainError(f"parameter {self.name!r} is not a number: "
                              f"{env[self.name]!r}") from None


class Add(Expr):
    __slots__ = ("left", "right")

    def eval(self, env):
        return self.left.eval(env) + self.right.eval(env)


class Sub(Expr):
    __slots__ = ("left", "right")

    def eval(self, env):
        return self.left.eval(env) - self.right.eval(env)


class Mul(Expr):
    __slots__ = ("left", "right")

    def eval(self, env):
        return self.left.eval(env) * self.right.eval(env)


class Div(Expr):
    __slots__ = ("left", "right")

    def eval(self, env):
        num = self.left.eval(env)
        den = self.right.eval(env)
        if den == 0:
            raise PoleError("closed form has a zero denominator at this point")
        return num / den


class Neg(Expr):
    __slots__ = ("arg",)

    def eval(self, env):
        return -self.arg.eval(env)


class Pow(Expr):
    __slots__ = ("base", "exponent")

    def eval(self, env):
        try:
            return self.base.eval(env) ** self.exponent.eval(env)
        except ZeroDivisionError:
            raise PoleError("zero base raised to a negative power") from None


class Sqrt(Expr):
    __slots__ = ("arg",)

    def eval(self, env):
        return cmath.sqrt(self.arg.eval(env))


class Log(Expr):
    __slots__ = ("arg",)

    def eval(self, env):
        v = self.arg.eval(env)
        if v == 0:
            raise DomainError("log of zero in closed form")
        return cmath.log(v)


class Sin(Expr):
    __slots__ = ("arg",)

    def eval(self, env):
        return cmath.sin(self.arg.eval(env))


class Cos(Expr):
    __slots__ = ("arg",)

    def eval(self, env):
        return cmath.cos(self.arg.eval(env))


def _shared(table, key, compute, *args):
    """compute(*args), kept under key in table, the dict that one verify
    call shares across its nodes and points; computed afresh where table
    is None. A computation that raises stores nothing."""
    if table is None:
        return compute(*args)
    value = table.get(key)
    if value is None:
        value = table[key] = compute(*args)
    return value


class _Memo:
    """The hidden slot of a node that reuses its last result: (key, result),
    the key being the exact bits of the argument values (_bits) the result
    was computed from, (None, None) before the first. _Memo is not Frozen,
    so its slot is not one of the node's fields: reprs, equality, hashing
    and pickles see only the formula, and a copy starts empty. A
    computation that raises stores nothing. The pair is read and stored
    as one tuple, so threads that share a tree at worst compute a result
    twice."""

    __slots__ = ("_memo",)

    def __init__(self, *args, **kwargs):
        Frozen.__init__(self, *args, **kwargs)
        _set(self, "_memo", (None, None))

    def _reuse(self, env, key, compute, *args):
        """The result of compute(*args), reused while key repeats, and
        shared under (compute, key) through the env's table."""
        memo = self._memo
        if key == memo[0]:
            return memo[1]
        # _shared in line: every slot miss of a verify call takes this path
        table = getattr(env, "table", None)
        if table is None:
            value = compute(*args)
        else:
            shared = compute, key
            value = table.get(shared)
            if value is None:
                value = table[shared] = compute(*args)
        _set(self, "_memo", (key, value))
        return value


def _gamma(z):
    return cmath.exp(_ln_gamma(z))


class Gamma(_Memo, Expr):
    __slots__ = ("arg",)

    def eval(self, env):
        z = self.arg.eval(env)
        return self._reuse(env, _bits(z), _gamma, z)


class Digamma(_Memo, Expr):
    __slots__ = ("arg",)

    def eval(self, env):
        z = self.arg.eval(env)
        return self._reuse(env, _bits(z), _digamma, z)


class GammaRatio(_Memo, Expr):
    """prod Gamma(numerators) / prod Gamma(denominators), pole-paired."""

    __slots__ = ("numerators", "denominators")

    def eval(self, env):
        nums = [e.eval(env) for e in self.numerators]
        dens = [e.eval(env) for e in self.denominators]
        return self._reuse(env, _bits((nums, dens)), _gamma_ratio, nums,
                           dens)


class EllipticK(Expr):
    __slots__ = ("arg",)

    def eval(self, env):
        return complex(_elliptic_K(self.arg.eval(env)))


class Hyp2F1(_Memo, Expr):
    """Gauss 2F1(a, b; c; x), summed to 1e-12 * max(1, |F|).

    Near x = 1 (|1 - x| < 1/4 and |x| < 1) the node sums at y = 1 - x
    instead, by Kummer's connection formulas in s = c - a - b:

    - |s| <= 1e-12 (A&S 15.3.10, the logarithmic case):
      Gamma(a+b)/(Gamma(a)Gamma(b)) sum (a)_n (b)_n / (n!)^2 y^n
      * (2 psi(n+1) - psi(a+n) - psi(b+n) - log y);
    - s at least 0.1 from every integer (A&S 15.3.6):
      Gamma(c)Gamma(s)/(Gamma(c-a)Gamma(c-b)) 2F1(a, b; 1-s; y)
      + y^s Gamma(c)Gamma(-s)/(Gamma(a)Gamma(b)) 2F1(c-a, c-b; 1+s; y),
      where a sum whose prefactor is 0 is skipped.

    Each of these sums runs at tol 1e-12 / max(1, sum |prefactor|) and
    needs about 20 terms at most. Any other s, a terminating sum (a or b
    at a non-positive integer), a prefactor that is not finite and every
    other x take the direct sum at x (eval_weighted), which raises for
    |x| > 1 and takes the unit-circle rule at |x| = 1. A pole at c
    raises PoleError.

    The memo, keyed by a, b and c, holds (direct spec, connection parts):
    each is built at the first x that needs it (None until then), and
    only what depends on x is computed at every point. Through the env's
    table the value is shared by (a, b, c, x), and the spec and the parts
    by (a, b, c), across the nodes and points of a verify call.
    """

    __slots__ = ("a", "b", "c", "x")

    def eval(self, env):
        a, b, c = self.a.eval(env), self.b.eval(env), self.c.eval(env)
        x = self.x.eval(env)
        key = _bits((a, b, c))
        table = getattr(env, "table", None)
        if table is None:
            return self._sum(key, a, b, c, x, None)
        return _shared(table, (Hyp2F1, key, _bits(x)), self._sum, key, a, b,
                       c, x, table)

    def _sum(self, key, a, b, c, x, table):
        """The value at x, from the parts in the slot, in table or built."""
        memo = self._memo
        spec, near = memo[1] if key == memo[0] else (None, None)
        if abs(1.0 - x) < 0.25 and abs(x) < 1.0:
            if near is None:
                near = _shared(table, (_connection, key), _connection, a, b, c)
                _set(self, "_memo", (key, (spec, near)))
            if near:
                value = _hyp2f1_near_one(near, 1.0 - x)
                if value is not None:
                    return value
        if spec is None:
            spec = _shared(table, (_gauss_spec, key), _gauss_spec, a, b, c)
            _set(self, "_memo", (key, (spec, near)))
        return eval_weighted(spec, _UNIT, x, tol=1e-12).value


class Series(_Memo, Expr):
    """sum_{n >= start_index} w_n u_n(x): the weighted series of
    series.PochhammerRatioSeries(numerator_shifts, denominator_shifts,
    factorial_power, geometric_ratio, start_index) with weight w at the
    argument x. The shifts and x are Exprs (numbers are wrapped as
    constants); weight is a WeightKind, or (kind class, *Exprs) for a
    kind whose parameters depend on the point, such as
    (DigammaDiffSum, a, b).

    eval sums at the env's `tol` attribute (eval_weighted's default in a
    plain dict) and, where the env has a `sums` list, records its
    SeriesResult there in evaluation order; the slot holds None while
    the node is being summed, so a failure can name the node.
    """

    __slots__ = ("numerator_shifts", "denominator_shifts", "factorial_power",
                 "geometric_ratio", "start_index", "weight", "x")

    def __init__(self, numerator_shifts, denominator_shifts, factorial_power,
                 geometric_ratio, start_index, weight, x):
        _Memo.__init__(self, tuple(map(_wrap, numerator_shifts)),
                       tuple(map(_wrap, denominator_shifts)), factorial_power,
                       geometric_ratio, start_index, weight, _wrap(x))

    def bind(self, env):
        """(spec, weight, x) at the point env: eval_weighted's arguments.
        The spec and a weight built from Exprs are kept, keyed by the
        shifts and the weight's parameters, and reused while they repeat."""
        nums = [e.eval(env) for e in self.numerator_shifts]
        dens = [e.eval(env) for e in self.denominator_shifts]
        weight = self.weight
        params = (None if isinstance(weight, WeightKind)
                  else [e.eval(env) for e in weight[1:]])
        key = _bits((nums, dens, params))
        memo = self._memo
        if key == memo[0]:
            spec, weight = memo[1]
        else:
            spec = PochhammerRatioSeries(nums, dens, self.factorial_power,
                                         self.geometric_ratio,
                                         self.start_index)
            if params is not None:
                weight = weight[0](*params)
            _set(self, "_memo", (key, (spec, weight)))
        return spec, weight, self.x.eval(env)

    def eval(self, env):
        sums = getattr(env, "sums", None)
        if sums is not None:
            k = len(sums)
            sums.append(None)
        spec, weight, x = self.bind(env)
        res = eval_weighted(spec, weight, x, tol=getattr(env, "tol", None))
        if sums is not None:
            sums[k] = res
        return res.value


def _gauss_spec(a, b, c):
    """The spec of Hyp2F1's direct sum at x."""
    return PochhammerRatioSeries((a, b), (c,), 1, 1.0, 0)


def _connection(a, b, c):
    """What Hyp2F1's connection formulas take from a, b and c alone:
    (True, (gamma ratio,), (a, b, 2 psi(1) - psi(a) - psi(b)), (spec,)) in
    the logarithmic case, (False, (the two gamma ratios), s, (the two
    specs)) in the other, or False where neither applies (a or b at a
    pole, s near a nonzero integer, a gamma ratio that is not finite)."""
    if _pole_index(a) is not None or _pole_index(b) is not None:
        return False
    s = c - a - b
    log_case = abs(s) <= 1e-12
    if not log_case and abs(s - round(s.real)) < 0.1:
        return False
    try:
        ratios = ((_gamma_ratio([a + b], [a, b]),) if log_case else
                  (_gamma_ratio([c, s], [c - a, c - b]),
                   _gamma_ratio([c, -s], [a, b])))
    except OverflowError:
        return False
    # a ratio that is not finite leaves a prefactor that is not finite
    if not all(map(cmath.isfinite, ratios)):
        return False
    if log_case:
        # the weight at n = 0, less log y
        psi0 = 2.0 * _digamma(1.0) - _digamma(a) - _digamma(b)
        return (True, ratios, (a, b, psi0),
                (PochhammerRatioSeries((a, b), (), 2, 1.0, 0),))
    return (False, ratios, s,
            (PochhammerRatioSeries((a, b), (1.0 - s,), 1, 1.0, 0),
             PochhammerRatioSeries((c - a, c - b), (1.0 + s,), 1, 1.0, 0)))


def _hyp2f1_near_one(near, y):
    """2F1(a, b; c; 1 - y) by the connection formula whose parts near holds
    (_connection), or None where a prefactor is not finite at y."""
    log_case, ratios, extra, specs = near
    if log_case:
        # the weight at n = 0: 2 psi(1) - psi(a) - psi(b) - log y
        a, b, psi0 = extra
        prefs = ratios
        weights = (DigammaLog(a, b, psi0 - cmath.log(y)),)
    else:
        try:
            prefs = (ratios[0], y ** extra * ratios[1])
        except OverflowError:
            return None
        if not cmath.isfinite(prefs[1]):
            return None
        weights = (_UNIT, _UNIT)
    tol = 1e-12 / max(1.0, _lsum(map(abs, prefs)))
    return _lsum(pref * eval_weighted(spec, weight, y, tol=tol).value
                 for pref, spec, weight in zip(prefs, specs, weights)
                 if pref != 0)


def C(v) -> Const:
    return Const(v)


def P(name: str) -> Param:
    return Param(name)


PI = Const(math.pi)
