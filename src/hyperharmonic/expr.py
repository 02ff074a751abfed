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
"""

from __future__ import annotations

import cmath
import math

from ._frozen import Frozen
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
        object.__setattr__(self, "value", complex(value))

    def eval(self, env):
        return self.value


class Param(Expr):
    __slots__ = ("name",)

    def eval(self, env):
        try:
            return complex(env[self.name])
        except KeyError:
            raise DomainError(f"missing parameter {self.name!r}") from None


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


class Gamma(Expr):
    __slots__ = ("arg",)

    def eval(self, env):
        return cmath.exp(_ln_gamma(self.arg.eval(env)))


class Digamma(Expr):
    __slots__ = ("arg",)

    def eval(self, env):
        return _digamma(self.arg.eval(env))


class GammaRatio(Expr):
    """prod Gamma(numerators) / prod Gamma(denominators), pole-paired."""

    __slots__ = ("numerators", "denominators")

    def eval(self, env):
        return _gamma_ratio([e.eval(env) for e in self.numerators],
                            [e.eval(env) for e in self.denominators])


class EllipticK(Expr):
    __slots__ = ("arg",)

    def eval(self, env):
        return complex(_elliptic_K(self.arg.eval(env)))


class Hyp2F1(Expr):
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
    """

    __slots__ = ("a", "b", "c", "x")

    def eval(self, env):
        a, b, c = self.a.eval(env), self.b.eval(env), self.c.eval(env)
        x = self.x.eval(env)
        if (abs(1.0 - x) < 0.25 and abs(x) < 1.0
                and _pole_index(a) is None and _pole_index(b) is None):
            value = _hyp2f1_near_one(a, b, c, 1.0 - x)
            if value is not None:
                return value
        spec = PochhammerRatioSeries((a, b), (c,), 1, 1.0, 0)
        return eval_weighted(spec, Unit(), x, tol=1e-12).value


class _SpecSlot:
    """Holds a Series node's PochhammerRatioSeries once it is bound, if no
    shift depends on the point. The slot is not one of the node's fields
    (those are Series.__slots__), so reprs, equality, hashing and pickles
    see only the formula."""

    __slots__ = ("_spec",)


class Series(Expr, _SpecSlot):
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
        Frozen.__init__(self, tuple(map(_wrap, numerator_shifts)),
                        tuple(map(_wrap, denominator_shifts)), factorial_power,
                        geometric_ratio, start_index, weight, _wrap(x))
        object.__setattr__(self, "_spec", None)

    def bind(self, env):
        """(spec, weight, x) at the point env: eval_weighted's arguments.
        A spec whose shifts are all constants is built at the first bind
        and kept."""
        spec = self._spec
        if spec is None:
            spec = PochhammerRatioSeries(
                [e.eval(env) for e in self.numerator_shifts],
                [e.eval(env) for e in self.denominator_shifts],
                self.factorial_power, self.geometric_ratio, self.start_index)
            if all(type(e) is Const for e in
                   self.numerator_shifts + self.denominator_shifts):
                object.__setattr__(self, "_spec", spec)
        weight = self.weight
        if not isinstance(weight, WeightKind):
            weight = weight[0](*(e.eval(env) for e in weight[1:]))
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


def _hyp2f1_near_one(a, b, c, y):
    """2F1(a, b; c; 1 - y) by the connection formulas of Hyp2F1, or None
    where neither applies."""
    s = c - a - b
    log_case = abs(s) <= 1e-12
    if not log_case and abs(s - round(s.real)) < 0.1:
        return None
    try:
        prefs = ([_gamma_ratio([a + b], [a, b])] if log_case else
                 [_gamma_ratio([c, s], [c - a, c - b]),
                  y ** s * _gamma_ratio([c, -s], [a, b])])
    except OverflowError:
        return None
    if not all(map(cmath.isfinite, prefs)):
        return None
    if log_case:
        # the weight at n = 0: 2 psi(1) - psi(a) - psi(b) - log y
        w0 = 2.0 * _digamma(1.0) - _digamma(a) - _digamma(b) - cmath.log(y)
        sums = [(PochhammerRatioSeries((a, b), (), 2, 1.0, 0),
                 DigammaLog(a, b, w0))]
    else:
        sums = [(PochhammerRatioSeries((a, b), (1.0 - s,), 1, 1.0, 0), Unit()),
                (PochhammerRatioSeries((c - a, c - b), (1.0 + s,), 1, 1.0, 0),
                 Unit())]
    tol = 1e-12 / max(1.0, _lsum(map(abs, prefs)))
    return _lsum(pref * eval_weighted(spec, weight, y, tol=tol).value
                 for pref, (spec, weight) in zip(prefs, sums) if pref != 0)


def C(v) -> Const:
    return Const(v)


def P(name: str) -> Param:
    return Param(name)


PI = Const(math.pi)
