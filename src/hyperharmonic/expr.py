"""Expression trees for closed-form right-hand sides.

Nodes evaluate to complex numbers in a parameter environment (a plain
dict). Arithmetic operators are overloaded so registry entries read like
the formulas they encode; `C` and `P` are shorthand constructors for
constants and parameters. Nodes are immutable Frozen value classes whose
fields are their __slots__.
"""

from __future__ import annotations

import cmath
import math

from ._frozen import Frozen
from .errors import DomainError, PoleError
from .series import PochhammerRatioSeries, Unit, eval_weighted
from .specialfn import digamma as _digamma
from .specialfn import elliptic_K as _elliptic_K
from .specialfn import gamma_ratio as _gamma_ratio
from .specialfn import ln_gamma as _ln_gamma

__all__ = [
    "Expr", "Const", "Param", "Add", "Sub", "Mul", "Div", "Neg", "Pow",
    "Sqrt", "Log", "Sin", "Cos", "Gamma", "LnGamma", "Digamma",
    "GammaRatio", "EllipticK", "Hyp2F1", "C", "P", "PI",
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


class LnGamma(Expr):
    __slots__ = ("arg",)

    def eval(self, env):
        return _ln_gamma(self.arg.eval(env))


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
    """Gauss 2F1 evaluated by direct summation; keep |x| away from 1."""

    __slots__ = ("a", "b", "c", "x")

    def eval(self, env):
        spec = PochhammerRatioSeries(
            (self.a.eval(env), self.b.eval(env)),
            (self.c.eval(env),), 1, 1.0, 0)
        return eval_weighted(spec, Unit(), self.x.eval(env), tol=1e-12).value


def C(v) -> Const:
    return Const(v)


def P(name: str) -> Param:
    return Param(name)


PI = Const(math.pi)
