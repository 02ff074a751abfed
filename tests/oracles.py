"""mpmath oracles shared by the test modules."""

import itertools
import math

import mpmath


def mp_number(v):
    """v as an mpf where it is real, which keeps the oracle loops fast."""
    v = complex(v)
    return mpmath.mpf(v.real) if v.imag == 0.0 else mpmath.mpc(v)


def _one_minus_pow(y, k):
    """1 - (1 - y)^k for an integer k, without cancellation at small y."""
    if k < 0:
        return -_one_minus_pow(y, -k) / (1 - y) ** -k
    return -mpmath.fsum(mpmath.binomial(k, j) * (-y) ** j
                        for j in range(1, k + 1))


def harmonic_gauss_mp(a, b, c, stride, offset, start):
    """sum_{n >= start} (a)_n (b)_n / ((c)_n n!) H_{stride n + offset} at
    30 digits.

    With F the Gauss series from n = start and H_m = int_0^1 (1 - x^m) /
    (1 - x) dx, the sum is int_0^1 (F(1) - x^offset F(x^stride)) / (1 - x)
    dx. The substitution 1 - x = y = t^m smooths the endpoint x = 1, where
    the integrand behaves like y^(c-a-b-1); for y <= 1/2, F(1) - F(1 - y)
    comes from the connection formula (DLMF 15.8.4) in y itself, so no
    digits of y are lost to forming x.
    """
    mpmath.mp.dps = 30
    a, b, c = mp_number(a), mp_number(b), mp_number(c)
    delta = c - a - b
    g = mpmath.gamma
    f1 = g(c) * g(delta) / (g(c - a) * g(c - b))
    edge = g(c) * g(-delta) / (g(a) * g(b))
    m = max(1, math.ceil(2.0 / float(mpmath.re(delta))))

    def integrand(t):
        y = t ** m
        if y > 0.5:
            x = 1 - y
            value = (f1 - start
                     - x ** offset * (mpmath.hyp2f1(a, b, c, x ** stride)
                                      - start))
        else:
            ys = _one_minus_pow(y, stride)
            drop = (f1 * (1 - mpmath.hyp2f1(a, b, 1 - delta, ys))
                    - edge * ys ** delta
                    * mpmath.hyp2f1(c - a, c - b, 1 + delta, ys))
            lo = _one_minus_pow(y, offset)
            value = (f1 - start) * lo + (1 - lo) * drop
        return value / y * m * t ** (m - 1)

    return complex(mpmath.quad(integrand, [0, 1]))


def alternating_mp(nums, dens, factorial_power=0, start=0, weight=None):
    """sum_{n >= start} (-1)^n prod (a)_n / (prod (b)_n (n!)^p) w_n at 30
    digits, w_n = weight(n) (an mpf function of n; 1 without one).

    The sign alternates, so the Cohen-Villegas-Zagier acceleration
    (Experiment. Math. 9 (2000), algorithm 1) sums it from the first 60
    terms, at 40 digits: for terms that are moments of a smooth measure
    on [0, 1], such as n^sigma log^l n times a rational function, its
    error falls like (3 + sqrt 8)^-60, about 1e-46.
    """
    terms = 60
    mpmath.mp.dps = 30
    with mpmath.workdps(40):
        nums = [mp_number(a) for a in nums]
        dens = [mp_number(b) for b in dens]
        u = mpmath.mpf(1)
        for n in range(start):
            u = _next_term(u, n, nums, dens, factorial_power)
        d = (3 + mpmath.sqrt(8)) ** terms
        d = (d + 1 / d) / 2
        b, c, s = mpmath.mpf(-1), -d, mpmath.mpf(0)
        for k in range(terms):
            n = start + k
            c = b - c
            s += c * u * (weight(n) if weight else 1)
            b = (k + terms) * (k - terms) * b / ((k + mpmath.mpf(0.5))
                                                 * (k + 1))
            u = _next_term(u, n, nums, dens, factorial_power)
        return complex((-1) ** start * s / d)


def _next_term(u, n, nums, dens, factorial_power):
    """u_{n+1} from u_n for prod (a)_n / (prod (b)_n (n!)^p)."""
    for a in nums:
        u *= a + n
    for b in dens:
        u /= b + n
    return u / (n + 1) ** factorial_power


class _NoReference(Exception):
    """A Series node outside what _series_mp sums."""


def _series_mp(node, ev):
    """A Series node at 30 digits: by mpmath.hyper without a weight, and
    by summing its terms against the weight's definition where |r*x| <=
    1/2, whose terms fall like 2^-n; _NoReference elsewhere."""
    from hyperharmonic import Unit

    nums = [ev(e) for e in node.numerator_shifts]
    dens = [ev(e) for e in node.denominator_shifts]
    p, n0 = node.factorial_power, node.start_index
    z = mp_number(node.geometric_ratio) * ev(node.x)
    weight = node.weight
    if not isinstance(weight, tuple) and isinstance(weight, Unit):
        # hyper has one n! built in: (1)_n = n! takes it out at p = 0
        value = mpmath.hyper(nums + [1] * (p == 0), dens + [1] * (p - 1), z)
        return value - n0
    if abs(z) > 0.5:
        raise _NoReference
    if isinstance(weight, tuple):
        weight = weight[0](*(complex(ev(e)) for e in weight[1:]))
    walk = _weight_walk_mp(weight, n0)
    u = mpmath.mpf(1)
    if n0:
        u = z * mpmath.fprod(nums) / mpmath.fprod(dens)
    S = mpmath.mpf(0)
    # past the shifts' size the term ratio is below about 2/3 at |z| <= 1/2
    settled = n0 + 10 + 4 * int(max(map(abs, nums + dens), default=0))
    small = mpmath.mpf(10) ** -32
    for n in range(n0, settled + 400):
        term = u * next(walk)
        S += term
        if n > settled and n % 4 == 0 and abs(term) <= small * max(1, abs(S)):
            return S
        num, den = z, (n + 1) ** p
        for a in nums:
            num *= a + n
        for b in dens:
            den *= b + n
        u = u * num / den
    raise AssertionError(f"{node} did not settle at 30 digits")


def _weight_walk_mp(kind, n0):
    """w_n0, w_n0+1, ... at 30 digits from each kind's definition."""
    from hyperharmonic import (DigammaDiffSum, DigammaLog, Harmonic,
                               HarmonicSqPlusGen2, LinearCombo, Unit)

    one = mpmath.mpf(1)
    if isinstance(kind, Unit):
        while True:
            yield one
    if isinstance(kind, LinearCombo):
        coeffs = [mp_number(c) for c, _ in kind.parts]
        for ws in zip(*(_weight_walk_mp(part, n0) for _, part in kind.parts)):
            yield sum(c * w for c, w in zip(coeffs, ws))
    if isinstance(kind, HarmonicSqPlusGen2):
        h = mpmath.fsum(one / k for k in range(1, n0 + 1))
        g = mpmath.fsum(one / k ** 2 for k in range(1, n0 + 1))
        for n in itertools.count(n0 + 1):
            yield h * h + g
            h += one / n
            g += one / n ** 2
    if isinstance(kind, Harmonic):
        s, idx = kind.stride, kind.stride * n0 + kind.offset
        w = mpmath.fsum(one / k for k in range(1, idx + 1))
        while True:
            yield w
            for _ in range(s):
                idx += 1
                w += one / idx
    if isinstance(kind, (DigammaDiffSum, DigammaLog)):
        # the walk adds sum_i c_i / (a_i + n), each pair from the
        # definition: 2/(2b + n) - 1/(a + b + 1/2 + n), or 2/(n + 1) -
        # 1/(a + n) - 1/(b + n) from w0
        a, b = mp_number(kind.a), mp_number(kind.b)
        if isinstance(kind, DigammaDiffSum):
            w, pairs = 0, ((2, 2 * b), (-1, a + b + mpmath.mpf(0.5)))
        else:
            w, pairs = mp_number(kind.w0), ((2, one), (-1, a), (-1, b))
        for n in itertools.count(0):
            if n >= n0:
                yield w
            w += sum(c / (s + n) for c, s in pairs)
    raise TypeError(f"no definition of the weight {kind!r}")


def mp_side(node, params):
    """An expr node (an identity's side) at 30 digits, interpreted in
    mpmath: Hyp2F1 as mpmath.hyp2f1, GammaRatio as a Gamma product
    (mpmath.gammaprod, which takes paired poles as limits), EllipticK(k)
    as mpmath.ellipk(k^2), since the node takes the modulus and mpmath
    the parameter, and a Series node by _series_mp. None where a Series
    node is outside what _series_mp sums."""
    mpmath.mp.dps = 30

    def ev(e):
        return MP_NODES[type(e).__name__](e, ev, params)

    try:
        return ev(node)
    except _NoReference:
        return None


# expr node class name -> its value at 30 digits, from (node, ev, params)
MP_NODES = {
    "Const": lambda e, ev, params: mp_number(e.value),
    "Param": lambda e, ev, params: mp_number(params[e.name]),
    "Add": lambda e, ev, params: ev(e.left) + ev(e.right),
    "Sub": lambda e, ev, params: ev(e.left) - ev(e.right),
    "Mul": lambda e, ev, params: ev(e.left) * ev(e.right),
    "Div": lambda e, ev, params: ev(e.left) / ev(e.right),
    "Neg": lambda e, ev, params: -ev(e.arg),
    "Pow": lambda e, ev, params: mpmath.power(ev(e.base), ev(e.exponent)),
    "Sqrt": lambda e, ev, params: mpmath.sqrt(ev(e.arg)),
    "Log": lambda e, ev, params: mpmath.log(ev(e.arg)),
    "Sin": lambda e, ev, params: mpmath.sin(ev(e.arg)),
    "Cos": lambda e, ev, params: mpmath.cos(ev(e.arg)),
    "Gamma": lambda e, ev, params: mpmath.gamma(ev(e.arg)),
    "Digamma": lambda e, ev, params: mpmath.digamma(ev(e.arg)),
    "GammaRatio": lambda e, ev, params: mpmath.gammaprod(
        [ev(a) for a in e.numerators], [ev(b) for b in e.denominators]),
    "EllipticK": lambda e, ev, params: mpmath.ellipk(ev(e.arg) ** 2),
    "Hyp2F1": lambda e, ev, params: mpmath.hyp2f1(ev(e.a), ev(e.b), ev(e.c),
                                                  ev(e.x)),
    "Series": lambda e, ev, params: _series_mp(e, ev),
}
