"""mpmath oracles shared by the test modules."""

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
