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
