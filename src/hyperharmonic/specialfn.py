"""Scalar special functions on the complex plane.

Log-gamma, digamma, gamma ratios, Pochhammer symbols, harmonic numbers,
and the complete elliptic integral K, all in plain complex arithmetic.
Accuracy targets are set by the series engine that sits on top: roughly
1e-13 relative for log-gamma and 1e-12 for digamma and gamma ratios on
the working domain |z| <= 100.
"""

from __future__ import annotations

import cmath
import math

from .errors import DomainError, PoleError

__all__ = [
    "ln_gamma",
    "digamma",
    "gamma_ratio",
    "pochhammer",
    "elliptic_K",
    "harmonic",
    "generalized_harmonic",
]

POLE_TOL = 1e-12

# Lanczos approximation, g = 7, 9 terms: relative error a few 1e-15 in the
# right half plane once assembled as (z-1/2)log(t) - t + log(series).
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

# Bernoulli numbers B_0 .. B_20 as exact (numerator, denominator) pairs:
# each table of their values divides once per entry, so every float is the
# correctly rounded value of its rational
_BERNOULLI_RATIONALS = (
    (1, 1), (-1, 2), (1, 6), (0, 1), (-1, 30), (0, 1), (1, 42), (0, 1),
    (-1, 30), (0, 1), (5, 66), (0, 1), (-691, 2730), (0, 1), (7, 6), (0, 1),
    (-3617, 510), (0, 1), (43867, 798), (0, 1), (-174611, 330),
)

# B_{2k}/(2k) for k = 1..7, the asymptotic digamma tail coefficients.
_DIGAMMA_TAIL = tuple(p / (2 * k * q) for k, (p, q)
                      in enumerate(_BERNOULLI_RATIONALS[2:15:2], 1))


def _pole_index(z: complex) -> int | None:
    """k >= 0 such that |z + k| <= POLE_TOL, or None if z is off-pole. A
    non-finite z (a NaN parameter) raises DomainError."""
    if not cmath.isfinite(z):
        raise DomainError(f"argument {z} is not finite")
    k = round(z.real)
    if k <= 0 and abs(z - k) <= POLE_TOL:
        return -k
    return None


def _whole(n, what: str) -> int:
    """n as an int if it is a whole number >= 0, else DomainError naming
    it as what; nan and inf raise it too, before int() could."""
    if not (0 <= n < math.inf and n == int(n)):
        raise DomainError(f"{what} must be a non-negative integer, got {n!r}")
    return int(n)


def _ln_gamma_right(z: complex) -> complex:
    # Re z >= 0.5 only; callers reflect first.
    x = _LANCZOS[0]
    for i in range(1, 9):
        x += _LANCZOS[i] / (z - 1.0 + i)
    t = z + (_LANCZOS_G - 0.5)
    return 0.918938533204672742 + (z - 0.5) * cmath.log(t) - t + cmath.log(x)


def _log_sin_pi(z: complex) -> complex:
    """log sin(pi z), analytically continued through the upper half plane.

    Written so the reflection formula reproduces the loggamma branch used
    by the usual references (real axis approached from above); also avoids
    overflow of sin for large |Im z|.
    """
    if z.imag >= 0.0:
        w = cmath.exp(2j * math.pi * z)  # |w| <= 1 here
        return -1j * math.pi * z + cmath.log(0.5j) + cmath.log(1.0 - w)
    return _log_sin_pi(z.conjugate()).conjugate()


def ln_gamma(z: complex) -> complex:
    """Principal-branch log Gamma.

    Raises PoleError within 1e-12 of a non-positive integer. On the
    negative real axis the imaginary part follows the limit from above,
    matching the standard loggamma continuation.
    """
    z = complex(z)
    if _pole_index(z) is not None:
        raise PoleError(f"log-gamma pole at {z}")
    if z.real >= 0.5:
        return _ln_gamma_right(z)
    return math.log(math.pi) - _log_sin_pi(z) - _ln_gamma_right(1.0 - z)


def digamma(z: complex) -> complex:
    """Logarithmic derivative of Gamma.

    Reflection for Re z < -0.5, then recurrence up to Re w >= 8 where the
    Bernoulli tail through B_14 leaves errors near 1e-15.
    """
    z = complex(z)
    if _pole_index(z) is not None:
        raise PoleError(f"digamma pole at {z}")
    acc = 0j
    w = z
    if w.real < -0.5:
        # psi(z) = psi(1-z) - pi cot(pi z); tan is overflow-safe off-pole
        acc -= math.pi / cmath.tan(math.pi * w)
        w = 1.0 - w
    while w.real < 8.0:
        acc -= 1.0 / w
        w += 1.0
    u = 1.0 / (w * w)
    s = _DIGAMMA_TAIL[6]
    for c in (_DIGAMMA_TAIL[5], _DIGAMMA_TAIL[4], _DIGAMMA_TAIL[3],
              _DIGAMMA_TAIL[2], _DIGAMMA_TAIL[1], _DIGAMMA_TAIL[0]):
        s = s * u + c
    return acc + cmath.log(w) - 0.5 / w - u * s


def gamma_ratio(numerators, denominators) -> complex:
    """prod Gamma(numerators) / prod Gamma(denominators), in log space.

    Arguments within 1e-12 of non-positive integers are treated as exact
    poles: a numerator pole must be matched by a denominator pole (the
    paired limit contributes (-1)**(k1+k2) * k2!/k1!), an unmatched
    denominator pole sends the ratio to zero, and an unmatched numerator
    pole raises PoleError.
    """
    log_acc = 0j
    num_poles: list[int] = []
    den_poles: list[int] = []
    for v in numerators:
        v = complex(v)
        k = _pole_index(v)
        if k is None:
            log_acc += ln_gamma(v)
        else:
            num_poles.append(k)
    for v in denominators:
        v = complex(v)
        k = _pole_index(v)
        if k is None:
            log_acc -= ln_gamma(v)
        else:
            den_poles.append(k)
    sign = 1.0
    while num_poles and den_poles:
        k1 = num_poles.pop()
        k2 = den_poles.pop()
        if (k1 + k2) % 2:
            sign = -sign
        log_acc += _ln_gamma_right(k2 + 1.0 + 0j) - _ln_gamma_right(k1 + 1.0 + 0j)
    if num_poles:
        raise PoleError("unpaired gamma pole in numerator")
    if den_poles:
        return 0j
    return sign * cmath.exp(log_acc)


def pochhammer(a: complex, n: int) -> complex:
    """Rising factorial (a)_n for integer n >= 0.

    Small n is an exact product (so integer zeros come out exactly zero);
    large n goes through the gamma-ratio path.
    """
    n = _whole(n, "pochhammer order")
    a = complex(a)
    if n <= 64:
        out = 1.0 + 0j
        for m in range(n):
            out *= a + m
        return out
    return gamma_ratio([a + n], [a])


def harmonic(n: int) -> float:
    """H_n = sum_{k<=n} 1/k as the fsum of the rounded terms 1.0/k, so
    within about 0.56 ulp of H_n (not correctly rounded: 149 of the values
    for n < 3,000 are not the nearest float). H_0 = 0."""
    n = _whole(n, "harmonic index")
    return math.fsum(1.0 / k for k in range(1, n + 1))


def generalized_harmonic(n: int, r: float) -> float:
    """H_n^(r) = sum_{k<=n} k**(-r) via fsum."""
    n = _whole(n, "harmonic index")
    return math.fsum(float(k) ** (-r) for k in range(1, n + 1))


def elliptic_K(k) -> float:
    """Complete elliptic integral K(k), modulus convention, via the AGM.

    K(k) = pi / (2 AGM(1, sqrt(1-k^2))). Requires 0 <= k < 1; complex
    input is accepted only with a negligible imaginary part.
    """
    if isinstance(k, complex):
        if abs(k.imag) > 1e-13:
            raise DomainError(f"elliptic_K requires a real modulus, got {k!r}")
        k = k.real
    k = float(k)
    if not 0.0 <= k < 1.0:
        raise DomainError(f"elliptic_K requires 0 <= k < 1, got {k!r}")
    a, b = 1.0, math.sqrt(1.0 - k * k)
    # quadratic convergence: 7 iterations suffice for any k in [0, 1);
    # the floor of 4 ulp keeps the exit test above rounding jitter
    for _ in range(60):
        if abs(a - b) <= 4e-16 * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)
