"""Scalar special functions against frozen high-precision references and
live mpmath/scipy values."""

import cmath
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperharmonic import (DomainError, PoleError, digamma, elliptic_K,
                           gamma_ratio, generalized_harmonic, harmonic,
                           ln_gamma, pochhammer)

# frozen at 40 digits
LNG_HALF = 0.5723649429247000870717136756765293558
LNG_55 = 3.9578139676187162938774008558225909985
LNG_C = complex(0.7853469580738222014792393302729711043,
                2.5830129251152620265717235398661460876)
LNG_NEG = complex(-2.2829708277169438427098271480929618517,
                  -15.707963267948966192313216916397514420)
LNG_NEGC = complex(-3.7175134511917918461593446163479059953,
                   -7.7130655258341925259685393931472123769)
DG_03 = -3.5025242222001329889644945073719815995
DG_79 = 2.0022384875635709877517235058663141828
DG_C = complex(0.8724602155334632939941121070012733392,
               -0.5698534661015831721526389871451976314)
DG_NEG = 0.3926752844747129140983843470123006040
POCH_HALF_7 = 1055.7421875
POCH_C_90 = complex(1.5890042990838898952309117790634515665e136,
                    1.5980279135216256594018307746900824525e136)
GR_EX = 2.8284271247461900976033774484193961571
EK_05 = 1.6857503548125960428712036577990769895
EK_01 = 1.5747455615173559526690306886598600916
EK_095 = 2.5900112308745012191945360986448445332


def rel(got, want):
    return abs(got - want) / max(1.0, abs(want))


class TestLnGamma:
    def test_frozen_values(self):
        assert rel(ln_gamma(0.5), LNG_HALF) < 1e-14
        assert rel(ln_gamma(5.5), LNG_55) < 1e-14
        assert rel(ln_gamma(3.7 + 2.1j), LNG_C) < 1e-14
        assert rel(ln_gamma(-4.3), LNG_NEG) < 1e-14
        assert rel(ln_gamma(-2.5 + 1.5j), LNG_NEGC) < 1e-14

    def test_poles(self):
        for k in (0, -1, -2, -7, -40):
            with pytest.raises(PoleError):
                ln_gamma(complex(k))

    def test_near_pole_is_finite(self):
        v = ln_gamma(-3.0 + 1e-9)
        assert math.isfinite(v.real)

    def test_against_scipy_grid(self):
        from scipy.special import loggamma as sp_loggamma
        pts = []
        for re in (-20.3, -7.7, -0.4, 0.2, 1.0, 4.9, 33.1):
            for im in (-14.2, -1.1, 0.0, 0.7, 25.0):
                pts.append(complex(re, im))
        worst = max(abs(ln_gamma(z) - complex(sp_loggamma(z)))
                    / max(1.0, abs(complex(sp_loggamma(z)))) for z in pts)
        assert worst < 5e-14

    @given(st.complex_numbers(min_magnitude=0.1, max_magnitude=30,
                              allow_nan=False, allow_infinity=False))
    @settings(max_examples=40, deadline=None)
    def test_recurrence(self, z):
        # Gamma(z+1) = z * Gamma(z), as exp of the log difference
        if abs(z.imag) < 1e-3 and z.real <= 0.5:
            return  # too near the pole line for a stable ratio
        ratio = cmath.exp(ln_gamma(z + 1) - ln_gamma(z))
        assert abs(ratio - z) <= 1e-10 * max(1.0, abs(z))


class TestDigamma:
    def test_frozen_values(self):
        assert rel(digamma(0.3), DG_03) < 1e-13
        assert rel(digamma(7.9), DG_79) < 1e-13
        assert rel(digamma(2.5 - 1.3j), DG_C) < 1e-13
        assert rel(digamma(-3.6), DG_NEG) < 1e-13

    def test_poles(self):
        for k in (0, -1, -5):
            with pytest.raises(PoleError):
                digamma(complex(k))

    def test_against_mpmath_grid(self):
        mpmath.mp.dps = 30
        for z in (0.05, 1.0, 2.0, 11.3, -0.7, -9.4,
                  0.5 + 8j, -2.3 - 0.4j, 40.0 + 40.0j):
            want = complex(mpmath.digamma(z))
            assert abs(digamma(z) - want) <= 1e-12 * max(1.0, abs(want))

    @given(st.complex_numbers(min_magnitude=0.05, max_magnitude=20,
                              allow_nan=False, allow_infinity=False))
    @settings(max_examples=40, deadline=None)
    def test_recurrence(self, z):
        if abs(z - round(z.real)) < 1e-2 and abs(z.imag) < 1e-2 and z.real < 0.5:
            return
        got = digamma(z + 1) - digamma(z)
        assert abs(got - 1.0 / z) <= 1e-10 * max(1.0, abs(1.0 / z))


class TestGammaRatio:
    def test_generic(self):
        got = gamma_ratio([2.5, 0.5], [1.25, 1.75])
        assert rel(got, GR_EX) < 1e-13

    def test_paired_poles_cancel(self):
        # lim Gamma(-k1+e)/Gamma(-k2+e) = (-1)^(k1+k2) k2!/k1!
        got = gamma_ratio([-3.0], [-5.0])
        want = (-1) ** (3 + 5) * math.factorial(5) / math.factorial(3)
        assert rel(got, want) < 1e-13
        got = gamma_ratio([-70.0], [-65.0])
        want = (-1) ** (70 + 65) * math.factorial(65) / math.factorial(70)
        assert rel(got, want) < 1e-12

    def test_unmatched_numerator_pole_raises(self):
        with pytest.raises(PoleError):
            gamma_ratio([-2.0, 0.5], [1.5])

    def test_unmatched_denominator_pole_gives_zero(self):
        assert gamma_ratio([0.5], [-4.0]) == 0.0

    def test_matches_mpmath_products(self):
        mpmath.mp.dps = 30
        num = [0.3 + 0.2j, 1.7]
        den = [2.1, -0.4 + 0.1j]
        want = complex(mpmath.gamma(num[0]) * mpmath.gamma(num[1])
                       / (mpmath.gamma(den[0]) * mpmath.gamma(den[1])))
        assert abs(gamma_ratio(num, den) - want) <= 1e-12 * abs(want)


class TestPochhammer:
    def test_basics(self):
        assert pochhammer(0.5, 0) == 1.0
        assert rel(pochhammer(0.5, 7), POCH_HALF_7) < 1e-14
        assert rel(pochhammer(0.3 + 0.1j, 90), POCH_C_90) < 1e-12

    def test_bad_n(self):
        with pytest.raises(DomainError):
            pochhammer(1.0, -1)
        with pytest.raises(DomainError):
            pochhammer(1.0, 2.5)
        # nan and inf once escaped from int() as ValueError and OverflowError
        for n in (math.nan, math.inf):
            with pytest.raises(DomainError, match="non-negative integer"):
                pochhammer(0.5, n)

    def test_negative_integer_base_terminates(self):
        assert pochhammer(-3.0, 4) == 0.0
        assert pochhammer(-3.0, 3) == -6.0

    @given(st.integers(min_value=0, max_value=60),
           st.floats(min_value=-8, max_value=8, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_recurrence(self, n, a):
        left = pochhammer(a, n + 1)
        right = pochhammer(a, n) * (a + n)
        assert abs(left - right) <= 1e-9 * max(1.0, abs(right))


class TestHarmonic:
    def test_exact_small_values(self):
        assert harmonic(0) == 0.0
        assert harmonic(1) == 1.0
        assert harmonic(4) == pytest.approx(25.0 / 12.0, abs=1e-16)
        want = Fraction(0)
        for k in range(1, 11):
            want += Fraction(1, k)
        assert abs(harmonic(10) - float(want)) < 1e-15

    def test_within_0_56_ulp_of_the_exact_sum(self):
        # fsum of the rounded terms 1/k is not correctly rounded: for n <
        # 3,000 it is off by up to 0.5585 ulp (at n = 1,292), and 149 of
        # those values differ from the correctly rounded H_n
        want, worst, off = Fraction(0), Fraction(0), 0
        for n in range(3000):
            if n:
                want += Fraction(1, n)
            got = harmonic(n)
            if n:
                worst = max(worst, abs(Fraction(got) - want)
                            / Fraction(math.ulp(got)))
            off += got != float(want)
        assert Fraction(0.55) < worst <= Fraction(0.56)
        assert off == 149

    def test_generalized(self):
        assert generalized_harmonic(3, 2) == pytest.approx(49.0 / 36.0, abs=1e-16)
        assert generalized_harmonic(10, 1) == pytest.approx(harmonic(10), abs=1e-15)
        want = Fraction(0)
        for k in range(1, 11):
            want += Fraction(1, k * k)
        assert abs(generalized_harmonic(10, 2) - float(want)) < 1e-15

    def test_bad_index(self):
        with pytest.raises(DomainError):
            harmonic(-1)
        with pytest.raises(DomainError):
            generalized_harmonic(-2, 2)
        for n in (math.nan, math.inf):
            with pytest.raises(DomainError, match="non-negative integer"):
                harmonic(n)
            with pytest.raises(DomainError, match="non-negative integer"):
                generalized_harmonic(n, 2)


class TestEllipticK:
    def test_frozen_values(self):
        assert elliptic_K(0.0) == pytest.approx(math.pi / 2, rel=1e-15)
        assert rel(elliptic_K(0.5), EK_05) < 1e-14
        assert rel(elliptic_K(0.1), EK_01) < 1e-14
        assert rel(elliptic_K(0.95), EK_095) < 1e-14

    def test_domain(self):
        with pytest.raises(DomainError):
            elliptic_K(1.0)
        with pytest.raises(DomainError):
            elliptic_K(-0.2)
        with pytest.raises(DomainError):
            elliptic_K(0.5 + 0.1j)
        # nan fails both k < 0 and k >= 1, and once came back as nan
        with pytest.raises(DomainError):
            elliptic_K(math.nan)

    def test_tiny_imaginary_part_tolerated(self):
        got = elliptic_K(0.5 + 1e-14j)
        assert rel(got, EK_05) < 1e-13

    def test_near_one_terminates(self):
        # AGM must exit despite one-ulp ping-pong near the singular end
        v = elliptic_K(1.0 - 1e-12)
        assert math.isfinite(v) and v > 14.0

    def test_against_mpmath(self):
        mpmath.mp.dps = 30
        for k in (0.02, 0.3, 0.77, 0.999):
            want = float(mpmath.ellipk(k * k))
            assert rel(elliptic_K(k), want) < 1e-13
