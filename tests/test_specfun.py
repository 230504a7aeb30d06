"""Oracle tests for the special functions the kernel and distribution
catalogs evaluate: ``math.gamma``, ``math.lgamma``, ``math.erf``/``erfc``
and ``scipy.special``'s regularized incomplete gamma, ``exp1``, ``hyp1f1``,
``dawsn`` and ``poch``, plus the recurrence that gives the incomplete gamma function
at a negative order, on the argument ranges the catalogs reach.

Every function is checked against an independent route: adaptive
quadrature of the defining integral for a handful of anchor points, and a
high-precision reference (mpmath) on a sweep of random in-domain points.
Frozen decimal constants below were computed with mpmath at 30 digits.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import dawsn, exp1, gammaincc, hyp1f1, poch

mpmath.mp.dps = 30

RNG = np.random.default_rng(952311)

SQRT_PI = 1.7724538509055160273
E1_AT_1 = 0.21938393439552027368
ERF_AT_1 = 0.84270079294971486934


def mp_float(x):
    return float(x)


def upper_inc_gamma(s, t):
    """Unregularized upper incomplete gamma, as the Weibull kernel's slope
    C * S_G(r) evaluates it: Gamma(s) times the regularized Q(s, t)."""
    return math.gamma(s) * float(gammaincc(s, t))


class TestGammaFn:
    def test_half_integer_value(self):
        assert math.gamma(0.5) == pytest.approx(SQRT_PI, rel=1e-13, abs=0.0)

    def test_small_integers(self):
        for n, fact in [(1, 1.0), (2, 1.0), (3, 2.0), (5, 24.0), (8, 5040.0)]:
            assert math.gamma(n) == pytest.approx(fact, rel=1e-13, abs=0.0)

    def test_quadrature_of_defining_integral(self):
        # gamma(s) = int_0^inf x^(s-1) exp(-x) dx
        for s in [0.3, 0.75, 1.5, 2.2, 4.8]:
            ref, err = quad(lambda x: x ** (s - 1) * math.exp(-x), 0, np.inf)
            assert math.gamma(s) == pytest.approx(ref, rel=1e-9, abs=0.0)

    def test_random_sweep_against_reference(self):
        pts = np.exp(RNG.uniform(np.log(0.05), np.log(60.0), size=100))
        for s in pts:
            ref = mp_float(mpmath.gamma(s))
            assert math.gamma(s) == pytest.approx(ref, rel=1e-12, abs=0.0)

    @given(st.floats(min_value=0.1, max_value=50.0))
    def test_recurrence(self, s):
        assert math.gamma(s + 1) == pytest.approx(
            s * math.gamma(s), rel=1e-11, abs=0.0
        )


class TestLogGamma:
    def test_matches_reference(self):
        for s in [0.1, 0.9, 1.0, 7.5, 40.0, 150.0, 400.0]:
            assert math.lgamma(s) == pytest.approx(
                mp_float(mpmath.loggamma(s)), rel=1e-12, abs=1e-12
            )


class TestUpperIncGamma:
    def test_exponential_special_case(self):
        # gamma(1, t) = exp(-t)
        for t in [0.0, 0.4, 2.0, 9.0]:
            assert upper_inc_gamma(1.0, t) == pytest.approx(
                math.exp(-t), rel=1e-12, abs=0.0
            )

    def test_shape_two_special_case(self):
        # gamma(2, t) = (1 + t) exp(-t)
        for t in [0.0, 0.7, 3.3, 12.0]:
            assert upper_inc_gamma(2.0, t) == pytest.approx(
                (1 + t) * math.exp(-t), rel=1e-12, abs=0.0
            )

    def test_at_zero_equals_complete(self):
        for s in [0.4, 1.0, 2.5, 6.0]:
            assert upper_inc_gamma(s, 0.0) == pytest.approx(
                math.gamma(s), rel=1e-13, abs=0.0
            )

    def test_quadrature_of_defining_integral(self):
        for s, t in [(0.5, 0.25), (1.5, 2.0), (3.0, 1.0), (2.5, 8.0)]:
            ref, err = quad(lambda x: x ** (s - 1) * math.exp(-x), t, np.inf)
            assert upper_inc_gamma(s, t) == pytest.approx(ref, rel=1e-9, abs=0.0)

    def test_random_sweep_against_reference(self):
        s_pts = np.exp(RNG.uniform(np.log(0.05), np.log(40.0), size=100))
        t_pts = np.exp(RNG.uniform(np.log(1e-3), np.log(60.0), size=100))
        for s, t in zip(s_pts, t_pts):
            ref = mp_float(mpmath.gammainc(s, t))
            assert upper_inc_gamma(s, t) == pytest.approx(ref, rel=1e-10, abs=0.0)

    def test_regularized_sweep(self):
        s_pts = np.exp(RNG.uniform(np.log(0.05), np.log(200.0), size=100))
        t_pts = np.exp(RNG.uniform(np.log(1e-3), np.log(300.0), size=100))
        for s, t in zip(s_pts, t_pts):
            ref = mp_float(mpmath.gammainc(s, t, regularized=True))
            got = gammaincc(s, t)
            assert got == pytest.approx(ref, rel=1e-10, abs=1e-300)

    @given(
        st.floats(min_value=0.1, max_value=30.0),
        st.floats(min_value=0.0, max_value=40.0),
    )
    @settings(deadline=None)
    def test_recurrence(self, s, t):
        # gamma(s+1, t) = s gamma(s, t) + t^s exp(-t)
        lhs = upper_inc_gamma(s + 1, t)
        rhs = s * upper_inc_gamma(s, t) + t ** s * math.exp(-t)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def upper_inc_gamma_below_zero(s, t):
    """Gamma(s - 1, t) for 0 < s < 1 by the recurrence the gamma kernel's
    slope uses: (t^(s-1) e^-t - Gamma(s) Q(s, t)) / (1 - s)."""
    lead = math.exp((s - 1.0) * math.log(t) - t)
    return (lead - math.gamma(s) * float(gammaincc(s, t))) / (1.0 - s)


class TestUpperIncGammaNegativeOrder:
    def test_quadrature_of_defining_integral(self):
        for s, t in [(0.3, 0.5), (0.5, 1.0), (0.9, 2.0), (0.5, 8.0)]:
            ref, err = quad(lambda x: x ** (s - 2) * math.exp(-x), t, np.inf)
            assert upper_inc_gamma_below_zero(s, t) == pytest.approx(ref, rel=1e-9, abs=0.0)

    def test_random_sweep_against_reference(self):
        rng = np.random.default_rng(60311)
        s_pts = rng.uniform(0.05, 0.99, size=100)
        t_pts = np.exp(rng.uniform(np.log(1e-6), np.log(30.0), size=100))
        for s, t in zip(s_pts, t_pts):
            ref = mp_float(mpmath.gammainc(s - 1, t))
            assert upper_inc_gamma_below_zero(s, t) == pytest.approx(ref, rel=1e-11, abs=0.0)


class TestPochhammer:
    """poch(a, 1/p) = Gamma(a + 1/p) / Gamma(a) gives a generalized gamma
    law's mean b poch(a, 1/p) and its C = 1 / (b poch(a - 1/p, 1/p))."""

    def test_unit_step_is_exact(self):
        # power 1 (the gamma law) then reads s theta and 1 / ((s - 1) theta)
        shapes = np.concatenate([RNG.uniform(0.0, 20.0, size=2000), 0.5 * np.arange(1, 41)])
        assert np.array_equal(poch(shapes, 1.0), shapes)

    def test_random_sweep_against_reference(self):
        rng = np.random.default_rng(60313)
        a_pts = np.exp(rng.uniform(np.log(0.01), np.log(50.0), size=100))
        x_pts = 1.0 / rng.uniform(0.3, 5.0, size=100)
        for a, x in zip(a_pts, x_pts):
            ref = mp_float(mpmath.rf(a, x))
            assert poch(a, x) == pytest.approx(ref, rel=1e-13, abs=0.0), (a, x)


class TestDawson:
    def test_small_argument_series(self):
        # D(x) = x - 2 x^3 / 3 + 4 x^5 / 15 - ...
        for x in [1e-300, 1e-9, 1e-4]:
            assert dawsn(x) == pytest.approx(x - 2.0 * x ** 3 / 3.0, rel=1e-15, abs=0.0)

    def test_quadrature_of_defining_integral(self):
        # D(x) = exp(-x^2) int_0^x exp(t^2) dt
        for x in [0.2, 0.9, 2.0, 5.0]:
            ref, err = quad(lambda t: math.exp(t * t - x * x), 0.0, x)
            assert dawsn(x) == pytest.approx(ref, rel=1e-10, abs=0.0)

    def test_random_sweep_against_reference(self):
        pts = np.exp(np.random.default_rng(60312).uniform(np.log(1e-6), np.log(1e6), size=100))
        for x in pts:
            m = mpmath.mpf(float(x))
            ref = mp_float(mpmath.sqrt(mpmath.pi) / 2 * mpmath.exp(-m * m) * mpmath.erfi(m))
            assert dawsn(x) == pytest.approx(ref, rel=1e-13, abs=0.0)

    def test_large_argument_asymptote(self):
        # D(x) -> 1 / (2x) + 1 / (4 x^3) as x -> infinity
        for x in [1e4, 1e8, 1e100]:
            assert dawsn(x) == pytest.approx(0.5 / x + 0.25 / x ** 3, rel=1e-14, abs=0.0)


class TestExpIntegralE1:
    def test_frozen_anchor(self):
        assert exp1(1.0) == pytest.approx(E1_AT_1, abs=1e-12)

    def test_quadrature_of_defining_integral(self):
        for z in [0.1, 0.5, 1.0, 2.5, 7.0]:
            ref, err = quad(lambda x: math.exp(-x) / x, z, np.inf)
            assert exp1(z) == pytest.approx(ref, rel=1e-9, abs=0.0)

    def test_random_sweep_against_reference(self):
        pts = np.exp(RNG.uniform(np.log(1e-3), np.log(80.0), size=100))
        for z in pts:
            ref = mp_float(mpmath.expint(1, z))
            assert exp1(z) == pytest.approx(
                ref, rel=1e-10, abs=1e-300
            )

    def test_branch_seam_is_smooth(self):
        # implementations switch expansions at 1; values must agree there
        for z in [0.999999, 1.0, 1.000001]:
            ref = mp_float(mpmath.expint(1, z))
            assert exp1(z) == pytest.approx(ref, rel=1e-11, abs=0.0)


class TestKummerM:
    def test_at_zero(self):
        assert hyp1f1(0.7, 1.3, 0.0) == 1.0

    def test_equal_parameters_give_exp(self):
        for z in [-3.0, -0.5, 0.2, 4.0]:
            assert hyp1f1(1.5, 1.5, z) == pytest.approx(
                math.exp(z), rel=1e-12, abs=0.0
            )

    def test_one_two_closed_form(self):
        # M(1, 2, z) = (exp(z) - 1)/z
        for z in [-2.0, 0.3, 1.7, 6.0]:
            assert hyp1f1(1.0, 2.0, z) == pytest.approx(
                math.expm1(z) / z, rel=1e-12, abs=0.0
            )

    def test_random_sweep_against_reference(self):
        a_pts = RNG.uniform(-3.0, 4.0, size=100)
        b_pts = RNG.uniform(0.3, 4.0, size=100)
        z_pts = RNG.uniform(-45.0, 12.0, size=100)
        for a, b, z in zip(a_pts, b_pts, z_pts):
            ref = mp_float(mpmath.hyp1f1(a, b, z))
            assert hyp1f1(a, b, z) == pytest.approx(
                ref, rel=1e-9, abs=1e-12
            )

    def test_large_negative_argument(self):
        # exercised by spectral evaluation at large frequency
        for a, b, z in [(0.5, 0.5, -200.0), (1.0, 0.5, -120.0), (2.5, 0.5, -60.0)]:
            ref = mp_float(mpmath.hyp1f1(a, b, z))
            assert hyp1f1(a, b, z) == pytest.approx(ref, rel=1e-9, abs=1e-15)


class TestErfFamily:
    def test_frozen_anchor(self):
        assert math.erf(1.0) == pytest.approx(ERF_AT_1, abs=1e-12)

    def test_quadrature_of_defining_integral(self):
        for x in [0.2, 1.0, 1.8]:
            ref, err = quad(lambda t: math.exp(-t * t), -x, x)
            ref /= SQRT_PI
            assert math.erf(x) == pytest.approx(ref, rel=1e-9, abs=0.0)

    def test_random_sweep_against_reference(self):
        pts = RNG.uniform(-6.0, 6.0, size=100)
        for x in pts:
            assert math.erf(x) == pytest.approx(
                mp_float(mpmath.erf(x)), rel=1e-11, abs=1e-14
            )
            assert math.erfc(x) == pytest.approx(
                mp_float(mpmath.erfc(x)), rel=1e-11, abs=0.0
            )

    def test_erfc_tail_is_relatively_accurate(self):
        for x in [3.0, 5.0, 8.0, 12.0]:
            assert math.erfc(x) == pytest.approx(
                mp_float(mpmath.erfc(x)), rel=1e-10, abs=0.0
            )

    def test_odd_symmetry(self):
        for x in [0.3, 1.1, 2.7]:
            assert math.erf(-x) == -math.erf(x)

    @given(st.floats(min_value=-8.0, max_value=8.0))
    def test_complement(self, x):
        assert math.erf(x) + math.erfc(x) == pytest.approx(1.0, abs=1e-12)
