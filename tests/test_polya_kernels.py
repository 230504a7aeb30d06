"""Tests for kernel construction, spectra, and cdf recovery.

Closed-form kernels are compared against direct quadrature of the mixture
integral; closed-form spectra against the dual numeric route. Frozen
constants were verified with 30-digit arithmetic.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polyakern import distributions as dist
from polyakern import polya_kernels as kernels
from polyakern.errors import ParseError

E1_AT_1 = 0.21938393439552027368

CLOSED_FORM_SETTINGS = [
    dist.ShiftedPoisson(0.7),
    dist.ShiftedPoisson(2.0),
    dist.ShiftedPoisson(5.0),
    dist.Gamma(1.0, 1.0),
    dist.Gamma(2.0, 1.5),
    dist.Gamma(3.5, 0.7),
    dist.Exponential(0.5),
    dist.Exponential(2.0),
    dist.Weibull(1.0, 2.0),
    dist.Weibull(1.5, 3.5),
    dist.ChiSquare(2),
    dist.ChiSquare(5),
    dist.Chi(1),
    dist.Chi(2),
    dist.Chi(3),
    dist.HalfNormal(0.5),
    dist.HalfNormal(1.0),
    dist.HalfNormal(2.0),
    dist.Rayleigh(0.5),
    dist.Rayleigh(1.0),
    dist.Nakagami(0.5, 1.5),
    dist.Nakagami(1.0, 2.0),
    dist.Nakagami(2.5, 1.3),
]

# Laws with C = E 1/X infinite, whose density does not vanish at zero. Their
# kernels take the closed tail Gamma(a - 1/p, x) and are checked against the
# numeric route here; the kernels with no closed form (Weibull alpha <= 1/2)
# are pinned to mpmath in TestNumericRoutes, as are the numeric transforms.
NUMERIC_ONLY_SETTINGS = [
    dist.Gamma(0.5, 1.0),
    dist.Weibull(1.0, 0.7),
    dist.ChiSquare(1),
]

R_GRID = [0.0, 0.3, 1.0, 2.5, 7.0]


def spec(d, **kw):
    return kernels.KernelSpec(d, **kw)


class TestKernelSpec:
    def test_default_scale(self):
        k = spec(dist.Gamma(2.0, 1.0))
        assert k.rho == 1.0

    def test_tau_sets_scale_exactly(self):
        k = spec(dist.Gamma(2.0, 1.0), tau=0.5)
        assert k.rho == dist.Gamma(2.0, 1.0).mean() / 0.5 == 4.0

    def test_rho_and_tau_conflict(self):
        with pytest.raises(ValueError):
            spec(dist.Gamma(2.0, 1.0), rho=2.0, tau=0.5)

    def test_bad_scale(self):
        with pytest.raises(ValueError):
            spec(dist.Gamma(2.0, 1.0), rho=-1.0)
        with pytest.raises(ValueError):
            spec(dist.Gamma(2.0, 1.0), tau=0.0)


class TestEvalKernel:
    def test_laplace_case(self):
        # a gamma source with shape two gives exp(-r/theta)
        k = spec(dist.Gamma(2.0, 1.0))
        for r in [0.0, 0.5, 1.0, 3.0]:
            assert kernels.eval_kernel(k, r) == pytest.approx(math.exp(-r), rel=1e-12)

    def test_exponential_source_value(self):
        k = spec(dist.Exponential(1.0))
        expected = math.exp(-1.0) - E1_AT_1
        assert kernels.eval_kernel(k, 1.0) == pytest.approx(expected, abs=1e-12)

    def test_shifted_count_piecewise_linear(self):
        k = spec(dist.ShiftedPoisson(2.0))
        expected = 1.0 - 0.25 * (1.0 - math.exp(-2.0))
        assert kernels.eval_kernel(k, 0.5) == pytest.approx(expected, rel=1e-12)
        # linear between the integer knots
        v1 = kernels.eval_kernel(k, 1.25)
        v2 = kernels.eval_kernel(k, 1.5)
        v3 = kernels.eval_kernel(k, 1.75)
        assert v2 == pytest.approx(0.5 * (v1 + v3), abs=1e-12)

    def test_value_one_at_zero(self):
        for d in CLOSED_FORM_SETTINGS + NUMERIC_ONLY_SETTINGS:
            assert kernels.eval_kernel(spec(d), 0.0) == 1.0, d

    def test_tiny_distance_is_near_one(self):
        # the half-normal E1 argument r^2 / (2 sigma^2) underflows to zero here
        for d in CLOSED_FORM_SETTINGS + NUMERIC_ONLY_SETTINGS:
            for r in [1e-300, 1e-170]:
                assert kernels.eval_kernel(spec(d), r) == pytest.approx(1.0, abs=1e-12), (d, r)

    def test_even_in_r(self):
        for d in [dist.Gamma(2.0, 1.0), dist.Rayleigh(1.0), dist.ShiftedPoisson(2.0)]:
            k = spec(d)
            for r in [0.4, 1.3]:
                assert kernels.eval_kernel(k, -r) == kernels.eval_kernel(k, r)

    def test_closed_forms_match_quadrature(self):
        for d in CLOSED_FORM_SETTINGS:
            k = spec(d)
            for r in R_GRID:
                closed = kernels.eval_kernel(k, r)
                numeric = kernels.eval_kernel_numeric(d, r)
                assert closed == pytest.approx(numeric, abs=1e-8), (d, r)

    def test_numeric_families_are_structural(self):
        grid = np.linspace(0.0, 10.0, 41)
        for d in NUMERIC_ONLY_SETTINGS:
            k = spec(d)
            vals = np.array([kernels.eval_kernel(k, r) for r in grid])
            assert vals[0] == 1.0
            assert np.all(vals >= -1e-12) and np.all(vals <= 1.0 + 1e-12)
            assert np.all(np.diff(vals) <= 1e-10), d

    def test_monotone_convex_bounded(self):
        grid = np.linspace(0.0, 10.0, 81)
        for d in CLOSED_FORM_SETTINGS:
            vals = np.array([kernels.eval_kernel(spec(d), r) for r in grid])
            assert np.all(vals >= -1e-12) and np.all(vals <= 1.0 + 1e-12), d
            assert np.all(np.diff(vals) <= 1e-10), d
            second = np.diff(vals, 2)
            assert np.all(second >= -1e-9), d

    @pytest.mark.parametrize("d", [
        dist.Weibull(1.0, 0.7), dist.Weibull(2.0, 0.7), dist.Weibull(1.0, 0.55),
        dist.Weibull(1.0, 0.9),
    ], ids=repr)
    def test_weibull_below_one_closed_matches_quadrature(self, d):
        # exponents 1/2 < alpha < 1 have the closed tail Gamma(1 - 1/alpha, x)
        assert kernels._tilted_tail(d, 1.0) is not None
        for r in R_GRID + [1e-6, 0.01, 20.0]:
            closed = kernels.eval_kernel(spec(d), r)
            assert closed == pytest.approx(kernels.eval_kernel_numeric(d, r), abs=1e-8), r

    def test_weibull_below_one_keeps_digits_at_tiny_r(self):
        # the closed tail; TestNumericRoutes pins the numeric route here
        d = dist.Weibull(2.0, 0.7)
        for r in (1e-8, 1e-12):
            with mpmath.workdps(40):
                x = (mpmath.mpf(r) / 2) ** mpmath.mpf(0.7)
                ref = mpmath.exp(-x) - r * mpmath.gammainc(1 - 1 / mpmath.mpf(0.7), x) / 2
            assert kernels.eval_kernel(spec(d), r) == pytest.approx(float(ref), rel=1e-14), r

    def test_scaling_is_exact(self):
        d = dist.Gamma(3.5, 0.7)
        for r in [0.3, 1.7]:
            assert kernels.eval_kernel(spec(d, rho=2.5), r) == kernels.eval_kernel(
                spec(d), 2.5 * r
            )

    @given(st.floats(min_value=0.05, max_value=20.0), st.floats(min_value=0.0, max_value=8.0))
    @settings(deadline=None, max_examples=40)
    def test_scaling_property(self, rho, r):
        d = dist.Rayleigh(1.0)
        lhs = kernels.eval_kernel(spec(d, rho=rho), r)
        rhs = kernels.eval_kernel(spec(d), rho * r)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


FT_SETTINGS = [
    dist.ShiftedPoisson(1.0),
    dist.ShiftedPoisson(2.5),
    dist.Gamma(1.0, 1.0),
    dist.Gamma(2.0, 1.0),
    dist.Gamma(3.0, 0.8),
    dist.Chi(2),
    dist.Chi(3),
    dist.Rayleigh(0.7),
    dist.Rayleigh(1.0),
    dist.Nakagami(1.0, 2.0),
    dist.Nakagami(1.5, 1.0),
]

T_GRID = [0.3, 1.0, 2.6]


def infinite_tilt_ft_reference(d, t):
    """The transform at t with 30 digits, from formulas independent of the
    spectral identity's quadrature: E X 2F2(1, 1; 3/2, 2; -(t sigma)^2 / 2)
    for a half-normal law, and for a gamma law with shape s < 1 the tilt
    formula continued to the tilted shape s - 1 < 0,
    2 (Re (1 - i theta t)^(1 - s) - 1) / (theta (1 - s) t^2)."""
    with mpmath.workdps(40):
        t = mpmath.mpf(t)
        if isinstance(d, (dist.HalfNormal, dist.Chi, dist.Nakagami)):
            sigma = {dist.HalfNormal: lambda: d.sigma, dist.Chi: lambda: 1.0,
                     dist.Nakagami: lambda: mpmath.sqrt(d.omega)}[type(d)]()
            mean = sigma * mpmath.sqrt(2 / mpmath.pi)
            return float(mean * mpmath.hyp2f2(1, 1, 1.5, 2, -(t * sigma) ** 2 / 2))
        if isinstance(d, dist.Exponential):
            x = d.theta * t
            return float(mpmath.log1p(x * x) / (d.theta * t * t))
        s, theta = (0.5, 2.0) if isinstance(d, dist.ChiSquare) else (d.s, d.theta)
        z = (1 - 1j * theta * t) ** (1 - mpmath.mpf(s))
        return float(2 * (mpmath.re(z) - 1) / (theta * (1 - mpmath.mpf(s)) * t * t))


class TestEvalFt:
    def test_log_two_anchor(self):
        # exponential source, theta 1: transform at t = 1 is log 2
        v = kernels.eval_ft(spec(dist.Gamma(1.0, 1.0)), 1.0)
        assert v.value == pytest.approx(math.log(2.0), rel=1e-12)

    def test_rayleigh_anchors(self):
        k = spec(dist.Rayleigh(1.0))
        assert kernels.eval_ft(k, 0.0).value == pytest.approx(
            math.sqrt(math.pi / 2.0), rel=1e-12
        )
        expected = math.sqrt(2.0 * math.pi) / 4.0 * (1.0 - math.exp(-2.0))
        assert kernels.eval_ft(k, 2.0).value == pytest.approx(expected, rel=1e-12)

    def test_zero_frequency_is_scaled_mean(self):
        for d in CLOSED_FORM_SETTINGS:
            for rho in [1.0, 2.0]:
                v = kernels.eval_ft(spec(d, rho=rho), 0.0)
                assert v.value == pytest.approx(d.mean() / rho, abs=1e-8), d

    def test_even_and_nonnegative(self):
        for d in FT_SETTINGS:
            k = spec(d)
            for t in T_GRID:
                a = kernels.eval_ft(k, t)
                b = kernels.eval_ft(k, -t)
                assert a.value == b.value
                assert a.value >= 0.0

    def test_closed_forms_match_numeric(self):
        for d in FT_SETTINGS:
            k = spec(d)
            for t in T_GRID:
                closed = kernels.eval_ft(k, t).value
                numeric = kernels.eval_ft_numeric(d, t)
                assert closed == pytest.approx(numeric, abs=1e-6), (d, t)

    def test_half_normal_oscillatory_self_consistent(self):
        for sigma in [0.7, 1.0]:
            d = dist.HalfNormal(sigma)
            k = spec(d)
            for t in [0.5, 1.5]:
                closed = kernels.eval_ft(k, t).value
                numeric = kernels.eval_ft_numeric(d, t)
                assert closed == pytest.approx(numeric, abs=1e-5), (sigma, t)

    def test_half_normal_matches_nakagami_half(self):
        a = kernels.eval_ft(spec(dist.HalfNormal(1.3)), 0.8).value
        b = kernels.eval_ft(spec(dist.Nakagami(0.5, 1.3 ** 2)), 0.8).value
        assert a == pytest.approx(b, rel=1e-9)

    def test_weibull_delegates_to_numeric(self):
        d = dist.Weibull(1.0, 2.0)
        v = kernels.eval_ft(spec(d), 1.2)
        assert v.value == pytest.approx(kernels.eval_ft_numeric(d, 1.2), rel=1e-12)
        assert v.value >= 0.0

    def test_scaling(self):
        d = dist.Gamma(2.0, 1.0)
        for t in [0.0, 0.9, 2.2]:
            lhs = kernels.eval_ft(spec(d, rho=2.0), t).value
            rhs = kernels.eval_ft(spec(d), t / 2.0).value / 2.0
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("d,third", [
        (dist.Gamma(2.0, 1.0), 24.0),
        (dist.Rayleigh(1.0), 3.0 * math.sqrt(math.pi / 2.0)),
        (dist.Chi(3), 2.0 ** 1.5 * math.gamma(3.0) / math.gamma(1.5)),
        (dist.ShiftedPoisson(2.0), 47.0),  # E (1 + N)^3 with N ~ Poisson(2)
        (dist.Nakagami(0.75, 1.0), math.gamma(2.25) / math.gamma(0.75) / 0.75 ** 1.5),
    ], ids=repr)
    def test_small_frequency_keeps_digits(self, d, third):
        # FT(t) = E X - t^2 E X^3 / 12 + O(t^4); 1 - Re phi(t) must not
        # cancel, and t^2 may underflow
        for t in [1e-3, 1e-6, 1e-9, 1e-160, -1e-300]:
            expected = d.mean() - t * t * third / 12.0
            assert kernels.eval_ft(spec(d), t).value == pytest.approx(expected, rel=1e-11), t

    @pytest.mark.parametrize("d", [
        dist.HalfNormal(0.7), dist.HalfNormal(1.0), dist.HalfNormal(2.0),
        dist.Chi(1), dist.Nakagami(0.5, 1.5),
        dist.Gamma(0.3, 1.0), dist.Gamma(0.5, 1.0), dist.ChiSquare(1),
        dist.Exponential(1.0), dist.Exponential(2.0),
    ], ids=repr)
    def test_infinite_tilt_laws_keep_digits(self, d):
        # C = E 1/X is infinite for these laws; the spectral identity must
        # hold its relative accuracy from tiny to large frequencies
        for t in [1e-9, 1e-6, 1e-4, 1e-3, 1.0, 20.0, 1e3, 1e6]:
            expected = infinite_tilt_ft_reference(d, t)
            assert kernels.eval_ft(spec(d), t).value == pytest.approx(expected, rel=1e-12), t

    def test_numeric_rejects_zero(self):
        with pytest.raises(ValueError):
            kernels.eval_ft_numeric(dist.Gamma(2.0, 1.0), 0.0)

    def test_numeric_count_anchor(self):
        # shifted count, rate one, at t = pi
        got = kernels.eval_ft_numeric(dist.ShiftedPoisson(1.0), math.pi)
        expected = (2.0 - 2.0 * math.exp(-2.0)) / math.pi ** 2
        assert got == pytest.approx(expected, abs=1e-9)


class TestGammaTail:
    """The closed tilted tail of a gamma law with shape s < 1,
    T(r) = Gamma(s - 1, r / theta) / (theta Gamma(s))."""

    @pytest.mark.parametrize("s", [0.3, 0.5, 0.9])
    def test_matches_reference(self, s):
        theta = 1.5
        for r in np.concatenate([np.geomspace(1e-8, 1.0, 9), np.linspace(1.5, 30.0, 20)]):
            with mpmath.workdps(30):
                ref = mpmath.gammainc(s - 1, r / theta) / (theta * mpmath.gamma(s))
            got = kernels._tilted_tail(dist.Gamma(s, theta), r)
            assert got == pytest.approx(float(ref), rel=1e-11), r

    @pytest.mark.parametrize("s", [
        0.3, 0.5, 0.9,
        kernels._GAMMA_TAIL_MAX_SHAPE - 1e-4,  # last closed shapes
        kernels._GAMMA_TAIL_MAX_SHAPE,
        kernels._GAMMA_TAIL_MAX_SHAPE + 5e-5,  # numeric
    ])
    def test_kernel_matches_quadrature(self, s):
        d = dist.Gamma(s, 1.0)
        closed = s <= kernels._GAMMA_TAIL_MAX_SHAPE
        assert (kernels._tilted_tail(d, 1.0) is not None) == closed
        for r in [1e-6, 0.01, 0.3, 1.0, 2.5, 7.0, 20.0]:
            assert kernels.eval_kernel(spec(d), r) == pytest.approx(
                kernels.eval_kernel_numeric(d, r), abs=1e-9
            ), r

    def test_overflowing_tail_is_infinite(self):
        # the leading power x^(s - 1) overflows, or x = r / theta underflows
        # to zero; neither may raise
        assert kernels._tilted_tail(dist.Gamma(0.01, 1.0), 1e-320) == math.inf
        d = dist.Gamma(0.5, 1e10)
        assert kernels._tilted_tail(d, 5e-324) == math.inf
        assert kernels.eval_kernel(spec(d), 5e-324) == 1.0
        assert kernels.kernel_to_cdf(spec(d), 5e-324) == 0.0

    def test_underflowed_ratio_keeps_tiny_shape_mass(self):
        # r / theta underflows to zero; x^s = e^(s log x) is still 5.8e-4
        with mpmath.workdps(40):
            x = mpmath.mpf(5e-324) / 3
            s = mpmath.mpf(0.01)
            ref = mpmath.gammainc(s, x, mpmath.inf, regularized=True) - x * mpmath.gammainc(
                s - 1, x) / mpmath.gamma(s)
        assert float(ref) == pytest.approx(0.99941250698319204, rel=1e-15, abs=0.0)
        got = kernels.eval_kernel(spec(dist.Gamma(0.01, 3.0)), 5e-324)
        assert got == pytest.approx(float(ref), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("s", [0.01, 0.05])
    def test_subnormal_kernel_matches_reference(self, s):
        # where T overflows, r T(r) ~ r^s / (Gamma(s) (1 - s)) is not small
        d = dist.Gamma(s, 1.0)
        for r in (1e-320, 1e-300):
            with mpmath.workdps(40):
                x = mpmath.mpf(r)
                ref = mpmath.gammainc(s, x, mpmath.inf, regularized=True) - x * mpmath.gammainc(
                    s - 1, x) / mpmath.gamma(s)
            assert kernels.eval_kernel(spec(d), r) == pytest.approx(float(ref), rel=1e-14), r


def weibull_kernel_reference(r, alpha, theta=1.0):
    """k(r) = e^-x - r Gamma(1 - 1/alpha, x) / theta with x = (r / theta)^alpha,
    in 40-digit arithmetic."""
    with mpmath.workdps(40):
        r, alpha = mpmath.mpf(r), mpmath.mpf(alpha)
        x = (r / theta) ** alpha
        return float(mpmath.exp(-x) - r * mpmath.gammainc(1 - 1 / alpha, x) / theta)


NUMERIC_T_GRID = [1e-4, 0.01, 1.2, 300.0, 1e4]


class TestNumericRoutes:
    """The quadrature routes: the kernel in log x, the moment r k'(r), and
    both transform routes, against mpmath and the closed forms."""

    @pytest.mark.parametrize("alpha", [0.3, 0.4, 0.7])
    @pytest.mark.parametrize("r", [1e-12, 1e-9, 3e-8, 1e-3, 5.0])
    def test_weibull_kernel_matches_mpmath(self, alpha, r):
        got = kernels.eval_kernel_numeric(dist.Weibull(1.0, alpha), r)
        assert got == pytest.approx(weibull_kernel_reference(r, alpha), rel=1e-14, abs=0.0)

    def test_kernel_keeps_mass_near_zero(self):
        # most of the x^(a p - 1) mass near zero lies below r here; k stays below 1
        got = kernels.eval_kernel_numeric(dist.Weibull(2.0, 0.7), 1e-8)
        assert got == pytest.approx(0.9999948640222116, rel=1e-14, abs=0.0)
        assert kernels.eval_kernel_numeric(dist.Gamma(0.5, 1.0), 1e-9) <= 1.0

    def test_mass_below_the_least_normal_float(self):
        # for small a p much of the mass lies where x = e^w underflows
        for d in (dist.Gamma(0.001, 1.0), dist.Weibull(1.0, 0.02)):
            assert kernels.eval_kernel_numeric(d, 0.0) == pytest.approx(1.0, rel=1e-14, abs=0.0)
        got = kernels.eval_kernel(spec(dist.Weibull(1.0, 0.02)), 1e-320)
        assert got == pytest.approx(weibull_kernel_reference(1e-320, 0.02), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("alpha", [0.4, 0.3])
    def test_weibull_cdf_recovery(self, alpha):
        # no closed tail for alpha <= 1/2: both k and u k'(u) are numeric
        d = dist.Weibull(1.0, alpha)
        k = spec(d)
        assert kernels._tilt_kernel(d, 1.0) is None
        for x in [1e-9, 1e-6] + list(np.linspace(0.0, 30.0, 125)):
            assert kernels.kernel_to_cdf(k, x) == pytest.approx(d.cdf(x), abs=1e-9), x

    @pytest.mark.parametrize("d", [
        dist.Gamma(2.0, 1.0), dist.Gamma(0.5, 1.0), dist.HalfNormal(1.0),
        dist.Rayleigh(1.0), dist.ShiftedPoisson(2.0),
    ], ids=repr)
    def test_transform_routes_match_closed_forms(self, d):
        for t in NUMERIC_T_GRID:
            closed = kernels.eval_ft(spec(d), t).value
            assert kernels._ft_from_law(d, t) == pytest.approx(closed, rel=1e-12, abs=0.0), t
            assert kernels._ft_from_kernel(d, t) == pytest.approx(closed, rel=1e-9, abs=0.0), t

    @pytest.mark.parametrize("alpha", [0.3, 0.4, 0.7, 3.0])
    def test_weibull_transform_routes_agree(self, alpha):
        d = dist.Weibull(1.0, alpha)
        for t in NUMERIC_T_GRID:
            law = kernels._ft_from_law(d, t)
            assert kernels._ft_from_kernel(d, t) == pytest.approx(law, rel=1e-9, abs=0.0), t
            assert kernels.eval_ft(spec(d), t).value == law

    def test_area_of_numeric_kernel(self):
        for d in (dist.Weibull(1.0, 0.4), dist.Weibull(2.0, 0.3)):
            assert kernels.area_under_curve(spec(d, tau=1.5)) == pytest.approx(1.5, rel=1e-9, abs=0.0)


class TestKernelToCdf:
    def test_exponential_recovers_exactly(self):
        k = spec(dist.Exponential(1.5))
        for x in [0.2, 1.0, 4.0]:
            assert kernels.kernel_to_cdf(k, x) == pytest.approx(
                -math.expm1(-x / 1.5), rel=1e-10
            )

    def test_shifted_count_anchor(self):
        k = spec(dist.ShiftedPoisson(2.0))
        assert kernels.kernel_to_cdf(k, 1.5) == pytest.approx(
            math.exp(-2.0), rel=1e-10
        )

    def test_roundtrip_closed_forms(self):
        for d in CLOSED_FORM_SETTINGS:
            if d.discrete:
                grid = [0.5, 1.5, 2.5, 6.5]
            else:
                m = d.mean()
                grid = [0.3 * m, m, 2.0 * m]
            k = spec(d)
            for x in grid:
                assert kernels.kernel_to_cdf(k, x) == pytest.approx(
                    d.cdf(x), abs=1e-6
                ), (d, x)

    def test_roundtrip_numeric_fallback(self):
        # These shapes once had no closed derivative and took quadrature of
        # density(x)/x; all three now take the closed tail of the
        # generalized gamma law, and must still recover F within 1e-9.
        for d in (dist.Gamma(0.5, 1.0), dist.Weibull(1.0, 0.7), dist.ChiSquare(1)):
            k = spec(d)
            for x in [0.05, 0.5, 1.0, 2.0]:
                assert kernels.kernel_to_cdf(k, x) == pytest.approx(
                    d.cdf(x), abs=1e-9
                ), (d, x)

    @pytest.mark.parametrize("s,u", [(0.01, 1e-320), (0.05, 1e-320), (0.01, 1e-300)])
    def test_subnormal_point_matches_reference(self, s, u):
        # T(u) overflows there, but u k'(u) = -u T(u) is finite
        with mpmath.workdps(40):
            ref = mpmath.gammainc(s, 0, mpmath.mpf(u), regularized=True)
        got = kernels.kernel_to_cdf(spec(dist.Gamma(s, 1.0)), u)
        assert got == pytest.approx(float(ref), rel=1e-12)

    def test_scaled_spec_recovers_scaled_cdf(self):
        d = dist.Rayleigh(1.0)
        k = spec(d, rho=2.0)
        for x in [0.3, 0.8]:
            assert kernels.kernel_to_cdf(k, x) == pytest.approx(
                d.cdf(2.0 * x), abs=1e-8
            )

    def test_zero_below_support(self):
        assert kernels.kernel_to_cdf(spec(dist.Gamma(2.0, 1.0)), 0.0) == 0.0
        assert kernels.kernel_to_cdf(spec(dist.Gamma(2.0, 1.0)), -1.0) == 0.0


class TestAreaUnderCurve:
    def test_matches_scaled_mean(self):
        cases = [
            (spec(dist.Gamma(2.0, 1.0)), 2.0),
            (spec(dist.Gamma(2.0, 1.0), rho=2.0), 1.0),
            (spec(dist.Rayleigh(1.0)), math.sqrt(math.pi / 2.0)),
            (spec(dist.ShiftedPoisson(2.0)), 3.0),
            (spec(dist.Weibull(1.5, 3.5)), 1.5 * math.gamma(1.0 + 1.0 / 3.5)),
        ]
        for k, expected in cases:
            assert kernels.area_under_curve(k) == pytest.approx(expected, abs=1e-6)

    def test_every_family(self):
        for d in CLOSED_FORM_SETTINGS:
            k = spec(d)
            assert kernels.area_under_curve(k) == pytest.approx(
                d.mean(), abs=1e-6
            ), d


class TestTensorEval:
    def test_product_structure(self):
        k = spec(dist.Gamma(2.0, 1.0))
        x = np.array([0.0, 0.0])
        xp = np.array([1.0, 2.0])
        assert kernels.tensor_eval(k, x, xp) == pytest.approx(math.exp(-3.0), rel=1e-12)

    def test_matches_univariate_product(self):
        k = spec(dist.Rayleigh(1.0), rho=1.5)
        x = np.array([0.1, -0.4, 2.0])
        xp = np.array([1.0, 0.3, 1.2])
        expected = 1.0
        for a, b in zip(x, xp):
            expected *= kernels.eval_kernel(k, abs(a - b))
        assert kernels.tensor_eval(k, x, xp) == pytest.approx(expected, rel=1e-12)

    def test_dimension_mismatch(self):
        k = spec(dist.Gamma(2.0, 1.0))
        with pytest.raises(ValueError):
            kernels.tensor_eval(k, np.zeros(2), np.zeros(3))


class TestSpecStrings:
    def test_parse_plain(self):
        k = kernels.parse_kernel_spec("gamma:s=2,theta=1")
        assert k.dist == dist.Gamma(2.0, 1.0)
        assert k.rho == 1.0

    def test_parse_with_tau(self):
        k = kernels.parse_kernel_spec("gamma:s=2,theta=1;tau=0.5")
        assert k.rho == 4.0

    def test_parse_with_rho(self):
        k = kernels.parse_kernel_spec("rayleigh:sigma=1;rho=2.5")
        assert k.rho == 2.5

    def test_roundtrip(self):
        for text in [
            "gamma:s=2.0,theta=1.0",
            "gamma:s=2.0,theta=1.0;tau=0.5",
            "rayleigh:sigma=1.0;rho=2.5",
        ]:
            k = kernels.parse_kernel_spec(text)
            again = kernels.parse_kernel_spec(kernels.format_kernel_spec(k))
            assert again == k

    def test_errors(self):
        for text in [
            "gamma:s=2,theta=1;tau=0.5;rho=1",
            "gamma:s=2,theta=1;x=3",
            "gamma:s=2,theta=1;tau=abc",
            ";tau=1",
        ]:
            with pytest.raises((ParseError, ValueError)):
                kernels.parse_kernel_spec(text)
