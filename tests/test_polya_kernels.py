"""Tests for kernel construction, spectra, and cdf recovery.

Closed-form kernels are compared against direct quadrature of the mixture
integral; closed-form spectra against the dual numeric route. Frozen
constants were verified with 30-digit arithmetic.
"""

import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polyakern import distributions as dist
from polyakern import polya_kernels as kernels
from polyakern.errors import ParseError, QuadratureError, SpectralMismatchError

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
# numeric route here; the kernels with no closed tail (Weibull alpha <= 1/2)
# take the cumulative one, checked in TestCumulativeTail and pinned to mpmath
# in TestNumericRoutes, as are the numeric transforms.
NUMERIC_ONLY_SETTINGS = [
    dist.Gamma(0.5, 1.0),
    dist.Weibull(1.0, 0.7),
    dist.ChiSquare(1),
]

R_GRID = [0.0, 0.3, 1.0, 2.5, 7.0]


def spec(d, **kw):
    return kernels.KernelSpec(d, **kw)


@pytest.fixture
def cumulative_calls(monkeypatch):
    """The law of each call of the cumulative tail, the route of the laws
    with no closed tail."""
    calls = []
    route = kernels._cumulative_moment
    monkeypatch.setattr(kernels, "_cumulative_moment", lambda d, r: calls.append(d) or route(d, r))
    return calls


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
            assert kernels.eval_kernel(k, r) == pytest.approx(math.exp(-r), rel=1e-12, abs=0.0)

    def test_exponential_source_value(self):
        k = spec(dist.Exponential(1.0))
        expected = math.exp(-1.0) - E1_AT_1
        assert kernels.eval_kernel(k, 1.0) == pytest.approx(expected, abs=1e-12)

    def test_shifted_count_piecewise_linear(self):
        k = spec(dist.ShiftedPoisson(2.0))
        expected = 1.0 - 0.25 * (1.0 - math.exp(-2.0))
        assert kernels.eval_kernel(k, 0.5) == pytest.approx(expected, rel=1e-12, abs=0.0)
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
    def test_weibull_below_one_closed_matches_quadrature(self, d, cumulative_calls):
        # exponents 1/2 < alpha < 1 have the closed tail Gamma(1 - 1/alpha, x)
        for r in R_GRID + [1e-6, 0.01, 20.0]:
            closed = kernels.eval_kernel(spec(d), r)
            assert closed == pytest.approx(kernels.eval_kernel_numeric(d, r), abs=1e-8), r
        assert cumulative_calls == []

    def test_weibull_below_one_keeps_digits_at_tiny_r(self):
        # the closed tail; TestNumericRoutes pins the numeric route here
        d = dist.Weibull(2.0, 0.7)
        for r in (1e-8, 1e-12):
            with mpmath.workdps(40):
                x = (mpmath.mpf(r) / 2) ** mpmath.mpf(0.7)
                ref = mpmath.exp(-x) - r * mpmath.gammainc(1 - 1 / mpmath.mpf(0.7), x) / 2
            assert kernels.eval_kernel(spec(d), r) == pytest.approx(float(ref), rel=1e-14, abs=0.0), r

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


def infinite_tilt_ft_reference(d, t, digits=40):
    """The transform at t to double precision, in mpmath arithmetic of the
    given digits: E X 2F2(1, 1; 3/2, 2; -(t sigma)^2 / 2) for a half-normal
    law, and for a power-1 law of shape s <= 1 and scale theta the tilt
    formula continued to the tilted shape s - 1 <= 0,
    2 (Re (1 - i theta t)^(1 - s) - 1) / (theta (1 - s) t^2), which is
    log1p((theta t)^2) / (theta t^2) at s = 1."""
    with mpmath.workdps(digits):
        t = mpmath.mpf(t)
        if isinstance(d, (dist.HalfNormal, dist.Chi, dist.Nakagami)):
            sigma = {dist.HalfNormal: lambda: d.sigma, dist.Chi: lambda: 1.0,
                     dist.Nakagami: lambda: mpmath.sqrt(d.omega)}[type(d)]()
            mean = sigma * mpmath.sqrt(2 / mpmath.pi)
            return float(mean * mpmath.hyp2f2(1, 1, 1.5, 2, -(t * sigma) ** 2 / 2))
        s, theta, power = map(mpmath.mpf, d.triple())
        assert power == 1 and s <= 1
        x = theta * t
        if s == 1:
            return float(mpmath.log1p(x * x) / (theta * t * t))
        z = (1 - 1j * x) ** (1 - s)
        return float(2 * (mpmath.re(z) - 1) / (theta * (1 - s) * t * t))


# infinite_tilt_ft_reference at 40 digits (mpmath 1.3.0), i.e.
# E X 2F2(1, 1; 3/2, 2; -(t sigma)^2 / 2) for these half-normal laws. At
# |z| up to 5e615 mpmath's hyp2f2 takes seconds to tens of seconds per call.
# The last value, about 9e-348, underflows.
FROZEN_FT_REFERENCES = {
    (dist.HalfNormal(1e308), 1.0): 1.1327270138120352e-305,
    (dist.HalfNormal(1e308), 3.0): 1.2605334948654538e-306,
    (dist.HalfNormal(1e150), 1e100): 0.0,
}


# eval_kernel at PINNED_R as the scalar path gave it before kernels took
# arrays: gamma shapes s >= 1 and the count law read the same functions
# elementwise, so these must not move by a bit.
PINNED_R = [1e-300, 0.37, 1.0, 2.5, 30.0]
PINNED_KERNEL_REPRS = {
    dist.Gamma(2.0, 1.0): ["1.0", "0.6907343306373547", "0.3678794411714422",
                           "0.08208499862389879", "9.357622968840835e-14"],
    dist.Gamma(3.5, 1.0): ["1.0", "0.852865346003649", "0.6201823542962577",
                           "0.24408304269877457", "5.100692903695439e-12"],
    dist.Exponential(1.0): ["1.0", "0.4112210022183629", "0.14849550677592194",
                            "0.019797703948224457", "2.9296693677372513e-15"],
    dist.ShiftedPoisson(2.0): ["1.0", "0.8400370273987734", "0.5676676416183065",
                               "0.18983967051899087", "2.0098932638988193e-26"],
}


class TestArrayKernels:
    """eval_kernel and kernel_to_cdf take a float or an array of them; a
    float is the 0-d case of the one elementwise path."""

    @pytest.mark.parametrize("d", list(PINNED_KERNEL_REPRS), ids=repr)
    def test_pinned_values_as_floats_and_as_one_array(self, d):
        want = PINNED_KERNEL_REPRS[d]
        assert [repr(kernels.eval_kernel(spec(d), r)) for r in PINNED_R] == want
        got = kernels.eval_kernel(spec(d), np.array(PINNED_R))
        assert [repr(v) for v in got.tolist()] == want

    def test_float_in_float_out_and_shape_kept(self):
        k = spec(dist.Gamma(2.0, 1.0))
        assert type(kernels.eval_kernel(k, 0.5)) is float
        assert type(kernels.kernel_to_cdf(k, 0.5)) is float
        r = np.linspace(-2.0, 2.0, 12).reshape(3, 4)
        for f in (kernels.eval_kernel, kernels.kernel_to_cdf):
            got = f(k, r)
            assert isinstance(got, np.ndarray) and got.shape == (3, 4)
            assert got.tolist() == [[f(k, v) for v in row] for row in r.tolist()]
            for law in (k, spec(dist.Weibull(1.0, 0.4))):  # closed and cumulative tails
                assert f(law, np.empty((0, 3))).shape == (0, 3)

    @pytest.mark.parametrize("d", [
        dist.Gamma(0.01, 1.0), dist.Gamma(0.5, 1e10), dist.Weibull(1.0, 0.7),
        dist.HalfNormal(1.0), dist.Weibull(1.0, 0.4), dist.Weibull(1.0, 0.04),
        dist.Gamma(0.99995, 1.0), dist.Weibull(1e300, 0.3), dist.Weibull(1e-300, 0.45),
    ], ids=repr)
    def test_extreme_arrays_warn_nothing_and_equal_scalar_calls(self, d):
        # zero, subnormal, and overflowing powers of r in one array: every
        # branch of the closed forms is a mask, the cumulative tail takes
        # each value on its own, and none may warn
        r = [0.0, 5e-324, 1e-320, 1e300]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for f in (kernels.eval_kernel, kernels.kernel_to_cdf):
                assert f(spec(d), np.array(r)).tolist() == [f(spec(d), v) for v in r]

    @pytest.mark.parametrize("d", [
        dist.Weibull(1e-300, 0.7), dist.Gamma(2.0, 1e-300), dist.Gamma(0.5, 1e-300),
        dist.Weibull(1e-300, 0.45),
    ], ids=repr)
    def test_overflowing_ratio_to_the_scale_warns_nothing(self, d):
        # r / b overflows for the closed tail, the tilted law's sf and the
        # cumulative tail alike: the kernel is 0 and the cdf 1, silently
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kernels.eval_kernel(spec(d), 1e300) == 0.0
            assert kernels.kernel_to_cdf(spec(d), 1e300) == 1.0

    def test_overflowed_scale_is_capped(self):
        # rho |r| past the largest double is capped below it: the kernel
        # there is 0 and the cdf 1, for a closed form, a count law and a
        # numeric law alike, with no overflow warning
        for d in (dist.Gamma(2.0, 1.0), dist.ShiftedPoisson(2.0), dist.Weibull(1.0, 0.4)):
            k = spec(d, rho=1e10)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert kernels.eval_kernel(k, np.array([1e300, -1e300])).tolist() == [0.0, 0.0]
                assert kernels.kernel_to_cdf(k, 1e300) == 1.0

    @pytest.mark.parametrize("values,bad", [
        ([0.5, math.nan, math.inf], "nan"),
        ([[0.5, 1.0], [-math.inf, math.nan]], "-inf"),
        (math.nan, "nan"),
    ])
    def test_first_non_finite_entry_is_named(self, values, bad):
        k = spec(dist.Gamma(2.0, 1.0))
        with pytest.raises(ValueError, match=f"^r must be finite, got {bad}$"):
            kernels.eval_kernel(k, values)
        with pytest.raises(ValueError, match=f"^x must be finite, got {bad}$"):
            kernels.kernel_to_cdf(k, values)

    def test_numeric_law_integrates_once_per_distinct_value(self, monkeypatch):
        # a law with no closed tail builds one ladder and runs no per-value
        # quadrature, in the kernel and in the cdf recovery alike; equal
        # distances get equal bits, and both stay within 1e-12 of the oracle
        calls = []
        numeric = kernels.eval_kernel_numeric
        monkeypatch.setattr(kernels, "eval_kernel_numeric",
                            lambda d, r: calls.append(r) or numeric(d, r))
        kernels._ladder.cache_clear()
        d = dist.Weibull(1.0, 0.4)
        r = np.array([[0.5, -0.5, 0.0], [1.5, 0.5, -1.5]])
        got = kernels.eval_kernel(spec(d, rho=2.0), r)
        cdf = kernels.kernel_to_cdf(spec(d, rho=2.0), r)
        assert calls == [] and kernels._ladder.cache_info().misses == 1
        assert got[0, 0] == got[0, 1] == got[1, 1] and got[1, 0] == got[1, 2] and got[0, 2] == 1.0
        k = {0.0: 1.0, 1.0: numeric(d, 1.0), 3.0: numeric(d, 3.0)}
        want = np.vectorize(k.get)(2.0 * np.abs(r))
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(cdf, d.cdf(np.maximum(2.0 * r, 0.0)), rtol=0.0, atol=1e-12)


class TestEvalFt:
    def test_log_two_anchor(self):
        # exponential source, theta 1: transform at t = 1 is log 2
        v = kernels.eval_ft(spec(dist.Gamma(1.0, 1.0)), 1.0)
        assert v == pytest.approx(math.log(2.0), rel=1e-12, abs=0.0)

    def test_rayleigh_anchors(self):
        k = spec(dist.Rayleigh(1.0))
        assert kernels.eval_ft(k, 0.0) == pytest.approx(
            math.sqrt(math.pi / 2.0), rel=1e-12, abs=0.0
        )
        expected = math.sqrt(2.0 * math.pi) / 4.0 * (1.0 - math.exp(-2.0))
        assert kernels.eval_ft(k, 2.0) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_zero_frequency_is_scaled_mean(self):
        for d in CLOSED_FORM_SETTINGS:
            for rho in [1.0, 2.0]:
                v = kernels.eval_ft(spec(d, rho=rho), 0.0)
                assert v == pytest.approx(d.mean() / rho, abs=1e-8), d

    def test_even_and_nonnegative(self):
        for d in FT_SETTINGS:
            k = spec(d)
            for t in T_GRID:
                a = kernels.eval_ft(k, t)
                b = kernels.eval_ft(k, -t)
                assert a == b
                assert a >= 0.0

    def test_closed_forms_match_numeric(self):
        for d in FT_SETTINGS:
            k = spec(d)
            for t in T_GRID:
                closed = kernels.eval_ft(k, t)
                numeric = kernels.eval_ft_numeric(d, t)
                assert closed == pytest.approx(numeric, abs=1e-6), (d, t)

    def test_half_normal_oscillatory_self_consistent(self):
        for sigma in [0.7, 1.0]:
            d = dist.HalfNormal(sigma)
            k = spec(d)
            for t in [0.5, 1.5]:
                closed = kernels.eval_ft(k, t)
                numeric = kernels.eval_ft_numeric(d, t)
                assert closed == pytest.approx(numeric, abs=1e-5), (sigma, t)

    def test_half_normal_matches_nakagami_half(self):
        a = kernels.eval_ft(spec(dist.HalfNormal(1.3)), 0.8)
        b = kernels.eval_ft(spec(dist.Nakagami(0.5, 1.3 ** 2)), 0.8)
        assert a == pytest.approx(b, rel=1e-9, abs=0.0)

    def test_nan_is_an_error_not_zero(self):
        for bad in (math.nan, -1e-6):
            with pytest.raises(QuadratureError, match="negative or NaN"):
                kernels._nonneg(bad)
        assert kernels._nonneg(-1e-10) == 0.0

    def test_weibull_delegates_to_numeric(self):
        d = dist.Weibull(1.0, 2.0)
        v = kernels.eval_ft(spec(d), 1.2)
        assert v == pytest.approx(kernels.eval_ft_numeric(d, 1.2), rel=1e-12, abs=0.0)
        assert v >= 0.0

    def test_scaling(self):
        d = dist.Gamma(2.0, 1.0)
        for t in [0.0, 0.9, 2.2]:
            lhs = kernels.eval_ft(spec(d, rho=2.0), t)
            rhs = kernels.eval_ft(spec(d), t / 2.0) / 2.0
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
            assert kernels.eval_ft(spec(d), t) == pytest.approx(expected, rel=1e-11, abs=0.0), t

    @pytest.mark.parametrize("d,t,expected", [
        # t^2 underflows but (t theta)^2 does not: 2 theta / (1 + theta^2 t^2)
        (dist.Gamma(2.0, 1e300), 1e-160, 2e300 / (1.0 + 1e280)),
        (dist.Gamma(2.0, 1e300), 1e-170, 2e300 / (1.0 + 1e260)),
        # (t sigma)^2 underflows though t^2 does not: the transform is the
        # mean sigma sqrt(pi / 2), which 1 - Re phi would lose
        (dist.Rayleigh(1e-300), 1.0, 1e-300 * math.sqrt(math.pi / 2.0)),
    ], ids=repr)
    def test_small_frequency_guard_reads_the_law_scale(self, d, t, expected):
        assert kernels.eval_ft(spec(d), t) == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("d", [
        dist.HalfNormal(0.7), dist.HalfNormal(1.0), dist.HalfNormal(2.0),
        dist.Chi(1), dist.Nakagami(0.5, 1.5),
        dist.Gamma(0.3, 1.0), dist.Gamma(0.5, 1.0), dist.ChiSquare(1),
        dist.Exponential(1.0), dist.Exponential(2.0),
    ], ids=repr)
    def test_infinite_tilt_laws_keep_digits(self, d):
        # C = E 1/X is infinite for these laws; the continued tilt formula and
        # the spectral identity must hold their relative accuracy from tiny to
        # large frequencies
        for t in [1e-9, 1e-6, 1e-4, 1e-3, 1.0, 20.0, 1e3, 1e6]:
            expected = infinite_tilt_ft_reference(d, t)
            assert kernels.eval_ft(spec(d), t) == pytest.approx(expected, rel=1e-12, abs=0.0), t

    @pytest.mark.parametrize("d,t", [
        (dist.HalfNormal(1e308), 1.0), (dist.HalfNormal(1e308), 3.0),
        (dist.HalfNormal(1e150), 1e100), (dist.Exponential(1e300), 1e5),
        (dist.Gamma(0.1, 1e300), 1e8), (dist.Gamma(0.1, 1e300), 1e10),
    ], ids=repr)
    def test_infinite_tilt_laws_at_extreme_scale(self, d, t):
        # log(t E X) is past 300, where the spectral identity takes Im phi as
        # c / u and the continued tilt formula takes L = log x, and for some
        # also past 709.8, where t E X overflows
        expected = FROZEN_FT_REFERENCES.get((d, t))
        if expected is None:
            expected = infinite_tilt_ft_reference(d, t)
        assert kernels.eval_ft(spec(d), t) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_numeric_rejects_zero(self):
        with pytest.raises(ValueError):
            kernels.eval_ft_numeric(dist.Gamma(2.0, 1.0), 0.0)

    @pytest.mark.parametrize("d", [dist.Gamma(2.0, 1.0), dist.ShiftedPoisson(2.0)], ids=repr)
    def test_numeric_below_resolution_is_the_mean(self, d):
        # (t b)^2 underflows, so 1 - cos(tX) = (tX)^2 / 2 and the transform is the mean
        assert kernels.eval_ft_numeric(d, 1e-170) == d.mean()

    def test_numeric_count_anchor(self):
        # shifted count, rate one, at t = pi
        got = kernels.eval_ft_numeric(dist.ShiftedPoisson(1.0), math.pi)
        expected = (2.0 - 2.0 * math.exp(-2.0)) / math.pi ** 2
        assert got == pytest.approx(expected, abs=1e-9)


CONTINUED_TILT_SHAPES = [1e-6, 1e-3, 0.01, 0.1, 0.3, 0.5, 0.9, 0.99, 0.9999, 0.99995,
                         0.9999999, 1.0]


class TestContinuedTilt:
    """Power-1 laws with C infinite, gamma s <= 1 with the exponential,
    chi-square nu <= 2 and Weibull alpha = 1, take the tilt formula
    continued to the tilted shape s - 1 <= 0 in closed form."""

    @pytest.mark.parametrize("s", CONTINUED_TILT_SHAPES)
    def test_matches_mpmath_on_a_grid(self, s):
        # 60 digits: at 50 the reference itself is off by 2e-11 at s = 1e-6
        # and by 1.5e-10 at s = 0.9999999
        for theta in (1e-5, 1.0, 1e5):
            d = dist.Gamma(s, theta)
            for k in range(-12, 13):
                t = 10.0 ** k
                expected = infinite_tilt_ft_reference(d, t, digits=60)
                got = kernels.eval_ft(spec(d), t)
                assert got == pytest.approx(expected, rel=2e-14, abs=0.0), (theta, t)

    @pytest.mark.parametrize("s", [1e-6, 0.3, 0.9999999, 1.0])
    def test_tiny_frequency_is_the_mean(self, s):
        # below x = 2^-27, E X (1 - (1 + s)(2 + s) x^2 / 12) is E X to double
        # precision; the forms would lose 3e-12 of it to subnormals at x = 1e-153
        for t in [1e-153, 1e-100, 1e-9]:
            got = kernels.eval_ft(spec(dist.Gamma(s, 1.0)), t)
            assert got == pytest.approx(s, rel=1e-15, abs=0.0), t

    @settings(deadline=None, max_examples=150, derandomize=True)
    @given(
        st.one_of(
            st.builds(dist.Gamma, st.floats(1e-6, 1.0), st.floats(-30.0, 30.0).map(math.exp)),
            st.builds(dist.Exponential, st.floats(-30.0, 30.0).map(math.exp)),
            st.builds(dist.Weibull, st.floats(-30.0, 30.0).map(math.exp), st.just(1.0)),
            st.sampled_from([dist.ChiSquare(1), dist.ChiSquare(2)]),
        ),
        st.floats(-25.0, 25.0).map(math.exp),
    )
    def test_property_scale_covariance_and_numeric_route(self, d, x):
        # t is log-uniform given the scale b, through x = b t
        s, b, _ = d.triple()
        t = x / b
        unit = dist.Gamma(s, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = kernels.eval_ft(spec(d), t)
            at_unit = kernels.eval_ft(spec(unit), b * t)
        assert got >= 0.0
        assert got == pytest.approx(b * at_unit, rel=1e-13, abs=0.0)
        if 1e-2 <= x <= 1e2:
            assert at_unit == pytest.approx(kernels.eval_ft_numeric(unit, x), rel=1e-9, abs=0.0)

    def test_needs_no_quadrature(self, monkeypatch):
        def quadpack(*args, **kwargs):
            raise AssertionError("QUADPACK was called")

        monkeypatch.setattr(kernels, "_quad", quadpack)
        for d in [dist.Gamma(0.3, 1.0), dist.ChiSquare(1), dist.Exponential(2.0),
                  dist.Weibull(1.0, 1.0)]:
            for t in [1e-3, 1.0, 3.0, 1e6]:
                expected = infinite_tilt_ft_reference(d, t)
                assert kernels.eval_ft(spec(d), t) == pytest.approx(expected, rel=1e-14, abs=0.0)


class TestGammaTail:
    """The closed tilted tail of a gamma law with shape s < 1,
    T(r) = Gamma(s - 1, r / theta) / (theta Gamma(s)), read through the
    moment r T(r) that the kernel takes."""

    @pytest.mark.parametrize("s", [0.3, 0.5, 0.9])
    def test_matches_reference(self, s):
        theta = 1.5
        for r in np.concatenate([np.geomspace(1e-8, 1.0, 9), np.linspace(1.5, 30.0, 20)]):
            with mpmath.workdps(30):
                ref = mpmath.gammainc(s - 1, r / theta) / (theta * mpmath.gamma(s))
            got = kernels._tail_moment(dist.Gamma(s, theta), r, r) / r
            assert got == pytest.approx(float(ref), rel=1e-11, abs=0.0), r

    @pytest.mark.parametrize("s", [
        0.3, 0.5, 0.9,
        kernels._GAMMA_TAIL_MAX_SHAPE - 1e-4,  # last closed shapes
        kernels._GAMMA_TAIL_MAX_SHAPE,
        kernels._GAMMA_TAIL_MAX_SHAPE + 5e-5,  # cumulative
    ])
    def test_kernel_matches_quadrature(self, s, cumulative_calls):
        d = dist.Gamma(s, 1.0)
        grid = [1e-6, 0.01, 0.3, 1.0, 2.5, 7.0, 20.0]
        for r in grid:
            assert kernels.eval_kernel(spec(d), r) == pytest.approx(
                kernels.eval_kernel_numeric(d, r), abs=1e-9
            ), r
        # the closed tail, or past its last shape the cumulative one
        closed = s <= kernels._GAMMA_TAIL_MAX_SHAPE
        assert cumulative_calls == ([] if closed else [d] * len(grid))

    def test_defect_5d_band_is_pinned(self):
        # ROADMAP defect 5d: near r / theta = 1 the closed tail of shapes
        # s < 1 cancels and inherits scipy gammaincc's error. Against the
        # kernel in 40-digit arithmetic (which a 40-digit quadrature of the
        # mixture integral matches to 1e-40) the worst of this band reads
        # 2.7e-13 relative (s = 0.5, r = 1.1); it may not get worse
        for s in (0.3, 0.5, 0.9):
            for r in (0.5, 1.0, 1.1, 1.5):
                with mpmath.workdps(40):
                    x, a = mpmath.mpf(r), mpmath.mpf(s)
                    ref = mpmath.gammainc(a, x, mpmath.inf, regularized=True) - x * mpmath.gammainc(
                        a - 1, x) / mpmath.gamma(a)
                got = kernels.eval_kernel(spec(dist.Gamma(s, 1.0)), r)
                assert got == pytest.approx(float(ref), rel=5e-13, abs=0.0), (s, r)

    def test_overflowing_tail_is_infinite(self):
        # the tail T(r) overflows: its leading power x^(s - 1) does, or
        # x = r / theta underflows to zero; the moment r T(r) stays finite
        # and neither may raise
        assert math.isfinite(kernels._tail_moment(dist.Gamma(0.01, 1.0), 1e-320, 1e-320))
        d = dist.Gamma(0.5, 1e10)
        assert math.isfinite(kernels._tail_moment(d, 5e-324, 5e-324))
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
            assert kernels.eval_kernel(spec(d), r) == pytest.approx(float(ref), rel=1e-14, abs=0.0), r


def weibull_kernel_reference(r, alpha, theta=1.0):
    """k(r) = e^-x - r Gamma(1 - 1/alpha, x) / theta with x = (r / theta)^alpha,
    in 40-digit arithmetic."""
    with mpmath.workdps(40):
        r, alpha = mpmath.mpf(r), mpmath.mpf(alpha)
        x = (r / theta) ** alpha
        return float(mpmath.exp(-x) - r * mpmath.gammainc(1 - 1 / alpha, x) / theta)


NUMERIC_T_GRID = [1e-4, 0.01, 1.2, 300.0, 1e4]


class TestNumericRoutes:
    """The quadrature routes: the kernel oracle in log x, the cumulative
    tail, and both transform routes, against mpmath and the closed forms."""

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

    def test_numeric_kernel_oracle_at_tiny_scale(self):
        # in log x the quadrature reaches w where (x / b)^p overflows; the
        # density there has underflowed to 0
        d = dist.Weibull(1e-127, 3.0)
        for r in (1e-129, 5e-128, 1e-127):
            expected = kernels.eval_kernel(spec(d), r)
            assert kernels.eval_kernel_numeric(d, r) == pytest.approx(expected, abs=1e-9), r

    @pytest.mark.parametrize("alpha", [0.4, 0.3])
    def test_weibull_cdf_recovery(self, alpha, cumulative_calls):
        # no closed tail for alpha <= 1/2: k and u k'(u) both come from the
        # cumulative one
        d = dist.Weibull(1.0, alpha)
        k = spec(d)
        grid = [1e-9, 1e-6] + list(np.linspace(0.0, 30.0, 125))
        for x in grid:
            assert kernels.kernel_to_cdf(k, x) == pytest.approx(d.cdf(x), abs=1e-9), x
        assert cumulative_calls == [d] * len(grid)

    @pytest.mark.parametrize("d", [
        dist.Gamma(2.0, 1.0), dist.Gamma(0.5, 1.0), dist.HalfNormal(1.0),
        dist.Rayleigh(1.0), dist.ShiftedPoisson(2.0),
    ], ids=repr)
    def test_transform_routes_match_closed_forms(self, d):
        for t in NUMERIC_T_GRID:
            closed = kernels.eval_ft(spec(d), t)
            assert kernels._ft_from_law(d, t) == pytest.approx(closed, rel=1e-12, abs=0.0), t
            assert kernels._ft_from_kernel(d, t) == pytest.approx(closed, rel=1e-9, abs=0.0), t

    @pytest.mark.parametrize("alpha", [0.3, 0.4, 0.7, 3.0])
    def test_weibull_transform_routes_agree(self, alpha):
        d = dist.Weibull(1.0, alpha)
        for t in NUMERIC_T_GRID:
            law = kernels._ft_from_law(d, t)
            assert kernels._ft_from_kernel(d, t) == pytest.approx(law, rel=1e-9, abs=0.0), t
            assert kernels.eval_ft(spec(d), t) == law

    @pytest.mark.parametrize("alpha", [0.7, 3.0])
    def test_numeric_transform_is_scale_covariant(self, alpha):
        # both routes run on the unit-scale law: FT_b(t) = b FT_1(b t)
        for theta in [1e-3, 2.5, 1e3]:
            for t in [0.01, 1.2, 30.0]:
                scaled = kernels.eval_ft_numeric(dist.Weibull(theta, alpha), t)
                unit = kernels.eval_ft_numeric(dist.Weibull(1.0, alpha), theta * t)
                assert scaled == pytest.approx(theta * unit, rel=1e-12, abs=0.0), (theta, t)

    def test_route_guard_is_in_output_units(self, monkeypatch):
        # a law of scale 1e3 runs on its unit law, but the routes are still
        # compared at an absolute SPECTRAL_AGREEMENT in the law's own units
        route = kernels._ft_from_kernel
        monkeypatch.setattr(kernels, "_ft_from_kernel", lambda *args: route(*args) + 1e-5)
        with pytest.raises(SpectralMismatchError):
            kernels.eval_ft_numeric(dist.Weibull(1e3, 0.7), 1.2)

    def test_unit_law_failure_names_the_callers_law(self, monkeypatch):
        # a route run on the unit-scale law fails; the error names the law
        # and the frequency that eval_ft_numeric was given
        def failing(d, a, b=1.0):
            return kernels._checked(0.0, 1.0, 0.0, "spectral", d, f"t={a}")

        monkeypatch.setattr(kernels, "_ft_from_kernel", failing)
        d = dist.Weibull(1e8, 1.5)
        with pytest.raises(QuadratureError) as info:
            kernels.eval_ft_numeric(d, 1e-8)
        assert str(info.value).endswith(f", in the transform of {d!r} at t=1e-08")
        assert "GeneralizedGamma(shape=1.0, scale=1.0, power=1.5)" in str(info.value)
        # a law of scale one is its own unit law, and is named as it is
        d = dist.Weibull(1.0, 1.5)
        with pytest.raises(QuadratureError) as info:
            kernels.eval_ft_numeric(d, 1e-8)
        assert str(info.value) == f"spectral quadrature error 1.00e+00 too large at t=1e-08 for {d!r}"

    @pytest.mark.parametrize("theta,t", [
        (1e8, 1e-3), (1e10, 1e-3), (1e12, 1e-3), (1e20, 1e-3), (1e300, 1.0),
    ])
    def test_large_scale_transform_meets_its_asymptote(self, theta, t):
        # at t theta >> 1 the transform is 2 E[1/X] / t^2 up to a relative
        # O((t theta)^-2); the kernel route takes its rest by parts only
        # where that fits its share of the agreement, else it integrates on
        value = kernels.eval_ft_numeric(dist.Weibull(theta, 3.0), t)
        expected = 2.0 * math.gamma(2.0 / 3.0) / theta / t / t
        assert value == pytest.approx(expected, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("d", [
        dist.Weibull(1.0, 3.0), dist.Weibull(1.0, 0.7), dist.Gamma(2.0, 1.0),
        dist.ShiftedPoisson(2.0),
    ], ids=repr)
    def test_kernel_tail_by_parts_within_its_bound(self, d):
        # pieces cut short at reach leave the rest to integration by parts,
        # whose bound must cover the difference to the full integral; the
        # count law's integer knots put its boundary term k(L) sin(a L) / a
        # well away from zero (continuous knots are multiples of pi / a)
        for a in [30.0, 300.0]:
            full, _ = kernels._kernel_cos_integral(d, a)
            for reach in [0.5, 2.0]:
                value, err = kernels._kernel_cos_integral(d, a, reach, 1.0)
                assert abs(value - full) <= err, (a, reach)

    def test_area_of_numeric_kernel(self):
        for d in (dist.Weibull(1.0, 0.4), dist.Weibull(2.0, 0.3)):
            assert kernels.area_under_curve(spec(d, tau=1.5)) == pytest.approx(1.5, rel=1e-9, abs=0.0)


CUMULATIVE_LAWS = [dist.Weibull(theta, alpha) for alpha in (0.5, 0.4, 0.3, 0.1, 0.04)
                   for theta in (1e-5, 1.0, 1e8)] + [dist.Gamma(s, 1.0) for s in (0.99991, 0.99995)]


class TestCumulativeTail:
    """The laws with no closed tail, Weibull alpha <= 1/2 and gamma shapes
    within 1e-4 below one, take r T(r) from one cumulative Gauss-Legendre
    sum per law; the per-value quadrature eval_kernel_numeric is their
    oracle."""

    @pytest.mark.parametrize("d", CUMULATIVE_LAWS, ids=repr)
    def test_matches_the_oracle_from_zero_past_the_cutoff(self, d):
        cutoff = d.upper_tail_cutoff(1e-16)
        r = np.concatenate([[0.0, 5e-324, 1e-320], np.geomspace(1e-300, 1.5 * cutoff, 60)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            k = kernels.eval_kernel(spec(d), r)
            cdf = kernels.kernel_to_cdf(spec(d), r)
            assert k.tolist() == [kernels.eval_kernel(spec(d), v) for v in r.tolist()]
            assert cdf.tolist() == [kernels.kernel_to_cdf(spec(d), v) for v in r.tolist()]
            oracle = [kernels.eval_kernel_numeric(d, v) for v in r.tolist()]
        np.testing.assert_allclose(k, oracle, rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(cdf, d.cdf(r), rtol=0.0, atol=1e-9)

    @settings(deadline=None, max_examples=100, derandomize=True)
    @given(
        st.one_of(
            st.builds(dist.Weibull, st.floats(-30.0, 30.0).map(math.exp), st.floats(0.04, 0.5)),
            st.builds(dist.Gamma, st.floats(1.0 - 1e-4, 1.0, exclude_min=True, exclude_max=True),
                      st.floats(-30.0, 30.0).map(math.exp)),
        ),
        st.floats(math.log(1e-300), math.log(1e3)).map(math.exp),
    )
    def test_property_against_the_oracle(self, d, r):
        k = kernels.eval_kernel(spec(d), r)
        assert 0.0 <= k <= 1.0
        assert abs(k - kernels.eval_kernel_numeric(d, r)) <= 1e-9
        assert abs(kernels.kernel_to_cdf(spec(d), r) - float(d.cdf(r))) <= 1e-9

    def test_subnormal_ratio_to_the_scale_keeps_the_sf(self):
        # r / b is zero while (r / b)^alpha is 7.6e-14: S_F takes it from logs
        d, r = dist.Weibull(1e8, 0.04), 1e-320
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            k = kernels.eval_kernel(spec(d), r)
        with mpmath.workdps(40):
            q, p = mpmath.mpf(r) / mpmath.mpf(1e8), mpmath.mpf(0.04)
            y = q ** p
            ref = mpmath.exp(-y) - q * mpmath.gammainc(1 - 1 / p, y)
            assert abs(mpmath.mpf(k) - ref) <= 1e-16

    def test_rule_pair_disagreement_names_the_law(self, monkeypatch):
        # the 10-point rule made to disagree fails the ladder and the
        # value's own piece alike; the ladder built with it is dropped after
        fine, (nodes, weights) = kernels._rules()
        monkeypatch.setattr(kernels, "_rules", lambda: [fine, (nodes, 2.0 * weights)])
        d = dist.Weibull(1.0, 0.4)
        message = r"^kernel quadrature error 1\.00e\+00 too large at r=0\.5 for " + re.escape(repr(d))
        kernels._ladder.cache_clear()
        try:
            with pytest.raises(QuadratureError, match=message + "$"):
                kernels.eval_kernel(spec(d), 0.5)
            with pytest.raises(QuadratureError, match=message + "$"):
                kernels.kernel_to_cdf(spec(d), np.array([0.5]))
        finally:
            kernels._ladder.cache_clear()


class TestKernelToCdf:
    def test_exponential_recovers_exactly(self):
        k = spec(dist.Exponential(1.5))
        for x in [0.2, 1.0, 4.0]:
            assert kernels.kernel_to_cdf(k, x) == pytest.approx(
                -math.expm1(-x / 1.5), rel=1e-10, abs=0.0
            )

    def test_shifted_count_anchor(self):
        k = spec(dist.ShiftedPoisson(2.0))
        assert kernels.kernel_to_cdf(k, 1.5) == pytest.approx(
            math.exp(-2.0), rel=1e-10, abs=0.0
        )

    def test_scaled_input_a_hair_below_a_knot_takes_the_knot(self):
        # rho x rounds to just below the knot 2: the count law is read at
        # F(2) = 0.40600584970983794, not at F(1) = 0.1353352832366127; the
        # sum 1 - k + u k' holds a few ulps of 1
        k = spec(dist.ShiftedPoisson(2.0), rho=0.013)
        x = 2 / 0.013
        assert k.rho * x == 1.9999999999999998
        assert kernels.kernel_to_cdf(k, x) == pytest.approx(0.40600584970983794, rel=0.0, abs=1e-15)

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
        # T(u) overflows there, but u k'(u) = -u T(u) is finite.  F is
        # 1 - k + u k' in doubles, so it is good to about one ulp of 1 in
        # absolute terms: at s = 0.05 F is 1.03e-16 and reads 1.06e-16
        with mpmath.workdps(40):
            ref = mpmath.gammainc(s, 0, mpmath.mpf(u), regularized=True)
        got = kernels.kernel_to_cdf(spec(dist.Gamma(s, 1.0)), u)
        assert got == pytest.approx(float(ref), rel=1e-12, abs=2.0 ** -52)

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
        # rho x underflows to 0, where the C = infinite tail moment is not read
        assert kernels.kernel_to_cdf(spec(dist.Gamma(0.5, 1.0), rho=0.5), 5e-324) == 0.0


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

    @pytest.mark.parametrize("clause,message", [
        ("tau=1,rho=2", "give rho or tau, not both"),
        ("x=1", "unknown parameter 'x' for a kernel scale"),
        ("tau=", "malformed parameter 'tau=' in 'gamma:s=2,theta=1;tau='"),
        ("tau=1,tau=2", "duplicate parameter 'tau' in 'gamma:s=2,theta=1;tau=1,tau=2'"),
        ("tau=abc", "parameter 'tau' is not a number: 'abc'"),
    ], ids=["both", "unknown", "empty", "duplicate", "not-a-number"])
    def test_scale_clause_errors(self, clause, message):
        # the clause is read by the catalog's parameter reader
        with pytest.raises(ValueError) as info:
            kernels.parse_kernel_spec(f"gamma:s=2,theta=1;{clause}")
        assert str(info.value) == message

    def test_scale_clause_allows_spaces(self):
        k = kernels.parse_kernel_spec("rayleigh:sigma=1 ; rho = 2.5")
        assert k == kernels.KernelSpec(dist.Rayleigh(1.0), rho=2.5)
