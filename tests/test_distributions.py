"""Oracle tests for the distribution catalog.

Densities, cdfs, survival functions, and means are checked against
adaptive quadrature of the defining integrals; samplers are checked with
Kolmogorov-Smirnov tests at a 1% critical value; decompositions are checked
against quadrature of the reciprocal-moment integral, of its upper tail,
and of the tilted law's cosine transform.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import gammaincc, ndtr

from polyakern import distributions as dist
from polyakern import feature_maps as fm
from polyakern.errors import InfiniteTiltError, ParseError
from polyakern.rng import RandomStream, derived_seed

SQRT_PI = 1.7724538509055160273

# three parameter settings per family, exercising every sampler branch
SETTINGS = {
    "shifted_poisson": [
        dist.ShiftedPoisson(0.7),
        dist.ShiftedPoisson(2.0),
        dist.ShiftedPoisson(35.0),
    ],
    "gamma": [dist.Gamma(0.5, 1.0), dist.Gamma(1.0, 2.0), dist.Gamma(3.5, 0.7)],
    "exponential": [
        dist.Exponential(0.5),
        dist.Exponential(1.0),
        dist.Exponential(2.0),
    ],
    "weibull": [
        dist.Weibull(1.0, 1.0),
        dist.Weibull(1.5, 2.0),
        dist.Weibull(2.0, 0.7),
    ],
    "chi_square": [dist.ChiSquare(1), dist.ChiSquare(2), dist.ChiSquare(5)],
    "chi": [dist.Chi(1), dist.Chi(2), dist.Chi(4)],
    "half_normal": [
        dist.HalfNormal(0.5),
        dist.HalfNormal(1.0),
        dist.HalfNormal(2.0),
    ],
    "rayleigh": [dist.Rayleigh(0.5), dist.Rayleigh(1.0), dist.Rayleigh(3.0)],
    "nakagami": [
        dist.Nakagami(0.5, 1.5),
        dist.Nakagami(1.0, 2.0),
        dist.Nakagami(2.5, 1.3),
    ],
}

ALL_SETTINGS = [d for group in SETTINGS.values() for d in group]


def integral_0_inf(f, mid=1.0):
    """Quadrature over (0, inf), split to tame endpoint singularities."""
    a, ea = quad(f, 0.0, mid, epsabs=1e-12, epsrel=1e-11, limit=200)
    b, eb = quad(f, mid, np.inf, epsabs=1e-12, epsrel=1e-11, limit=200)
    return a + b


def integral_to_cutoff(f, d, lo=0.0):
    """Quadrature of f over (lo, inf) for a law d, split at its mean and cut
    where its upper tail falls below 1e-15."""
    cutoff = d.upper_tail_cutoff(1e-15)
    total = 0.0
    for hi in sorted({max(d.mean(), lo), cutoff}):
        if hi > lo:
            total += quad(f, lo, hi, epsabs=1e-13, epsrel=1e-11, limit=400)[0]
            lo = hi
    return total


def pmf_series_sum(d, f):
    total = 0.0
    x = 1
    while True:
        p = d.density(x)
        total += f(x, p)
        if x > d.mean() and p < 1e-15:
            return total
        x += 1


def ks_statistic(samples, cdf):
    xs = np.sort(np.asarray(samples))
    n = len(xs)
    fs = np.array([cdf(x) for x in xs])
    d_plus = np.max(np.arange(1, n + 1) / n - fs)
    d_minus = np.max(fs - np.arange(0, n) / n)
    return max(d_plus, d_minus)


def ks_statistic_discrete(samples, cdf):
    # both cdfs are step functions on the integers, so compare at the atoms
    samples = np.asarray(samples)
    n = len(samples)
    lo, hi = int(samples.min()) - 1, int(samples.max()) + 1
    stat = 0.0
    for k in range(lo, hi + 1):
        femp = np.count_nonzero(samples <= k) / n
        stat = max(stat, abs(femp - cdf(k)))
    return stat


KS_N = 4000
KS_CRIT_1PCT = 1.6276 / math.sqrt(KS_N)


class TestValidation:
    def test_bad_parameters_rejected(self):
        bad = [
            lambda: dist.ShiftedPoisson(0.0),
            lambda: dist.ShiftedPoisson(-1.0),
            lambda: dist.Gamma(0.0, 1.0),
            lambda: dist.Gamma(1.0, -2.0),
            lambda: dist.Exponential(0.0),
            lambda: dist.Weibull(-1.0, 1.0),
            lambda: dist.Weibull(1.0, 0.0),
            lambda: dist.ChiSquare(0),
            lambda: dist.ChiSquare(2.5),
            lambda: dist.Chi(-1),
            lambda: dist.HalfNormal(0.0),
            lambda: dist.Rayleigh(-0.5),
            lambda: dist.Nakagami(0.4, 1.0),
            lambda: dist.Nakagami(1.0, 0.0),
        ]
        for ctor in bad:
            with pytest.raises(ValueError):
                ctor()


class TestDensity:
    def test_frozen_values(self):
        assert dist.ShiftedPoisson(2.0).density(1) == pytest.approx(
            math.exp(-2), rel=1e-12
        )
        assert dist.Exponential(1.0).density(0.5) == pytest.approx(
            math.exp(-0.5), rel=1e-12
        )
        assert dist.Nakagami(1.0, 2.0).density(1.0) == pytest.approx(
            math.exp(-0.5), rel=1e-12
        )

    def test_normalization(self):
        for d in ALL_SETTINGS:
            if d.discrete:
                total = pmf_series_sum(d, lambda x, p: p)
            else:
                total = integral_0_inf(d.density, mid=max(d.mean(), 0.5))
            assert total == pytest.approx(1.0, rel=1e-9), d

    def test_zero_off_support(self):
        sp = dist.ShiftedPoisson(2.0)
        assert sp.density(0) == 0.0
        assert sp.density(1.5) == 0.0
        assert dist.Rayleigh(1.0).density(-1.0) == 0.0


class TestCdf:
    def test_frozen_values(self):
        assert dist.Rayleigh(1.0).cdf(1.0) == pytest.approx(
            -math.expm1(-0.5), rel=1e-12
        )
        assert dist.Gamma(2.0, 1.0).cdf(3.0) == pytest.approx(
            1.0 - 4.0 * math.exp(-3.0), rel=1e-12
        )
        # shifted counts: cdf jumps at the integers
        sp = dist.ShiftedPoisson(2.0)
        assert sp.cdf(0.5) == 0.0
        assert sp.cdf(1.0) == pytest.approx(math.exp(-2.0), rel=1e-12)
        assert sp.cdf(1.99) == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_matches_quadrature_of_density(self):
        for d in ALL_SETTINGS:
            if d.discrete:
                continue
            m = d.mean()
            for x in [0.3 * m, m, 2.5 * m]:
                ref, _ = quad(d.density, 0.0, x, limit=200, points=[0.0, x])
                assert d.cdf(x) == pytest.approx(ref, abs=1e-9), (d, x)

    def test_discrete_cdf_matches_pmf_sum(self):
        for d in SETTINGS["shifted_poisson"]:
            for x in [1, 2, 5, int(d.mean()) + 3]:
                ref = sum(d.density(k) for k in range(1, int(x) + 1))
                assert d.cdf(x) == pytest.approx(ref, rel=1e-10), (d, x)

    def test_monotone_and_bounded(self):
        grid = np.linspace(0.0, 12.0, 200)
        for d in ALL_SETTINGS:
            vals = np.array([d.cdf(x) for x in grid])
            assert np.all(np.diff(vals) >= -1e-12), d
            assert vals[0] >= 0.0 and vals[-1] <= 1.0 + 1e-12, d


class TestSurvival:
    def test_complements_cdf(self):
        for d in ALL_SETTINGS:
            for x in [-1.0, 0.0, 0.3, 1.0, 2.5, 6.0]:
                assert d.sf(x) + d.cdf(x) == pytest.approx(1.0, abs=1e-14), (d, x)

    def test_far_tail_matches_quadrature(self):
        # 1 - cdf would have no correct digits this far out
        for d in ALL_SETTINGS:
            if d.discrete:
                continue
            x = 8.0 * d.mean()
            ref, _ = quad(d.density, x, np.inf, epsabs=0.0, epsrel=1e-12, limit=200)
            assert d.sf(x) == pytest.approx(ref, rel=1e-8), (d, x)

    @pytest.mark.parametrize("d,x", [
        (dist.Gamma(0.01, 3.0), 5e-324),  # x / b underflows
        (dist.Nakagami(0.75, 1.0), 1e-200),  # (x / b)^2 underflows
    ], ids=repr)
    def test_underflowed_argument_keeps_lower_mass(self, d, x):
        # P(a, z) = z^a / Gamma(a + 1) from log z = p (log x - log b)
        a, b, p = d.triple()
        with mpmath.workdps(40):
            z = (mpmath.mpf(x) / mpmath.mpf(b)) ** p
            ref = mpmath.gammainc(a, 0, z, regularized=True)
        assert d.cdf(x) == pytest.approx(float(ref), rel=1e-12, abs=0.0)
        assert d.sf(x) == pytest.approx(float(1 - ref), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("d", [dist.Gamma(2.0, 1.0), dist.Weibull(1.0, 0.4),
                                   dist.ShiftedPoisson(2.0)], ids=repr)
    def test_tail_cutoff_resolves_tiny_mass(self, d):
        # 1 - cdf cannot resolve an upper-tail mass below 1.1e-16
        for eps in (1e-16, 1e-20):
            x = d.upper_tail_cutoff(eps)
            assert d.sf(x) < eps and d.sf(x / 2.0) >= eps, eps

    def test_discrete_tail_matches_pmf_sum(self):
        for d in SETTINGS["shifted_poisson"]:
            for x in [0.5, 1, 2.5, int(d.mean()) + 3]:
                ref = pmf_series_sum(d, lambda k, p: p if k > x else 0.0)
                assert d.sf(x) == pytest.approx(ref, rel=1e-10), (d, x)


class TestMean:
    def test_frozen_values(self):
        assert dist.ShiftedPoisson(2.0).mean() == pytest.approx(3.0, rel=1e-12)
        assert dist.Gamma(2.0, 1.5).mean() == pytest.approx(3.0, rel=1e-12)
        assert dist.Weibull(1.0, 1.0).mean() == pytest.approx(1.0, rel=1e-12)
        assert dist.Chi(3).mean() == pytest.approx(2.0 * math.sqrt(2.0 / math.pi), rel=1e-12)
        assert dist.HalfNormal(1.0).mean() == pytest.approx(
            math.sqrt(2.0 / math.pi), rel=1e-12
        )

    def test_matches_quadrature(self):
        for d in ALL_SETTINGS:
            if d.discrete:
                ref = pmf_series_sum(d, lambda x, p: x * p)
            else:
                ref = integral_0_inf(
                    lambda x: x * d.density(x), mid=max(d.mean(), 0.5)
                )
            assert d.mean() == pytest.approx(ref, rel=1e-9), d


class TestSamplers:
    def test_ks_below_critical(self):
        stream = RandomStream(1234)
        for i, d in enumerate(ALL_SETTINGS):
            draws = d.ppf(stream.child(i).uniform_open(KS_N))
            assert draws.min() > 0.0, d
            if d.discrete:
                stat = ks_statistic_discrete(draws, d.cdf)
            else:
                stat = ks_statistic(draws, d.cdf)
            assert stat < KS_CRIT_1PCT, (d, stat)

    def test_discrete_support(self):
        d = dist.ShiftedPoisson(3.0)
        draws = d.ppf(RandomStream(5).child(0).uniform_open(2000))
        assert np.all(draws == np.round(draws))
        assert draws.min() >= 1

    def test_reproducible_bit_for_bit(self):
        for d in [dist.Gamma(0.5, 1.0), dist.ShiftedPoisson(35.0), dist.Chi(4)]:
            a = d.ppf(RandomStream(99, (4,)).uniform_open(500))
            b = d.ppf(RandomStream(99, (4,)).uniform_open(500))
            assert np.array_equal(a, b)


# upper-tail masses from deep in the right tail to the largest uniform a
# stream gives, 1 - 2^-53; the stream's extremes are 2^-53 and 1 - 2^-53
PPF_GRID = np.concatenate([
    np.geomspace(1e-300, 1e-3, 30),
    np.linspace(0.01, 0.99, 21),
    1.0 - np.geomspace(1e-3, 2.0 ** -53, 12),
])
STREAM_EXTREMES = np.array([2.0 ** -53, 1.0 - 2.0 ** -53])

FREQUENCY_SF = [
    (fm.TensorCauchy(1.7), lambda x: np.arctan2(1.7, x) / math.pi),
    (fm.IsotropicNormal(0.8), lambda x: ndtr(-x / 0.8)),
]


class TestPpf:
    """ppf(u) is the point with upper-tail mass u; the survival function
    is its oracle, since a KS test of ppf draws mostly tests the uniforms."""

    def test_sf_round_trip(self):
        # lower-tail masses p for which 1 - p is exact, as for stream uniforms
        p = (np.floor(np.geomspace(2.0 ** -53, 0.49, 40) * 2.0 ** 52) + 0.5) * 2.0 ** -52
        for d in ALL_SETTINGS:
            if d.discrete:
                continue
            back = [d.sf(x) for x in d.ppf(PPF_GRID)]
            np.testing.assert_allclose(back, PPF_GRID, rtol=1e-12, atol=0, err_msg=repr(d))
            # the left tail, which the sf cannot resolve, through the cdf
            back = [d.cdf(x) for x in d.ppf(1.0 - p)]
            np.testing.assert_allclose(back, p, rtol=1e-12, atol=0, err_msg=repr(d))

    def test_frequency_law_round_trip(self):
        for law, sf in FREQUENCY_SF:
            back = sf(law.ppf(PPF_GRID))
            np.testing.assert_allclose(back, PPF_GRID, rtol=1e-12, atol=0, err_msg=repr(law))
            # odd symmetry on stream uniforms: the left tail keeps its digits too
            u = np.concatenate([STREAM_EXTREMES, RandomStream(3).uniform_open(1000)])
            assert np.array_equal(law.ppf(1.0 - u), -law.ppf(u)), law

    def test_count_law_takes_least_k(self):
        # the least k with sf(k) <= u, that is F(k) >= 1 - u
        for d in SETTINGS["shifted_poisson"]:
            for u, k in zip(PPF_GRID, d.ppf(PPF_GRID)):
                assert k == round(k) and k >= 1, (d, u)
                assert d.sf(k) <= u < d.sf(k - 1), (d, u, k)

    def test_extreme_uniforms_give_finite_positive_draws(self):
        for d in ALL_SETTINGS:
            x = d.ppf(STREAM_EXTREMES)
            assert np.all(np.isfinite(x)) and np.all(x > 0.0), (d, x)
        for law, _ in FREQUENCY_SF:
            x = law.ppf(STREAM_EXTREMES)
            assert np.all(np.isfinite(x)) and x[0] > 0.0 > x[1], (law, x)


class TestAuxSamplers:
    def test_cauchy_ks(self):
        scale = 1.7
        draws = fm.TensorCauchy(scale).ppf(RandomStream(21).child(0).uniform_open(4000))
        cdf = lambda x: 0.5 + math.atan(x / scale) / math.pi
        assert ks_statistic(draws, cdf) < KS_CRIT_1PCT

    def test_normal_ks(self):
        sd = 0.8
        draws = fm.IsotropicNormal(sd).ppf(RandomStream(22).child(0).uniform_open(4000))
        cdf = lambda x: 0.5 * (1.0 + math.erf(x / (sd * math.sqrt(2.0))))
        assert ks_statistic(draws, cdf) < KS_CRIT_1PCT


class TestDecompose:
    """A tilted law is the generalized gamma law (a - 1/p, b, p); it is
    compared with a catalog law through its (shape, scale, power) triple."""

    def test_gamma_closed_form(self):
        t = dist.Gamma(2.0, 1.0).decompose()
        assert t.c == pytest.approx(1.0, rel=1e-12)
        assert t.tilted.triple() == dist.Gamma(1.0, 1.0).triple()
        t = dist.Gamma(3.5, 0.7).decompose()
        assert t.c == pytest.approx(1.0 / (2.5 * 0.7), rel=1e-12)
        assert t.tilted.triple() == dist.Gamma(2.5, 0.7).triple()

    def test_shifted_poisson_closed_form(self):
        t = dist.ShiftedPoisson(3.0).decompose()
        assert t.c == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert isinstance(t.tilted, dist.Poisson)
        assert t.tilted.mu == 3.0
        # the tilted law starts at zero, with the plain count cdf
        assert t.tilted.cdf(-0.5) == 0.0
        assert t.tilted.cdf(0.0) == pytest.approx(math.exp(-3.0), rel=1e-12)
        ref = sum(math.exp(-3.0) * 3.0 ** k / math.factorial(k) for k in range(3))
        assert t.tilted.cdf(2.5) == pytest.approx(ref, rel=1e-12)

    def test_rayleigh_tilts_to_half_normal(self):
        t = dist.Rayleigh(2.0).decompose()
        assert t.c == pytest.approx(math.sqrt(math.pi / 2.0) / 2.0, rel=1e-12)
        assert t.tilted.triple() == dist.HalfNormal(2.0).triple()

    def test_chi_steps_down(self):
        t = dist.Chi(3).decompose()
        assert t.tilted.triple() == dist.Chi(2).triple()
        t2 = dist.Chi(2).decompose()
        assert t2.tilted.triple() == dist.Chi(1).triple()

    def test_nakagami_steps_down(self):
        t = dist.Nakagami(2.0, 1.0).decompose()
        assert t.tilted.triple() == dist.Nakagami(1.5, 0.75).triple()

    def test_chi_square_delegates_to_gamma(self):
        t = dist.ChiSquare(5).decompose()
        assert t.c == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert t.tilted.triple() == dist.Gamma(1.5, 2.0).triple()

    @pytest.mark.parametrize("m", [0.6, 0.75, 0.9])
    def test_nakagami_below_one_tilts(self, m):
        # the tilted shape m - 1/2 is below the family's bound of 1/2
        d = dist.Nakagami(m, 1.3)
        t = d.decompose()
        ref = integral_0_inf(lambda x: d.density(x) / x, mid=d.mean())
        assert t.c == pytest.approx(ref, rel=1e-9)
        for x in [0.1, 0.5, 1.0, 2.0]:
            tail = integral_to_cutoff(lambda u: d.density(u) / u, d, lo=x)
            assert t.tilted.sf(x) == pytest.approx(tail / t.c, rel=1e-9), x

    def test_tilted_tail_and_cosine_transform(self):
        # C S_G(x) is the tail of f(x)/x; Re phi_G(a) the cosine transform
        # of the tilted density f(x)/(C x)
        cases = [
            dist.Gamma(3.5, 0.7), dist.ChiSquare(5), dist.Chi(2), dist.Chi(4),
            dist.Rayleigh(1.0), dist.Nakagami(0.75, 1.0), dist.Nakagami(2.5, 1.3),
            dist.Weibull(1.5, 2.0), dist.Weibull(1.0, 3.5),
        ]
        for d in cases:
            t = d.decompose()
            for x in [0.3, 1.0, 2.5]:
                tail = integral_to_cutoff(lambda u: d.density(u) / u, d, lo=x)
                assert t.c * t.tilted.sf(x) == pytest.approx(tail, rel=1e-9), (d, x)
            if isinstance(d, dist.Weibull) and d.alpha != 2.0:
                assert t.tilted.one_minus_re_cf(1.0) is None  # no closed form
                continue
            for a in [0.4, 1.0, 2.7]:
                ref = integral_to_cutoff(
                    lambda u: math.cos(a * u) * d.density(u) / (t.c * u), d
                )
                assert 1.0 - t.tilted.one_minus_re_cf(a) == pytest.approx(ref, abs=1e-9), (d, a)

    def test_poisson_tail_and_cosine_transform(self):
        d = dist.ShiftedPoisson(2.5)
        t = d.decompose()
        for x in [0.0, 1.5, 4.0]:
            tail = pmf_series_sum(d, lambda k, p: p / k if k > x else 0.0)
            assert t.c * t.tilted.sf(x) == pytest.approx(tail, rel=1e-12), x
        for a in [0.4, 1.0, 2.7]:
            ref = pmf_series_sum(d, lambda k, p: math.cos(a * (k - 1)) * p)
            assert 1.0 - t.tilted.one_minus_re_cf(a) == pytest.approx(ref, abs=1e-12), a

    def test_weibull_numeric_tilt(self):
        d = dist.Weibull(1.0, 2.0)
        t = d.decompose()
        assert t.c == pytest.approx(SQRT_PI, rel=1e-10)
        # tilted cdf against the analytic tilted cdf for this case
        for x in [0.2, 0.7, 1.5, 3.0]:
            ref = 1.0 - gammaincc(0.5, x * x)
            assert t.tilted.cdf(x) == pytest.approx(ref, abs=1e-8)

    def test_c_matches_quadrature(self):
        cases = [
            dist.Gamma(3.5, 0.7),
            dist.Rayleigh(1.0),
            dist.Chi(4),
            dist.Nakagami(2.5, 1.3),
            dist.Weibull(1.5, 2.0),
        ]
        for d in cases:
            ref = integral_0_inf(lambda x: d.density(x) / x, mid=max(d.mean(), 0.5))
            assert d.decompose().c == pytest.approx(ref, rel=1e-9), d

    def test_tilted_density_normalizes(self):
        for d in [dist.Gamma(2.0, 1.0), dist.Rayleigh(1.0), dist.Weibull(1.0, 2.0)]:
            t = d.decompose()
            total = integral_0_inf(
                lambda x: d.density(x) / (t.c * x), mid=max(d.mean(), 0.5)
            )
            assert total == pytest.approx(1.0, rel=1e-8), d

    def test_infinite_cases_raise(self):
        divergent = [
            dist.HalfNormal(1.0),
            dist.Nakagami(0.5, 1.0),
            dist.Exponential(1.0),
            dist.Gamma(1.0, 2.0),
            dist.Gamma(0.8, 1.0),
            dist.ChiSquare(1),
            dist.ChiSquare(2),
            dist.Chi(1),
            dist.Weibull(1.0, 1.0),
            dist.Weibull(1.0, 0.9),
        ]
        for d in divergent:
            with pytest.raises(InfiniteTiltError):
                d.decompose()


class TestFamilyIdentities:
    """Cross-family equalities implied by the parameterizations."""

    GRID = [0.1, 0.5, 1.0, 2.0, 4.0]

    def assert_same_law(self, a, b):
        for x in self.GRID:
            assert a.density(x) == pytest.approx(b.density(x), rel=1e-10, abs=1e-300)
            assert a.cdf(x) == pytest.approx(b.cdf(x), rel=1e-10, abs=1e-300)
        assert a.mean() == pytest.approx(b.mean(), rel=1e-10)

    def test_exponential_equals_gamma_one(self):
        self.assert_same_law(dist.Exponential(1.3), dist.Gamma(1.0, 1.3))

    def test_exponential_equals_weibull_one(self):
        self.assert_same_law(dist.Exponential(0.8), dist.Weibull(0.8, 1.0))

    def test_chi_square_equals_gamma(self):
        self.assert_same_law(dist.ChiSquare(5), dist.Gamma(2.5, 2.0))

    def test_chi_equals_nakagami(self):
        self.assert_same_law(dist.Chi(3), dist.Nakagami(1.5, 3.0))

    def test_half_normal_equals_nakagami_half(self):
        self.assert_same_law(dist.HalfNormal(1.4), dist.Nakagami(0.5, 1.4 ** 2))

    def test_rayleigh_equals_nakagami_one(self):
        self.assert_same_law(dist.Rayleigh(1.2), dist.Nakagami(1.0, 2 * 1.2 ** 2))


class TestSpecStrings:
    def test_parse_example(self):
        d = dist.parse_distribution("gamma:s=2,theta=1")
        assert d == dist.Gamma(2.0, 1.0)

    def test_roundtrip_all_families(self):
        for d in ALL_SETTINGS:
            assert dist.parse_distribution(dist.format_distribution(d)) == d

    def test_whitespace_tolerated(self):
        d = dist.parse_distribution(" rayleigh: sigma = 2.5 ")
        assert d == dist.Rayleigh(2.5)

    def test_errors(self):
        bad = [
            "gauss:sigma=1",          # unknown family
            "gamma:s=2",              # missing parameter
            "gamma:s=2,theta=1,x=3",  # unknown parameter
            "gamma:s=abc,theta=1",    # not a number
            "gamma",                  # no parameters
            "rayleigh:sigma=-1",      # out of domain
        ]
        for text in bad:
            with pytest.raises((ParseError, ValueError)):
                dist.parse_distribution(text)

    @given(
        st.floats(min_value=0.51, max_value=9.0),
        st.floats(min_value=0.01, max_value=50.0),
    )
    @settings(deadline=None, max_examples=50)
    def test_roundtrip_is_exact(self, m, omega):
        d = dist.Nakagami(m, omega)
        back = dist.parse_distribution(dist.format_distribution(d))
        assert back.m == d.m and back.omega == d.omega


class TestRandomStream:
    def test_same_path_same_bits(self):
        a = RandomStream(7, (1, 2)).uniform(32)
        b = RandomStream(7, (1, 2)).uniform(32)
        assert np.array_equal(a, b)

    def test_children_do_not_depend_on_parent_draws(self):
        p1 = RandomStream(7)
        p1.uniform(1000)
        p2 = RandomStream(7)
        assert np.array_equal(p1.child(3).uniform(8), p2.child(3).uniform(8))

    def test_derived_seed_is_first_draw_of_its_stream(self):
        seed = derived_seed(7, (2, 5))
        assert seed == int(RandomStream(7, (2, 5)).integers(0, 2 ** 63 - 1, 1)[0])
        assert seed != derived_seed(7, (5, 2)) and 0 <= seed < 2 ** 63 - 1

    def test_distinct_children_distinct_draws(self):
        root = RandomStream(7)
        assert not np.array_equal(root.child(0).uniform(8), root.child(1).uniform(8))

    def test_uniform_open_excludes_zero(self):
        u = RandomStream(7).uniform_open(10000)
        assert u.min() > 0.0 and u.max() <= 1.0
        # strictly inside: the midpoints (j + 1/2) 2^-52
        assert u.max() < 1.0 and np.all(u * 2.0 ** 53 % 2.0 == 1.0)
