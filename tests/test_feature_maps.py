"""Tests for random Fourier and random binning feature maps.

The binning geometry and both unbiasedness/variance identities are checked
against Monte Carlo with seeded streams; tolerances are stated in standard
errors or relative terms.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse as sp

from polyakern import cli, learn
from polyakern import distributions as dist
from polyakern import feature_maps as fm
from polyakern.polya_kernels import KernelSpec, eval_kernel

LAPLACE_SPEC = KernelSpec(dist.Gamma(2.0, 1.0))  # kernel exp(-|r|)
CAUCHY_LAW = fm.TensorCauchy(1.0)  # frequencies for the same kernel


def cfg(kind, copies, seed=77, dim=1, kernel=None):
    if kernel is None:
        kernel = LAPLACE_SPEC if kind == fm.BINNING else CAUCHY_LAW
    return fm.FeatureMapConfig(kind=kind, kernel=kernel, dim=dim, copies=copies, seed=seed)


class TestConfig:
    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            cfg("fourier", 4)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            cfg(fm.BINNING, 0)
        with pytest.raises(ValueError):
            cfg(fm.BINNING, 4, dim=0)

    def test_binning_needs_kernel_spec(self):
        with pytest.raises(ValueError):
            cfg(fm.BINNING, 4, kernel=CAUCHY_LAW)

    def test_fourier_needs_frequency_law(self):
        with pytest.raises(ValueError):
            cfg(fm.FOURIER_REAL, 4, kernel=LAPLACE_SPEC)

    def test_no_hash_buckets_argument(self):
        # every binning map is exact: there is no hashed variant to ask for
        with pytest.raises(TypeError):
            fm.FeatureMapConfig(kind=fm.BINNING, kernel=LAPLACE_SPEC, dim=1, copies=4,
                                seed=1, hash_buckets=4)

    def test_law_validation(self):
        with pytest.raises(ValueError):
            fm.TensorCauchy(0.0)
        with pytest.raises(ValueError):
            fm.IsotropicNormal(-1.0)


class TestFrequencyLaws:
    def test_tensor_cauchy_kernel(self):
        law = fm.TensorCauchy(2.0)
        x = np.array([0.0, 1.0])
        xp = np.array([1.0, -0.5])
        assert law.kernel_value(x, xp) == pytest.approx(math.exp(-2.0 * 2.5), rel=1e-12, abs=0.0)

    def test_isotropic_normal_kernel(self):
        law = fm.IsotropicNormal(0.5)
        x = np.array([0.0, 0.0])
        xp = np.array([1.0, 2.0])
        assert law.kernel_value(x, xp) == pytest.approx(
            math.exp(-0.25 * 5.0 / 2.0), rel=1e-12, abs=0.0
        )


class TestBuildMap:
    def test_deterministic(self):
        for kind in (fm.FOURIER_COMPLEX, fm.FOURIER_REAL, fm.BINNING):
            a = fm.build_map(cfg(kind, 5, dim=3))
            b = fm.build_map(cfg(kind, 5, dim=3))
            if kind == fm.BINNING:
                assert np.array_equal(a.spacings, b.spacings)
                assert np.array_equal(a.offsets, b.offsets)
            else:
                assert np.array_equal(a.frequencies, b.frequencies)

    def test_copy_prefix_stable_in_d(self):
        small = fm.build_map(cfg(fm.BINNING, 3, dim=2))
        large = fm.build_map(cfg(fm.BINNING, 8, dim=2))
        assert np.array_equal(large.spacings[:3], small.spacings)
        assert np.array_equal(large.offsets[:3], small.offsets)
        fs = fm.build_map(cfg(fm.FOURIER_REAL, 3, dim=2))
        fl = fm.build_map(cfg(fm.FOURIER_REAL, 8, dim=2))
        assert np.array_equal(fl.frequencies[:3], fs.frequencies)
        assert np.array_equal(fl.offsets[:3], fs.offsets)
        cs = fm.build_map(cfg(fm.FOURIER_COMPLEX, 3, dim=2))
        cl = fm.build_map(cfg(fm.FOURIER_COMPLEX, 8, dim=2))
        assert np.array_equal(cl.frequencies[:3], cs.frequencies)

    @pytest.mark.parametrize("copies", [1, 7, 1000])
    def test_one_stream_per_map(self, monkeypatch, copies):
        made = []
        init = fm.RandomStream.__init__

        def counted(stream, *args, **kwargs):
            made.append(args)
            init(stream, *args, **kwargs)

        monkeypatch.setattr(fm.RandomStream, "__init__", counted)
        for kind in fm.KINDS:
            made.clear()
            fm.build_map(cfg(kind, copies, dim=3))
            assert made == [(77,)], kind

    def test_shapes_and_ranges(self):
        st = fm.build_map(cfg(fm.BINNING, 4, dim=2))
        assert st.spacings.shape == (4, 2) and st.offsets.shape == (4, 2)
        assert np.all(st.spacings > 0)
        assert np.all(st.offsets >= 0) and np.all(st.offsets < st.spacings)
        assert len(st.vocabulary) == 0
        fr = fm.build_map(cfg(fm.FOURIER_REAL, 4, dim=2))
        assert fr.frequencies.shape == (4, 2)
        assert fr.offsets.shape == (4,)
        assert np.all(fr.offsets >= 0) and np.all(fr.offsets < 2 * math.pi)
        fc = fm.build_map(cfg(fm.FOURIER_COMPLEX, 4, dim=2))
        assert fc.offsets is None

    def test_binning_spacings_follow_scaled_law(self):
        # with rho = 2 every spacing is half of a draw from the raw law;
        # the mean over many copies reflects mean / rho
        spec = KernelSpec(dist.Gamma(2.0, 1.0), rho=2.0)
        st = fm.build_map(cfg(fm.BINNING, 4000, kernel=spec))
        assert st.spacings.mean() == pytest.approx(2.0 / 2.0, rel=0.05, abs=0.0)


class TestFeaturize:
    def test_complex_self_inner_product(self):
        state = fm.build_map(cfg(fm.FOURIER_COMPLEX, 7, dim=2))
        X = np.array([[0.3, -1.2]])
        batch = fm.featurize(state, X)
        g = fm.gram(batch)
        assert g[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_real_entry_bounds(self):
        state = fm.build_map(cfg(fm.FOURIER_REAL, 9, dim=2))
        X = np.random.default_rng(3).normal(size=(20, 2))
        batch = fm.featurize(state, X)
        bound = math.sqrt(2.0 / 9) + 1e-12
        assert np.all(np.abs(fm.feature_matrix(batch)) <= bound)

    def test_fourier_data_equals_plain_expression(self):
        # the features are written over one array; the bytes are those of
        # the plain sqrt(2/D) cos(WX + b) and exp(iWX) / sqrt(D)
        X = np.random.default_rng(8).uniform(-3.0, 3.0, size=(200, 16))
        real = fm.build_map(cfg(fm.FOURIER_REAL, 64, dim=16))
        phases = real.frequencies @ X.T + real.offsets[:, None]
        expected = math.sqrt(2.0 / 64) * np.cos(phases)
        assert np.array_equal(fm.feature_matrix(fm.featurize(real, X)), expected)
        cplx = fm.build_map(cfg(fm.FOURIER_COMPLEX, 64, dim=16))
        expected = np.exp(1j * (cplx.frequencies @ X.T)) / math.sqrt(64)
        assert np.array_equal(fm.feature_matrix(fm.featurize(cplx, X)), expected)

    def test_binning_identical_points(self):
        state = fm.build_map(cfg(fm.BINNING, 6, dim=2))
        X = np.array([[0.5, 0.5], [0.5, 0.5]])
        batch = fm.featurize(state, X)
        assert np.array_equal(batch.indices[:, 0], batch.indices[:, 1])
        assert fm.gram(batch)[0, 1] == 1.0

    def test_binning_sparse_structure(self):
        state = fm.build_map(cfg(fm.BINNING, 5, dim=1))
        X = np.linspace(-1, 1, 7).reshape(-1, 1)
        batch = fm.featurize(state, X)
        Z = fm.to_sparse(batch)
        assert Z.shape == (batch.width, 7)
        percol = np.diff(Z.tocsc().indptr)
        assert np.all(percol == 5)
        assert np.allclose(Z.data, 1.0 / math.sqrt(5.0))

    def test_dimension_mismatch(self):
        state = fm.build_map(cfg(fm.FOURIER_REAL, 3, dim=2))
        with pytest.raises(ValueError):
            fm.featurize(state, np.zeros((4, 3)))

    def test_bit_identical_across_runs(self):
        X = np.random.default_rng(5).normal(size=(11, 2))
        for kind in (fm.FOURIER_COMPLEX, fm.FOURIER_REAL, fm.BINNING):
            a = fm.featurize(fm.build_map(cfg(kind, 4, dim=2)), X)
            b = fm.featurize(fm.build_map(cfg(kind, 4, dim=2)), X)
            if kind == fm.BINNING:
                assert np.array_equal(a.indices, b.indices)
            else:
                assert np.array_equal(fm.feature_matrix(a), fm.feature_matrix(b))

    def test_inference_leaves_vocabulary_unchanged(self):
        state = fm.build_map(cfg(fm.BINNING, 3, dim=1))
        train_X = np.array([[0.0], [0.1]])
        train = fm.featurize(state, train_X)
        width = len(state.vocabulary)
        model = learn.fit(state, train, np.array([1.0, 2.0]), lam=0.1)
        a = np.array([[500.0], [0.0]])
        b = np.array([[-700.0], [0.1], [900.0]])
        first_a = learn.predict(model, a)
        first_b = learn.predict(model, b)
        test = fm.featurize(state, a)
        assert len(state.vocabulary) == width
        assert np.array_equal(fm.featurize(state, train_X).indices, train.indices)
        # the far point's bins are unseen: sentinel index, zero score
        assert test.width == width
        assert np.all(test.indices[:, 0] == width)
        assert np.array_equal(test.indices[:, 1], train.indices[:, 0])
        assert first_a[0] == model.y_mean
        # B then A scores as A then B did
        assert np.array_equal(learn.predict(model, b), first_b)
        assert np.array_equal(learn.predict(model, a), first_a)
        assert len(state.vocabulary) == width
        assert np.array_equal(fm.featurize(state, train_X).indices, train.indices)

    def test_vocabulary_order_deterministic(self):
        X = np.random.default_rng(9).uniform(-1, 1, size=(30, 2))
        s1 = fm.build_map(cfg(fm.BINNING, 4, dim=2))
        s2 = fm.build_map(cfg(fm.BINNING, 4, dim=2))
        first = fm.featurize(s1, X).indices
        assert np.array_equal(fm.featurize(s2, X).indices, first)
        assert len(s1.vocabulary) == len(s2.vocabulary) == first.max() + 1
        for s in (s1, s2):
            assert np.array_equal(fm.featurize(s, X).indices, first)

    def test_non_finite_points_rejected(self):
        for kind in (fm.FOURIER_COMPLEX, fm.FOURIER_REAL, fm.BINNING):
            state = fm.build_map(cfg(kind, 4, dim=2))
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match="finite"):
                    fm.featurize(state, np.array([[0.0, 0.0], [bad, 0.5]]))

    def test_zero_spacing_rejected(self):
        # Gamma(0.01, 1) puts mass below the smallest double: 6 of these
        # 10,000 spacings are 0.0, and no bin index exists for them
        spec = KernelSpec(dist.Gamma(0.01, 1.0))
        state = fm.build_map(cfg(fm.BINNING, 10_000, seed=3, kernel=spec))
        assert np.count_nonzero(state.spacings == 0.0) == 6
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for mapped in (state, fm.rescale_map(state, KernelSpec(spec.dist, tau=2.0))):
                with pytest.raises(ValueError, match="underflowed to zero") as err:
                    fm.featurize(mapped, np.array([[0.0], [0.5]]))
                assert "gamma:s=0.01,theta=1.0" in str(err.value)
                with pytest.raises(ValueError, match="underflowed to zero"):
                    fm.per_copy_inner_products(mapped, [0.0], [0.5])
        assert len(state.vocabulary) == 0

    def test_bin_index_beyond_int64_rejected(self):
        # floor((x - offset) / spacing) of x = +-1e300 lies outside int64;
        # a cast would send both points to INT64_MIN and the same columns
        state = fm.build_map(cfg(fm.BINNING, 4, dim=1))
        for X in ([[0.0], [1e300]], [[-1e300], [0.0]], [[1e300], [-1e300]]):
            with pytest.raises(ValueError, match="int64"):
                fm.featurize(state, np.array(X))
            with pytest.raises(ValueError, match="int64"):
                fm.per_copy_inner_products(state, X[0], X[1])
        assert len(state.vocabulary) == 0
        # 4e15 still bins exactly, as the dict oracle cases show
        assert fm.featurize(state, np.array([[4e15], [-4e15]])).width == 8


class TestRescaleMap:
    @pytest.mark.parametrize("law", [dist.Gamma(2.0, 1.0), dist.Weibull(1.0, 3.0),
                                     dist.ShiftedPoisson(1.5)])
    def test_matches_build_map_at_tau(self, law):
        unit = fm.build_map(cfg(fm.BINNING, 16, seed=5, dim=3, kernel=KernelSpec(law)))
        for tau in (0.12, 1.0, 7.3, 40.0):
            spec = KernelSpec(law, tau=tau)
            direct = fm.build_map(cfg(fm.BINNING, 16, seed=5, dim=3, kernel=spec))
            scaled = fm.rescale_map(unit, spec)
            assert scaled.cfg == direct.cfg
            np.testing.assert_allclose(scaled.spacings, direct.spacings, rtol=1e-15, atol=0)
            np.testing.assert_allclose(scaled.offsets, direct.offsets, rtol=1e-15, atol=0)
            assert np.all(scaled.offsets < scaled.spacings)

    def test_fresh_vocabulary_and_unit_map_untouched(self):
        unit = fm.build_map(cfg(fm.BINNING, 4, dim=2))
        X = np.random.default_rng(3).normal(size=(10, 2))
        before = fm.featurize(unit, X).indices
        width = len(unit.vocabulary)
        scaled = fm.rescale_map(unit, KernelSpec(LAPLACE_SPEC.dist, tau=3.0))
        assert len(scaled.vocabulary) == 0
        fm.featurize(scaled, X)
        assert len(unit.vocabulary) == width
        assert np.array_equal(fm.featurize(unit, X).indices, before)
        assert scaled.vocabulary is not unit.vocabulary

    def test_rejects_other_law_or_map_kind(self):
        unit = fm.build_map(cfg(fm.BINNING, 4))
        with pytest.raises(ValueError, match="law"):
            fm.rescale_map(unit, KernelSpec(dist.Gamma(3.0, 1.0), tau=1.0))
        with pytest.raises(ValueError, match="binning"):
            fm.rescale_map(fm.build_map(cfg(fm.FOURIER_REAL, 4)), LAPLACE_SPEC)


class TestGram:
    def test_symmetric_and_diagonals(self):
        X = np.random.default_rng(11).normal(size=(12, 2))
        gc = fm.gram(fm.featurize(fm.build_map(cfg(fm.FOURIER_COMPLEX, 8, dim=2)), X))
        gr = fm.gram(fm.featurize(fm.build_map(cfg(fm.FOURIER_REAL, 8, dim=2)), X))
        gb = fm.gram(fm.featurize(fm.build_map(cfg(fm.BINNING, 8, dim=2)), X))
        for g in (gc, gr, gb):
            assert np.allclose(g, g.T)
            assert g.dtype == np.float64
        assert np.allclose(np.diag(gc), 1.0, atol=1e-12)
        assert np.array_equal(np.diag(gb), np.ones(12))
        assert np.all(np.diag(gr) >= 0.0) and np.all(np.diag(gr) <= 2.0)

    def test_single_point_binning(self):
        batch = fm.featurize(fm.build_map(cfg(fm.BINNING, 4, dim=1)), np.zeros((1, 1)))
        assert fm.gram(batch).tolist() == [[1.0]]

    def test_binning_gram_equals_copy_count(self):
        # the pairs of copies (c, c') with i's column in c equal to j's in
        # c', which are pairs of one copy: no column is shared across copies
        X = np.random.default_rng(17).uniform(-2, 2, size=(15, 2))
        batch = fm.featurize(fm.build_map(cfg(fm.BINNING, 8, dim=2)), X)
        idx = batch.indices
        eq = idx[:, None, :, None] == idx[None, :, None, :]
        assert np.array_equal(fm.gram(batch), eq.sum(axis=(0, 1)) / 8.0)
        same_copy = idx[:, :, None] == idx[:, None, :]
        assert np.array_equal(eq.sum(axis=(0, 1)), same_copy.sum(axis=0))

    def test_sentinel_never_matches(self):
        state = fm.build_map(cfg(fm.BINNING, 5, dim=1))
        fm.featurize(state, np.array([[0.0], [0.2]]))
        batch = fm.featurize(state, np.array([[0.0], [800.0], [800.0]]))
        g = fm.gram(batch)
        assert g[0, 0] == 1.0
        assert np.array_equal(g[1:, :], np.zeros((2, 3)))
        Z = fm.to_sparse(batch)
        assert Z.shape == (batch.width, 3) and Z.nnz == 5

    def test_gram_is_average_of_copies(self):
        X = np.random.default_rng(13).normal(size=(5, 1))
        state = fm.build_map(cfg(fm.BINNING, 6, dim=1))
        batch = fm.featurize(state, X)
        g = fm.gram(batch)
        per_copy = (batch.indices[:, :, None] == batch.indices[:, None, :]).astype(float)
        assert np.allclose(g, per_copy.mean(axis=0))

    def test_unbiased_entry(self):
        # mean of the approximate entry over many independent copies lands
        # within four standard errors of the kernel value
        r = 0.8
        x = np.array([0.0])
        xp = np.array([r])
        copies = 10 ** 4
        k_true = math.exp(-r)
        for kind in (fm.FOURIER_COMPLEX, fm.FOURIER_REAL, fm.BINNING):
            state = fm.build_map(cfg(kind, copies, seed=2024))
            samples = fm.per_copy_inner_products(state, x, xp)
            mean = float(np.mean(np.real(samples)))
            se = float(np.std(np.real(samples), ddof=1)) / math.sqrt(copies)
            assert abs(mean - k_true) <= 4.0 * se, kind


class TestBinGeometry:
    def test_same_bin_probability(self):
        # fixed spacing w, offset uniform on (0, w): two points at distance r
        # share a bin with probability max{0, 1 - r/w}
        copies = 10 ** 5
        rng = np.random.default_rng(404)
        for w, r in [(1.5, 0.5), (1.5, 1.0), (0.5, 0.7), (2.0, 0.2)]:
            c = cfg(fm.BINNING, copies)
            spacings = np.full((copies, 1), w)
            offsets = rng.uniform(0.0, w, size=(copies, 1))
            state = fm.BinningMapState(cfg=c, spacings=spacings, offsets=offsets)
            batch = fm.featurize(state, np.array([[0.0], [r]]))
            hits = float(np.mean(batch.indices[:, 0] == batch.indices[:, 1]))
            p = max(0.0, 1.0 - r / w)
            sigma = math.sqrt(max(p * (1 - p), 1e-12) / copies)
            assert abs(hits - p) <= max(3.0 * sigma, 1e-9), (w, r)


class TestVarianceTheory:
    def test_frozen_values(self):
        assert fm.variance_theory(fm.BINNING, 0.5) == pytest.approx(0.25)
        assert fm.variance_theory(fm.FOURIER_COMPLEX, 1.0) == 0.0
        got = fm.variance_theory(fm.FOURIER_REAL, math.exp(-1), math.exp(-2))
        assert got == pytest.approx(1.0 - math.exp(-2) / 2.0, rel=1e-12, abs=0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            fm.variance_theory(fm.FOURIER_REAL, 0.5)  # missing k(2r)
        with pytest.raises(ValueError):
            fm.variance_theory(fm.BINNING, 1.5)
        with pytest.raises(ValueError):
            fm.variance_theory("nope", 0.5)

    def test_empirical_variance_matches(self):
        r = 1.0
        x = np.array([0.0])
        xp = np.array([r])
        copies = 10 ** 5
        k = math.exp(-r)
        k2 = math.exp(-2 * r)
        for kind in (fm.FOURIER_COMPLEX, fm.FOURIER_REAL, fm.BINNING):
            state = fm.build_map(cfg(kind, copies, seed=515))
            samples = fm.per_copy_inner_products(state, x, xp)
            emp = float(np.var(samples))
            theory = fm.variance_theory(kind, k, k2)
            assert emp == pytest.approx(theory, rel=0.05, abs=0.0), kind

    def test_binning_samples_are_bernoulli(self):
        state = fm.build_map(cfg(fm.BINNING, 2000, seed=21))
        samples = fm.per_copy_inner_products(state, np.array([0.2]), np.array([0.9]))
        assert set(np.unique(samples)).issubset({0.0, 1.0})

    def test_averaging_divides_variance(self):
        copies = 32000
        state = fm.build_map(cfg(fm.BINNING, copies, seed=929))
        samples = fm.per_copy_inner_products(state, np.array([0.0]), np.array([1.0]))
        base = float(np.var(samples))
        for d in (4, 16):
            means = samples.reshape(-1, d).mean(axis=1)
            assert float(np.var(means)) == pytest.approx(base / d, rel=0.10, abs=0.0), d


def oracle_bins(state, X):
    """copies x n x dim int64 bins: floor((x - offset) / spacing) of every
    coordinate of every point for every copy, in one broadcast."""
    return np.floor(
        (X[None, :, :] - state.offsets[:, None, :]) / state.spacings[:, None, :]
    ).astype(np.int64)


def key_columns(keys):
    """(copy, bins) keys as the vocabulary reads them: one int64 array per
    key entry, the copy first."""
    return np.array([[copy, *bins] for copy, bins in keys], dtype=np.int64).T


def dict_featurize(state, X, vocab):
    """Reference: a dict from (copy, bin tuple) keys to columns.  An empty
    ``vocab`` is filled with the keys of X, each mapped to its rank in
    ``sorted(vocab)``, since Python's tuple order is the packed key order;
    a filled one is only read, and a key it does not hold gets the sentinel
    ``len(vocab)``."""
    bins = oracle_bins(state, X)
    keys = [[(l, tuple(row)) for row in copy.tolist()] for l, copy in enumerate(bins)]
    if not vocab:
        vocab.update((key, j) for j, key in enumerate(sorted({k for ks in keys for k in ks})))
    return np.array([[vocab.get(key, len(vocab)) for key in ks] for ks in keys],
                    dtype=np.int64).reshape(bins.shape[:2])


def oracle_cases():
    rng = np.random.default_rng(2016)
    dup = rng.uniform(-1, 1, size=(5, 3))
    far = np.array([[1e9, 0.0], [-1e12, 3.0], [0.5, -4e15], [0.2, 0.1], [1e9, 0.0]])
    # 24 widely spread coordinates: the product of the key spans passes
    # 2**63; tested are training points, points moved in their last
    # coordinate, and fresh points whose early bins training never saw
    wide = rng.uniform(-200, 200, (40, 24))
    moved = wide[:8].copy()
    moved[:, -1] += 3.0
    cases = {
        "d=1": (rng.uniform(-1, 1, (40, 1)), rng.uniform(-3, 3, (25, 1))),
        "n=1": (rng.uniform(-1, 1, (1, 2)), rng.uniform(-1, 1, (1, 2))),
        "duplicates": (dup[[0, 1, 0, 2, 2, 3, 4, 4, 0]], dup[[4, 0, 0, 1]]),
        "negative bins": (rng.uniform(-60, -10, (30, 3)), rng.uniform(-60, -10, (30, 3))),
        "far outside": (rng.uniform(-1, 1, (50, 2)), far),
        "mixed": (rng.normal(size=(60, 4)), rng.normal(scale=2.0, size=(60, 4))),
        "high d": (wide, np.vstack([wide[:8], moved, rng.uniform(-200, 200, (8, 24))])),
    }
    return [pytest.param(train, test, id=name) for name, (train, test) in cases.items()]


def reloaded(state, train_X, tmp_path):
    """The exact binning map ``state``, whose vocabulary ``train_X`` filled,
    as ``load_model`` rebuilds it from a bundle of a ridge fit on those
    points: a fresh map of the same seed, featurized on the stored points."""
    model = learn.fit(state, fm.featurize(state, train_X), np.arange(len(train_X)), lam=0.1)
    path = tmp_path / "model.json"
    cli.save_model(path, "regression", cli.fit_normalizer(train_X), model)
    _, loaded, _, _, _ = cli.load_model(path)
    assert loaded is not state and loaded.cfg == state.cfg
    return loaded


class TestDictOracle:
    @pytest.mark.parametrize("train_X,test_X", oracle_cases())
    def test_matches_dict_loop(self, train_X, test_X, tmp_path):
        c = cfg(fm.BINNING, 16, seed=4, dim=train_X.shape[1])
        state = fm.build_map(c)
        vocab = {}
        train = fm.featurize(state, train_X)
        assert np.array_equal(train.indices, dict_featurize(state, train_X, vocab))
        assert train.width == len(vocab)
        # the dict's keys, in sorted order, are the columns 0, 1, ... of the
        # vocabulary and of a bundle reload that rebuilds it
        loaded = reloaded(state, train_X, tmp_path)
        for s in (state, loaded):
            assert s.vocabulary.lookup(key_columns(list(vocab))).tolist() == list(range(len(vocab)))
        # at inference the sentinel stands for every key the dict lacks
        width = len(vocab)
        expected = dict_featurize(state, test_X, vocab)
        for s in (state, loaded):
            test = fm.featurize(s, test_X)
            assert np.array_equal(test.indices, expected)
            assert test.width == width == len(s.vocabulary)

    def test_high_d_case_takes_the_ranking_step(self):
        # the spans of its key columns multiply past 2**63, so no mixed
        # radix over them fits in int64; some test rows lie inside every
        # column's training span and are still unseen
        (train_X, test_X), = [p.values for p in oracle_cases() if p.id == "high d"]
        state = fm.build_map(cfg(fm.BINNING, 16, seed=4, dim=train_X.shape[1]))
        width = fm.featurize(state, train_X).width
        rows = oracle_bins(state, train_X)
        lo, hi = rows.min(axis=(0, 1)), rows.max(axis=(0, 1))
        spans = [h - l + 1 for l, h in zip(lo.tolist(), hi.tolist())]
        assert state.cfg.copies * math.prod(spans) >= 2 ** 63  # the copy entry, then the bins
        test_rows = oracle_bins(state, test_X)
        inside = np.all((test_rows >= lo) & (test_rows <= hi), axis=2).reshape(-1)
        unseen = fm.featurize(state, test_X).indices.reshape(-1) == width
        assert np.any(inside & unseen)
        assert not np.all(unseen)


class TestPackedKeys:
    def test_extreme_span_matches_dict_loop(self, tmp_path):
        # one coordinate bins near both ends of int64, so its key column's
        # training span is at least 2**63
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = fm.build_map(cfg(fm.BINNING, 8, seed=6, dim=2))
            far = 0.9 * 2.0 ** 63 * state.spacings[:, 0].min()
            train_X = np.array([
                [far, 0.1], [-far, 0.2], [0.0, 0.3], [far, 0.4], [0.5 * far, 0.1],
            ])
            test_X = np.array([
                [far, 0.1], [-far, 0.2], [0.25 * far, 0.3], [-0.5 * far, 0.2],
                [far, 5.0], [0.0, 0.3], [0.5 * far, 0.1],
            ])
            vocab = {}
            train = fm.featurize(state, train_X)
            assert np.array_equal(train.indices, dict_featurize(state, train_X, vocab))
            bins = [first for _, (first, _) in vocab]
            assert max(bins) - min(bins) + 1 >= 2 ** 63
            width = len(vocab)
            expected = dict_featurize(state, test_X, vocab)
            for s in (state, reloaded(state, train_X, tmp_path)):
                test = fm.featurize(s, test_X)
                assert np.array_equal(test.indices, expected)
                assert test.width == width
            assert np.any(expected == width) and np.any(expected < width)

    def test_one_bin_past_the_training_span_is_unseen(self, tmp_path):
        state = fm.build_map(cfg(fm.BINNING, 4, seed=12, dim=2))
        train_X = np.random.default_rng(3).uniform(-1, 1, (30, 2))
        vocab = {}
        assert np.array_equal(fm.featurize(state, train_X).indices,
                              dict_featurize(state, train_X, vocab))
        rows = key_columns(list(vocab)).T  # column j's key is rows[j]
        width = len(rows)

        def middle(copy, bins):
            """The point in the middle of these bins of this copy."""
            return state.offsets[copy] + (bins + 0.5) * state.spacings[copy]

        loaded = reloaded(state, train_X, tmp_path)
        for j in (1, 2):
            for extreme, step in ((np.argmax, 1), (np.argmin, -1)):
                column = extreme(rows[:, j])
                copy, bins = rows[column, 0], rows[column, 1:].copy()
                inner = np.array([middle(copy, bins)])
                bins[j - 1] += step
                outer = np.array([middle(copy, bins)])
                for s in (state, loaded):
                    assert fm.featurize(s, inner).indices[copy, 0] == column
                    assert fm.featurize(s, outer).indices[copy, 0] == width

    def test_ranking_keeps_long_rows_apart(self):
        # 70 two-valued bins: a mixed radix over them would shift the first
        # bin out of 64 bits, so the prefix is ranked before it can
        rows = np.zeros((3, 71), dtype=np.int64)
        rows[0, 1] = 1
        rows[2, 2:] = 1
        # in key order: row 1 (all zeros), row 2 (0, 0, 1, ...), row 0 (0, 1, ...)
        vocab = fm.BinVocabulary()
        assert vocab.assign(rows.T).tolist() == [2, 0, 1]
        assert vocab.lookup(rows[::-1].T).tolist() == [1, 0, 2]

    def test_unseen_prefix_is_unseen(self):
        # two bins of span 2**40 + 1 pass 2**63 together, so the prefix
        # (copy, first bin) is ranked; the query's prefix lies between the
        # training ones, and its last bin is the last bin of the second row
        rows = np.array([[0, 0, 0], [0, 2 ** 40, 2 ** 40]], dtype=np.int64)
        vocab = fm.BinVocabulary()
        vocab.assign(rows.T)
        query = np.array([[0, 1, 2 ** 40], [0, 2 ** 40, 2 ** 40]], dtype=np.int64)
        assert vocab.lookup(query.T).tolist() == [2, 1]

    @settings(deadline=None, max_examples=150, derandomize=True)
    @given(st.one_of(
        st.lists(st.integers(-3, 3), max_size=300),  # many repeats
        st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), max_size=60, unique=True),  # none
        st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=1, max_size=1),  # one key
    ))
    def test_numbering_is_key_rank(self, values):
        # the one-sort numbering against np.unique's inverse, the rank of
        # each key among the distinct keys, on one key column, whose span
        # may pass 2**63 and take the ranking step
        keys = np.array(values, dtype=np.int64)
        distinct, inverse = np.unique(keys, return_inverse=True)
        vocab = fm.BinVocabulary()
        assert vocab.assign([keys.copy()]).tolist() == inverse.tolist()
        assert len(vocab) == distinct.shape[0]
        if len(vocab):
            assert vocab.lookup([keys]).tolist() == inverse.tolist()


def coo_incidence(batch, value):
    """Reference: the binning matrix as it was built from COO triplets, a
    (column, point) pair per seen copy, summed by scipy's COO to CSR sort."""
    n, copies = batch.n, batch.copies
    cols = np.repeat(np.arange(n), copies)
    rows = batch.indices.T.reshape(-1)
    seen = rows < batch.width
    vals = np.full(int(seen.sum()), value)
    return sp.csr_matrix((vals, (rows[seen], cols[seen])), shape=(batch.width, n))


def incidence_cases():
    rng = np.random.default_rng(25)
    X = rng.uniform(-1, 1, (30, 2))
    mixed = np.vstack([X[:10], rng.uniform(-4, 4, (10, 2))])

    def exact(copies=6, dim=2):
        return fm.build_map(cfg(fm.BINNING, copies, seed=3, dim=dim))

    def trained(state, train_X):
        fm.featurize(state, train_X)
        return state

    cases = {
        "training": lambda: fm.featurize(exact(), X),
        "unseen sentinels": lambda: fm.featurize(trained(exact(), X), mixed),
        "all unseen": lambda: fm.featurize(trained(exact(), X), np.full((5, 2), 900.0)),
        "n=1": lambda: fm.featurize(exact(), X[:1]),
        "D=1": lambda: fm.featurize(exact(copies=1), X),
    }
    return [pytest.param(make, id=name) for name, make in cases.items()]


class TestIncidence:
    @pytest.mark.parametrize("make", incidence_cases())
    def test_matches_coo_construction(self, make):
        batch = make()
        Z = fm.to_sparse(batch)
        expected = coo_incidence(batch, 1.0 / math.sqrt(batch.copies))
        assert Z.format == "csc" and Z.shape == expected.shape
        assert np.array_equal(Z.toarray(), expected.toarray())
        # canonical: each point's rows strictly ascend, no stored zeros
        for a, b in zip(Z.indptr, Z.indptr[1:]):
            assert np.all(np.diff(Z.indices[a:b]) > 0)
        assert Z.nnz == expected.nnz and np.all(Z.data != 0.0)
        ones = coo_incidence(batch, 1.0)
        assert np.array_equal(fm.gram(batch), (ones.T @ ones).toarray() / batch.copies)

    def test_all_unseen_batch_is_empty(self):
        (make,) = [p.values[0] for p in incidence_cases() if p.id == "all unseen"]
        batch = make()
        assert np.all(batch.indices == batch.width)
        assert fm.to_sparse(batch).nnz == 0
        assert np.array_equal(fm.gram(batch), np.zeros((5, 5)))


class TestMemory:
    """A binning featurize and ``dense_gram`` hold O(copies x n) int64s
    and one small sparse block, at the benchmark's fit size: n = 2000,
    dim = 8, D = 128 (256,000 cells, 2 MB an int64 per cell)."""

    @staticmethod
    def fit_batch():
        X = np.random.default_rng(1).uniform(-1, 1, (2000, 8))
        state = fm.build_map(cfg(fm.BINNING, 128, seed=1000, dim=8))
        return state, X

    def test_fill_holds_a_few_columns(self):
        state, X = self.fit_batch()
        tracemalloc.start()
        try:
            batch = fm.featurize(state, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert batch.width > 50_000
        # a (1 + dim)-column int64 key matrix alone is 18 MB; the fill
        # holds a few int64 columns at a time (about 11 MB in all)
        assert peak < 20 * 2 ** 20, peak

    def test_to_sparse_builds_no_triplets(self):
        # the 256,000 entries as CSC arrays straight from the column ids:
        # 2 MB of values and 1 to 2 MB of row ids, with no int64 COO
        # triplets or point-id array next to them
        state, X = self.fit_batch()
        batch = fm.featurize(state, X)
        tracemalloc.start()
        try:
            Z = fm.to_sparse(batch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert Z.nnz == 2000 * 128
        assert peak < 8 * 2 ** 20, peak

    def test_dense_gram_holds_one_small_block(self):
        state, X = self.fit_batch()
        A = fm.feature_matrix(fm.featurize(state, X)).T
        tracemalloc.start()
        try:
            G = fm.dense_gram(A)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert G.shape == (2000, 2000)
        # beyond the 30.5 MB output: a CSR copy of A (3 MB) and one block's
        # sparse product of at most BLOCK_CELLS / 8 entries
        assert peak - G.nbytes < 8 * 2 ** 20, peak - G.nbytes
