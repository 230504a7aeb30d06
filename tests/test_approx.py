"""Tests for exact kernel matrices and Frobenius-error predictions."""

import math
from dataclasses import replace

import numpy as np
import pytest

from polyakern import approx
from polyakern import distributions as dist
from polyakern import feature_maps as fm
from polyakern import polya_kernels as kernels
from polyakern.polya_kernels import KernelSpec

LAPLACE = KernelSpec(dist.Gamma(2.0, 1.0))


class TestExactGram:
    def test_laplace_pair(self):
        K = approx.exact_gram(LAPLACE, np.array([[0.0], [1.0]]))
        assert K.values[0, 1] == pytest.approx(math.exp(-1.0), rel=1e-12, abs=0.0)
        assert K.values[0, 0] == 1.0 and K.values[1, 1] == 1.0

    def test_single_point(self):
        K = approx.exact_gram(LAPLACE, np.zeros((1, 3)))
        assert K.values.tolist() == [[1.0]]

    def test_coincident_points(self):
        K = approx.exact_gram(LAPLACE, np.ones((2, 2)))
        assert np.array_equal(K.values, np.ones((2, 2)))

    def test_symmetry_and_range(self):
        X = np.random.default_rng(4).normal(size=(10, 3))
        K = approx.exact_gram(KernelSpec(dist.Rayleigh(1.0)), X).values
        assert np.array_equal(K, K.T)
        assert np.all(K >= 0.0) and np.all(K <= 1.0)
        assert np.array_equal(np.diag(K), np.ones(10))

    def test_frequency_law_kernels(self):
        X = np.array([[0.0, 0.0], [1.0, 2.0]])
        Kc = approx.exact_gram(fm.TensorCauchy(1.0), X).values
        assert Kc[0, 1] == pytest.approx(math.exp(-3.0), rel=1e-12, abs=0.0)
        Kn = approx.exact_gram(fm.IsotropicNormal(1.0), X).values
        assert Kn[0, 1] == pytest.approx(math.exp(-2.5), rel=1e-12, abs=0.0)

    def test_doubled_differences(self):
        X = np.array([[0.0], [0.7]])
        K2 = approx.exact_gram(LAPLACE, X, double=True).values
        assert K2[0, 1] == pytest.approx(math.exp(-1.4), rel=1e-12, abs=0.0)
        assert K2[0, 0] == 1.0

    @pytest.mark.parametrize("law", [fm.TensorCauchy(0.7), fm.IsotropicNormal(1.3)], ids=repr)
    @pytest.mark.parametrize("double", [False, True])
    @pytest.mark.parametrize("dim,block", [(3, None), (3, 50), (20, None)])
    def test_frequency_law_equals_pairwise_definition(self, law, double, dim, block, monkeypatch):
        # bit for bit the product of the law's one-dimensional kernel over
        # the coordinates, taken in order, including across row blocks (of
        # one row at BLOCK_CELLS = 50) and at 20 coordinates
        if block is not None:
            monkeypatch.setattr(fm, "BLOCK_CELLS", block)
        X = np.random.default_rng(29).uniform(-2.0, 2.0, size=(60, dim))
        X[7] = X[3]
        factor = 2.0 if double else 1.0
        expected = np.ones((60, 60))
        for i in range(60):
            for j in range(i + 1, 60):
                v = 1.0
                for c in range(dim):
                    v *= float(law.kernel(abs(factor * X[i, c] - factor * X[j, c])))
                expected[i, j] = expected[j, i] = v
        got = approx.exact_gram(law, X, double=double).values
        assert np.array_equal(got, expected)

    def test_numeric_kernel_is_integrated_once_per_distinct_gap(self, monkeypatch):
        # Weibull(1, 0.4) has no closed tail: its coordinate gaps take the
        # cumulative one, a single ladder for the law and no per-value
        # quadrature, within 1e-12 of that quadrature; equal gaps get equal
        # bits, whichever pairs and coordinates share them, and k(0) = 1
        calls = []
        numeric = kernels.eval_kernel_numeric
        monkeypatch.setattr(kernels, "eval_kernel_numeric",
                            lambda d, r: calls.append(r) or numeric(d, r))
        kernels._ladder.cache_clear()
        law = dist.Weibull(1.0, 0.4)
        X = np.array([[0.0, 0.0], [0.5, 1.0], [1.0, 0.5], [1.5, 1.5], [0.5, 0.0]])
        K = approx.exact_gram(KernelSpec(law), X).values
        assert calls == [] and kernels._ladder.cache_info().misses == 1
        k = {0.0: 1.0, 0.5: numeric(law, 0.5), 1.0: numeric(law, 1.0), 1.5: numeric(law, 1.5)}
        gaps = np.abs(X[:, None, :] - X[None, :, :])
        np.testing.assert_allclose(K, np.prod(np.vectorize(k.get)(gaps), axis=-1), rtol=0.0,
                                   atol=1e-12)
        half = KernelSpec(law).kernel(0.5)
        assert K[1, 2] == half * half and K[0, 4] == half * 1.0
        assert np.array_equal(np.diag(K), np.ones(5))

    def test_kernel_matrix_validation(self):
        with pytest.raises(ValueError):
            approx.KernelMatrix(np.array([[1.0, 0.2], [0.3, 1.0]]))
        with pytest.raises(ValueError):
            approx.KernelMatrix(np.zeros((2, 3)))


class TestExpectedSqFrobenius:
    def K_half(self):
        return approx.KernelMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]))

    def test_frozen_complex(self):
        got = approx.expected_sq_frobenius(fm.FOURIER_COMPLEX, self.K_half(), 1)
        assert got == pytest.approx(1.5, rel=1e-12, abs=0.0)

    def test_frozen_binning(self):
        got = approx.expected_sq_frobenius(fm.BINNING, self.K_half(), 1)
        assert got == pytest.approx(0.5, rel=1e-12, abs=0.0)

    def test_frozen_real(self):
        X = np.array([[0.0], [1.0]])
        K = approx.exact_gram(LAPLACE, X)
        K2 = approx.exact_gram(LAPLACE, X, double=True)
        got = approx.expected_sq_frobenius(fm.FOURIER_REAL, K, 1, k2=K2)
        assert got == pytest.approx(3.0 - math.exp(-2.0), rel=1e-12, abs=0.0)

    def test_all_ones_binning_zero(self):
        K = approx.KernelMatrix(np.ones((3, 3)))
        for d in (1, 7):
            assert approx.expected_sq_frobenius(fm.BINNING, K, d) == pytest.approx(0.0)

    def test_one_over_d_scaling(self):
        K = self.K_half()
        a = approx.expected_sq_frobenius(fm.FOURIER_COMPLEX, K, 1)
        b = approx.expected_sq_frobenius(fm.FOURIER_COMPLEX, K, 2)
        assert a == pytest.approx(2.0 * b, rel=1e-12, abs=0.0)

    def test_real_requires_k2(self):
        with pytest.raises(ValueError):
            approx.expected_sq_frobenius(fm.FOURIER_REAL, self.K_half(), 1)

    def test_matches_sum_of_variances(self):
        rng = np.random.default_rng(17)
        X = rng.uniform(-1, 1, size=(8, 1))
        K = approx.exact_gram(LAPLACE, X)
        K2 = approx.exact_gram(LAPLACE, X, double=True)
        for kind in fm.KINDS:
            k2arg = K2 if kind == fm.FOURIER_REAL else None
            expect = approx.expected_sq_frobenius(kind, K, 3, k2=k2arg)
            total = 0.0
            for i in range(8):
                for j in range(8):
                    total += fm.variance_theory(kind, K.values[i, j], K2.values[i, j])
            assert expect == pytest.approx(total / 3.0, rel=1e-12, abs=0.0)

    def test_binning_dominates_complex(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            X = rng.uniform(-2, 2, size=(6, 2))
            K = approx.exact_gram(KernelSpec(dist.ShiftedPoisson(2.0)), X)
            b = approx.expected_sq_frobenius(fm.BINNING, K, 4)
            c = approx.expected_sq_frobenius(fm.FOURIER_COMPLEX, K, 4)
            assert b <= c
            if np.any(K.values < 1.0):
                assert b < c


class TestEmpiricalError:
    def make(self, kind, copies=4):
        return fm.FeatureMapConfig(
            kind=kind,
            kernel=LAPLACE if kind == fm.BINNING else fm.TensorCauchy(1.0),
            dim=1,
            copies=copies,
            seed=808,
        )

    @staticmethod
    def reference(X):
        return approx.ErrorReference(LAPLACE, X, fm.BINNING)

    def test_monte_carlo_matches_theory(self):
        X = np.random.default_rng(31).uniform(-1, 1, size=(12, 1))
        for kind in fm.KINDS:
            stats = approx.empirical_error(
                approx.ErrorReference(LAPLACE, X, kind), self.make(kind), trials=400)
            # statistically sound bound plus a sanity cap
            assert abs(stats.mean_sq - stats.theory_sq) <= 4.0 * stats.stderr_sq, kind
            assert stats.mean_sq == pytest.approx(stats.theory_sq, rel=0.10, abs=0.0), kind

    def test_relative_forms(self):
        X = np.random.default_rng(37).uniform(-1, 1, size=(6, 1))
        stats = approx.empirical_error(self.reference(X), self.make(fm.BINNING), trials=50)
        assert stats.theory_rel == pytest.approx(
            math.sqrt(stats.theory_sq / stats.norm_k_sq), rel=1e-12, abs=0.0
        )
        assert stats.empirical_rel == pytest.approx(
            math.sqrt(stats.mean_sq / stats.norm_k_sq), rel=1e-12, abs=0.0
        )

    def test_deterministic(self):
        X = np.random.default_rng(41).uniform(-1, 1, size=(5, 1))
        a = approx.empirical_error(self.reference(X), self.make(fm.BINNING), trials=20)
        b = approx.empirical_error(self.reference(X), self.make(fm.BINNING), trials=20)
        assert a == b

    def test_gaussian_baseline_runs(self):
        X = np.random.default_rng(43).normal(size=(8, 2))
        law = fm.IsotropicNormal(1.0)
        cfg = fm.FeatureMapConfig(
            kind=fm.FOURIER_REAL, kernel=law, dim=2, copies=8, seed=99
        )
        stats = approx.empirical_error(approx.ErrorReference(law, X, cfg.kind), cfg, trials=200)
        assert stats.mean_sq == pytest.approx(stats.theory_sq, rel=0.15, abs=0.0)

    def test_trials_validation(self):
        X = np.zeros((2, 1))
        with pytest.raises(ValueError):
            approx.empirical_error(self.reference(X), self.make(fm.BINNING), trials=0)

    def test_reference_kind_must_match(self):
        X = np.zeros((2, 1))
        with pytest.raises(ValueError, match="scores binning maps, got fourier_real"):
            approx.empirical_error(self.reference(X), self.make(fm.FOURIER_REAL), trials=1)
