"""Tests for ridge regression/classification on random feature maps.

Oracles used here:
  * a dense dual-form ridge solve written directly in the tests (numpy
    ``solve`` on the Gram matrix) — predictions from the package must match
    it to 1e-6 on small problems, whichever internal solve path is taken;
  * algebraic limits of ridge regression (interpolation as the penalty
    vanishes on independent columns, shrinkage to the target mean as the
    penalty grows);
  * invariance facts (reordering training points cannot change predictions).
"""

import math
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from polyakern import feature_maps, learn
from polyakern.distributions import Gamma
from polyakern.errors import NumericalError
from polyakern.feature_maps import (
    BINNING,
    FOURIER_COMPLEX,
    FOURIER_REAL,
    FeatureMapConfig,
    TensorCauchy,
    build_map,
    feature_blocks,
    feature_matrix,
    featurize,
    gram,
)
from polyakern.polya_kernels import KernelSpec, eval_kernel
from polyakern.rng import RandomStream

LAPLACE = KernelSpec(Gamma(s=2.0, theta=1.0))


def binning_cfg(dim, copies, seed=7, tau=None):
    kernel = LAPLACE if tau is None else KernelSpec(Gamma(s=2.0, theta=1.0), tau=tau)
    return FeatureMapConfig(kind=BINNING, kernel=kernel, dim=dim, copies=copies, seed=seed)


def fourier_cfg(copies, seed=7, dim=2):
    return FeatureMapConfig(
        kind=FOURIER_REAL, kernel=TensorCauchy(scale=1.0), dim=dim, copies=copies, seed=seed
    )


def fit_on(cfg, X, y, lam, classify=False):
    state = build_map(cfg)
    batch = featurize(state, X)
    return learn.fit(state, batch, y, lam, classify=classify), batch


def dual_oracle_predictions(batch, y, lam, center=True):
    """Reference ridge predictions on the training points themselves,
    computed through the Gram matrix only."""
    K = gram(batch)
    y = np.asarray(y, dtype=float)
    mean = y.mean() if center else 0.0
    alpha = np.linalg.solve(K + lam * np.eye(K.shape[0]), y - mean)
    return K @ alpha + mean


class TestDataset:
    def test_holds_points_and_targets(self):
        X = np.arange(12).reshape(6, 2)
        y = np.arange(6)
        ds = learn.Dataset(X, y)
        assert [f.name for f in fields(ds)] == ["points", "targets"]
        assert ds.points.dtype == ds.targets.dtype == float
        np.testing.assert_array_equal(ds.points, X)
        np.testing.assert_array_equal(ds.targets, y)

    def test_split_is_four_to_one_and_partitions(self):
        X = np.arange(200.0).reshape(100, 2)
        y = np.arange(100.0)
        train, test = learn.train_test_split(X, y, seed=3)
        assert train.points.shape == (80, 2)
        assert test.points.shape == (20, 2)
        combined = np.sort(np.concatenate([train.targets, test.targets]))
        np.testing.assert_array_equal(combined, y)

    def test_split_deterministic_in_seed(self):
        X = np.arange(60.0).reshape(30, 2)
        y = np.arange(30.0)
        a, _ = learn.train_test_split(X, y, seed=11)
        b, _ = learn.train_test_split(X, y, seed=11)
        c, _ = learn.train_test_split(X, y, seed=12)
        np.testing.assert_array_equal(a.points, b.points)
        assert not np.array_equal(a.points, c.points)

    def test_split_keeps_rows_ascending_with_their_targets(self):
        X = np.arange(40.0).reshape(20, 2)
        y = np.arange(20.0)
        for side in learn.train_test_split(X, y, seed=5):
            rows = side.targets.astype(int)
            assert np.all(np.diff(rows) > 0)
            np.testing.assert_array_equal(side.points, X[rows])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            learn.Dataset(np.zeros((4, 2)), np.zeros(5))


class TestFit:
    def test_interpolates_with_tiny_penalty(self):
        # Points far apart land in distinct bins, so the single-copy binning
        # features are orthonormal basis vectors and ridge with a vanishing
        # penalty reproduces the targets.
        X = (10.0 * np.arange(8.0)).reshape(-1, 1)
        y = np.array([1.0, -2.0, 0.5, 3.0, -1.5, 2.5, 0.0, 4.0])
        model, _ = fit_on(binning_cfg(1, 1, seed=4), X, y, lam=1e-9)
        preds = learn.predict(model, X)
        np.testing.assert_allclose(preds, y, atol=1e-6)

    def test_huge_penalty_shrinks_to_target_mean(self):
        stream = RandomStream(21)
        X = stream.uniform(40).reshape(20, 2)
        y = stream.normal(20) + 3.0
        model, _ = fit_on(binning_cfg(2, 8, seed=4), X, y, lam=1e12)
        preds = learn.predict(model, X)
        np.testing.assert_allclose(preds, np.full(20, y.mean()), atol=1e-6)

    def test_unseen_bins_predict_the_target_mean(self):
        X = np.linspace(0.0, 1.0, 10).reshape(-1, 1)
        y = np.sin(X[:, 0])
        model, _ = fit_on(binning_cfg(1, 4, seed=9), X, y, lam=0.1)
        far = np.array([[1e6]])
        assert learn.predict(model, far)[0] == pytest.approx(y.mean(), abs=1e-12)

    def test_unseen_bins_predict_zero_without_centering(self):
        # a classifier's ±1 targets are not centered, so a point in no
        # training bin scores exactly 0 for every class
        X = np.linspace(0.0, 1.0, 10).reshape(-1, 1)
        labels = (X[:, 0] > 0.3).astype(float) + 5.0
        model, _ = fit_on(binning_cfg(1, 4, seed=9), X, labels, lam=0.1, classify=True)
        assert model.y_mean == 0.0
        far = np.array([[1e6]])
        np.testing.assert_array_equal(learn.decision_scores(model, far), [[0.0, 0.0]])

    def test_fourier_map_fits_and_shrinks(self):
        stream = RandomStream(33)
        X = stream.normal(30).reshape(15, 2)
        y = stream.normal(15)
        model, _ = fit_on(fourier_cfg(16, seed=2), X, y, lam=1e12)
        preds = learn.predict(model, X)
        np.testing.assert_allclose(preds, np.full(15, y.mean()), atol=1e-6)

    def test_rejects_bad_inputs(self):
        X = np.linspace(0.0, 1.0, 6).reshape(-1, 1)
        y = np.arange(6.0)
        cfg = binning_cfg(1, 2)
        state = build_map(cfg)
        batch = featurize(state, X)
        with pytest.raises(ValueError):
            learn.fit(state, batch, y, lam=0.0)
        with pytest.raises(ValueError):
            learn.fit(state, batch, y, lam=-1.0)
        with pytest.raises(ValueError):
            learn.fit(state, batch, y[:-1], lam=0.1)
        with pytest.raises(NumericalError):
            learn.fit(state, batch, np.array([1.0, 2.0, np.nan, 4.0, 5.0, 6.0]), lam=0.1)

    def test_rejects_complex_features(self):
        cfg = FeatureMapConfig(
            kind=FOURIER_COMPLEX, kernel=TensorCauchy(scale=1.0), dim=2, copies=4, seed=1
        )
        state = build_map(cfg)
        X = np.zeros((3, 2))
        batch = featurize(state, X)
        with pytest.raises(ValueError):
            learn.fit(state, batch, np.zeros(3), lam=0.1)


class TestFitPath:
    """Fits along a path of penalties: each fit builds and solves the one
    system of its own penalty."""

    LAMS = (0.01, 0.1, 1.0, 5.0)

    @pytest.mark.parametrize("make_cfg,n,route", [
        (lambda: binning_cfg(dim=2, copies=8), 30, "dual"),
        (lambda: binning_cfg(dim=1, copies=4, tau=50.0), 200, "primal"),
        (lambda: fourier_cfg(copies=12), 40, "primal"),
        (lambda: fourier_cfg(copies=40), 12, "dual"),
    ])
    @pytest.mark.parametrize("classify", [True, False])
    def test_bit_equal_to_separate_fits(self, make_cfg, n, route, classify):
        # fits one after another on one batch against fits on a fresh map
        # and batch each: the penalty added in place leaves nothing behind
        stream = RandomStream(71)
        X = stream.uniform(2 * n).reshape(n, 2)[:, : make_cfg().dim] * 3.0
        y = np.sin(2.0 * X[:, 0]) + 0.1 * stream.child(1).normal(n)
        if classify:
            y = np.digitize(y, (-0.3, 0.3)).astype(float)  # three classes
        state = build_map(make_cfg())
        batch = featurize(state, X)
        for lam in self.LAMS:
            model = learn.fit(state, batch, y, lam, classify=classify)
            single, _ = fit_on(make_cfg(), X, y, lam, classify=classify)
            assert model.lam == lam
            assert model.route == single.route == route
            assert model.y_mean == single.y_mean == (0.0 if classify else y.mean())
            assert model.classes == single.classes == ((0.0, 1.0, 2.0) if classify else None)
            assert model.weights.shape[1:] == ((3,) if classify else ())
            assert model.state is state
            assert model.weights.tobytes() == single.weights.tobytes()

    @pytest.mark.parametrize("make_cfg,n,route", [
        (lambda: binning_cfg(dim=2, copies=8), 30, "dual"),
        (lambda: fourier_cfg(copies=12), 40, "primal"),
    ])
    def test_one_gram_and_one_factorization_per_lambda(self, monkeypatch, make_cfg, n, route):
        X, labels = make_blobs(seed=95, per_class=n // 3)
        state = build_map(make_cfg())
        batch = featurize(state, X)
        grams, factorizations = [], []
        dense_gram, potrf = learn.dense_gram, learn.scipy.linalg.lapack.dpotrf

        def counting_dense_gram(A):
            G = dense_gram(A)
            grams.append(G.shape)
            return G

        def counting_potrf(A, **kwargs):
            factorizations.append(A.shape)
            return potrf(A, **kwargs)

        monkeypatch.setattr(learn, "dense_gram", counting_dense_gram)
        monkeypatch.setattr(learn.scipy.linalg.lapack, "dpotrf", counting_potrf)
        side = n if route == "dual" else batch.copies
        for i, lam in enumerate(self.LAMS, start=1):
            model = learn.fit(state, batch, labels, lam, classify=True)
            assert model.route == route
            assert model.weights.shape[1] == 3
            assert grams == factorizations == [(side, side)] * i

    @pytest.mark.parametrize("make_cfg,n,route,cells", [
        (lambda: binning_cfg(dim=2, copies=16), 120, "dual", 30 * 120),
    ])
    @pytest.mark.parametrize("classify", [True, False])
    def test_bit_equal_to_separate_fits_across_row_blocks(
            self, monkeypatch, make_cfg, n, route, cells, classify):
        # a fit whose Gram matrix is densified in 4 blocks of 30 rows against
        # the same fit densified in one block, as counted in dense_gram
        stream = RandomStream(73)
        X = stream.uniform(2 * n).reshape(n, 2) * 3.0
        y = np.sin(2.0 * X[:, 0]) + 0.1 * stream.child(1).normal(n)
        if classify:
            y = np.digitize(y, (-0.3, 0.3)).astype(float)
        row_blocks, used = feature_maps.row_blocks, []

        def recording_row_blocks(rows, width):
            used.append(row_blocks(rows, width))
            return used[-1]

        monkeypatch.setattr(feature_maps, "row_blocks", recording_row_blocks)
        whole, _ = fit_on(make_cfg(), X, y, 0.1, classify=classify)
        assert used == [[(0, n)]]
        used.clear()
        # a dense_gram block holds at most BLOCK_CELLS / 8 entries
        monkeypatch.setattr(feature_maps, "BLOCK_CELLS", 8 * cells)
        blocked, _ = fit_on(make_cfg(), X, y, 0.1, classify=classify)
        assert used == [[(start, start + 30) for start in range(0, n, 30)]]
        assert blocked.route == whole.route == route
        assert blocked.weights.tobytes() == whole.weights.tobytes()

    def test_dense_gram_by_blocks_equals_whole_product(self, monkeypatch):
        X = RandomStream(74).uniform(2 * 100).reshape(100, 2) * 3.0
        Z = feature_matrix(featurize(build_map(binning_cfg(dim=2, copies=16)), X))
        monkeypatch.setattr(feature_maps, "BLOCK_CELLS", 30 * 100)
        for A in (Z, Z.T):
            whole = (A @ A.T).toarray()
            blocked = feature_maps.dense_gram(A)
            assert blocked.flags.c_contiguous
            assert blocked.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("make_cfg", [lambda: binning_cfg(dim=2, copies=4),
                                          lambda: fourier_cfg(copies=4)],
                             ids=["binning", "fourier"])
    @pytest.mark.parametrize("classify", [True, False])
    def test_rejects_no_points(self, make_cfg, classify):
        state = build_map(make_cfg())
        batch = featurize(state, np.zeros((0, state.cfg.dim)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="at least one point, got 0"):
                learn.fit(state, batch, np.zeros(0), 0.1, classify=classify)

    def test_rejects_any_bad_penalty(self):
        X = np.linspace(0.0, 1.0, 6).reshape(6, 1)
        state = build_map(binning_cfg(dim=1, copies=4))
        batch = featurize(state, X)
        for lam in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="positive"):
                learn.fit(state, batch, X[:, 0], lam)


class TestSolveRoutes:
    """The solver picks the smaller SPD system (feature-count vs point-count);
    either route must match the Gram-matrix oracle."""

    @pytest.mark.parametrize("copies,n", [(16, 40), (64, 24)])
    def test_fourier_matches_dual_oracle(self, copies, n):
        stream = RandomStream(100 + copies)
        X = stream.normal(2 * n).reshape(n, 2)
        y = stream.normal(n)
        lam = 0.3
        model, batch = fit_on(fourier_cfg(copies, seed=5), X, y, lam)
        assert model.route == ("primal" if copies <= n else "dual")
        expected = dual_oracle_predictions(batch, y, lam)
        np.testing.assert_allclose(learn.predict(model, X), expected, atol=1e-6)

    def test_binning_matches_dual_oracle(self):
        stream = RandomStream(77)
        n = 60
        X = stream.uniform(n).reshape(n, 1) * 4.0
        y = np.cos(3.0 * X[:, 0]) + 0.1 * stream.normal(n)
        lam = 0.05
        model, batch = fit_on(binning_cfg(1, 32, seed=6), X, y, lam)
        assert model.route == "dual"  # vocabulary far exceeds 60 points
        expected = dual_oracle_predictions(batch, y, lam)
        np.testing.assert_allclose(learn.predict(model, X), expected, atol=1e-6)

    def test_uncentered_routes_agree_too(self):
        # a classifier's weight columns are uncentered fits of ±1 targets
        stream = RandomStream(78)
        n = 30
        X = stream.normal(2 * n).reshape(n, 2)
        labels = np.digitize(stream.normal(n), (-0.5, 0.5)).astype(float)
        lam = 0.7
        for copies in (8, 64):  # primal and dual respectively
            model, batch = fit_on(fourier_cfg(copies, seed=8), X, labels, lam, classify=True)
            assert model.route == ("primal" if copies <= n else "dual")
            targets = np.where(labels[:, None] == np.arange(3.0), 1.0, -1.0)
            expected = np.column_stack([
                dual_oracle_predictions(batch, t, lam, center=False) for t in targets.T
            ])
            np.testing.assert_allclose(learn.decision_scores(model, X), expected, atol=1e-6)


def whole_matrix_weights(batch, Y, lam):
    """The primal solve read off the whole feature matrix at once, as the
    solver did before it summed over blocks: Z Y, then Z Zᵀ + λI."""
    Z = feature_matrix(batch)
    B = Z @ Y
    G = Z @ Z.T
    np.fill_diagonal(G, G.diagonal() + lam)
    return learn._solve_spd(G, B), Z


class TestFeatureBlocks:
    """Fourier features are read in blocks of at most BLOCK_CELLS cells;
    the primal system sums over the blocks and scoring runs block by
    block."""

    COPIES = 16

    def data(self, n, classify):
        stream = RandomStream(170)
        X = stream.normal(2 * n).reshape(n, 2)
        y = np.sin(2.0 * X[:, 0]) + 0.1 * stream.child(1).normal(n)
        if classify:
            y = np.digitize(y, (-0.3, 0.3)).astype(float)  # three classes
        return X, y

    @staticmethod
    def targets(model, y):
        if model.classes is None:
            return y - model.y_mean
        return np.where(y[:, None] == np.asarray(model.classes), 1.0, -1.0)

    @pytest.mark.parametrize("classify", [False, True])
    def test_blocks_match_whole_matrix_solve(self, monkeypatch, classify):
        # blocks of 25 points: 25, 25 and a partial 10
        monkeypatch.setattr(feature_maps, "BLOCK_CELLS", self.COPIES * 25)
        X, y = self.data(60, classify)
        model, batch = fit_on(fourier_cfg(self.COPIES, seed=9), X, y, 0.1, classify=classify)
        assert [stop - start for start, stop, _ in feature_blocks(batch)] == [25, 25, 10]
        assert model.route == "primal"
        W, Z = whole_matrix_weights(batch, self.targets(model, y), 0.1)
        np.testing.assert_allclose(model.weights, W, rtol=0.0, atol=1e-12 * np.abs(W).max())
        expected = (W.T @ Z).T + model.y_mean
        scores = learn.decision_scores(model, X)
        np.testing.assert_allclose(scores, expected, rtol=0.0,
                                   atol=1e-12 * np.abs(expected).max())
        if classify:
            assert np.array_equal(learn.predict(model, X),
                                  np.asarray(model.classes)[np.argmax(expected, axis=1)])

    @pytest.mark.parametrize("cells", [None, COPIES * 60])  # below, and exactly one block
    @pytest.mark.parametrize("classify", [False, True])
    def test_one_block_is_bit_equal_to_whole_matrix(self, monkeypatch, cells, classify):
        if cells is not None:
            monkeypatch.setattr(feature_maps, "BLOCK_CELLS", cells)
        X, y = self.data(60, classify)
        model, batch = fit_on(fourier_cfg(self.COPIES, seed=9), X, y, 0.1, classify=classify)
        assert len(list(feature_blocks(batch))) == 1
        assert model.route == "primal"
        W, Z = whole_matrix_weights(batch, self.targets(model, y), 0.1)
        assert model.weights.tobytes() == W.tobytes()
        columns = W.T if W.ndim == 2 else [W]
        expected = [np.ascontiguousarray(w) @ Z + model.y_mean for w in columns]
        expected = np.column_stack(expected) if W.ndim == 2 else expected[0]
        assert learn.decision_scores(model, X).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kind", [FOURIER_REAL, FOURIER_COMPLEX])
    def test_block_features_match_whole_matrix(self, monkeypatch, kind):
        """Block features agree with the whole matrix to a few units in the
        last place of the phase, not bit for bit in general: the BLAS
        product W Xᵀ may round an entry differently with the number of
        points in the operand (with 16 coordinates it does here)."""
        monkeypatch.setattr(feature_maps, "BLOCK_CELLS", 64 * 30)
        X = RandomStream(171).normal(16 * 100).reshape(100, 16)
        cfg = replace(fourier_cfg(64, dim=16), kind=kind)
        state = build_map(cfg)
        batch = featurize(state, X)
        blocks = list(feature_blocks(batch))
        assert [stop - start for start, stop, _ in blocks] == [30, 30, 30, 10]
        joined = np.concatenate([Z for _, _, Z in blocks], axis=1)
        phase = np.abs(state.frequencies) @ np.abs(X).T
        if kind == FOURIER_REAL:
            phase += state.offsets[:, None]
        bound = 8.0 * np.finfo(float).eps * phase * np.sqrt(2.0 / 64)
        assert np.all(np.abs(joined - feature_matrix(batch)) <= bound)

    def test_fit_and_predict_memory_is_blocks_not_points(self):
        copies, n, dim = 128, 45000, 2  # three blocks, the last one partial
        stream = RandomStream(172)
        X = stream.normal(dim * n).reshape(n, dim)
        y = np.sin(X[:, 0]) + 0.1 * stream.child(1).normal(n)
        state = build_map(fourier_cfg(copies, dim=dim))
        tracemalloc.start()
        try:
            model = learn.fit(state, featurize(state, X), y, 0.1)
            scores = learn.predict(model, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.route == "primal" and scores.shape == (n,)
        # Alive at the peak: one block of features (BLOCK_CELLS doubles;
        # each block is dropped before the next is made); the copies²
        # matrices, at most four (the Gram sum and one block's product, or
        # the Cholesky factor and the residual check's product); and per
        # point the batch's copy of the points, the targets, the centered
        # targets and the scores with and without the mean, (dim + 4) n.
        # The whole copies x n matrix, 46 MB here, does not fit in it.
        bound = 8 * (feature_maps.BLOCK_CELLS + 4 * copies ** 2 + (dim + 4) * n)
        assert bound < 8 * copies * n
        assert peak < bound, (peak, bound)


class TestSolveSpd:
    """``_solve_spd`` factors its matrix in place and checks every column's
    residual against the matrix, read from the triangle the factor left."""

    @staticmethod
    def spd(n=6):
        M = RandomStream(81).normal(n * n).reshape(n, n)
        return M @ M.T + n * np.eye(n)

    def test_solves_and_keeps_diagonal_and_upper_triangle(self):
        A = self.spd()
        original = A.copy()
        b = RandomStream(82).normal(12).reshape(6, 2)
        x = learn._solve_spd(A, b)
        np.testing.assert_allclose(original @ x, b, atol=1e-10)
        assert np.array_equal(np.triu(A), np.triu(original))
        assert not np.array_equal(np.tril(A, -1), np.tril(original, -1))

    def test_rejects_matrix_not_positive_definite(self):
        A = self.spd()
        A[2, 2] = -1.0
        with pytest.raises(NumericalError, match="leading minor"):
            learn._solve_spd(A, np.ones(6))

    def test_infinite_diagonal_fails_the_residual_check(self):
        # potrf factors it (info 0) and potrs returns x = 0 there; the
        # residual is then inf * 0 = NaN, which must not pass
        A = self.spd()
        A[1, 1] = np.inf
        with pytest.raises(NumericalError, match="residual nan"):
            learn._solve_spd(A, np.ones(6))

    def test_residual_check_reads_the_matrix(self, monkeypatch):
        potrs = learn.scipy.linalg.lapack.dpotrs

        def perturbed_potrs(c, b, **kwargs):
            x, info = potrs(c, b, **kwargs)
            return x * (1.0 + 1e-6), info

        monkeypatch.setattr(learn.scipy.linalg.lapack, "dpotrs", perturbed_potrs)
        with pytest.raises(NumericalError, match="residual"):
            learn._solve_spd(self.spd(), np.ones((6, 2)))

    def test_residual_check_holds_where_the_norm_of_b_overflows(self, monkeypatch):
        # ||b|| overflows at |b| = 1e200: the check divides both sides by
        # max |b| first, so a wrong solution still fails it, with no warning
        potrs = learn.scipy.linalg.lapack.dpotrs
        monkeypatch.setattr(learn.scipy.linalg.lapack, "dpotrs",
                            lambda c, b, **kwargs: (1.5 * potrs(c, b, **kwargs)[0], 0))
        A = np.array([[2.0, 1.0], [1.0, 2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="^linear-system residual 7.071e\\+199 exceeds"):
                learn._solve_spd(A.copy(), np.array([1e200, -1e200]))
            monkeypatch.setattr(learn.scipy.linalg.lapack, "dpotrs", potrs)
            x = learn._solve_spd(A.copy(), np.array([1e200, -1e200]))
            assert x.tolist() == pytest.approx([1e200, -1e200], rel=1e-15, abs=0.0)

    def test_dual_fit_memory_is_one_system(self, monkeypatch):
        monkeypatch.setattr(feature_maps, "BLOCK_CELLS", 2 ** 16)
        n = 2500
        X = RandomStream(83).normal(3 * n).reshape(n, 3)
        state = build_map(binning_cfg(dim=3, copies=32))
        batch = featurize(state, X)
        tracemalloc.start()
        try:
            model = learn.fit(state, batch, np.sin(X[:, 0]), 0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.route == "dual"
        # Alive at the peak: the one n x n system, 8 n² bytes, one block of
        # rows of the sparse Gram product and O(n) vectors; a second n x n
        # matrix (a whole sparse Gram, a dense or a factor copy) does not fit.
        assert peak < 1.2 * 8 * n * n, (peak, 8 * n * n)


class TestInvariances:
    def test_training_order_does_not_change_predictions(self):
        stream = RandomStream(55)
        n = 25
        X = stream.uniform(2 * n).reshape(n, 2) * 3.0
        y = stream.normal(n)
        perm = np.argsort(stream.uniform(n))
        cfg = binning_cfg(2, 16, seed=12)
        X_eval = stream.uniform(10).reshape(5, 2) * 3.0

        model_a, _ = fit_on(cfg, X, y, lam=0.2)
        model_b, _ = fit_on(cfg, X[perm], y[perm], lam=0.2)
        np.testing.assert_allclose(
            learn.predict(model_a, X_eval), learn.predict(model_b, X_eval), atol=1e-8
        )

    def test_fit_is_deterministic(self):
        stream = RandomStream(56)
        X = stream.uniform(20).reshape(10, 2)
        y = stream.normal(10)
        preds = []
        for _ in range(2):
            model, _ = fit_on(binning_cfg(2, 8, seed=3), X, y, lam=0.1)
            preds.append(learn.predict(model, X))
        np.testing.assert_array_equal(preds[0], preds[1])


def make_blobs(seed, per_class=50):
    """Three well-separated Gaussian clusters in the plane."""
    stream = RandomStream(seed)
    centers = np.array([[0.0, 0.0], [4.0, 4.0], [-4.0, 4.0]])
    points = []
    labels = []
    for idx, center in enumerate(centers):
        pts = center + 0.4 * stream.child(idx).normal(2 * per_class).reshape(per_class, 2)
        points.append(pts)
        labels.append(np.full(per_class, float(idx)))
    return np.vstack(points), np.concatenate(labels)


def classifier(cfg, X, labels, lam=0.1):
    state = build_map(cfg)
    return learn.fit(state, featurize(state, X), labels, lam, classify=True)


class TestOneVsAll:
    def test_blob_accuracy(self):
        X, labels = make_blobs(seed=90)
        clf = classifier(binning_cfg(2, 64, seed=17), X, labels)
        assert clf.classes == (0.0, 1.0, 2.0)
        assert clf.weights.shape[1] == 3
        predicted = learn.predict(clf, X)
        assert (predicted == labels).mean() >= 0.95

    def test_binary_prediction_is_sign_of_score_difference(self):
        X, labels = make_blobs(seed=91)
        mask = labels < 2
        clf = classifier(binning_cfg(2, 32, seed=18), X[mask], labels[mask])
        scores = learn.decision_scores(clf, X[mask])
        assert scores.shape == (mask.sum(), 2)
        by_sign = np.where(scores[:, 1] > scores[:, 0], 1.0, 0.0)
        np.testing.assert_array_equal(learn.predict(clf, X[mask]), by_sign)

    @pytest.mark.parametrize("cfg", [binning_cfg(2, 32, seed=21), fourier_cfg(64, seed=22)])
    def test_decision_scores_featurize_once(self, monkeypatch, cfg):
        X, labels = make_blobs(seed=94, per_class=20)
        clf = classifier(cfg, X, labels)
        queries = X + 0.3
        # one column per class, as scoring each weight column on its own gives
        expected = np.column_stack([
            learn.predict(replace(clf, weights=np.ascontiguousarray(w), classes=None), queries)
            for w in clf.weights.T
        ])
        calls = []
        featurize = learn.featurize

        def counting_featurize(state, points):
            calls.append(len(points))
            return featurize(state, points)

        monkeypatch.setattr(learn, "featurize", counting_featurize)
        scores = learn.decision_scores(clf, queries)
        assert calls == [len(queries)]
        assert scores.shape == (len(queries), 3)
        np.testing.assert_array_equal(scores, expected)

    @pytest.mark.parametrize("cfg", [binning_cfg(2, 32, seed=23), fourier_cfg(64, seed=24),
                                     binning_cfg(1, 4, seed=25, tau=50.0)])
    def test_columns_match_single_target_fits(self, cfg):
        """Column k of a K-class fit solves the same system as an uncentered
        fit of class k's ±1 targets alone: bit for bit on binning maps (sparse
        products), to 1e-12 on Fourier maps (one BLAS matrix product against
        K vector products).  On the dual route the same holds of the dual
        coefficients, which one Cholesky solve gives bit for bit."""
        X, labels = make_blobs(seed=96, per_class=20)
        X = X[:, : cfg.dim]
        state = build_map(cfg)
        batch = featurize(state, X)
        for lam in (0.01, 0.3, 2.0):
            model = learn.fit(state, batch, labels, lam, classify=True)
            for k, c in enumerate(model.classes):
                single, alpha, route = learn._ridge_weights(
                    batch, np.where(labels == c, 1.0, -1.0), lam)
                assert model.route == route
                assert single.shape == (model.weights.shape[0],)
                if route == "dual":
                    assert model.alpha[:, k].tobytes() == alpha.tobytes()
                else:
                    assert alpha is None and model.alpha is None
                if cfg.kind == BINNING:
                    assert model.weights[:, k].tobytes() == single.tobytes()
                else:
                    np.testing.assert_allclose(model.weights[:, k], single, rtol=0.0,
                                               atol=1e-12 * np.abs(single).max())

    def test_original_label_values_are_returned(self):
        X, labels = make_blobs(seed=92, per_class=20)
        relabeled = np.choose(labels.astype(int), [3.0, 7.0, -2.0])
        clf = classifier(binning_cfg(2, 32, seed=19), X, relabeled)
        assert clf.classes == (-2.0, 3.0, 7.0)
        predicted = learn.predict(clf, X)
        assert set(np.unique(predicted)) <= {3.0, 7.0, -2.0}

    def test_relabeling_classes_relabels_predictions(self):
        X, labels = make_blobs(seed=93, per_class=20)
        cfg = binning_cfg(2, 32, seed=20)
        clf_a = classifier(cfg, X, labels)
        swapped = np.choose(labels.astype(int), [1.0, 0.0, 2.0])  # swap classes 0 and 1
        clf_b = classifier(cfg, X, swapped)
        pred_a = learn.predict(clf_a, X)
        pred_b = learn.predict(clf_b, X)
        np.testing.assert_array_equal(np.choose(pred_a.astype(int), [1.0, 0.0, 2.0]), pred_b)

    def test_single_class_rejected(self):
        X = np.zeros((5, 2))
        with pytest.raises(ValueError, match="at least two classes"):
            classifier(binning_cfg(2, 4, seed=1), X, np.ones(5))


class TestGrids:
    def test_tau_grid_frozen_values(self):
        grid = learn.TAU_GRID
        assert len(grid) == 10
        assert grid[0] == pytest.approx(0.12)
        # Successive ratio and the spot value 0.12 * 1.905**3.
        assert grid[1] / grid[0] == pytest.approx(1.905)
        assert grid[3] == pytest.approx(0.829595115, rel=1e-8, abs=0.0)

    def test_shape_grids(self):
        assert learn.shape_grid("shifted_poisson") == tuple(
            0.5 * k for k in range(1, 9)
        )
        assert learn.shape_grid("gamma") == tuple(0.5 * k for k in range(1, 7))
        assert learn.shape_grid("nakagami") == tuple(0.5 * k for k in range(1, 7))
        assert learn.shape_grid("weibull") == (1.0, 2.0, 3.0)
        with pytest.raises(ValueError):
            learn.shape_grid("cauchy")

    def test_lambda_grid(self):
        assert learn.LAMBDA_GRID == (0.01, 0.1, 1.0)


def bump_targets(X, spec, anchors, weights, noise, stream):
    """Smooth 1-D targets built as a kernel-bump mixture plus noise."""
    clean = np.zeros(len(X))
    for a, w in zip(anchors, weights):
        clean += w * np.array([eval_kernel(spec, x - a) for x in X[:, 0]])
    return clean + noise * stream.normal(len(X))


def scores_by_call(space, score_of):
    """A stand-in for ``learn._fold_scores`` that scores each penalty as
    ``score_of(shape, tau, lam)``; cross_validate calls it shape by shape,
    tau by tau, then fold by fold."""
    calls = iter([(s, tau) for s in space.shapes for tau in space.taus
                  for _ in range(space.folds)])

    def fold_scores(C, fold, y, lams):
        s, tau = next(calls)
        return [score_of(s, tau, lam) for lam in lams]

    return fold_scores


class TestCrossValidate:
    @pytest.mark.parametrize("grid,name", [
        ({"shapes": (2.0, 2.0)}, "shapes"),
        ({"taus": (1.0, 0.5, 1.0)}, "taus"),
        ({"lambdas": (0.1, 0.1)}, "lambdas"),
    ], ids=["shapes", "taus", "lambdas"])
    def test_repeated_grid_value_is_rejected(self, grid, name):
        # a repeated shape would be scored twice, on two different maps
        X = np.linspace(0.0, 1.0, 8).reshape(8, 1)
        space = learn.CvSearchSpace(**{"family": "gamma", "shapes": (2.0,), "taus": (1.0,),
                                       "lambdas": (0.1,), "copies": 4, "folds": 2, **grid})
        with pytest.raises(ValueError, match=f"search grid {name} must be non-empty and distinct"):
            learn.cross_validate(learn.Dataset(X, np.sin(X[:, 0])), space)

    def test_single_combination_grid(self):
        stream = RandomStream(61)
        X = stream.uniform(30).reshape(30, 1) * 4.0
        y = np.sin(X[:, 0])
        space = learn.CvSearchSpace(
            family="gamma", shapes=(2.0,), taus=(1.0,), lambdas=(0.1,),
            copies=8, seed=5,
        )
        result = learn.cross_validate(learn.Dataset(X, y), space)
        assert (result.shape, result.tau, result.lam) == (2.0, 1.0, 0.1)
        assert len(result.table) == 1
        assert np.isfinite(result.score)

    def test_deterministic(self):
        stream = RandomStream(62)
        X = stream.uniform(40).reshape(40, 1) * 4.0
        y = np.cos(X[:, 0])
        space = learn.CvSearchSpace(
            family="gamma", shapes=(1.0, 2.0), taus=(0.5, 2.0), lambdas=(0.01, 0.1),
            copies=8, seed=5,
        )
        ds = learn.Dataset(X, y)
        assert learn.cross_validate(ds, space) == learn.cross_validate(ds, space)

    def test_tie_breaking_prefers_larger_lambda_then_tau(self, monkeypatch):
        # (shape, tau, lambda) -> score, with every fold scoring the same
        cases = [
            (lambda s, tau, lam: 1.0, (1.0, 2.0, 0.1)),  # last: first shape
            (lambda s, tau, lam: 0.5 if tau == 0.5 else 1.0, (1.0, 0.5, 0.1)),
            (lambda s, tau, lam: 0.9 if (s, tau, lam) == (2.0, 0.5, 0.01) else 1.0,
             (2.0, 0.5, 0.01)),
            (lambda s, tau, lam: 0.5 if s == 2.0 else 1.0, (2.0, 2.0, 0.1)),
        ]
        X = np.linspace(0.0, 1.0, 8).reshape(8, 1)
        space = learn.CvSearchSpace(
            family="gamma", shapes=(1.0, 2.0), taus=(0.5, 2.0), lambdas=(0.01, 0.1),
            copies=4, folds=2, seed=5,
        )
        for score_of, winner in cases:
            monkeypatch.setattr(learn, "_fold_scores", scores_by_call(space, score_of))
            result = learn.cross_validate(learn.Dataset(X, X[:, 0]), space)
            assert (result.shape, result.tau, result.lam) == winner
            assert len(result.table) == 8

    def test_nan_scores_rank_last(self, monkeypatch):
        X = np.linspace(0.0, 1.0, 8).reshape(8, 1)
        space = learn.CvSearchSpace(
            family="gamma", shapes=(1.0, 2.0), taus=(0.5, 2.0), lambdas=(0.01, 0.1),
            copies=4, folds=2, seed=5,
        )
        score_of = lambda s, tau, lam: math.nan if s == 1.0 else 1.0  # noqa: E731
        monkeypatch.setattr(learn, "_fold_scores", scores_by_call(space, score_of))
        result = learn.cross_validate(learn.Dataset(X, X[:, 0]), space)
        assert (result.shape, result.tau, result.lam, result.score) == (2.0, 2.0, 0.1, 1.0)
        assert sum(math.isnan(row[3]) for row in result.table) == 4

    def test_recovers_injected_scale_within_one_grid_step(self):
        # Targets generated at tau = 1.0; the searched grid brackets it with
        # quarter/four-fold steps, so the winner must be one of the two
        # neighbours of the true value.
        stream = RandomStream(63)
        n = 96
        X = np.sort(stream.uniform(n)).reshape(n, 1) * 8.0
        spec = KernelSpec(Gamma(s=2.0, theta=1.0), tau=1.0)
        y = bump_targets(
            X, spec, anchors=(1.0, 3.0, 5.0, 7.0), weights=(1.0, -1.0, 1.0, -1.0),
            noise=0.05, stream=stream.child(1),
        )
        space = learn.CvSearchSpace(
            family="gamma", shapes=(2.0,), taus=(0.125, 0.5, 2.0, 8.0),
            lambdas=(0.1,), copies=48, seed=29,
        )
        result = learn.cross_validate(learn.Dataset(X, y), space)
        assert result.tau in (0.5, 2.0)

    def test_classification_scoring(self):
        X, labels = make_blobs(seed=94, per_class=24)
        space = learn.CvSearchSpace(
            family="gamma", shapes=(2.0,), taus=(1.0, 4.0), lambdas=(0.1,),
            copies=16, seed=9, task="classification",
        )
        result = learn.cross_validate(learn.Dataset(X, labels), space)
        assert len(result.table) == 2
        assert 0.0 <= result.score <= 1.0
        # Well-separated blobs: the chosen setting should classify well.
        assert result.score <= 0.2

    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_one_map_per_shape(self, monkeypatch, task):
        X, labels = make_blobs(seed=95, per_class=10)
        y = labels if task == "classification" else np.sin(X[:, 0]) + X[:, 1]
        calls = []
        real_build_map = learn.build_map

        def counting_build_map(cfg):
            calls.append(cfg)
            return real_build_map(cfg)

        monkeypatch.setattr(learn, "build_map", counting_build_map)
        space = learn.CvSearchSpace(
            family="gamma", shapes=(1.0, 2.0, 3.0), taus=(0.5, 1.0, 4.0),
            lambdas=(0.01, 0.1), copies=8, folds=3, seed=4, task=task,
        )
        result = learn.cross_validate(learn.Dataset(X, y), space)
        assert len(calls) == 3
        assert len(result.table) == 3 * 3 * 2
        assert all(cfg.kernel.rho == 1.0 for cfg in calls)
        assert len({cfg.seed for cfg in calls}) == len(calls)

    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_kernel_form_scores_match_fit_and_predict(self, task):
        # The kernel-form fold scores against fit then _predict on the same
        # rescaled map, whose vocabulary holds only the fit rows' bins; at
        # tau = 1 the fit takes the dual route, at tau = 32 the primal one.
        classify = task == "classification"
        X, labels = make_blobs(seed=96, per_class=12)
        rows = np.arange(len(X))
        # a quarter of the labels move to the next class, so that the
        # held-out error rates are not all zero
        labels = np.where(rows % 4 == 0, (labels + 1) % 3, labels)
        y = labels if classify else np.sin(X[:, 0]) + X[:, 1]
        fit_rows, hold_rows = rows[rows % 3 != 0], rows[rows % 3 == 0]
        fold = (fit_rows, hold_rows, *learn._ridge_targets(y[fit_rows], classify))
        lams = (0.01, 0.1, 1.0)
        unit = build_map(binning_cfg(dim=2, copies=8, seed=3))
        routes = set()
        for tau in (1.0, 32.0):
            kernel = KernelSpec(LAPLACE.dist, tau=tau)
            C = gram(featurize(feature_maps.rescale_map(unit, kernel), X))
            state = feature_maps.rescale_map(unit, kernel)
            batch = featurize(state, X[fit_rows])
            hold = featurize(state, X[hold_rows])
            expected = []
            for lam in lams:
                model = learn.fit(state, batch, y[fit_rows], lam, classify=classify)
                routes.add(model.route)
                preds = learn._predict(model, hold)
                loss = preds != y[hold_rows] if classify else (preds - y[hold_rows]) ** 2
                expected.append(float(np.mean(loss)))
            assert learn._fold_scores(C, fold, y, lams) == pytest.approx(
                expected, rel=1e-12, abs=0.0)
        assert routes == {"primal", "dual"}

    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_each_penalty_solves_a_fresh_system(self, monkeypatch, task):
        X, labels = make_blobs(seed=97, per_class=10)
        y = labels if task == "classification" else np.sin(X[:, 0]) + X[:, 1]
        systems, calls = [], []
        solve_spd, fold_scores = learn._solve_spd, learn._fold_scores

        def copying_solve_spd(A, b):
            systems.append(A.copy())
            return solve_spd(A, b)

        def recording_fold_scores(C, fold, y, lams):
            calls.append((C, fold[0], lams))
            return fold_scores(C, fold, y, lams)

        monkeypatch.setattr(learn, "_solve_spd", copying_solve_spd)
        monkeypatch.setattr(learn, "_fold_scores", recording_fold_scores)
        space = learn.CvSearchSpace(
            family="gamma", shapes=(1.0, 2.0), taus=(0.5, 4.0),
            lambdas=(0.01, 0.1, 1.0), copies=8, folds=3, seed=4, task=task,
        )
        learn.cross_validate(learn.Dataset(X, y), space)
        expected = [C[np.ix_(fit, fit)] + lam * np.eye(len(fit))
                    for C, fit, lams in calls for lam in lams]
        assert len(calls) == 2 * 2 * 3
        assert len(systems) == len(expected) == 2 * 2 * 3 * 3
        for A, E in zip(systems, expected):
            assert A.tobytes() == E.tobytes()

    def test_inputs_are_checked_before_any_map_is_drawn(self, monkeypatch):
        def no_build_map(cfg):
            raise AssertionError("a map was drawn")

        monkeypatch.setattr(learn, "build_map", no_build_map)
        X = np.linspace(0.0, 1.0, 8).reshape(8, 1)
        space = learn.CvSearchSpace(shapes=(1.0,), taus=(1.0,), lambdas=(0.1,),
                                    copies=4, folds=2, seed=5)
        y = X[:, 0].copy()
        with pytest.raises(ValueError, match="positive and finite, got inf"):
            learn.cross_validate(learn.Dataset(X, y), replace(space, lambdas=(0.1, math.inf)))
        with pytest.raises(ValueError, match="positive and finite, got -0.1"):
            learn.cross_validate(learn.Dataset(X, y), replace(space, lambdas=(-0.1,)))
        y[3] = math.nan
        with pytest.raises(NumericalError, match="non-finite"):
            learn.cross_validate(learn.Dataset(X, y), space)
        # one point of class 1: the fold that holds it out fits on one class
        labels = np.where(np.arange(8) == 3, 1.0, 0.0)
        with pytest.raises(ValueError, match="at least two classes, got 1"):
            learn.cross_validate(learn.Dataset(X, labels),
                                 replace(space, task="classification"))

    def test_validation_errors(self):
        X = np.zeros((8, 1))
        y = np.zeros(8)
        ds = learn.Dataset(X, y)
        with pytest.raises(ValueError):
            learn.cross_validate(ds, learn.CvSearchSpace(shapes=(), taus=(1.0,)))
        with pytest.raises(ValueError):
            learn.cross_validate(ds, learn.CvSearchSpace(family="cauchy"))
        with pytest.raises(ValueError):
            learn.cross_validate(ds, learn.CvSearchSpace(task="ranking"))
