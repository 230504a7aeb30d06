"""Ridge regression and one-vs-all classification on random feature maps.

The solver always works in whichever space gives the smaller symmetric
positive-definite system: the feature-count-sized normal equations when the
map has no more columns than there are training points, and the
point-count-sized dual system otherwise.  Targets are centered for
regression (the mean is restored at prediction time); classification fits
uncentered ±1 indicator targets, one model per class, and predicts the
class with the largest score.

``fit_path`` fits one batch for several penalties, sharing the feature
matrix and its Gram matrix; ``fit`` is its one-penalty case.

``cross_validate`` grid-searches a binning map's distribution shape, its
area parameter τ, and the ridge penalty λ by k-fold validation, breaking
exact score ties toward the larger λ and then the larger τ.  It draws one
unit-scale map per (shape, fold): τ only rescales that map's spacings and
offsets, and λ does not touch the features, so each (shape, τ, fold)
featurizes its rows once and fits every λ from one Gram matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Tuple

import numpy as np
import scipy.linalg
import scipy.sparse

from .distributions import Distribution, Gamma, Nakagami, ShiftedPoisson, Weibull
from .errors import NumericalError
from .feature_maps import (
    BINNING,
    FeatureMapConfig,
    build_map,
    featurize,
    rescale_map,
    to_sparse,
)
from .polya_kernels import KernelSpec
from .rng import RandomStream, default_seed, derived_seed

RESIDUAL_TOLERANCE = 1e-8

#: Ridge penalties searched by cross-validation.
LAMBDA_GRID: Tuple[float, ...] = (0.01, 0.1, 1.0)

#: Log grid for the area parameter τ: ten values with successive ratio 1.905
#: starting at 0.12, spanning roughly 0.12 … 40.
TAU_GRID: Tuple[float, ...] = tuple(0.12 * 1.905 ** k for k in range(10))

_SHAPE_FAMILIES: dict[str, Callable[[float], Distribution]] = {
    "shifted_poisson": lambda s: ShiftedPoisson(mu=s),
    "gamma": lambda s: Gamma(s=s, theta=1.0),
    "nakagami": lambda s: Nakagami(m=s, omega=1.0),
    "weibull": lambda s: Weibull(theta=1.0, alpha=s),
}

_SHAPE_GRIDS: dict[str, Tuple[float, ...]] = {
    "shifted_poisson": tuple(0.5 * k for k in range(1, 9)),
    "gamma": tuple(0.5 * k for k in range(1, 7)),
    "nakagami": tuple(0.5 * k for k in range(1, 7)),
    "weibull": (1.0, 2.0, 3.0),
}


def shape_grid(family: str) -> Tuple[float, ...]:
    """Default half-integer shape grid searched for ``family``."""
    try:
        return _SHAPE_GRIDS[family]
    except KeyError:
        raise ValueError(
            f"no shape grid for family {family!r}; expected one of "
            f"{sorted(_SHAPE_GRIDS)}"
        ) from None


# ---------------------------------------------------------------------------
# Datasets


@dataclass(frozen=True)
class Dataset:
    """Points with targets and a train/test index split."""

    points: np.ndarray
    targets: np.ndarray
    train_idx: np.ndarray
    test_idx: np.ndarray

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        targets = np.asarray(self.targets, dtype=float)
        if points.ndim != 2:
            raise ValueError(f"points must be a 2-D array, got shape {points.shape}")
        if targets.shape != (points.shape[0],):
            raise ValueError(
                f"targets must have one entry per point: {targets.shape} "
                f"vs {points.shape[0]} points"
            )
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "targets", targets)
        for name in ("train_idx", "test_idx"):
            idx = np.asarray(getattr(self, name), dtype=int)
            if idx.size and (idx.min() < 0 or idx.max() >= points.shape[0]):
                raise ValueError(f"{name} out of range")
            object.__setattr__(self, name, idx)

    @classmethod
    def full(cls, points, targets) -> "Dataset":
        """Dataset using every point for training; the test side is empty."""
        points = np.asarray(points, dtype=float)
        n = points.shape[0] if points.ndim == 2 else 0
        return cls(points, targets, np.arange(n), np.empty(0, dtype=int))

    @property
    def train_points(self) -> np.ndarray:
        return self.points[self.train_idx]

    @property
    def train_targets(self) -> np.ndarray:
        return self.targets[self.train_idx]

    @property
    def test_points(self) -> np.ndarray:
        return self.points[self.test_idx]

    @property
    def test_targets(self) -> np.ndarray:
        return self.targets[self.test_idx]


def train_test_split(points, targets, seed: int, test_fraction: float = 0.2) -> Dataset:
    """Deterministic shuffled split, four training points to one test point
    by default."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError("points must be a 2-D array")
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must lie strictly between 0 and 1")
    n = points.shape[0]
    n_test = int(round(n * test_fraction))
    perm = np.argsort(RandomStream(seed).uniform(n))
    return Dataset(
        points, targets, np.sort(perm[n_test:]), np.sort(perm[:n_test])
    )


# ---------------------------------------------------------------------------
# Ridge fitting


@dataclass(frozen=True)
class RidgeModel:
    """Linear model over feature-map columns.

    ``weights`` has one entry per feature column seen at training time;
    a bin unseen in training has the sentinel index ``len(weights)`` and
    contributes zero score.
    """

    state: object
    weights: np.ndarray
    lam: float
    y_mean: float
    route: str  # "primal" or "dual"


def _feature_matrix(batch):
    """Feature matrix Z with one column per point (features × points)."""
    if batch.kind == BINNING:
        return to_sparse(batch)
    return batch.data


def _solve_spd(A, b):
    try:
        factor = scipy.linalg.cho_factor(A, check_finite=False)
        x = scipy.linalg.cho_solve(factor, b, check_finite=False)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise NumericalError(f"SPD factorization failed: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise NumericalError("linear solve produced non-finite values")
    residual = np.linalg.norm(A @ x - b)
    if residual > RESIDUAL_TOLERANCE * max(1.0, np.linalg.norm(b)):
        raise NumericalError(
            f"linear-system residual {residual:.3e} exceeds tolerance"
        )
    return x


def _dense(M):
    return np.asarray(M.todense()) if scipy.sparse.issparse(M) else np.asarray(M)


def _ridge_systems(M, lams):
    """Yield M + λI for each λ in turn, written into M itself: the diagonal
    is reset from a saved copy, so no second matrix of M's size is made."""
    diag = M.diagonal().copy()
    for lam in lams:
        np.fill_diagonal(M, diag + lam)
        yield M


def fit_path(state, batch, y, lams, center: bool = True) -> Tuple[RidgeModel, ...]:
    """Ridge-fit targets ``y`` against featurized points ``batch`` once per
    penalty in ``lams``, in that order.

    The feature matrix and the Gram matrix of the smaller of the two
    regularized normal-equation systems are built once; each penalty then
    gets its own Cholesky solve with a residual check.
    """
    lams = tuple(float(lam) for lam in lams)
    for lam in lams:
        if not lam > 0.0:
            raise ValueError(f"ridge penalty must be positive, got {lam}")
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.shape[0] != batch.n:
        raise ValueError(
            f"targets must be 1-D with one entry per point ({batch.n}), "
            f"got shape {y.shape}"
        )
    if not np.all(np.isfinite(y)):
        raise NumericalError("targets contain non-finite values")
    Z = _feature_matrix(batch)
    if np.iscomplexobj(Z):
        raise ValueError(
            "complex feature maps are for spectral analysis; fit on the "
            "real map or the binning map"
        )

    y_mean = float(y.mean()) if center else 0.0
    y_c = y - y_mean
    p, n = Z.shape

    if p <= n:
        b = np.asarray(Z @ y_c).ravel()
        systems = _ridge_systems(_dense(Z @ Z.T), lams)
        weights = [_solve_spd(A, b) for A in systems]
        route = "primal"
    else:
        systems = _ridge_systems(_dense(Z.T @ Z), lams)
        weights = [np.asarray(Z @ _solve_spd(G, y_c)).ravel() for G in systems]
        route = "dual"

    return tuple(
        RidgeModel(state=state, weights=w, lam=lam, y_mean=y_mean, route=route)
        for w, lam in zip(weights, lams)
    )


def fit(state, batch, y, lam: float, center: bool = True) -> RidgeModel:
    """Ridge-fit targets ``y`` against featurized points ``batch``: the
    one-penalty case of ``fit_path``."""
    return fit_path(state, batch, y, (lam,), center=center)[0]


def _scores(model: RidgeModel, batch) -> np.ndarray:
    """Scores of featurized points: ⟨weights, z(x)⟩ plus the target mean."""
    w = model.weights
    p = w.shape[0]
    if batch.kind == BINNING:
        idx = batch.indices  # copies × n
        seen = idx < p
        contrib = np.where(seen, w[np.minimum(idx, p - 1)], 0.0)
        scores = contrib.sum(axis=0) / np.sqrt(batch.copies)
    else:
        scores = w @ batch.data
    return scores + model.y_mean


def predict(model: RidgeModel, X) -> np.ndarray:
    """Scores ⟨weights, z(x)⟩ plus the restored target mean."""
    return _scores(model, featurize(model.state, X))


def fit_regression(X, y, cfg: FeatureMapConfig, lam: float,
                   center: bool = True) -> RidgeModel:
    """Build the map, featurize ``X``, and ridge-fit in one step."""
    state = build_map(cfg)
    batch = featurize(state, X)
    return fit(state, batch, y, lam, center=center)


# ---------------------------------------------------------------------------
# One-vs-all classification


@dataclass(frozen=True)
class OneVsAllModel:
    """One ridge model per class, fitted on ±1 indicator targets; the
    models share one feature map state."""

    classes: Tuple[float, ...]
    models: Tuple[RidgeModel, ...]


def _one_vs_all_path(state, batch, labels, lams) -> Tuple[OneVsAllModel, ...]:
    """One-vs-all classifiers on one featurized batch, one per penalty."""
    classes = tuple(float(c) for c in np.unique(labels))
    if len(classes) < 2:
        raise ValueError(
            f"one-vs-all needs at least two classes, got {len(classes)}"
        )
    paths = [
        fit_path(state, batch, np.where(labels == c, 1.0, -1.0), lams, center=False)
        for c in classes
    ]
    return tuple(OneVsAllModel(classes=classes, models=models) for models in zip(*paths))


def one_vs_all(train: Dataset, cfg: FeatureMapConfig, lam: float) -> OneVsAllModel:
    """Fit one uncentered ridge model per class; all share one feature map."""
    state = build_map(cfg)
    batch = featurize(state, train.train_points)
    return _one_vs_all_path(state, batch, train.train_targets, (lam,))[0]


def _class_scores(clf: OneVsAllModel, batch) -> np.ndarray:
    """Per-class scores of featurized points, one column per class."""
    return np.column_stack([_scores(m, batch) for m in clf.models])


def _labels(clf: OneVsAllModel, batch) -> np.ndarray:
    """Class labels with the largest one-vs-all score on featurized points."""
    scores = _class_scores(clf, batch)
    return np.asarray(clf.classes, dtype=float)[np.argmax(scores, axis=1)]


def decision_scores(clf: OneVsAllModel, X) -> np.ndarray:
    """Per-class scores, one column per class in ``clf.classes`` order; the
    points are featurized once, through the map the models share."""
    return _class_scores(clf, featurize(clf.models[0].state, X))


def predict_labels(clf: OneVsAllModel, X) -> np.ndarray:
    """Class labels with the largest one-vs-all score."""
    return _labels(clf, featurize(clf.models[0].state, X))


# ---------------------------------------------------------------------------
# Cross-validated selection of (shape, τ, λ)


@dataclass(frozen=True)
class CvSearchSpace:
    """Grid searched by ``cross_validate`` for a binning map."""

    family: str = "gamma"
    shapes: Tuple[float, ...] | None = None
    taus: Tuple[float, ...] = TAU_GRID
    lambdas: Tuple[float, ...] = LAMBDA_GRID
    copies: int = 64
    folds: int = 4
    seed: int = field(default_factory=default_seed)
    task: str = "regression"


@dataclass(frozen=True)
class CvResult:
    """Winning grid point plus the full score table."""

    family: str
    shape: float
    tau: float
    lam: float
    score: float
    table: Tuple[Tuple[float, float, float, float], ...]


def _is_better(candidate, incumbent) -> bool:
    """Compare (score, λ, τ) triples: lower score wins; exact score ties go
    to the larger λ, then the larger τ."""
    score, lam, tau = candidate
    inc_score, inc_lam, inc_tau = incumbent
    if score != inc_score:
        return score < inc_score
    if lam != inc_lam:
        return lam > inc_lam
    return tau > inc_tau


def _fold_scores(state, task, X_fit, y_fit, X_hold, y_hold, lams):
    """Validation score of each penalty in ``lams`` for one map and fold:
    mean-squared error for regression, error rate for classification."""
    batch = featurize(state, X_fit)  # fills the vocabulary
    hold = featurize(state, X_hold)
    if task == "regression":
        models = fit_path(state, batch, y_fit, lams)
        return [float(np.mean((_scores(m, hold) - y_hold) ** 2)) for m in models]
    classifiers = _one_vs_all_path(state, batch, y_fit, lams)
    return [float(np.mean(_labels(clf, hold) != y_hold)) for clf in classifiers]


def cross_validate(train: Dataset, space: CvSearchSpace) -> CvResult:
    """k-fold grid search over (distribution shape, τ, λ) for a binning map.

    Regression minimizes mean-squared validation error; classification
    minimizes the validation error rate.  Each (shape, fold) draws one
    binning map at unit scale, with a seed derived from ``space.seed``, the
    shape's index and the fold; every τ rescales that map (``rescale_map``)
    and every λ reuses the τ's featurized rows and Gram matrix
    (``fit_path``).  All grid points thus share common random numbers.
    Deterministic given ``space.seed``.
    """
    if space.task not in ("regression", "classification"):
        raise ValueError(f"unknown task {space.task!r}")
    if space.family not in _SHAPE_FAMILIES:
        raise ValueError(
            f"unknown family {space.family!r}; expected one of "
            f"{sorted(_SHAPE_FAMILIES)}"
        )
    shapes = space.shapes if space.shapes is not None else shape_grid(space.family)
    if not shapes or not space.taus or not space.lambdas:
        raise ValueError("search grid must be non-empty in every dimension")
    if space.folds < 2:
        raise ValueError("cross-validation needs at least two folds")

    X = train.train_points
    y = train.train_targets
    n, dim = X.shape
    if n < space.folds:
        raise ValueError(f"need at least {space.folds} points, got {n}")

    make_dist = _SHAPE_FAMILIES[space.family]
    perm = np.argsort(RandomStream(space.seed).uniform(n))
    fold_of = np.empty(n, dtype=int)
    fold_of[perm] = np.arange(n) % space.folds

    best = None  # (score, lam, tau, shape)
    rows = []
    for shape_index, shape in enumerate(shapes):
        dist = make_dist(shape)
        kernels = [KernelSpec(dist, tau=tau) for tau in space.taus]
        fold_scores = np.empty((len(kernels), len(space.lambdas), space.folds))
        for fold in range(space.folds):
            hold = fold_of == fold
            unit = build_map(FeatureMapConfig(
                kind=BINNING, kernel=KernelSpec(dist), dim=dim, copies=space.copies,
                seed=derived_seed(space.seed, (shape_index, fold)),
            ))
            for t, kernel in enumerate(kernels):
                fold_scores[t, :, fold] = _fold_scores(
                    rescale_map(unit, kernel), space.task,
                    X[~hold], y[~hold], X[hold], y[hold], space.lambdas,
                )
        for t, tau in enumerate(space.taus):
            for j, lam in enumerate(space.lambdas):
                score = float(np.mean(fold_scores[t, j]))
                rows.append((float(shape), float(tau), float(lam), score))
                key = (score, float(lam), float(tau))
                if best is None or _is_better(key, best[:3]):
                    best = (score, float(lam), float(tau), float(shape))

    score, lam, tau, shape = best
    return CvResult(family=space.family, shape=shape, tau=tau, lam=lam,
                    score=score, table=tuple(rows))
