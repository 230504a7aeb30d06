"""Ridge regression and one-vs-all classification on random feature maps.

One model type, ``RidgeModel``, serves both tasks.  The solver always
works in whichever space gives the smaller symmetric positive-definite
system: the feature-count-sized normal equations when the map has no more
columns than there are training points, and the point-count-sized dual
system otherwise.  Targets are centered for regression (the mean is
restored at prediction time).  A classifier is the same solve with K
right-hand sides: its targets are an n × K matrix of uncentered ±1 class
indicators, its weights one column per class, and it predicts the class
with the largest score (Rifkin & Klautau, "In Defense of One-Vs-All
Classification", JMLR 2004).

``fit`` builds the one system of its penalty and solves it with one
Cholesky factorization for all target columns.  The primal system sums
Z_b Z_bᵀ and Z_b Y_b over the batch's blocks of points
(``feature_blocks``), and scoring runs block by block, so a Fourier fit or
predict holds O(D² + D·block) memory, not the D × n feature matrix; the
dual system pairs every two points and reads the whole matrix.  Either
system is the one dense matrix of its size that a fit holds: a sparse
Gram is densified into it by row blocks (``dense_gram``), the penalty is
added to its diagonal in place, and the Cholesky factor overwrites it.

``cross_validate`` grid-searches a binning map's distribution shape, its
area parameter τ, and the ridge penalty λ by k-fold validation, breaking
exact score ties toward the larger λ and then the larger τ.  It draws one
unit-scale map per shape: τ only rescales that map's spacings and offsets,
so each (shape, τ) featurizes all rows once and takes their bin
co-occurrence Gram matrix C.  The binning inner product is that kernel, so
every fold and λ is scored in kernel form from C, with no per-fold
features, vocabulary or weights: the dual system on a fresh copy of
C[fit, fit] for each λ and the held-out scores C[hold, fit] α.  It holds
one n × n matrix C, one n_fit × n_fit system and the n_hold × n_fit block
at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Tuple

import numpy as np
import scipy.linalg

from .distributions import Distribution, Gamma, Nakagami, ShiftedPoisson, Weibull
from .errors import NumericalError
from .feature_maps import (
    BINNING,
    FOURIER_COMPLEX,
    FeatureMapConfig,
    build_map,
    dense_gram,
    feature_blocks,
    feature_matrix,
    featurize,
    gram,
    rescale_map,
)
from .polya_kernels import KernelSpec
from .rng import RandomStream, default_seed, derived_seed

RESIDUAL_TOLERANCE = 1e-8

#: Ridge penalties searched by cross-validation.
LAMBDA_GRID: Tuple[float, ...] = (0.01, 0.1, 1.0)

#: Log grid for the area parameter τ: ten values with successive ratio 1.905
#: starting at 0.12, spanning roughly 0.12 … 40.
TAU_GRID: Tuple[float, ...] = tuple(0.12 * 1.905 ** k for k in range(10))

#: Per family searched by cross-validation: the law at a given shape, and
#: the default shape grid.
_SHAPE_FAMILIES: dict[str, Tuple[Callable[[float], Distribution], Tuple[float, ...]]] = {
    "shifted_poisson": (lambda s: ShiftedPoisson(mu=s), tuple(0.5 * k for k in range(1, 9))),
    "gamma": (lambda s: Gamma(s=s, theta=1.0), tuple(0.5 * k for k in range(1, 7))),
    "nakagami": (lambda s: Nakagami(m=s, omega=1.0), tuple(0.5 * k for k in range(1, 7))),
    "weibull": (lambda s: Weibull(theta=1.0, alpha=s), (1.0, 2.0, 3.0)),
}


def _shape_family(family: str):
    try:
        return _SHAPE_FAMILIES[family]
    except KeyError:
        raise ValueError(
            f"unknown family {family!r}; expected one of {sorted(_SHAPE_FAMILIES)}"
        ) from None


def shape_grid(family: str) -> Tuple[float, ...]:
    """Default half-integer shape grid searched for ``family``."""
    return _shape_family(family)[1]


# ---------------------------------------------------------------------------
# Datasets


#: Share of the points ``train_test_split`` holds out for testing.
TEST_FRACTION = 0.2


@dataclass(frozen=True)
class Dataset:
    """Points (n × d) with one target each."""

    points: np.ndarray
    targets: np.ndarray

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


def train_test_split(points, targets, seed: int) -> Tuple[Dataset, Dataset]:
    """Deterministic shuffled (train, test) split, four training points to
    one test point; each side keeps its rows in their original order."""
    data = Dataset(points, targets)
    n = data.points.shape[0]
    n_test = int(round(n * TEST_FRACTION))
    perm = np.argsort(RandomStream(seed).uniform(n))
    train, test = np.sort(perm[n_test:]), np.sort(perm[:n_test])
    return (Dataset(data.points[train], data.targets[train]),
            Dataset(data.points[test], data.targets[test]))


# ---------------------------------------------------------------------------
# Ridge fitting


@dataclass(frozen=True)
class RidgeModel:
    """Linear model over feature-map columns: a regression model, or a
    one-vs-all classifier with one weight column per class.

    ``weights`` has one row per feature column seen at training time (a
    vector for regression, a matrix with one column per entry of
    ``classes`` for a classifier); a bin unseen in training has the
    sentinel index ``len(weights)`` and contributes zero score.
    """

    state: object
    weights: np.ndarray
    lam: float
    y_mean: float  # 0.0 for a classifier, whose targets are not centered
    route: str  # "primal" or "dual"
    classes: Tuple[float, ...] | None = None  # None for regression


def _solve_spd(A, b):
    """Solve A x = b for a vector or for each column of a matrix b, with
    one Cholesky factorization and a residual check on every column.

    A is a symmetric matrix, factored in place: LAPACK's upper-triangle
    ``potrf`` runs on the F-ordered view A.T, which holds A's values as A
    is symmetric, so no copy is made.  The factor overwrites A's lower
    triangle and diagonal; the diagonal is then put back from a saved
    copy, and the residual reads A from its diagonal and strict upper
    triangle, which is how this function leaves it."""
    diag = A.diagonal().copy()
    factor, info = scipy.linalg.lapack.dpotrf(A.T, overwrite_a=1, clean=0)
    # info < 0 would flag an illegal argument, which f2py's shape checks rule out
    if info != 0:
        raise NumericalError(
            f"SPD factorization failed: {info}-th leading minor of the array "
            "is not positive definite"
        )
    x, _ = scipy.linalg.lapack.dpotrs(factor, b)  # info as for potrf: always 0 here
    if not np.all(np.isfinite(x)):
        raise NumericalError("linear solve produced non-finite values")
    np.fill_diagonal(A, diag)
    n = A.shape[0]
    residual = np.linalg.norm(
        scipy.linalg.blas.dsymm(1.0, A.T, x.reshape(n, -1), lower=1) - b.reshape(n, -1),
        axis=0,
    )
    # written so that a NaN residual fails it
    if not np.all(residual <= RESIDUAL_TOLERANCE * np.maximum(1.0, np.linalg.norm(b, axis=0))):
        raise NumericalError(
            f"linear-system residual {np.max(residual):.3e} exceeds tolerance"
        )
    return x


def _penalty(lam):
    """The ridge penalty ``lam`` as a float, checked positive and finite."""
    lam = float(lam)
    if not (lam > 0.0 and math.isfinite(lam)):
        raise ValueError(f"ridge penalty must be positive and finite, got {lam}")
    return lam


def _ridge_targets(y, classify):
    """(Y, classes, y_mean): the right-hand sides, as ``fit`` describes
    them, the classes (None for regression) and the target mean."""
    if not np.all(np.isfinite(y)):
        raise NumericalError("targets contain non-finite values")
    if not classify:
        y_mean = float(y.mean())
        return y - y_mean, None, y_mean
    classes = tuple(float(c) for c in np.unique(y))
    if len(classes) < 2:
        raise ValueError(f"one-vs-all needs at least two classes, got {len(classes)}")
    return np.where(y[:, None] == np.asarray(classes), 1.0, -1.0), classes, 0.0


def fit(state, batch, y, lam: float, classify: bool = False) -> RidgeModel:
    """Ridge-fit targets ``y`` against featurized points ``batch`` with
    penalty ``lam``.

    Regression centers ``y``.  With ``classify``, ``y`` holds class labels
    and the targets are an n × K matrix of uncentered ±1 class indicators,
    one column per class in sorted order.  The smaller of the two
    regularized normal-equation systems is built and gets one Cholesky
    solve for every target column, with a residual check per column.
    """
    lam = _penalty(lam)
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.shape[0] != batch.n:
        raise ValueError(
            f"targets must be 1-D with one entry per point ({batch.n}), "
            f"got shape {y.shape}"
        )
    if batch.kind == FOURIER_COMPLEX:
        raise ValueError(
            "complex feature maps are for spectral analysis; fit on the "
            "real map or the binning map"
        )
    Y, classes, y_mean = _ridge_targets(y, classify)
    weights, route = _ridge_weights(batch, Y, lam)
    return RidgeModel(state=state, weights=weights, lam=lam, y_mean=y_mean, route=route,
                      classes=classes)


def _ridge_weights(batch, Y, lam):
    """Weights solving (Z Zᵀ + λI) W = Z Y, for a target vector or matrix Y,
    through the smaller SPD system; returns (weights, route).

    The primal system sums over the batch's blocks of points: the first
    block's Z_b Z_bᵀ and Z_b Y_b are taken as they are and later ones added,
    so one block gives the products of the whole matrix, bit for bit.  The
    dual system needs every pair of points, so it reads the whole matrix."""
    if batch.width <= batch.n:
        G = B = None
        for start, stop, Z in feature_blocks(batch):
            ZY, ZZ = np.asarray(Z @ Y[start:stop]), dense_gram(Z)
            del Z  # so that one block is alive while the next is made
            if G is None:
                G, B = ZZ, ZY
            else:
                G += ZZ
                B += ZY
            del ZZ  # so that no block's Gram is alive while the next is made
        G.flat[::len(G) + 1] += lam
        return _solve_spd(G, B), "primal"
    Z = feature_matrix(batch)
    G = dense_gram(Z.T)
    G.flat[::len(G) + 1] += lam
    return np.asarray(Z @ _solve_spd(G, Y)), "dual"


def _scores(model: RidgeModel, batch) -> np.ndarray:
    """Scores of featurized points, ⟨weights, z(x)⟩ plus the target mean:
    a vector for regression, an n × K matrix for a classifier.

    A classifier is scored a column at a time, with the vector product a
    one-target model uses (so the same bits), holding one copies × n
    temporary per class for binning; Fourier features are computed once
    per block of points and scored there by every column."""
    w = model.weights
    columns = [np.ascontiguousarray(col) for col in w.T] if w.ndim == 2 else [w]
    if batch.kind == BINNING:
        p = w.shape[0]
        idx = batch.indices  # copies × n
        seen = idx < p
        scores = [
            np.where(seen, col[np.minimum(idx, p - 1)], 0.0).sum(axis=0)
            / np.sqrt(batch.copies)
            for col in columns
        ]
    else:
        scores = [np.empty(batch.n) for _ in columns]
        for start, stop, Z in feature_blocks(batch):
            for col, out in zip(columns, scores):
                out[start:stop] = col @ Z
            del Z  # as in _ridge_weights
    scores = [s + model.y_mean for s in scores]
    return np.column_stack(scores) if w.ndim == 2 else scores[0]


def _predict(model: RidgeModel, batch) -> np.ndarray:
    """``predict`` on featurized points."""
    scores = _scores(model, batch)
    if model.classes is None:
        return scores
    return np.asarray(model.classes)[np.argmax(scores, axis=1)]


def predict(model: RidgeModel, X) -> np.ndarray:
    """Regression scores, or a classifier's labels: for each point the
    class with the largest one-vs-all score."""
    return _predict(model, featurize(model.state, X))


def decision_scores(model: RidgeModel, X) -> np.ndarray:
    """Scores with the restored target mean; for a classifier an n × K
    matrix, one column per class in ``model.classes`` order."""
    return _scores(model, featurize(model.state, X))


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


def _fold_scores(C, fold, y, lams):
    """Validation score of each penalty in ``lams`` for one map and fold:
    mean-squared error for regression, error rate for classification.

    ``C`` is the map's co-occurrence Gram matrix over all rows, and ``fold``
    is (fit rows, held-out rows) followed by ``_ridge_targets`` of the fit
    rows' targets ``y[fit]``.  Each penalty solves the dual system on a
    fresh copy of C[fit, fit], and the held-out scores are
    C[hold, fit] α + y_mean: the scores ``fit`` then ``_predict`` give on
    the same map, because a bin the fit rows never saw adds zero to both."""
    fit, hold, Y, classes, y_mean = fold
    cross = C.take(hold, 0).take(fit, 1)
    scores = []
    for lam in lams:
        A = C.take(fit, 0).take(fit, 1)
        A.flat[::len(A) + 1] += lam
        held = cross @ _solve_spd(A, Y) + y_mean
        del A  # so that the next system is made with this one gone
        if classes is None:
            loss = (held - y[hold]) ** 2
        else:
            loss = np.asarray(classes)[np.argmax(held, axis=1)] != y[hold]
        scores.append(float(np.mean(loss)))
    return scores


def cross_validate(data: Dataset, space: CvSearchSpace) -> CvResult:
    """k-fold grid search over (distribution shape, τ, λ) for a binning map.

    Regression minimizes mean-squared validation error; classification
    minimizes the validation error rate.  Each shape draws one binning map
    at unit scale, seeded from ``space.seed`` and the shape's index, so all
    grid points of a shape share common random numbers.  Each τ rescales it
    (``rescale_map``) and takes the co-occurrence Gram matrix C of all rows
    (``gram``), from which every fold and λ is scored (``_fold_scores``).
    Penalties, targets and every fold's classes are checked before any map
    is drawn.  Deterministic given ``space.seed``.
    """
    if space.task not in ("regression", "classification"):
        raise ValueError(f"unknown task {space.task!r}")
    make_dist, grid = _shape_family(space.family)
    shapes = space.shapes if space.shapes is not None else grid
    if not shapes or not space.taus or not space.lambdas:
        raise ValueError("search grid must be non-empty in every dimension")
    if space.folds < 2:
        raise ValueError("cross-validation needs at least two folds")
    lams = tuple(_penalty(lam) for lam in space.lambdas)
    X, y = data.points, data.targets
    n, dim = X.shape
    if n < space.folds:
        raise ValueError(f"need at least {space.folds} points, got {n}")

    perm = np.argsort(RandomStream(space.seed).uniform(n))
    fold_of = np.empty(n, dtype=int)
    fold_of[perm] = np.arange(n) % space.folds
    folds = []  # every row is a fit row of some fold, so all targets are checked
    for fold in range(space.folds):
        fit_rows = np.flatnonzero(fold_of != fold)
        folds.append((fit_rows, np.flatnonzero(fold_of == fold),
                      *_ridge_targets(y[fit_rows], space.task == "classification")))

    rows = []
    for shape_index, shape in enumerate(shapes):
        dist = make_dist(shape)
        unit = build_map(FeatureMapConfig(
            kind=BINNING, kernel=KernelSpec(dist), dim=dim, copies=space.copies,
            seed=derived_seed(space.seed, (shape_index,)),
        ))
        fold_scores = np.empty((len(space.taus), len(lams), space.folds))
        for t, tau in enumerate(space.taus):
            C = gram(featurize(rescale_map(unit, KernelSpec(dist, tau=tau)), X))
            for f, fold in enumerate(folds):
                fold_scores[t, :, f] = _fold_scores(C, fold, y, lams)
            del C  # so that the next C is made with this one gone
        for t, tau in enumerate(space.taus):
            for j, lam in enumerate(lams):
                score = float(np.mean(fold_scores[t, j]))
                rows.append((float(shape), float(tau), float(lam), score))

    # lowest score, NaN last; exact ties go to the larger λ, then the larger
    # τ, then the first row
    shape, tau, lam, score = min(
        rows, key=lambda r: (math.isnan(r[3]), r[3], -r[2], -r[1]))
    return CvResult(family=space.family, shape=shape, tau=tau, lam=lam,
                    score=score, table=tuple(rows))
