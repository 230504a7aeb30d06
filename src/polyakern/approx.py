"""Exact kernel matrices and approximation-error accounting.

exact_gram builds K one way for a KernelSpec and a Fourier frequency law,
from the object's one-dimensional ``kernel``, as a product over coordinates.

For D averaged copies the expected squared Frobenius distance between the
feature-map Gram matrix and the exact kernel matrix is a closed form in K:

    complex Fourier  (n^2 - ||K||_F^2) / D
    real Fourier     (n^2 + (1/2) sum_ij k(2(x_i-x_j)) - ||K||_F^2) / D
    binning          (sum_ij K_ij - ||K||_F^2) / D

Since every entry of K lies in [0, 1], the binning expectation never
exceeds the complex-Fourier one, strictly so once any off-diagonal entry
is below 1. empirical_error verifies the formulas by Monte Carlo over
independently seeded maps, against an ErrorReference that holds K.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import feature_maps as fm
from .polya_kernels import KernelSpec
from .rng import derived_seed


@dataclass(frozen=True)
class KernelMatrix:
    """A symmetric kernel matrix; exact matrices have unit diagonal and
    entries in [0, 1], which exact_gram guarantees by construction."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError(f"kernel matrix must be square, got shape {v.shape}")
        if not np.allclose(v, v.T, atol=1e-12, rtol=0.0):
            raise ValueError("kernel matrix must be symmetric")
        object.__setattr__(self, "values", v)

    @property
    def n(self):
        return self.values.shape[0]


def _as_matrix(K):
    if isinstance(K, KernelMatrix):
        return K.values
    return KernelMatrix(K).values


def exact_gram(kernel, X, double=False):
    """K_ij = prod_j kernel.kernel(|x_ij - x_kj|), in coordinate order, with
    one call per block of rows against the columns from its first row on
    (at most fm.BLOCK_CELLS / 8 differences), so each pair is evaluated
    once. With double=True, at 2(x_i - x_j) (the real-map correction)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"points must be a 2-d array, got shape {X.shape}")
    if not isinstance(kernel, (KernelSpec,) + fm.FREQUENCY_LAWS):
        raise ValueError(f"unsupported kernel object {kernel!r}")
    n, dim = X.shape
    F = (2.0 * X if double else X).T
    out = np.empty((n, n))
    for lo, hi in fm.row_blocks(n, 8 * n * dim):
        block = np.prod(kernel.kernel(F[:, lo:hi, None] - F[:, None, lo:]), axis=0)
        out[lo:hi, lo:] = block
        out[lo:, lo:hi] = block.T
    return KernelMatrix(out)


def expected_sq_frobenius(kind, K, copies, k2=None):
    """Exact E || (1/D) sum_l Ktilde^(l) - K ||_F^2 for D = copies."""
    if kind not in fm.KINDS:
        raise ValueError(f"kind must be one of {fm.KINDS}, got {kind!r}")
    if not (isinstance(copies, int) and copies >= 1):
        raise ValueError(f"copies must be an integer >= 1, got {copies!r}")
    K = _as_matrix(K)
    n = K.shape[0]
    fro_sq = float(np.sum(K * K))
    if kind == fm.FOURIER_COMPLEX:
        return (n * n - fro_sq) / copies
    if kind == fm.BINNING:
        return (float(np.sum(K)) - fro_sq) / copies
    if k2 is None:
        raise ValueError("the real Fourier formula needs the doubled-difference matrix")
    k2 = _as_matrix(k2)
    return (n * n + 0.5 * float(np.sum(k2)) - fro_sq) / copies


@dataclass(frozen=True)
class ErrorStats:
    """Monte Carlo summary of || Ktilde - K ||_F^2 against its expectation."""

    kind: str
    copies: int
    trials: int
    mean_sq: float  # Monte Carlo mean of the squared Frobenius error
    stderr_sq: float  # standard error of that mean
    theory_sq: float  # exact expectation
    norm_k_sq: float  # ||K||_F^2

    @property
    def theory_rel(self):
        """Theoretical relative error: sqrt(E[..] / ||K||_F^2)."""
        return math.sqrt(self.theory_sq / self.norm_k_sq)

    @property
    def empirical_rel(self):
        return math.sqrt(self.mean_sq / self.norm_k_sq)

    @property
    def stderr_rel(self):
        """Delta-method standard error of empirical_rel."""
        if self.mean_sq <= 0.0:
            return 0.0
        return self.stderr_sq / (2.0 * math.sqrt(self.mean_sq * self.norm_k_sq))


class ErrorReference:
    """The exact kernel matrix K of a point set, built once, against which
    maps of one kind are scored: the squared Frobenius errors of their Gram
    matrices on the points, summarized against the closed-form expectation."""

    def __init__(self, kernel, X, kind):
        self.kind = kind
        self.X = np.asarray(X, dtype=float)
        self.K = exact_gram(kernel, self.X)
        self.k2 = exact_gram(kernel, self.X, double=True) if kind == fm.FOURIER_REAL else None

    def sq_error(self, batch):
        """|| Ktilde - K ||_F^2 for a featurized batch of the points."""
        if self.kind == fm.FOURIER_COMPLEX:
            # the complex map's error counts the imaginary part too
            diff = fm.complex_gram(batch) - self.K.values
            return float(np.sum(diff.real * diff.real + diff.imag * diff.imag))
        diff = fm.gram(batch) - self.K.values
        return float(np.sum(diff * diff))

    def stats(self, copies, maps):
        """Summary of the squared Frobenius errors of the points featurized
        by each of ``maps`` (of ``copies`` copies), reduced in trial order."""
        errs = [self.sq_error(fm.featurize(state, self.X)) for state in maps]
        trials = len(errs)
        stderr = float(np.std(errs, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
        return ErrorStats(
            kind=self.kind, copies=copies, trials=trials, mean_sq=float(np.mean(errs)),
            stderr_sq=stderr,
            theory_sq=expected_sq_frobenius(self.kind, self.K, copies, k2=self.k2),
            norm_k_sq=float(np.sum(self.K.values * self.K.values)),
        )


def empirical_error(reference, cfg, trials):
    """Distribution of the squared Frobenius error against ``reference``
    over ``trials`` maps of ``cfg``, trial t seeded from (cfg.seed, t)."""
    if not (isinstance(trials, int) and trials >= 1):
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    if cfg.kind != reference.kind:
        raise ValueError(f"the reference scores {reference.kind} maps, got {cfg.kind}")
    return reference.stats(cfg.copies, (
        fm.build_map(replace(cfg, seed=derived_seed(cfg.seed, (t,)))) for t in range(trials)
    ))
