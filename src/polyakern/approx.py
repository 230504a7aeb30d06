"""Exact kernel matrices and approximation-error accounting.

For D averaged copies the expected squared Frobenius distance between the
feature-map Gram matrix and the exact kernel matrix is a closed form in K:

    complex Fourier  (n^2 - ||K||_F^2) / D
    real Fourier     (n^2 + (1/2) sum_ij k(2(x_i-x_j)) - ||K||_F^2) / D
    binning          (sum_ij K_ij - ||K||_F^2) / D

Since every entry of K lies in [0, 1], the binning expectation never
exceeds the complex-Fourier one, strictly so once any off-diagonal entry
is below 1. empirical_error verifies the formulas by Monte Carlo over
independently seeded maps.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import feature_maps as fm
from .polya_kernels import KernelSpec, eval_kernel
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


# Most coordinate differences one block of exact_gram holds at a time.
_GRAM_BLOCK = 1 << 20


def _as_matrix(K):
    if isinstance(K, KernelMatrix):
        return K.values
    return KernelMatrix(K).values


def exact_gram(kernel, X, double=False):
    """K_ij = k(x_i - x_j), built from a KernelSpec (tensor product of
    one-dimensional evaluations) or a Fourier frequency law's kernel.
    With double=True, evaluates at 2(x_i - x_j) instead (the real-map
    correction term)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"points must be a 2-d array, got shape {X.shape}")
    n = X.shape[0]
    factor = 2.0 if double else 1.0
    out = np.ones((n, n))
    if isinstance(kernel, KernelSpec):
        for i in range(n):
            for j in range(i + 1, n):
                v = 1.0
                for a, b in zip(X[i], X[j]):
                    v *= eval_kernel(kernel, factor * (a - b))
                out[i, j] = out[j, i] = v
    elif isinstance(kernel, fm.FREQUENCY_LAWS):
        # log k of every pair in a block of rows at once, each coordinate sum
        # in the order kernel_value sums it; math.exp, not np.exp, so that
        # every entry equals kernel_value exactly
        F = factor * X
        rows = max(1, _GRAM_BLOCK // max(1, n * X.shape[1]))
        for lo in range(0, n, rows):
            logk = kernel.log_kernel(F[lo:lo + rows, None, :] - F[None, :, :])
            upper = np.arange(n) > np.arange(lo, lo + logk.shape[0])[:, None]
            v = np.fromiter(map(math.exp, logk[upper].tolist()), float)
            out[lo:lo + rows][upper] = v
            out[:, lo:lo + rows].T[upper] = v
    else:
        raise ValueError(f"unsupported kernel object {kernel!r}")
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

    @classmethod
    def from_errors(cls, kind, copies, errs, theory_sq, norm_k_sq):
        """Summary of per-trial squared Frobenius errors, in trial order."""
        trials = len(errs)
        stderr = float(np.std(errs, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
        return cls(
            kind=kind, copies=copies, trials=trials, mean_sq=float(np.mean(errs)),
            stderr_sq=stderr, theory_sq=theory_sq, norm_k_sq=norm_k_sq,
        )


def empirical_error(kernel, X, cfg, trials):
    """Distribution of the squared Frobenius error over independently
    seeded maps, reduced in trial order for reproducibility."""
    if not (isinstance(trials, int) and trials >= 1):
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    X = np.asarray(X, dtype=float)
    K = exact_gram(kernel, X)
    k2 = exact_gram(kernel, X, double=True) if cfg.kind == fm.FOURIER_REAL else None
    theory = expected_sq_frobenius(cfg.kind, K, cfg.copies, k2=k2)
    errs = np.empty(trials)
    for t in range(trials):
        trial_cfg = replace(cfg, seed=derived_seed(cfg.seed, (t,)))
        batch = fm.featurize(fm.build_map(trial_cfg), X)
        if cfg.kind == fm.FOURIER_COMPLEX:
            # the complex map's error counts the imaginary part too
            diff = fm.complex_gram(batch) - K.values
            errs[t] = float(np.sum(diff.real * diff.real + diff.imag * diff.imag))
        else:
            diff = fm.gram(batch) - K.values
            errs[t] = float(np.sum(diff * diff))
    return ErrorStats.from_errors(
        cfg.kind, cfg.copies, errs, theory, float(np.sum(K.values * K.values))
    )
