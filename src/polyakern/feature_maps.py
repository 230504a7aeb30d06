"""Random Fourier and random binning feature maps.

Each map produces D independent copies of a randomized feature whose inner
product is an unbiased estimate of the kernel; averaging the copies divides
the estimator variance by D. Per-copy variances:

    complex Fourier  1 - k(r)^2
    real Fourier     1 + k(2r)/2 - k(r)^2
    binning          k(r) - k(r)^2

The Fourier map is provided for exactly two frequency laws: independent
per-coordinate Cauchy frequencies (pairing with the tensor exponential
kernel exp(-||x-x'||_1 / sigma)) and isotropic normal frequencies (pairing
with the Gaussian kernel). The binning map accepts any KernelSpec from the
catalog: spacings are drawn from the generating law and divided by rho,
offsets are uniform within each spacing, and two points contribute to the
same feature column exactly when every coordinate lands in the same bin.
``rescale_map`` moves a binning map to another scale of the same law
without drawing again. A point whose bin index would not fit in int64 is
rejected, and so is every point on a map with a spacing that underflowed
to zero.

A binning map's vocabulary of (copy, bin tuple) -> column is filled by the
first ``featurize`` call on the map, which is the training data, and is
read-only afterwards: a bin that training never saw gets the sentinel
column ``width`` and no feature. Its keys are made and packed into plain
int64s one key entry (the copy, then one coordinate's bins) at a time, by
mixed radix over the training span of each entry, with an exact ranking
step where the spans multiply past 2**63, so filling is one sort and lookup
one ``np.searchsorted`` on integers, holding O(copies x n) int64s; a key
outside the training spans is unseen without a search.  A column is the
rank of its key among the training keys, whose leading digit is the copy.

A Fourier batch holds its map and its validated points, not its features:
they are computed when read, in dense blocks of points of at most
``BLOCK_CELLS`` cells (16 MB of doubles), so a pass over the blocks holds
one block at a time.  Sums over points, like the primal ridge system and
scoring, read the blocks; what needs every pair of points at once (the dual
ridge system, ``gram``, ``complex_gram``) reads the whole matrix, the
one-block case.  A binning batch is one sparse block; ``dense_gram`` turns
its Gram matrix into a dense array a block of rows at a time, so that only
one small block of the sparse product is held next to it.

A map draws from one stream seeded by its seed: copy l reads row l of a
block of uniforms and turns it into spacings or frequencies by the law's
ppf, so maps are deterministic, copies are independent, and enlarging D
keeps the first copies unchanged.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse as sp
from scipy.special import ndtri

from .polya_kernels import KernelSpec, format_kernel_spec
from .rng import RandomStream

FOURIER_COMPLEX = "fourier_complex"
FOURIER_REAL = "fourier_real"
BINNING = "binning"
KINDS = (FOURIER_COMPLEX, FOURIER_REAL, BINNING)


@dataclass(frozen=True)
class TensorCauchy:
    """Per-coordinate independent Cauchy frequencies with the given scale.

    Pairs with the tensor exponential kernel exp(-scale * sum_j |x_j - x'_j|);
    for exp(-r/sigma) use scale = 1/sigma.
    """

    family = "cauchy"
    scale: float

    def __post_init__(self):
        if not (math.isfinite(self.scale) and self.scale > 0.0):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")

    def ppf(self, u):
        """Frequency with upper-tail mass u, scale cot(pi u), taken from the
        nearer tail so that both tails keep their digits."""
        v = np.minimum(u, 1.0 - u)
        return np.copysign(self.scale / np.tan(math.pi * v), 0.5 - u)

    def log_kernel(self, diff):
        """log k at coordinate differences ``diff``, summed over its last axis."""
        return -self.scale * np.sum(np.abs(diff), axis=-1)

    def kernel_value(self, x, xp):
        return math.exp(self.log_kernel(_difference(x, xp)))


@dataclass(frozen=True)
class IsotropicNormal:
    """I.i.d. normal frequencies with the given standard deviation.

    Pairs with the Gaussian kernel exp(-stddev^2 ||x - x'||^2 / 2); for
    exp(-r^2/(2 sigma^2)) use stddev = 1/sigma.
    """

    family = "normal"
    stddev: float

    def __post_init__(self):
        if not (math.isfinite(self.stddev) and self.stddev > 0.0):
            raise ValueError(f"stddev must be positive and finite, got {self.stddev}")

    def ppf(self, u):
        """Frequency with upper-tail mass u."""
        return -self.stddev * ndtri(u)

    def log_kernel(self, diff):
        """log k at coordinate differences ``diff``, summed over its last axis."""
        return -0.5 * self.stddev ** 2 * np.sum(diff * diff, axis=-1)

    def kernel_value(self, x, xp):
        return math.exp(self.log_kernel(_difference(x, xp)))


FREQUENCY_LAWS = (TensorCauchy, IsotropicNormal)


def _difference(x, xp):
    return np.ravel(np.asarray(x, dtype=float) - np.asarray(xp, dtype=float))


@dataclass(frozen=True)
class FeatureMapConfig:
    """What to build: map kind, source kernel/frequency law, sizes, seed."""

    kind: str
    kernel: object
    dim: int
    copies: int
    seed: int
    # not a field, always None: perfbench/layertrace.py's _vocab_size still
    # reads it, and it goes with that read (ROADMAP item 3)
    hash_buckets = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not (isinstance(self.copies, int) and self.copies >= 1):
            raise ValueError(f"copies must be an integer >= 1, got {self.copies!r}")
        if not (isinstance(self.dim, int) and self.dim >= 1):
            raise ValueError(f"dim must be an integer >= 1, got {self.dim!r}")
        if self.kind == BINNING:
            if not isinstance(self.kernel, KernelSpec):
                raise ValueError("binning requires a KernelSpec kernel")
        else:
            if not isinstance(self.kernel, FREQUENCY_LAWS):
                raise ValueError(
                    "Fourier maps require a TensorCauchy or IsotropicNormal law"
                )


@dataclass(frozen=True)
class FourierMapState:
    cfg: FeatureMapConfig
    frequencies: np.ndarray  # copies x dim
    offsets: np.ndarray  # copies, in [0, 2*pi); None for the complex map


_KEY_BOUND = 2 ** 63  # packed keys stay below this, so they fit in int64


def _rank(values, levels):
    """The index of each value in the sorted distinct ``levels``, and
    whether the value is one of them (an absent value gets some index)."""
    pos = np.minimum(np.searchsorted(levels, values), levels.shape[0] - 1)
    return pos, levels[pos] == values


class BinVocabulary:
    """The (copy, bin tuple) -> column table of a binning map, in arrays.

    Keys come as columns, one int64 array per key entry: the copy index,
    then one bin per coordinate.  Each key is packed into one int64 by mixed
    radix, entry by entry: an entry's digit is its value less the entry's
    training minimum, and its radix is the entry's training span.  Where the
    next radix would take the packed prefix to 2**63, the prefix is first
    replaced by its rank among the training prefixes (fewer than the keys),
    and an entry whose span still does not fit is replaced by its rank among
    its training values; both are exact.  Only the sorted packed keys are
    kept, one int64 per column, for read-only lookups by ``np.searchsorted``:
    a key's column is its rank among them.
    A key outside the training span of an entry, or whose prefix or ranked
    entry training never saw, is unseen before any search.
    """

    def __init__(self):
        self.points = None  # the points whose featurize filled the table
        self._plan = []  # per key entry: lo, hi, prefix and entry ranks or None
        self._keys = np.empty(0, dtype=np.int64)  # sorted; a key's column is its rank

    def __len__(self):
        return self._keys.shape[0]

    def _pack(self, columns, fill):
        """One packed int64 per key, and which keys lie inside the training
        spans and ranks.  With ``fill`` the keys are the training keys and
        the plan of spans and ranks is made from them; otherwise it is read."""
        key = inside = None
        size = 1  # the packed prefix lies in [0, size)
        for j, entries in enumerate(columns):
            if key is None:
                key, inside = np.zeros_like(entries), np.ones(entries.shape, dtype=bool)
            if fill:
                lo, hi = (int(entries.min()), int(entries.max())) if entries.size else (0, 0)
                prefixes = levels = None
            else:
                lo, hi, prefixes, levels = self._plan[j]
                inside &= (entries >= lo) & (entries <= hi)
            digit, radix = entries - lo, hi - lo + 1  # radix: a Python int
            if size * radix >= _KEY_BOUND:
                if fill:
                    prefixes = np.unique(key)
                key, found = _rank(key, prefixes)
                inside &= found
                size = prefixes.shape[0]
            if size * radix >= _KEY_BOUND:
                if fill:
                    levels = np.unique(entries)
                digit, found = _rank(entries, levels)
                inside &= found
                radix = levels.shape[0]
            key *= radix
            key += digit
            size *= radix
            if fill:
                self._plan.append((lo, hi, prefixes, levels))
        return key, inside

    def assign(self, columns, points=None):
        """Fill the empty table with the distinct keys, keep ``points`` as
        its source, and return the column of every key: its rank among the
        distinct keys.  One sort makes runs of equal keys, and the running
        count of run starts, written over the sorted keys, is each key's."""
        if len(self):
            raise ValueError("the vocabulary is already filled")
        self._plan = []
        key = self._pack(columns, fill=True)[0]
        order = np.argsort(key)
        ranks = key[order]
        start = np.ones(key.shape[0], dtype=bool)
        np.not_equal(ranks[1:], ranks[:-1], out=start[1:])
        keys = ranks[start]
        np.cumsum(start, out=ranks)
        ranks -= 1
        key[order] = ranks
        self._keys, self.points = keys, points  # last: len(self) > 0 means filled
        return key

    def lookup(self, columns):
        """The column of every key, or ``len(self)`` for a key not in the
        table.  The table is not changed."""
        width = len(self)
        key, inside = self._pack(columns, fill=False)
        out = np.full(key.shape[0], width, dtype=np.int64)
        pos, found = _rank(key[inside], self._keys)
        out[inside] = np.where(found, pos, width)
        return out


@dataclass(frozen=True)
class BinningMapState:
    cfg: FeatureMapConfig
    spacings: np.ndarray  # copies x dim, positive
    offsets: np.ndarray  # copies x dim, 0 <= offset < spacing
    vocabulary: BinVocabulary = field(default_factory=BinVocabulary)


#: Most cells (copies × points) in one dense block of Fourier features:
#: 2**21 doubles, 16 MB (32 MB for the complex map).
BLOCK_CELLS = 2 ** 21


@dataclass(frozen=True)
class FeatureBatch:
    """Featurized points.

    Every batch carries ``width``, its number of feature columns (the
    vocabulary size for binning, the copy count for Fourier kinds), and a
    private read-only copy of its validated points.  A binning batch holds
    per-copy column indices, one sparse block.  A Fourier batch holds its
    map, and computes its dense copies x n feature matrix only when read:
    ``feature_blocks`` gives it as blocks of points of at most
    ``BLOCK_CELLS`` cells each, and ``feature_matrix`` gives it whole, the
    one-block case, built anew on each call.
    """

    kind: str
    n: int
    copies: int
    width: int
    points: np.ndarray  # n x dim, read-only
    indices: np.ndarray = None  # binning: copies x n int64
    state: FourierMapState = None  # fourier kinds


def build_map(cfg):
    """Draw the random grid/frequencies for every copy, deterministically.

    One stream gives a copies x stride block of uniforms in (0, 1), and
    copy l reads row l: for binning, dim spacings by ppf then dim offset
    fractions; for Fourier maps, dim frequencies by ppf, then (real map
    only) the phase offset."""
    d = cfg.dim
    stride = {BINNING: 2 * d, FOURIER_REAL: d + 1, FOURIER_COMPLEX: d}[cfg.kind]
    u = RandomStream(cfg.seed).uniform_open(cfg.copies * stride).reshape(-1, stride)
    if cfg.kind == BINNING:
        spacings = cfg.kernel.dist.ppf(u[:, :d]) / cfg.kernel.rho
        return BinningMapState(cfg=cfg, spacings=spacings, offsets=u[:, d:] * spacings)
    offsets = 2.0 * math.pi * u[:, d] if cfg.kind == FOURIER_REAL else None
    return FourierMapState(cfg=cfg, frequencies=cfg.kernel.ppf(u[:, :d]), offsets=offsets)


def rescale_map(state, kernel):
    """The binning map ``state`` carried over to ``kernel``, a KernelSpec of
    the same law at another scale, with an empty vocabulary.

    A spacing is a draw from the law divided by rho, and its offset is a
    uniform fraction of the spacing, so both scale by rho_old / rho_new; on
    a map built at rho = 1 this is the map ``build_map`` draws for
    ``kernel`` from the same seed, up to rounding."""
    cfg = state.cfg
    if cfg.kind != BINNING:
        raise ValueError("rescale_map applies to binning maps only")
    if not (isinstance(kernel, KernelSpec) and kernel.dist == cfg.kernel.dist):
        raise ValueError("rescale_map needs a KernelSpec of the map's own law")
    return BinningMapState(
        cfg=replace(cfg, kernel=kernel),
        spacings=state.spacings * cfg.kernel.rho / kernel.rho,
        offsets=state.offsets * cfg.kernel.rho / kernel.rho,
    )


def _check_points(state, X):
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != state.cfg.dim:
        raise ValueError(
            f"points must be n x {state.cfg.dim}, got array of shape {X.shape}"
        )
    if not np.all(np.isfinite(X)):
        raise ValueError("points must be finite, got NaN or infinite coordinates")
    return X


def _bin_columns(state, X):
    """Yield the int64 key columns of the copies x n cells, copy-major: the
    copy index, then the bin of each coordinate, each made when read."""
    if not np.all(state.spacings > 0.0):
        raise ValueError(
            "a spacing of this binning map underflowed to zero: the law "
            f"{format_kernel_spec(state.cfg.kernel)} puts mass below the "
            "smallest positive double"
        )
    yield np.repeat(np.arange(state.spacings.shape[0], dtype=np.int64), X.shape[0])
    for x, offsets, spacings in zip(X.T, state.offsets.T, state.spacings.T):
        t = x - offsets[:, None]
        t /= spacings[:, None]
        np.floor(t, out=t)
        if t.min(initial=0.0) < -2.0 ** 63 or t.max(initial=0.0) >= 2.0 ** 63:
            raise ValueError(
                "points lie too far from the origin for this map: a bin index "
                "exceeds the int64 range"
            )
        yield t.astype(np.int64).reshape(-1)


def feature_width(state):
    """The map's number of feature columns: the copy count for Fourier
    kinds, and the vocabulary size (0 until the first ``featurize``) for
    binning."""
    if state.cfg.kind != BINNING:
        return state.cfg.copies
    return len(state.vocabulary)


def featurize(state, X):
    """Map points to features.

    The points are validated here and kept.  A Fourier batch computes its
    features when they are read (``feature_blocks``, ``feature_matrix``).
    For binning, the first call on a map fills its vocabulary and keeps the
    points there: a column is the rank of its packed (copy, bins) key among
    the training keys, so copy 0's columns come first.  Later calls only
    read it; a bin it does not hold gets the sentinel index ``width`` (the
    vocabulary size), which has no column and no feature."""
    points = _check_points(state, X).copy(order="C")
    points.flags.writeable = False
    n = points.shape[0]
    cfg = state.cfg
    if cfg.kind != BINNING:
        return FeatureBatch(kind=cfg.kind, n=n, copies=cfg.copies,
                            width=feature_width(state), points=points, state=state)
    columns = _bin_columns(state, points)
    vocab = state.vocabulary
    indices = vocab.lookup(columns) if len(vocab) else vocab.assign(columns, points)
    return FeatureBatch(kind=cfg.kind, n=n, copies=cfg.copies, width=feature_width(state),
                        points=points, indices=indices.reshape(cfg.copies, n))


def _fourier_features(state, X):
    """The dense copies x len(X) Fourier features of validated points X."""
    D = state.cfg.copies
    if state.cfg.kind == FOURIER_COMPLEX:
        # exp(1j * phases) / sqrt(D), written over one complex array
        Z = 1j * (state.frequencies @ X.T)
        np.exp(Z, out=Z)
        Z /= math.sqrt(D)
        return Z
    # sqrt(2 / D) cos(phases + offsets), written over the matmul result
    Z = state.frequencies @ X.T
    Z += state.offsets[:, None]
    np.cos(Z, out=Z)
    Z *= math.sqrt(2.0 / D)
    return Z


def feature_blocks(batch):
    """Yield (start, stop, Z): the features of points start:stop as a
    feature-by-point matrix.  A binning batch is one block, ``to_sparse``'s
    matrix.  A Fourier batch is dense blocks of max(1, BLOCK_CELLS // copies)
    points, the last one partial, each computed as it is reached, so a pass
    over the blocks holds one block of features at a time."""
    if batch.kind == BINNING:
        yield 0, batch.n, to_sparse(batch)
        return
    for start, stop in row_blocks(batch.n, batch.copies):
        yield start, stop, _fourier_features(batch.state, batch.points[start:stop])


def row_blocks(n, width):
    """(start, stop) of each block of ``n`` rows of ``width`` cells: as many
    rows as fit in BLOCK_CELLS cells, at least one, the last block partial."""
    step = max(1, BLOCK_CELLS // max(width, 1))
    return [(start, min(start + step, n)) for start in range(0, n, step)]


def dense_gram(A):
    """A Aᵀ as a dense C-ordered array.  For a sparse A the array is filled
    by row blocks of at most BLOCK_CELLS / 8 entries, each one block of rows
    of A times Aᵀ, so at most one block of the sparse product (about 3 MB)
    exists at a time, and each entry sums the same products as the whole
    sparse product does."""
    if not sp.issparse(A):
        return A @ A.T
    A, At = A.tocsr(), A.T.tocsr()
    out = np.empty((A.shape[0], A.shape[0]))
    for start, stop in row_blocks(A.shape[0], 8 * A.shape[0]):
        (A[start:stop] @ At).toarray(out=out[start:stop])
    return out


def feature_matrix(batch):
    """The whole feature-by-point matrix: ``to_sparse``'s for binning, and
    for Fourier kinds all copies x n dense features at once, the one-block
    case of ``feature_blocks``, computed on every call."""
    if batch.kind == BINNING:
        return to_sparse(batch)
    return _fourier_features(batch.state, batch.points)


def _incidence(batch, value):
    """Sparse width x n CSC matrix with ``value`` for every copy that puts a
    point in a column; sentinel (unseen-bin) entries are dropped.  A
    point's columns, read copy by copy, strictly ascend, since a column's
    leading key digit is its copy, so the matrix is canonical as built."""
    seen = batch.indices < batch.width  # copies x n
    indptr = np.concatenate([[0], np.cumsum(seen.sum(axis=0))])
    rows = batch.indices.T[seen.T]
    return sp.csc_matrix((np.full(rows.shape[0], value), rows, indptr),
                         shape=(batch.width, batch.n))


def to_sparse(batch):
    """Binning batch as a sparse width x n CSC matrix Z with entries 1/sqrt(D)."""
    if batch.kind != BINNING:
        raise ValueError("to_sparse applies to binning batches only")
    return _incidence(batch, 1.0 / math.sqrt(batch.copies))


def gram(batch):
    """Approximate kernel matrix Z^T Z (real part for the complex map).

    For binning, Z is ``to_sparse``'s matrix, so entry (i, j) counts the
    copies that put i and j in the same column, divided by D: the fraction
    of copies that put them in the same bin.  A sentinel (unseen-bin) index
    matches nothing."""
    if batch.kind == BINNING:
        G = dense_gram(_incidence(batch, 1.0).T)
        G /= float(batch.copies)
        return G
    Z = feature_matrix(batch)
    if batch.kind == FOURIER_COMPLEX:
        return (Z.conj().T @ Z).real
    return Z.T @ Z


def complex_gram(batch):
    """The full Hermitian Gram matrix of a complex-map batch, imaginary
    part included; this is the matrix the error expectations describe."""
    if batch.kind != FOURIER_COMPLEX:
        raise ValueError("complex_gram applies to complex Fourier batches only")
    Z = feature_matrix(batch)
    return Z.conj().T @ Z


def per_copy_inner_products(state, x, xp):
    """The D single-copy kernel estimates for one pair of points.

    Complex Fourier copies are complex numbers of unit modulus; real Fourier
    copies are 2 cos(wx+b) cos(wx'+b); binning copies are 0/1 indicators.
    """
    X = _check_points(state, np.vstack([np.atleast_1d(x), np.atleast_1d(xp)]))
    cfg = state.cfg
    if cfg.kind == FOURIER_COMPLEX:
        delta = X[1] - X[0]
        return np.exp(1j * (state.frequencies @ delta))
    if cfg.kind == FOURIER_REAL:
        phases = state.frequencies @ X.T + state.offsets[:, None]
        c = np.cos(phases)
        return 2.0 * c[:, 0] * c[:, 1]
    same = [np.equal(*column.reshape(-1, 2).T) for column in _bin_columns(state, X)]
    return np.logical_and.reduce(same).astype(float)


def variance_theory(kind, k_value, k_2r_value=None):
    """Per-copy variance of the kernel estimate at a pair with kernel value
    k_value (and value k_2r_value at the doubled difference, real map only)."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    k = float(k_value)
    if not 0.0 <= k <= 1.0:
        raise ValueError(f"kernel value must lie in [0, 1], got {k}")
    if kind == FOURIER_COMPLEX:
        return 1.0 - k * k
    if kind == BINNING:
        return k - k * k
    if k_2r_value is None:
        raise ValueError("the real Fourier variance needs the kernel at 2r")
    return 1.0 + 0.5 * float(k_2r_value) - k * k
