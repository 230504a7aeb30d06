"""Command-line interface: data ingestion, experiment orchestration, and
result emission.

Subcommands
-----------
``kernel eval|ft|table``
    Evaluate a kernel, its Fourier transform, or a CSV table of both.
``features``
    Featurize a LIBSVM dataset and write sparse ``row:value`` text plus a
    metadata sidecar.
``approx-error``
    Kernel-matrix approximation error curves: per (map kind, copy count)
    the theoretical relative Frobenius error and a Monte Carlo estimate.
``fit`` / ``predict`` / ``cv``
    Ridge regression or one-vs-all classification with a JSON model
    bundle; grid-searched (shape, τ, λ) by k-fold cross-validation.
``bench``
    End-to-end comparison of map kinds across copy counts: approximation
    error plus test MSE or accuracy.

Conventions
-----------
Kernel arguments are catalog text, ``family:key=value,...``: a binning
map's kernel spec may end in one ``;tau=V`` or ``;rho=V`` scale clause,
read by the catalog's ``key=value`` reader, and a Fourier map's frequency
law is ``cauchy:scale=V`` or ``normal:stddev=V``.
Input data is LIBSVM text (``label idx:value ...``, 1-based indices).
Attributes are normalized per column to [−1, 1] by an affine map fit on
the training rows; the map is stored in model bundles so prediction
applies the identical transform.  All randomness derives from ``--seed``
(default from ``POLYAKERN_SEED`` or a built-in constant), and reruns with
the same arguments produce byte-identical output files on the same
machine, numpy/scipy/OpenBLAS build and BLAS thread count: the BLAS sums
in an order set by its thread count.  Every failure, a bad command-line
argument or a negative or non-integer seed included, prints one
single-line JSON record ``{"error": ...}`` to stderr and exits 1; a
comma-separated number list with an empty entry is one such failure, not a
shorter list.
Trials are independent by construction (per-trial child seeds), so they
may be distributed; this implementation runs them sequentially for
reproducibility, and each output file has a single writer.
"""

from __future__ import annotations

import argparse
import base64
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Tuple

import numpy as np

from . import approx, learn
from .distributions import format_distribution, parse_distribution
from .errors import ParseError, PolyakernError
from .feature_maps import (
    BINNING,
    FOURIER_COMPLEX,
    FOURIER_REAL,
    FREQUENCY_LAWS,
    KINDS,
    FeatureMapConfig,
    build_map,
    feature_blocks,
    feature_matrix,
    feature_width,
    featurize,
)
from .polya_kernels import eval_ft, eval_kernel, format_kernel_spec, parse_kernel_spec
from .rng import RandomStream, default_seed, derived_seed

# ---------------------------------------------------------------------------
# LIBSVM ingestion


def parse_libsvm(path) -> learn.Dataset:
    """Read ``label idx:value ...`` lines into a dense dataset.

    Indices are 1-based, strictly increasing within a line, and densified
    to the maximum index seen anywhere in the file; absent indices are
    zero.  Malformed lines, repeated or out-of-order indices, NaN or
    infinite feature values, and a largest index too large to densify raise
    :class:`ParseError` carrying the 1-based line number.
    """
    labels, linenos = [], []
    rows, cols, vals = [], [], []  # one entry per stored feature value
    width = widest = 0  # the largest index and its line
    with open(path, "r", encoding="ascii") as handle:
        for lineno, raw in enumerate(handle, start=1):
            tokens = raw.split()
            if not tokens:
                continue
            try:
                label = float(tokens[0])
            except ValueError:
                raise ParseError(
                    f"label {tokens[0]!r} is not numeric", line=lineno
                ) from None
            row = len(labels)
            last = 0
            for token in tokens[1:]:
                idx_text, sep, val_text = token.partition(":")
                if not sep:
                    raise ParseError(
                        f"expected index:value, got {token!r}", line=lineno
                    )
                try:
                    idx = int(idx_text)
                    val = float(val_text)
                except ValueError:
                    raise ParseError(
                        f"could not parse index:value pair {token!r}", line=lineno
                    ) from None
                if idx <= last:
                    raise ParseError(
                        f"feature indices are 1-based, got {idx}" if idx < 1 else
                        f"feature indices must increase strictly, got {idx} "
                        f"after {last}",
                        line=lineno,
                    )
                last = idx
                cols.append(idx - 1)
                vals.append(val)
            rows.extend([row] * (len(tokens) - 1))
            if last > width:
                width, widest = last, lineno
            labels.append(label)
            linenos.append(lineno)
    if not labels:
        raise ParseError(f"no data lines in {path}")
    vals = np.array(vals, dtype=float)
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        k = bad[0]  # entries run in file order, so this is the first bad line
        raise ParseError(
            f"feature {cols[k] + 1} is {vals[k]}; values must be finite",
            line=linenos[rows[k]],
        )
    try:
        points = np.zeros((len(labels), width))
    except (ValueError, MemoryError):
        raise ParseError(
            f"feature index {width} is too large to densify", line=widest
        ) from None
    points[rows, cols] = vals
    return learn.Dataset(points, np.asarray(labels))


def write_libsvm(path, points, targets) -> None:
    """Write a dense dataset as LIBSVM text (zero entries omitted)."""
    points = np.asarray(points, dtype=float)
    targets = np.asarray(targets, dtype=float)
    with open(path, "w", encoding="ascii") as handle:
        for row, label in zip(points, targets):
            parts = [repr(float(label))]
            parts.extend(
                f"{j + 1}:{float(v)!r}" for j, v in enumerate(row) if v != 0.0
            )
            handle.write(" ".join(parts) + "\n")


# ---------------------------------------------------------------------------
# Attribute normalization


@dataclass(frozen=True)
class AffineNormalizer:
    """Per-column affine map sending the training range onto [−1, 1].

    Constant columns (zero half-width) map to 0.  Values outside the
    training range transform by the same affine map and may exceed [−1, 1].
    """

    center: np.ndarray
    halfwidth: np.ndarray

    def apply(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        safe = np.where(self.halfwidth > 0.0, self.halfwidth, 1.0)
        scaled = (X - self.center) / safe
        return np.where(self.halfwidth > 0.0, scaled, 0.0)

    def to_json(self):
        return {"center": list(self.center), "halfwidth": list(self.halfwidth)}

    @classmethod
    def from_json(cls, blob, dim):
        _expect(
            isinstance(blob, dict)
            and all(_finite_numbers(blob.get(key), dim) for key in ("center", "halfwidth"))
            and min(blob["halfwidth"]) >= 0.0,
            f"bundle normalizer needs {dim} finite centers and {dim} half-widths >= 0",
        )
        return cls(
            center=np.asarray(blob["center"], dtype=float),
            halfwidth=np.asarray(blob["halfwidth"], dtype=float),
        )


def fit_normalizer(train_points) -> AffineNormalizer:
    train_points = np.asarray(train_points, dtype=float)
    if train_points.shape[0] == 0:
        raise ValueError("cannot fit a normalizer on an empty training split")
    lo = train_points.min(axis=0)
    hi = train_points.max(axis=0)
    return AffineNormalizer(center=(lo + hi) / 2.0, halfwidth=(hi - lo) / 2.0)


def normalize(ds: learn.Dataset) -> learn.Dataset:
    """Affinely map each attribute so that its points span [−1, 1]."""
    return learn.Dataset(fit_normalizer(ds.points).apply(ds.points), ds.targets)


# ---------------------------------------------------------------------------
# Map/kernel argument plumbing


def _kernel_for_kind(kind: str, text: str):
    """A map's kernel argument: a kernel spec for binning, else a frequency
    law of the same catalog grammar."""
    if kind == BINNING:
        return parse_kernel_spec(text)
    return parse_distribution(text, {law.family: law for law in FREQUENCY_LAWS})


def _map_runs(args, kinds):
    """The (kind, kernel) pairs of ``--map``, each kind one of ``kinds`` and
    named once, and the ``--copies`` counts, nonempty, ascending, distinct.
    ``--kernel`` and ``--fourier-law`` are parsed whichever kinds run."""
    named = tuple(k.strip() for k in args.map.split(","))
    for kind in named:
        if kind not in kinds:
            raise ValueError(f"map kind {kind!r} is not one of {kinds}")
    if len(set(named)) != len(named):
        raise ValueError(f"map kinds must be distinct, got {args.map!r}")
    sizes = _ints(args.copies)
    if list(sizes) != sorted(set(sizes)):
        raise ValueError("copy counts must be nonempty, ascending, distinct")
    spec = _kernel_for_kind(BINNING, args.kernel)
    law = _kernel_for_kind(FOURIER_REAL, args.fourier_law)
    return [(kind, spec if kind == BINNING else law) for kind in named], sizes


def _map_from_args(args, dim: int) -> FeatureMapConfig:
    """The map that ``features`` and ``fit`` build from their options, on
    points of ``dim`` coordinates."""
    return FeatureMapConfig(
        kind=args.map, kernel=_kernel_for_kind(args.map, args.kernel), dim=dim,
        copies=args.copies, seed=args.seed,
    )


def _floats(text: str) -> Tuple[float, ...]:
    """The numbers of a comma-separated list; an empty entry is an error."""
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise ParseError(f"expected comma-separated numbers, got {text!r}") from None


def _ints(text: str) -> Tuple[int, ...]:
    values = _floats(text)
    if any(v != int(v) for v in values):
        raise ParseError(f"expected comma-separated integers, got {text!r}")
    return tuple(int(v) for v in values)


def _fmt(value) -> str:
    return repr(float(value))


def _emit(text: str, out) -> None:
    if out:
        Path(out).write_text(text, encoding="ascii")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Model bundles

MODEL_FORMAT = "polyakern-model-v7"
TASKS = ("regression", "binary", "multiclass")

# Bulk arrays: {"dtype": "<f8", "shape", "data": base64 of the raw bytes}.
_DTYPE = "<f8"


def _expect(ok, message) -> None:
    if not ok:
        raise ParseError(message)


def _field(bundle, key):
    """``bundle[key]``, or a :class:`ParseError` naming the missing field."""
    try:
        return bundle[key]
    except KeyError:
        raise ParseError(f"bundle has no {key!r} field") from None


def _finite_numbers(values, count=None) -> bool:
    """Whether ``values`` is a JSON list of finite numbers (``count`` of
    them); an integer too large for a float is not one."""
    return (
        isinstance(values, list)
        and (count is None or len(values) == count)
        and all(type(v) in (int, float) and abs(v) <= sys.float_info.max for v in values)
    )


def _encode_array(values) -> dict:
    values = np.ascontiguousarray(values, dtype=_DTYPE)
    return {
        "dtype": _DTYPE,
        "shape": list(values.shape),
        "data": base64.b64encode(values.tobytes()).decode("ascii"),
    }


def _decode_array(blob, name) -> np.ndarray:
    """Inverse of :func:`_encode_array`, a read-only array; anything it
    cannot read back exactly raises :class:`ParseError`."""
    try:
        dtype, shape, data = blob["dtype"], blob["shape"], blob["data"]
    except (KeyError, TypeError):
        raise ParseError(
            f"bundle {name} must be an object with dtype, shape and data"
        ) from None
    if dtype != _DTYPE:
        raise ParseError(f"bundle {name} dtype {dtype!r} is not {_DTYPE!r}")
    if not (
        isinstance(shape, list)
        and all(type(n) is int and n >= 0 for n in shape)
        and isinstance(data, str)
    ):
        raise ParseError(
            f"bundle {name} needs a list of sizes as shape and a base64 string as data"
        )
    try:
        raw = base64.b64decode(data, validate=True)
    except ValueError:
        raise ParseError(f"bundle {name} data is not valid base64") from None
    wanted = math.prod(shape) * np.dtype(dtype).itemsize
    if len(raw) != wanted:
        raise ParseError(
            f"bundle {name} data holds {len(raw)} bytes; shape {shape} of "
            f"{dtype} needs {wanted}"
        )
    return np.frombuffer(raw, dtype=dtype).reshape(shape)


def _map_metadata(cfg: FeatureMapConfig) -> dict:
    return {
        "kind": cfg.kind,
        "kernel": (format_kernel_spec if cfg.kind == BINNING
                   else format_distribution)(cfg.kernel),
        "dim": cfg.dim,
        "copies": cfg.copies,
        "seed": cfg.seed,
    }


def _config_from_metadata(meta) -> FeatureMapConfig:
    _expect(
        isinstance(meta, dict)
        and all(isinstance(meta.get(key), str) for key in ("kind", "kernel"))
        and all(type(meta.get(key)) is int for key in ("dim", "copies", "seed")),
        "bundle map must be an object with string kind and kernel and integer "
        "dim, copies and seed",
    )
    # older bundles name "hash_buckets": null; a hashed map is not read
    _expect(meta.get("hash_buckets") is None,
            f"bundle map has hash_buckets {meta.get('hash_buckets')!r}; hashed "
            "binning maps are no longer supported")
    return FeatureMapConfig(
        kind=meta["kind"],
        kernel=_kernel_for_kind(meta["kind"], meta["kernel"]),
        dim=meta["dim"],
        copies=meta["copies"],
        seed=meta["seed"],
    )


def save_model(path, task, normalizer, model) -> None:
    """Serialize a fitted model: map metadata, normalizer, the solution of
    the system ``fit`` solved (dual ``alpha``, else ``weights``) with its
    target mean, penalty and route, and the training ``points`` on the dual
    route or a binning map, whose vocabulary they must have filled."""
    state = model.state
    binning = state.cfg.kind == BINNING
    if binning and not np.array_equal(model.points, state.vocabulary.points):
        raise ValueError("a binning model must be fit on the points that filled its map")
    bundle = {
        "format": MODEL_FORMAT,
        "task": task,
        "map": _map_metadata(state.cfg),
        "normalizer": normalizer.to_json(),
    }
    if model.route == "dual" or binning:
        bundle["points"] = _encode_array(model.points)
    solution = "alpha" if model.route == "dual" else "weights"
    bundle[solution] = _encode_array(getattr(model, solution))
    bundle.update({"y_mean": model.y_mean, "lambda": model.lam, "route": model.route})
    if model.classes is not None:
        bundle["classes"] = list(model.classes)
    Path(path).write_text(json.dumps(bundle), encoding="ascii")


def load_model(path):
    """Rebuild (task, state, normalizer, (model,), classes) from a bundle.

    One ``featurize`` of the points refills a binning map's vocabulary,
    and dual weights are ``learn.dual_weights`` as in ``fit``.  A bundle
    that is not one this version writes raises :class:`ParseError`.
    """
    bundle = json.loads(Path(path).read_text(encoding="ascii"))
    found = bundle.get("format") if isinstance(bundle, dict) else None
    if found != MODEL_FORMAT:
        raise ParseError(
            f"{path} has model format {found!r}; this version reads {MODEL_FORMAT!r}"
        )
    task, classes = _field(bundle, "task"), bundle.get("classes")
    _expect(task in TASKS, f"bundle task {task!r} is not one of {list(TASKS)}")
    cfg = _config_from_metadata(_field(bundle, "map"))
    state = build_map(cfg)
    normalizer = AffineNormalizer.from_json(_field(bundle, "normalizer"), cfg.dim)
    y_mean, lam, route = (_field(bundle, key) for key in ("y_mean", "lambda", "route"))
    _expect(_finite_numbers([y_mean, lam]) and lam > 0 and route in ("primal", "dual"),
            "bundle needs a finite y_mean, a positive finite lambda, and a "
            "primal or dual route")
    _expect(classes is None if task == "regression"
            else _finite_numbers(classes) and len(set(classes)) == len(classes) >= 2,
            "bundle classes: a regression bundle has none, a classifier's are "
            "two or more distinct finite numbers")
    dual, points = route == "dual", None
    if dual or cfg.kind == BINNING:
        points = _decode_array(_field(bundle, "points"), "points")
        _expect(points.size, "bundle points are empty")
        batch = featurize(state, points)  # which checks them: n x dim, finite
    solution, rows = ("alpha", len(points)) if dual else ("weights", feature_width(state))
    values = _decode_array(_field(bundle, solution), solution).astype(float)
    wanted = (rows,) + (() if classes is None else (len(classes),))
    _expect(values.shape == wanted,
            f"bundle {solution} have shape {list(values.shape)}; its "
            f"{'points' if dual else 'map'} and classes need {list(wanted)}")
    model = learn.RidgeModel(
        state=state, lam=float(lam), y_mean=float(y_mean), route=route,
        classes=None if classes is None else tuple(map(float, classes)), points=points,
        weights=learn.dual_weights(feature_matrix(batch), values) if dual else values,
        alpha=values if dual else None,
    )
    return task, state, normalizer, (model,), model.classes


# ---------------------------------------------------------------------------
# Subcommand implementations


def _cmd_kernel(args) -> int:
    spec = parse_kernel_spec(args.kernel)
    if args.kernel_cmd == "eval":
        lines = ["r,k"]
        lines += [f"{_fmt(r)},{_fmt(eval_kernel(spec, r))}" for r in args.values]
    elif args.kernel_cmd == "ft":
        lines = ["t,ft"]
        lines += [f"{_fmt(t)},{_fmt(eval_ft(spec, t))}" for t in args.values]
    else:  # table
        if args.points < 1:
            raise ValueError("points must be >= 1")
        if not (math.isfinite(args.max) and args.max >= 0.0):
            raise ValueError(f"max must be finite and >= 0, got {args.max}")
        grid = np.linspace(0.0, args.max, args.points)
        lines = ["r,k,ft"]
        lines += [
            f"{_fmt(r)},{_fmt(eval_kernel(spec, r))},{_fmt(eval_ft(spec, r))}"
            for r in grid
        ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _load_normalized(path) -> learn.Dataset:
    return normalize(parse_libsvm(path))


def _format_feature_value(value) -> str:
    if isinstance(value, complex) or np.iscomplexobj(value):
        value = complex(value)
        return f"{value.real!r}{value.imag:+}j"
    return repr(float(value))


def _cmd_features(args) -> int:
    if not args.out:
        raise ValueError("features requires --out PREFIX for its two files")
    ds = _load_normalized(args.data)
    cfg = _map_from_args(args, ds.points.shape[1])
    state = build_map(cfg)
    batch = featurize(state, ds.points)
    prefix = Path(str(args.out))
    features_path = prefix.with_name(prefix.name + ".features.txt")
    meta_path = prefix.with_name(prefix.name + ".meta.json")
    with open(features_path, "w", encoding="ascii", newline="\n") as out:
        # one block of points at a time, a line per point; a binning batch is
        # one sparse CSC block, whose column lists a point's rows, one per
        # seen copy, in ascending order
        for _, _, Z in feature_blocks(batch):
            if batch.kind == BINNING:
                lines = (zip(Z.indices[a:b], Z.data[a:b])
                         for a, b in zip(Z.indptr, Z.indptr[1:]))
            else:
                lines = (enumerate(column) for column in Z.T)
            out.writelines(
                " ".join(f"{row}:{_format_feature_value(v)}" for row, v in line) + "\n"
                for line in lines
            )
    meta = _map_metadata(cfg)
    meta["n"] = batch.n
    meta["width"] = int(batch.width)
    # a binning row is its key's rank among the training keys; a Fourier
    # row is its copy
    meta["row_ids"] = "key_rank" if cfg.kind == BINNING else "copy"
    meta_path.write_text(json.dumps(meta), encoding="ascii")
    return 0


def _synthetic_points(seed: int, n: int = 50, dim: int = 3) -> np.ndarray:
    return 2.0 * RandomStream(seed, path=(9,)).uniform(n * dim).reshape(n, dim) - 1.0


def _cmd_approx_error(args) -> int:
    runs, sizes = _map_runs(args, KINDS)
    if args.subsample is not None and args.subsample < 1:
        raise ValueError("subsample must keep at least 1 point")
    points = (_synthetic_points(args.seed) if args.data is None
              else _load_normalized(args.data).points)[:args.subsample]
    lines = ["kind,copies,theory,empirical_mean,empirical_stderr"]
    for kind, kernel in runs:
        reference = approx.ErrorReference(kernel, points, kind)
        for copies in sizes:
            cfg = FeatureMapConfig(
                kind=kind, kernel=kernel, dim=points.shape[1],
                copies=copies, seed=args.seed,
            )
            stats = approx.empirical_error(reference, cfg, trials=args.trials)
            lines.append(
                f"{kind},{copies},{_fmt(stats.theory_rel)},"
                f"{_fmt(stats.empirical_rel)},{_fmt(stats.stderr_rel)}"
            )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _check_classes(task, targets) -> None:
    """Reject a binary task whose labels are not exactly two classes."""
    count = len(np.unique(targets))
    if task == "binary" and count != 2:
        raise ValueError(f"binary task needs exactly two classes, found {count}")


def _cmd_fit(args) -> int:
    ds = parse_libsvm(args.data)
    normalizer = fit_normalizer(ds.points)
    X = normalizer.apply(ds.points)
    y = ds.targets
    _check_classes(args.task, y)
    state = build_map(_map_from_args(args, X.shape[1]))
    model = learn.fit(state, featurize(state, X), y, lam=args.lam,
                      classify=args.task != "regression")
    save_model(args.out, args.task, normalizer, model)
    return 0


def _cmd_predict(args) -> int:
    _, state, normalizer, (model,), _ = load_model(args.model)
    points = parse_libsvm(args.data).points
    width, dim = points.shape[1], state.cfg.dim
    if width > dim:
        raise ValueError(
            f"{args.data} has feature index {width}; the model has {dim} features"
        )
    # LIBSVM omits trailing zeros, so a narrower file is zero-padded
    X = normalizer.apply(np.pad(points, ((0, 0), (0, dim - width))))
    preds = learn.predict(model, X)
    lines = ["index,prediction"]
    lines += [f"{i},{_fmt(v)}" for i, v in enumerate(preds)]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_cv(args) -> int:
    ds = _load_normalized(args.data)
    space = learn.CvSearchSpace(
        family=args.family,
        shapes=None if args.shapes is None else _floats(args.shapes),
        taus=learn.TAU_GRID if args.taus is None else _floats(args.taus),
        lambdas=learn.LAMBDA_GRID if args.lambdas is None else _floats(args.lambdas),
        copies=args.copies,
        folds=args.folds,
        seed=args.seed,
        task=args.task,
    )
    result = learn.cross_validate(ds, space)
    if args.out:
        lines = ["shape,tau,lambda,score"]
        lines += [
            f"{_fmt(s)},{_fmt(t)},{_fmt(l)},{_fmt(sc)}" for s, t, l, sc in result.table
        ]
        _emit("\n".join(lines) + "\n", args.out)
    sys.stdout.write(
        json.dumps(
            {
                "family": result.family,
                "shape": result.shape,
                "tau": result.tau,
                "lambda": result.lam,
                "score": result.score,
            }
        )
        + "\n"
    )
    return 0


# ---------------------------------------------------------------------------
# Benchmark orchestration


#: Training points used for bench's error statistics.
BENCH_PROBE = 100


def _cmd_bench(args) -> int:
    runs, sizes = _map_runs(args, (FOURIER_REAL, BINNING))  # the learnable kinds
    if args.trials < 1:
        raise ValueError("trials must be >= 1")
    if args.subsample is not None and args.subsample < 5:
        raise ValueError("subsample must keep at least 5 points")

    ds = parse_libsvm(args.data)
    points, targets = ds.points, ds.targets
    if args.subsample is not None and args.subsample < len(targets):
        keep = np.sort(
            np.argsort(RandomStream(args.seed, path=(3,)).uniform(len(targets)))[
                : args.subsample
            ]
        )
        points, targets = points[keep], targets[keep]
    _check_classes(args.task, targets)
    train, test = learn.train_test_split(points, targets, seed=args.seed)
    normalizer = fit_normalizer(train.points)
    X_train = normalizer.apply(train.points)
    X_test = normalizer.apply(test.points)
    probe = X_train[:BENCH_PROBE]

    lines = [
        "method,copies,theory_rel_error,empirical_rel_error,"
        "empirical_stderr,metric"
    ]
    classify = args.task != "regression"
    for kind_index, (kind, kernel) in enumerate(runs):
        reference = approx.ErrorReference(kernel, probe, kind)
        for copies in sizes:
            maps, metrics = [], []
            for trial in range(args.trials):
                seed = derived_seed(args.seed, (kind_index, copies, trial))
                state = build_map(FeatureMapConfig(
                    kind=kind, kernel=kernel, dim=X_train.shape[1],
                    copies=copies, seed=seed,
                ))
                model = learn.fit(state, featurize(state, X_train), train.targets,
                                  lam=args.lam, classify=classify)
                preds = learn.predict(model, X_test)
                metrics.append(float(
                    np.mean(preds == test.targets) if classify
                    else np.mean((preds - test.targets) ** 2)
                ))
                maps.append(state)
            # the probe, a prefix of the training rows, reads the
            # vocabulary those rows filled
            stats = reference.stats(copies, maps)
            lines.append(
                f"{kind},{copies},{_fmt(stats.theory_rel)},{_fmt(stats.empirical_rel)},"
                f"{_fmt(stats.stderr_rel)},{_fmt(np.mean(metrics))}"
            )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


def _seed(text) -> int:
    """A ``--seed`` value: an integer, not negative."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {seed}")
    return seed


def _add_common(parser, *, seed=True):
    if seed:
        parser.add_argument("--seed", type=_seed, default=default_seed(),
                            help="master seed (default: POLYAKERN_SEED or built-in)")
    parser.add_argument("--out", default=None, help="output file (default: stdout)")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise :class:`ParseError`, so that a
    bad argument ends in the same one-line JSON record as any other error."""

    def error(self, message):
        raise ParseError(message)


_KERNEL_HELP = "binning kernel, e.g. gamma:s=2,theta=1;tau=1; Fourier kinds read --fourier-law"
_LAW_HELP = "the Fourier kinds' law, cauchy:scale=S or normal:stddev=S; match it to --kernel"


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="polyakern",
        description="Distribution-built kernels, random feature maps, and "
                    "ridge learning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    kernel = sub.add_parser("kernel", help="evaluate kernels and transforms")
    ksub = kernel.add_subparsers(dest="kernel_cmd", required=True)
    for name, value_name in (("eval", "r"), ("ft", "t")):
        p = ksub.add_parser(name)
        p.add_argument("--kernel", required=True, help="kernel spec, e.g. gamma:s=2,theta=1;tau=1")
        p.add_argument("values", nargs="+", type=float, metavar=value_name)
        _add_common(p, seed=False)
        p.set_defaults(func=_cmd_kernel)
    table = ksub.add_parser("table")
    table.add_argument("--kernel", required=True)
    table.add_argument("--max", type=float, default=10.0)
    table.add_argument("--points", type=int, default=101)
    _add_common(table, seed=False)
    table.set_defaults(func=_cmd_kernel)

    features = sub.add_parser("features", help="featurize a dataset")
    features.add_argument("data")
    features.add_argument("--map", required=True, choices=sorted(KINDS))
    features.add_argument("--kernel", required=True)
    features.add_argument("--copies", type=int, required=True)
    _add_common(features)
    features.set_defaults(func=_cmd_features)

    approx_err = sub.add_parser("approx-error", help="approximation error curves")
    approx_err.add_argument("data", nargs="?", default=None)
    approx_err.add_argument("--kernel", required=True, help=_KERNEL_HELP)
    approx_err.add_argument(
        "--map", default=f"{FOURIER_COMPLEX},{FOURIER_REAL},{BINNING}"
    )
    approx_err.add_argument("--copies", default="1,4,16")
    approx_err.add_argument("--trials", type=int, default=50)
    approx_err.add_argument("--subsample", type=int, default=None,
                            help="keep the first N points")
    approx_err.add_argument("--fourier-law", default="cauchy:scale=1", help=_LAW_HELP)
    _add_common(approx_err)
    approx_err.set_defaults(func=_cmd_approx_error)

    fit = sub.add_parser("fit", help="fit a ridge model")
    fit.add_argument("data")
    fit.add_argument("--task", required=True,
                     choices=TASKS)
    fit.add_argument("--map", required=True,
                     choices=(FOURIER_REAL, BINNING))
    fit.add_argument("--kernel", required=True)
    fit.add_argument("--copies", type=int, required=True)
    fit.add_argument("--lambda", dest="lam", type=float, required=True)
    _add_common(fit)
    fit.set_defaults(func=_cmd_fit)

    predict = sub.add_parser("predict", help="predict with a model bundle")
    predict.add_argument("data")
    predict.add_argument("--model", required=True)
    _add_common(predict, seed=False)
    predict.set_defaults(func=_cmd_predict)

    cv = sub.add_parser("cv", help="cross-validate (shape, tau, lambda)")
    cv.add_argument("data")
    cv.add_argument("--family", default="gamma")
    cv.add_argument("--shapes", default=None)
    cv.add_argument("--taus", default=None)
    cv.add_argument("--lambdas", default=None)
    cv.add_argument("--copies", type=int, default=64)
    cv.add_argument("--folds", type=int, default=4)
    cv.add_argument("--task", default="regression",
                    choices=("regression", "classification"))
    _add_common(cv)
    cv.set_defaults(func=_cmd_cv)

    bench = sub.add_parser("bench", help="error + learning benchmark")
    bench.add_argument("data")
    bench.add_argument("--task", required=True,
                       choices=TASKS)
    bench.add_argument("--map", default=f"{FOURIER_REAL},{BINNING}")
    bench.add_argument("--kernel", required=True, help=_KERNEL_HELP)
    bench.add_argument("--copies", default="8,32,128")
    bench.add_argument("--trials", type=int, default=5)
    bench.add_argument("--lambda", dest="lam", type=float, default=0.1)
    bench.add_argument("--subsample", type=int, default=None,
                       help="keep a seeded random N >= 5 rows, in file order, "
                            "before the train/test split")
    bench.add_argument("--fourier-law", default="cauchy:scale=1", help=_LAW_HELP)
    _add_common(bench)
    bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit:  # argparse exits only after printing --help
        return 0
    except (PolyakernError, ValueError, KeyError, OSError, MemoryError,
            ArithmeticError) as exc:
        sys.stderr.write(json.dumps({"error": str(exc) or exc.__class__.__name__}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
