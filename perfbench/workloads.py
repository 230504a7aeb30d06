"""The two benchmark workloads: synthetic inputs, one measured pass, checks.

Every input is generated from the workload seed with ``RandomStream`` and
written as LIBSVM text with ``write_libsvm``; the program sees only those
files and its argv.  A pass runs the workload's commands once, in order, in
this process (``polyakern.cli.main(argv)``), each starting when the previous
one returns.  Sizes, and why each workload exists, are in README.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from polyakern import cli, learn
from polyakern.rng import RandomStream

#: An ``approx-error`` row passes when |empirical - theory| is at most this
#: many of its own standard errors.  Over 96 rows (8 seeds x 12 rows) the
#: largest observed |z| was 2.9; 6 leaves room for the skew of 20-trial
#: means while still catching any formula that is off by a constant factor.
APPROX_Z_TOLERANCE = 6.0


@dataclass
class PassResult:
    """What one pass measured, produced and found wrong."""

    times: dict = field(default_factory=dict)  # step (fit_s, cv_s, ...) -> seconds
    batch_ms: list = field(default_factory=list)
    values: dict = field(default_factory=dict)  # output_bytes, test_mse, ...
    digests: dict = field(default_factory=dict)  # output name -> sha256
    attempted: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok, message):
        if not ok:
            self.failures.append(message)
        return ok

    def add_output(self, *paths):
        """Count the bytes of output files toward ``output_bytes``."""
        self.values["output_bytes"] = (self.values.get("output_bytes", 0)
                                       + sum(Path(p).stat().st_size for p in paths))


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def regression_data(seed, path, n, dim):
    """Points uniform on [-1, 1]^dim; a smooth target of the first three
    coordinates plus N(0, 0.1^2) noise."""
    stream = RandomStream(seed, path=path)
    X = 2.0 * stream.uniform(n * dim).reshape(n, dim) - 1.0
    y = (np.sin(np.pi * X[:, 0]) * np.cos(0.5 * np.pi * X[:, 1])
         + 0.5 * X[:, 2] ** 2 + 0.1 * stream.normal(n))
    return X, y


def _command(tracer, res, label, argv):
    """Run one CLI command in-process; returns (return code, seconds, stdout)."""
    out = io.StringIO()
    res.attempted += 1
    with tracer.span("cmd." + label), contextlib.redirect_stdout(out):
        start = time.perf_counter()
        rc = cli.main([str(a) for a in argv])
        elapsed = time.perf_counter() - start
    res.check(rc == 0, f"{label}: exit code {rc}")
    return rc, elapsed, out.getvalue()


def _read_csv(path, header):
    lines = Path(path).read_text(encoding="ascii").splitlines()
    if not lines or lines[0] != header:
        return None
    return [line.split(",") for line in lines[1:]]


# ---------------------------------------------------------------------------
# Ridge: fit, predict, then batch serving from the loaded bundle


@dataclass(frozen=True)
class Ridge:
    map: str
    kernel: str
    copies: int
    lam: float
    dim: int
    train: int
    test: int
    batches: int
    batch_rows: int

    def make_inputs(self, seed, work):
        files = {}
        for index, (name, n) in enumerate((("train", self.train), ("test", self.test))):
            X, y = regression_data(seed, (1, index), n, self.dim)
            files[name] = work / f"{name}.txt"
            cli.write_libsvm(files[name], X, y)
            files[name + "_y"] = y
        serve_X, serve_y = regression_data(seed, (1, 2), self.batches * self.batch_rows, self.dim)
        files["serve_X"], files["serve_y"] = serve_X, serve_y
        return files

    def run(self, ctx, res):
        work, files, tracer = ctx.work, ctx.files, ctx.tracer
        bundle, preds = work / "model.json", work / "predictions.csv"
        rc, res.times["fit_s"], _ = _command(tracer, res, "fit", [
            "fit", files["train"], "--task", "regression", "--map", self.map,
            "--kernel", self.kernel, "--copies", self.copies, "--lambda", self.lam,
            "--seed", ctx.map_seed, "--out", bundle])
        if rc != 0:
            return
        rc, res.times["predict_s"], _ = _command(tracer, res, "predict", [
            "predict", files["test"], "--model", bundle, "--out", preds])
        if rc != 0:
            return
        res.values["bundle_bytes"] = bundle.stat().st_size
        res.add_output(bundle, preds)
        res.digests["bundle"] = sha256(bundle)
        res.digests["predictions"] = sha256(preds)
        y_train, y_test = files["train_y"], files["test_y"]
        rows = _read_csv(preds, "index,prediction")
        if not res.check(rows is not None and len(rows) == len(y_test),
                         "predict: expected one row per test point"):
            return
        p = np.array([float(v) for _, v in rows])
        res.check([int(i) for i, _ in rows] == list(range(len(y_test))),
                  "predict: row indices out of order")
        res.check(bool(np.all(np.isfinite(p))), "predict: non-finite prediction")
        res.values["test_mse"] = float(np.mean((p - y_test) ** 2))
        if ctx.checked:
            baseline = float(np.mean((y_test - y_train.mean()) ** 2))
            res.check(res.values["test_mse"] < baseline,
                      f"predict: test MSE {res.values['test_mse']:.4g} does not beat "
                      f"the training mean ({baseline:.4g})")
        self._batches(ctx, res, bundle, y_train)

    def _batches(self, ctx, res, bundle, y_train):
        """Serve fresh rows in fixed-size batches from one loaded bundle."""
        serve_X, serve_y = ctx.files["serve_X"], ctx.files["serve_y"]
        res.attempted += 1
        with ctx.tracer.span("step.batch"):
            _, _, normalizer, models, _ = cli.load_model(bundle)
            out = []
            for b in range(self.batches):
                rows = serve_X[b * self.batch_rows:(b + 1) * self.batch_rows]
                res.attempted += 1
                start = time.perf_counter()
                scores = learn.predict(models[0], normalizer.apply(rows))
                res.batch_ms.append((time.perf_counter() - start) * 1e3)
                res.check(scores.shape == (len(rows),) and bool(np.all(np.isfinite(scores))),
                          f"batch {b}: expected {len(rows)} finite scores")
                out.append(scores)
        scores = np.concatenate(out)
        res.digests["batch_predictions"] = hashlib.sha256(scores.tobytes()).hexdigest()
        if ctx.checked:
            mse = float(np.mean((scores - serve_y) ** 2))
            baseline = float(np.mean((serve_y - y_train.mean()) ** 2))
            res.check(mse < baseline, f"batch: MSE {mse:.4g} does not beat the "
                                      f"training mean ({baseline:.4g})")


# ---------------------------------------------------------------------------
# Cross-validation over the default grid


@dataclass(frozen=True)
class CvGrid:
    rows: int
    dim: int
    copies: int
    grid: tuple = ()  # extra argv narrowing the default grid (warm-up only)

    def make_inputs(self, seed, work):
        X, y = regression_data(seed, (2,), self.rows, self.dim)
        path = work / "cv_data.txt"
        cli.write_libsvm(path, X, y)
        return {"cv_data": path}

    def run(self, ctx, res):
        table = ctx.work / "cv_table.csv"
        rc, res.times["cv_s"], stdout = _command(ctx.tracer, res, "cv", [
            "cv", ctx.files["cv_data"], "--copies", self.copies, "--seed", ctx.map_seed,
            "--out", table, *self.grid])
        if rc != 0:
            return
        res.digests["cv_table"] = sha256(table)
        res.add_output(table)
        try:
            best = json.loads(stdout)
        except ValueError:
            res.check(False, "cv: stdout is not JSON")
            return
        score = best.get("score")
        res.check(isinstance(score, float) and math.isfinite(score),
                  f"cv: score {score!r} is not a finite number")
        rows = _read_csv(table, "shape,tau,lambda,score")
        if not res.check(bool(rows), "cv: empty or malformed score table"):
            return
        scores = [float(r[3]) for r in rows]
        res.check(all(math.isfinite(s) for s in scores), "cv: non-finite table score")
        res.check(score == min(scores), "cv: reported score is not the table minimum")
        res.values["cv_score"] = score


# ---------------------------------------------------------------------------
# Kernel numerics: approx-error and a kernel table


@dataclass(frozen=True)
class KernelNumeric:
    points: int
    dim: int
    approx_kernel: str
    maps: str
    copies: str
    trials: int
    table_kernel: str
    table_max: float
    table_points: int

    def make_inputs(self, seed, work):
        X, y = regression_data(seed, (3,), self.points, self.dim)
        path = work / "approx_points.txt"
        cli.write_libsvm(path, X, y)
        return {"approx_data": path}

    def run(self, ctx, res):
        errors, table = ctx.work / "approx_error.csv", ctx.work / "kernel_table.csv"
        rc_errors, res.times["approx_error_s"], _ = _command(ctx.tracer, res, "approx_error", [
            "approx-error", ctx.files["approx_data"], "--kernel", self.approx_kernel,
            "--map", self.maps, "--copies", self.copies, "--trials", self.trials, "--seed", ctx.map_seed,
            "--out", errors])
        if rc_errors == 0:
            res.digests["approx_error"] = sha256(errors)
            self._check_errors(ctx, res, errors)
        rc, res.times["kernel_table_s"], _ = _command(ctx.tracer, res, "kernel_table", [
            "kernel", "table", "--kernel", self.table_kernel, "--max", self.table_max,
            "--points", self.table_points, "--out", table])
        if rc == 0:
            res.digests["kernel_table"] = sha256(table)
            self._check_table(res, table)
        if rc_errors == 0 and rc == 0:
            res.add_output(errors, table)

    def _check_errors(self, ctx, res, path):
        rows = _read_csv(path, "kind,copies,theory,empirical_mean,empirical_stderr")
        expected = len(self.maps.split(",")) * len(self.copies.split(","))
        if not res.check(rows is not None and len(rows) == expected,
                         f"approx-error: expected {expected} rows"):
            return
        values = np.array([row[2:] for row in rows], dtype=float)
        res.values["approx_error_ratio"] = float(values[:, 1].sum() / values[:, 0].sum())
        for kind, copies, theory, mean, stderr in rows:
            theory, mean, stderr = float(theory), float(mean), float(stderr)
            res.check(all(map(math.isfinite, (theory, mean, stderr))),
                      f"approx-error {kind}/{copies}: non-finite value")
            if ctx.checked:
                res.check(abs(mean - theory) <= APPROX_Z_TOLERANCE * stderr + 1e-12,
                          f"approx-error {kind}/{copies}: empirical {mean:.4g} is more "
                          f"than {APPROX_Z_TOLERANCE} stderr ({stderr:.3g}) from "
                          f"theory {theory:.4g}")

    def _check_table(self, res, path):
        rows = _read_csv(path, "r,k,ft")
        if not res.check(rows is not None and len(rows) == self.table_points,
                         f"kernel table: expected {self.table_points} rows"):
            return
        values = np.array(rows, dtype=float)
        r, k, ft = values.T
        res.check(bool(np.all(np.isfinite(values))), "kernel table: non-finite value")
        res.check(np.allclose(r, np.linspace(0.0, self.table_max, self.table_points)),
                  "kernel table: wrong r grid")
        res.check(k[0] == 1.0 and bool(np.all((k >= 0.0) & (k <= 1.0))),
                  "kernel table: k(0) != 1 or k outside [0, 1]")
        res.check(bool(np.all(np.diff(k) <= 1e-12)), "kernel table: k increases")
        res.check(bool(np.all(ft >= 0.0)), "kernel table: negative transform")


# ---------------------------------------------------------------------------
# The workloads: (measured configuration, tiny warm-up configuration)


@dataclass(frozen=True)
class Steps:
    """Several configurations run one after another as one pass."""

    parts: tuple

    def make_inputs(self, seed, work):
        files = {}
        for part in self.parts:
            files.update(part.make_inputs(seed, work))
        return files

    def run(self, ctx, res):
        for part in self.parts:
            part.run(ctx, res)


@dataclass(frozen=True)
class Workload:
    name: str
    full: Steps
    warmup: Steps


#: Each workload bypasses the other's special layers: ``binning`` never calls
#: ``polya_kernels`` or ``approx``, and ``fourier`` never creates a binning
#: column.  So a change to either side has a workload where it should show no
#: change.
WORKLOADS = {
    w.name: w for w in (
        Workload(
            "binning",
            Steps((Ridge("binning", "gamma:s=2,theta=1", copies=128, lam=0.1, dim=8,
                         train=2000, test=1000, batches=100, batch_rows=50),
                   CvGrid(rows=100, dim=3, copies=32))),
            Steps((Ridge("binning", "gamma:s=2,theta=1", copies=8, lam=0.1, dim=8,
                         train=60, test=20, batches=2, batch_rows=10),
                   CvGrid(rows=40, dim=3, copies=4,
                          grid=("--shapes", "1,2", "--taus", "1", "--lambdas", "0.1")))),
        ),
        Workload(
            "fourier",
            Steps((Ridge("fourier_real", "cauchy:scale=0.25", copies=1024, lam=0.1, dim=16,
                         train=20000, test=5000, batches=100, batch_rows=50),
                   KernelNumeric(points=100, dim=3, approx_kernel="gamma:s=2.5,theta=1",
                                 maps="fourier_complex,fourier_real", copies="1,4,16,64",
                                 trials=20, table_kernel="gamma:s=0.5,theta=1",
                                 table_max=3.0, table_points=4))),
            Steps((Ridge("fourier_real", "cauchy:scale=0.25", copies=8, lam=0.1, dim=16,
                         train=60, test=20, batches=2, batch_rows=10),
                   KernelNumeric(points=10, dim=3, approx_kernel="gamma:s=2.5,theta=1",
                                 maps="fourier_complex,fourier_real", copies="1,2",
                                 trials=2, table_kernel="gamma:s=0.5,theta=1",
                                 table_max=0.5, table_points=2))),
        ),
    )
}
