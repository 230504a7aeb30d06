"""Benchmark for polyakern.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed, measures set-up time in fresh
interpreters, then runs the workload in passes (one client, closed loop) for
about S seconds.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and reports per-layer
metrics from the traced ones.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans,
the environment and all samples are written to ``.perfbench_work/``.  See
README.md for the workloads and the metric-to-layer map.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: Map seed of pass 0; pass k uses MAP_SEED + k.
MAP_SEED = 1000

#: Fresh interpreters timed per run; setup_s is their median.
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Per-layer times: metric -> (span name, use self time instead of inclusive).
LAYER_TIMES = {
    "cli.parse_libsvm.s": ("cli.parse_libsvm", False),
    "cli.save_model.s": ("cli.save_model", False),
    "cli.load_model.s": ("cli.load_model", False),
    "feature_maps.featurize.s": ("feature_maps.featurize", False),
    "feature_maps.build_map.s": ("feature_maps.build_map", False),
    "feature_maps.gram.s": ("feature_maps.gram", False),
    "feature_maps.complex_gram.s": ("feature_maps.complex_gram", False),
    "learn.fit.s": ("learn.fit", True),
    "learn.predict.s": ("learn.predict", True),
    "learn.cross_validate.s": ("learn.cross_validate", False),
    "polya_kernels.eval_kernel.s": ("polya_kernels.eval_kernel", False),
    "polya_kernels.eval_ft.s": ("polya_kernels.eval_ft", False),
    "approx.exact_gram.s": ("approx.exact_gram", False),
    "approx.empirical_error.s": ("approx.empirical_error", True),
}

#: Per-layer counts, read straight from the tracer's counters.  They are
#: deterministic for a given seed and code, so every traced pass must agree.
LAYER_COUNTS = (
    "cli.parse_libsvm.rows",
    "feature_maps.featurize.cells",
    "feature_maps.featurize.new_columns",
    "feature_maps.build_map.calls",
    "feature_maps.build_map.copies",
    "rng.streams",
    "learn.fit.calls",
    "learn.fit.dual_calls",
    "learn.fit.system_n",
    "learn.predict.vocab_growth",
    "learn.cross_validate.combos",
    "polya_kernels.eval_kernel.calls",
    "polya_kernels.eval_kernel_numeric.calls",
    "polya_kernels.eval_ft.calls",
    "polya_kernels.eval_ft_numeric.calls",
    "approx.exact_gram.calls",
    "approx.exact_gram.pairs",
)

#: End-to-end metrics and their units.  Every workload produces all of them;
#: the figures of single steps (fit_s, cv_s, batch latency, ...) go in the
#: detail line as ``steps``.
END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB", "output_bytes": "bytes"}


def fail(message):
    sys.stderr.write(json.dumps({"error": message}) + "\n")
    return 2


def cap_blas_threads():
    """Cap BLAS threads at the CPUs this process may use; must run before
    numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def blas_threads_in_force():
    """Thread count each loaded OpenBLAS reports, by library file name."""
    import ctypes

    import numpy
    import scipy

    found = {}
    for package in (numpy, scipy):
        libs = Path(package.__file__).parent.parent / (package.__name__ + ".libs")
        for path in sorted(glob.glob(str(libs / "lib*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[Path(path).name] = fn()
                    break
    return found


def environment(nproc):
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "blas_thread_cap": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "blas_threads_in_force": blas_threads_in_force(),
        "warmup": "import and first-call costs are in setup_s: each setup probe, "
                  "and the measuring process before its first timed pass, runs one "
                  "tiny pass of the workload. Every full-size pass is timed, the "
                  "first included; pass_s is their mean",
    }


def code_digest():
    digest = hashlib.sha256()
    for path in sorted(SRC.glob("polyakern/**/*.py")) + sorted(HERE.glob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def context(config, seed, directory, checked):
    """What a pass needs: its configuration, inputs and output directory."""
    directory.mkdir(parents=True, exist_ok=True)
    return types.SimpleNamespace(config=config, work=directory, seed=seed, checked=checked,
                                 files=config.make_inputs(seed, directory),
                                 map_seed=None, tracer=None)


def run_pass(ctx, index, traced):
    """Pass ``index`` of the workload; returns (wall seconds, PassResult, tracer).

    The workload seed picks the data; the pass index picks the random maps
    (``--seed MAP_SEED + index`` on the command line, except that pass 1
    repeats pass 0 so the two can be compared byte for byte).  So later
    passes do not repeat earlier computations, and a cache kept across calls
    cannot turn repetition into speed; and every run draws the same sequence
    of maps, so the spread across workload seeds is that of the data alone.
    """
    from layertrace import Tracer
    from workloads import PassResult

    ctx.map_seed = MAP_SEED + max(index - 1, 0)
    ctx.tracer = Tracer()
    res = PassResult()
    if traced:
        ctx.tracer.install()
    start = time.perf_counter()
    try:
        ctx.config.run(ctx, res)
    except Exception as exc:  # a crash inside the program is a failed operation
        traceback.print_exc(file=sys.stderr)
        res.failures.append(f"{type(exc).__name__}: {exc}")
    finally:
        wall = time.perf_counter() - start
        ctx.tracer.uninstall()
    return wall, res, ctx.tracer


def probe(args):
    """Set-up probe: start, import the program, run one tiny pass."""
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    ctx = context(workload.warmup, args.seed, WORK / "probe" / args.workload, False)
    _, res, _ = run_pass(ctx, 0, False)
    for message in res.failures:
        sys.stderr.write(message + "\n")
    return 1 if res.failures else 0


def measure_setup(args):
    """Time SETUP_PROBES fresh interpreters, each running ``probe``."""
    times, failures = [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--probe", "--workload", args.workload,
                 "--seed", str(args.seed)],
                cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                timeout=PROBE_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            failures.append(f"setup probe ran past {PROBE_TIMEOUT_S} s")
            continue
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            failures.append(f"setup probe exited {proc.returncode}: "
                            f"{proc.stderr.decode(errors='replace').strip()[-500:]}")
    return times, failures


def measure(ctx, seconds, trace):
    """Closed loop: passes back to back until about ``seconds`` have gone.

    Another pass starts only if at least half of a typical pass fits before
    the deadline.  Traced runs alternate untraced and traced passes and run
    at least three passes (untraced pass 0 pays first-touch costs, so the
    overhead estimate compares traced passes with later untraced ones).
    Every run makes at least two passes, since passes 0 and 1 share inputs
    and must write identical bytes.
    """
    passes = []
    minimum = 3 if trace else 2
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(passes) % 2 == 1
        wall, res, tracer = run_pass(ctx, len(passes), traced)
        passes.append((traced, wall, res, tracer))
        if res.failures:
            break
        typical = statistics.median(p[1] for p in passes)
        if len(passes) >= minimum and time.perf_counter() + 0.5 * typical >= deadline:
            break
    return passes


def end_to_end(passes, setup_times, failures):
    """End-to-end metrics of an untraced run.

    ``pass_s`` is the mean over the untraced passes, the inverse of the
    run's throughput: on a shared machine pass times jump between a fast
    and a slow speed every few seconds, and a median over a handful of such
    passes flips between the two, where the mean follows the mix smoothly.
    Set-up and output size are medians.
    """
    plain = [(wall, res) for traced, wall, res, _ in passes if not traced]
    output_bytes = [res.values["output_bytes"] for _, res in plain if "output_bytes" in res.values]
    values = {
        "setup_s": statistics.median(setup_times) if setup_times else None,
        "pass_s": statistics.fmean(wall for wall, _ in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "output_bytes": statistics.median(output_bytes) if output_bytes else None,
    }
    metrics = {}
    for name, unit in END_TO_END.items():
        if values[name] is None:
            failures.append(f"no sample of {name}")
        else:
            metrics[name] = {"value": values[name], "unit": unit}
    return metrics


def step_medians(passes):
    """Per-step figures of the untraced passes, for the detail line: each
    step's median over passes.  A batch percentile is taken over each pass's
    batch samples, then the median over passes, so a burst of contention on
    the machine during one pass does not set the value."""
    import numpy

    plain = [res for traced, _, res, _ in passes if not traced]
    steps = {}
    for name in sorted({k for res in plain for k in (*res.times, *res.values)}):
        values = [res.times.get(name, res.values.get(name)) for res in plain]
        steps[name] = statistics.median(v for v in values if v is not None)
    for q in (50, 90):
        values = [float(numpy.percentile(res.batch_ms, q)) for res in plain if res.batch_ms]
        if values:
            steps[f"batch_predict_ms_p{q}"] = statistics.median(values)
    return steps


def layer_metrics(tracer):
    """Per-layer metrics of one traced pass."""
    times = tracer.layer_times()
    c = tracer.counters
    out = {}
    for metric, (span, use_self) in LAYER_TIMES.items():
        incl, own, _ = times.get(span, (0.0, 0.0, 0))
        out[metric] = own if use_self else incl
    for metric in LAYER_COUNTS:
        out[metric] = c.get(metric, 0)
    out["learn.predict.unseen_frac"] = (
        c["learn.predict.unseen_cells"] / c["learn.predict.cells"]
        if c.get("learn.predict.cells") else 0.0)
    out["learn.cross_validate.maps_per_shape_fold"] = (
        c["learn.cross_validate.maps"] / c["learn.cross_validate.shape_folds"]
        if c.get("learn.cross_validate.shape_folds") else 0.0)
    return out


def per_layer(passes):
    """Per-layer metrics: times are medians over traced passes, counts come
    from the first traced pass.  Also returns each traced pass's counts, by
    pass index, for the cross-run comparison, and per-command coverage."""
    traced = [(i, wall, tracer) for i, (is_traced, wall, _, tracer) in enumerate(passes)
              if is_traced]
    plain = [wall for is_traced, wall, _, _ in passes if not is_traced]
    plain = plain[1:] or plain
    per_pass = {i: layer_metrics(tracer) for i, _, tracer in traced}
    first = per_pass[traced[0][0]]
    metrics = {}
    for name, value in first.items():
        if name in LAYER_TIMES:
            value, unit = statistics.median(m[name] for m in per_pass.values()), "s"
        else:
            unit = "ratio" if name.endswith(("_frac", "_per_shape_fold")) else "count"
        metrics[name] = {"value": value, "unit": unit}
    coverages = [tracer.coverage() for _, _, tracer in traced]
    metrics["trace.coverage"] = {
        "value": statistics.median(
            sum(c for c, _ in cov.values()) / sum(t for _, t in cov.values())
            for cov in coverages),
        "unit": "ratio"}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(w for _, w, _ in traced) - statistics.median(plain),
        "unit": "s"}
    counts = {f"pass{i}.{name}": v for i, m in per_pass.items()
              for name, v in m.items() if name not in LAYER_TIMES}
    return metrics, counts, coverages


def compare_records(key, record, failures):
    """Same seed, same code: compare output digests and layer counts with
    earlier runs in this checkout, then store this run's."""
    path = WORK / "records.json"
    records = json.loads(path.read_text()) if path.exists() else {}
    earlier = records.get(key, {})
    for section, values in record.items():
        for name, value in values.items():
            old = earlier.get(section, {}).get(name)
            if old is not None and old != value:
                failures.append(f"rerun: {section} {name} differs from an earlier run "
                                f"({old} vs {value})")
        earlier.setdefault(section, {}).update(values)
    records[key] = earlier
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(records, indent=1, sort_keys=True))
    os.replace(tmp, path)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "polyakern" / "cli.py").is_file():
        return fail(f"polyakern sources not found under {SRC}")
    if args.seed < 0 or args.seconds <= 0:
        return fail("--seed must be >= 0 and --seconds > 0")
    nproc = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    if args.probe:
        return probe(args)

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    run_dir = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}"

    setup_times, failures = measure_setup(args)
    warm = context(workload.warmup, args.seed, WORK / "warmup" / workload.name, False)
    _, tiny, _ = run_pass(warm, 0, False)
    ctx = context(workload.full, args.seed, run_dir, True)
    passes = measure(ctx, args.seconds, bool(args.trace))
    results = [tiny] + [res for _, _, res, _ in passes]
    for res in results:
        failures += res.failures
    if len(passes) >= 2:
        for name, digest in passes[0][2].digests.items():
            if passes[1][2].digests.get(name) != digest:
                failures.append(f"rerun: {name} differs between passes 0 and 1")

    record = {"digests": {f"pass{i}.{name}": digest for i, (_, _, res, _) in enumerate(passes)
                          for name, digest in res.digests.items()}}
    metrics, coverages, steps = {}, [], step_medians(passes)
    if args.trace and any(traced for traced, _, _, _ in passes):
        metrics, record["counts"], coverages = per_layer(passes)
        with open(run_dir / "trace.jsonl", "w", encoding="ascii") as handle:
            for index, (traced, _, _, tracer) in enumerate(passes):
                if traced:
                    tracer.write(handle, index)
    elif passes and not args.trace:
        metrics = end_to_end(passes, setup_times, failures)
    compare_records(f"{workload.name}|{args.seed}|{code_digest()}", record, failures)

    attempted = len(setup_times) + sum(res.attempted for res in results)
    failed = min(attempted, len(failures))
    detail = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(nproc),
        "setup_probes_s": setup_times, "steps": steps,
        "passes": [{"traced": traced, "wall_s": wall, "times": res.times,
                    "batch_samples": len(res.batch_ms), "values": res.values}
                   for traced, wall, res, _ in passes],
        "batch_samples": sum(len(res.batch_ms) for _, _, res, _ in passes
                             if not args.trace),
        "coverage_by_command": coverages,
        "digests": record["digests"], "counts": record.get("counts", {}),
        "failures": failures,
    }
    (run_dir / "result.json").write_text(json.dumps(detail, indent=1))
    for name, metric in metrics.items():
        print(f"{name:45s} {metric['value']:>16.6g} {metric['unit']}")
    for name, value in steps.items():
        print(f"  step {name:40s} {value:>16.6g}")
    print(f"passes {len(passes)}, batch samples {detail['batch_samples']}, "
          f"setup probes {len(setup_times)}, attempted {attempted}, failed {failed}")
    for message in failures:
        print("FAILED:", message)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
