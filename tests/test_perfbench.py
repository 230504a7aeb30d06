"""The benchmark harness's warm-up passes, run traced inside the test suite.

``perfbench/run.py`` is imported by path and left as it is.  Each workload's
tiny warm-up configuration runs one traced pass, which drives every CLI
command and library call the full benchmark makes (fit, predict, batch
serving from a loaded bundle, cv, approx-error, the kernel table) with the
tracer's wrappers installed.  A change that breaks one of those calls fails
here rather than only when the benchmark runs.
"""

import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def run(monkeypatch):
    # run.py imports its sibling modules (workloads, layertrace) by name
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["binning", "fourier"])
def test_warmup_pass_runs_traced(run, tmp_path, name):
    from workloads import WORKLOADS

    ctx = run.context(WORKLOADS[name].warmup, 1, tmp_path, checked=False)
    _, res, tracer = run.run_pass(ctx, 0, traced=True)
    assert res.failures == []
    assert res.attempted > 0
    assert "batch_predictions" in res.digests
    assert tracer.counters["learn.fit.calls"] == 1
    assert tracer.counters["cli.load_model.calls"] == 2  # predict, then batch serving
