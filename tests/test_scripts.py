"""Smoke tests for the scripts under ``scripts/``: each runs end to end on
a small input, and the kernel tables recover every family's cdf."""

import csv
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_rows(path):
    with open(path, newline="", encoding="ascii") as handle:
        return list(csv.DictReader(handle))


def test_kernel_tables_recover_each_cdf(tmp_path, capsys):
    script = load_script("kernel_tables")
    assert script.main(["--out-dir", str(tmp_path), "--max", "4", "--points", "5"]) == 0
    capsys.readouterr()
    laws = {d.family: d for d in script.REPRESENTATIVES}
    files = sorted(tmp_path.glob("*.csv"))
    assert len(files) == 9
    assert {f.stem for f in files} == set(laws)
    for path in files:
        rows = read_rows(path)
        assert [float(row["r"]) for row in rows] == [0.0, 1.0, 2.0, 3.0, 4.0]
        for row in rows:
            expected = laws[path.stem].cdf(float(row["r"]))
            assert float(row["cdf"]) == pytest.approx(expected, abs=1e-9), (path.stem, row)


def test_learning_curves_runs(tmp_path, capsys):
    out = tmp_path / "curves.csv"
    script = load_script("learning_curves")
    assert script.main(["--seeds", "1", "--copies", "4,8", "--train", "30", "--test", "10",
                        "--out", str(out)]) == 0
    capsys.readouterr()
    rows = read_rows(out)
    assert [(row["kind"], int(row["copies"])) for row in rows] == [
        ("fourier_real", 4), ("fourier_real", 8), ("binning", 4), ("binning", 8),
    ]
    assert all(float(row["mse"]) >= 0.0 for row in rows)
