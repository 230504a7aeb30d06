"""Tests for the command-line interface and its data plumbing.

The CLI is exercised in-process through ``cli.main(argv)``.  Oracles:
  * hand-written LIBSVM lines with known dense equivalents;
  * a serializer round-trip on a synthetic 100-line file;
  * re-running a command with the same seed must reproduce output files
    byte for byte;
  * fit/predict through the CLI must agree with the same pipeline run
    directly against the library.
"""

import base64
import json
import math

import numpy as np
import pytest

from polyakern import cli, learn
from polyakern import polya_kernels as kernels
from polyakern.distributions import Gamma
from polyakern.errors import ParseError
from polyakern.feature_maps import BINNING, FeatureMapConfig, build_map, featurize
from polyakern.polya_kernels import KernelSpec, eval_ft, eval_kernel, parse_kernel_spec
from polyakern.rng import RandomStream


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


class TestParseLibsvm:
    def test_basic_line(self, tmp_path):
        f = tmp_path / "d.txt"
        write_lines(f, ["1 1:0.5 3:-1"])
        ds = cli.parse_libsvm(f)
        np.testing.assert_array_equal(ds.points, [[0.5, 0.0, -1.0]])
        np.testing.assert_array_equal(ds.targets, [1.0])

    def test_empty_feature_list_gives_zero_vector(self, tmp_path):
        f = tmp_path / "d.txt"
        write_lines(f, ["2.5 2:1.0", "3.5"])
        ds = cli.parse_libsvm(f)
        np.testing.assert_array_equal(ds.points[1], [0.0, 0.0])
        assert ds.targets[1] == 3.5

    def test_width_is_max_index_across_lines(self, tmp_path):
        f = tmp_path / "d.txt"
        write_lines(f, ["0 1:1", "1 5:2"])
        ds = cli.parse_libsvm(f)
        assert ds.points.shape == (2, 5)
        assert ds.points[1, 4] == 2.0

    def test_blank_lines_skipped(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("1 1:1\n\n2 1:2\n")
        ds = cli.parse_libsvm(f)
        assert len(ds.targets) == 2

    @pytest.mark.parametrize(
        "line", ["x 1:1", "1 one:1", "1 1:abc", "1 2", "1 0:5"]
    )
    def test_malformed_second_line_reports_line_number(self, tmp_path, line):
        f = tmp_path / "d.txt"
        write_lines(f, ["1 1:1", line])
        with pytest.raises(ParseError, match="line 2"):
            cli.parse_libsvm(f)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_reports_line(self, tmp_path, value):
        path = tmp_path / "d.txt"
        write_lines(path, ["1 1:0.5", f"2 1:0.1 2:{value}"])
        with pytest.raises(ParseError, match="line 2: feature 2"):
            cli.parse_libsvm(path)

    @pytest.mark.parametrize("line,message", [
        ("1 1:3 1:4", "got 1 after 1"),
        ("1 2:3 1:4", "got 1 after 2"),
        ("1 1:1 3:2 2:5", "got 2 after 3"),
    ])
    def test_repeated_or_decreasing_index_reports_line(self, tmp_path, line, message):
        f = tmp_path / "d.txt"
        write_lines(f, ["1 1:1 2:2", line])
        with pytest.raises(ParseError, match=f"line 2: .*increase strictly, {message}"):
            cli.parse_libsvm(f)

    def test_empty_file_rejected(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("\n\n")
        with pytest.raises(ParseError):
            cli.parse_libsvm(f)

    def test_write_read_roundtrip_on_synthetic_file(self, tmp_path):
        stream = RandomStream(404)
        n, d = 100, 7
        dense = stream.normal(n * d).reshape(n, d)
        dense[stream.uniform(n * d).reshape(n, d) < 0.5] = 0.0  # make it sparse
        targets = stream.normal(n)
        dense[0, d - 1] = 1.25  # pin the width even if the last column thins out
        f = tmp_path / "round.txt"
        cli.write_libsvm(f, dense, targets)
        ds = cli.parse_libsvm(f)
        np.testing.assert_array_equal(ds.points, dense)
        np.testing.assert_array_equal(ds.targets, targets)


class TestNormalize:
    def test_train_column_spans_unit_interval(self):
        X = np.array([[0.0], [10.0], [5.0]])
        ds = learn.Dataset.full(X, np.zeros(3))
        out = cli.normalize(ds)
        np.testing.assert_allclose(out.points[:, 0], [-1.0, 1.0, 0.0])

    def test_constant_column_maps_to_zero(self):
        X = np.array([[3.0, 1.0], [3.0, 2.0]])
        ds = learn.Dataset.full(X, np.zeros(2))
        out = cli.normalize(ds)
        np.testing.assert_array_equal(out.points[:, 0], [0.0, 0.0])

    def test_map_is_fit_on_train_rows_only(self):
        X = np.array([[0.0], [10.0], [20.0]])
        ds = learn.Dataset(X, np.zeros(3), train_idx=[0, 1], test_idx=[2])
        out = cli.normalize(ds)
        # Train spans {0,10} → [−1,1]; the held-out 20 exceeds the range.
        np.testing.assert_allclose(out.points[:, 0], [-1.0, 1.0, 3.0])

    def test_empty_train_rejected(self):
        ds = learn.Dataset(np.zeros((2, 1)), np.zeros(2), train_idx=[], test_idx=[0, 1])
        with pytest.raises(ValueError):
            cli.normalize(ds)


class TestKernelCommands:
    def test_eval_matches_library(self, tmp_path, capsys):
        spec_text = "gamma:s=2,theta=1"
        assert cli.main(["kernel", "eval", "--kernel", spec_text, "0", "0.5", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "r,k"
        spec = parse_kernel_spec(spec_text)
        for line, r in zip(lines[1:], [0.0, 0.5, 2.0]):
            got_r, got_k = map(float, line.split(","))
            assert got_r == r
            assert got_k == pytest.approx(eval_kernel(spec, r), abs=1e-15)

    def test_ft_spot_value_log_two(self, capsys):
        assert cli.main(["kernel", "ft", "--kernel", "gamma:s=1,theta=1", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t,ft"
        assert float(lines[1].split(",")[1]) == pytest.approx(math.log(2.0), abs=1e-9)

    def test_ft_half_normal_small_frequency(self, capsys):
        # the limit at t -> 0 is the mean sigma sqrt(2 / pi)
        assert cli.main(["kernel", "ft", "--kernel", "half_normal:sigma=1", "1e-5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1].startswith("1e-05,0.79788456078")

    def test_eval_numeric_weibull_at_tiny_distance(self, capsys):
        # no closed form for alpha <= 1/2; mpmath gives 0.99837041277558629
        assert cli.main(["kernel", "eval", "--kernel", "weibull:theta=1,alpha=0.4", "3e-8"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "3e-08,0.9983704127755862"

    @pytest.mark.parametrize("alpha,t", [("0.4", "5"), ("0.7", "1000"), ("0.9", "1000")])
    def test_ft_numeric_weibull_at_many_periods(self, capsys, alpha, t):
        # tens of thousands of half periods lie below the tail cutoff here
        code = cli.main(["kernel", "ft", "--kernel", f"weibull:theta=1,alpha={alpha}", t])
        assert code == 0
        value = float(capsys.readouterr().out.splitlines()[1].split(",")[1])
        d = parse_kernel_spec(f"weibull:theta=1,alpha={alpha}").dist
        assert value == pytest.approx(kernels._ft_from_kernel(d, float(t)), rel=1e-9, abs=0.0)
        if alpha == "0.4":
            assert value == pytest.approx(0.0784004793744, abs=1e-9)

    def test_table_has_three_columns(self, tmp_path):
        out = tmp_path / "table.csv"
        code = cli.main([
            "kernel", "table", "--kernel", "rayleigh:sigma=1",
            "--max", "4", "--points", "9", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "r,k,ft"
        assert len(lines) == 10
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 1.0
        spec = parse_kernel_spec("rayleigh:sigma=1")
        r, k, ft = map(float, lines[4].split(","))
        assert k == pytest.approx(eval_kernel(spec, r), abs=1e-15)
        assert ft == pytest.approx(eval_ft(spec, r).value, abs=1e-12)

    def test_bad_kernel_spec_is_single_line_error(self, capsys):
        code = cli.main(["kernel", "eval", "--kernel", "nosuch:a=1", "1"])
        assert code != 0
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert len(err_lines) == 1
        record = json.loads(err_lines[0])
        assert "error" in record


def make_regression_file(path, seed=11, n=60, d=2):
    stream = RandomStream(seed)
    X = stream.uniform(n * d).reshape(n, d) * 4.0
    y = np.sin(X[:, 0]) + 0.5 * np.cos(X[:, 1 % d]) + 0.05 * stream.normal(n)
    cli.write_libsvm(path, X, y)
    return X, y


def make_classification_file(path, seed=12, per_class=20, classes=2):
    stream = RandomStream(seed)
    centers = np.array([[0.0, 0.0], [4.0, 4.0], [-4.0, 4.0]])[:classes]
    pts, labels = [], []
    for idx, center in enumerate(centers):
        pts.append(center + 0.4 * stream.child(idx).normal(2 * per_class).reshape(per_class, 2))
        labels.append(np.full(per_class, float(idx)))
    X = np.vstack(pts)
    y = np.concatenate(labels)
    cli.write_libsvm(path, X, y)
    return X, y


class TestFeatures:
    def test_binning_features_and_metadata(self, tmp_path):
        data = tmp_path / "d.txt"
        make_regression_file(data, n=12)
        prefix = tmp_path / "feat"
        code = cli.main([
            "features", str(data), "--map", "binning",
            "--kernel", "gamma:s=2,theta=1;tau=1", "--copies", "8", "--seed", "5",
            "--out", str(prefix),
        ])
        assert code == 0
        lines = (tmp_path / "feat.features.txt").read_text().strip().splitlines()
        assert len(lines) == 12
        for line in lines:
            entries = line.split()
            assert len(entries) == 8  # one nonzero per copy
            for entry in entries:
                row, value = entry.split(":")
                assert int(row) >= 0
                assert float(value) == pytest.approx(1.0 / math.sqrt(8.0))
        meta = json.loads((tmp_path / "feat.meta.json").read_text())
        assert meta["kind"] == "binning"
        assert meta["copies"] == 8
        assert meta["seed"] == 5
        assert "gamma" in meta["kernel"]

    def test_fourier_features_dense(self, tmp_path):
        data = tmp_path / "d.txt"
        make_regression_file(data, n=6)
        prefix = tmp_path / "rf"
        code = cli.main([
            "features", str(data), "--map", "fourier_real",
            "--kernel", "cauchy:scale=1", "--copies", "4", "--seed", "3",
            "--out", str(prefix),
        ])
        assert code == 0
        lines = (tmp_path / "rf.features.txt").read_text().strip().splitlines()
        assert len(lines) == 6
        assert all(len(line.split()) == 4 for line in lines)
        values = [float(e.split(":")[1]) for e in lines[0].split()]
        assert all(abs(v) <= math.sqrt(2.0 / 4.0) + 1e-12 for v in values)

    def test_features_runs_are_byte_identical(self, tmp_path):
        data = tmp_path / "d.txt"
        make_regression_file(data, n=10)
        outputs = []
        for name in ("a", "b"):
            prefix = tmp_path / name
            assert cli.main([
                "features", str(data), "--map", "binning",
                "--kernel", "gamma:s=2,theta=1", "--copies", "4", "--seed", "9",
                "--out", str(prefix),
            ]) == 0
            outputs.append((tmp_path / f"{name}.features.txt").read_bytes())
        assert outputs[0] == outputs[1]

    def test_env_var_sets_default_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("POLYAKERN_SEED", "4242")
        data = tmp_path / "d.txt"
        make_regression_file(data, n=5)
        prefix = tmp_path / "env"
        assert cli.main([
            "features", str(data), "--map", "binning",
            "--kernel", "gamma:s=2,theta=1", "--copies", "2", "--out", str(prefix),
        ]) == 0
        meta = json.loads((tmp_path / "env.meta.json").read_text())
        assert meta["seed"] == 4242


class TestApproxError:
    def test_synthetic_curves(self, tmp_path):
        out = tmp_path / "err.csv"
        code = cli.main([
            "approx-error", "--kernel", "gamma:s=2,theta=1", "--map",
            "fourier_complex,binning", "--copies", "1,4", "--trials", "3",
            "--seed", "7", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "kind,copies,theory,empirical_mean,empirical_stderr"
        assert len(lines) == 5  # 2 kinds × 2 sizes
        rows = [line.split(",") for line in lines[1:]]
        by_key = {(r[0], int(r[1])): [float(v) for v in r[2:]] for r in rows}
        # Binning beats the complex Fourier map in theory for this kernel.
        assert by_key[("binning", 4)][0] < by_key[("fourier_complex", 4)][0]
        # Theory is a relative error in (0, 1]-ish range and shrinks with D.
        assert by_key[("binning", 4)][0] < by_key[("binning", 1)][0]

    def test_reruns_identical(self, tmp_path):
        args = [
            "approx-error", "--kernel", "gamma:s=2,theta=1", "--map", "binning",
            "--copies", "2", "--trials", "2", "--seed", "3",
        ]
        outs = []
        for name in ("x.csv", "y.csv"):
            out = tmp_path / name
            assert cli.main(args + ["--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestFitPredict:
    def test_regression_fit_predict_matches_library(self, tmp_path):
        data = tmp_path / "train.txt"
        make_regression_file(data, seed=21, n=40)
        model_path = tmp_path / "model.json"
        assert cli.main([
            "fit", str(data), "--task", "regression", "--map", "binning",
            "--kernel", "gamma:s=2,theta=1", "--tau", "1.0", "--copies", "16",
            "--lambda", "0.1", "--seed", "13", "--out", str(model_path),
        ]) == 0
        bundle = json.loads(model_path.read_text())
        assert bundle["task"] == "regression"
        assert bundle["map"]["kind"] == "binning"

        preds_path = tmp_path / "preds.csv"
        assert cli.main([
            "predict", str(data), "--model", str(model_path), "--out", str(preds_path),
        ]) == 0
        lines = preds_path.read_text().strip().splitlines()
        assert lines[0] == "index,prediction"
        got = np.array([float(line.split(",")[1]) for line in lines[1:]])

        # Replicate the pipeline directly against the library.
        ds = cli.normalize(cli.parse_libsvm(data))
        spec = KernelSpec(Gamma(s=2.0, theta=1.0), tau=1.0)
        cfg = FeatureMapConfig(kind=BINNING, kernel=spec, dim=2, copies=16, seed=13)
        state = build_map(cfg)
        batch = featurize(state, ds.points)
        model = learn.fit(state, batch, ds.targets, lam=0.1)
        expected = learn.predict(model, ds.points)
        np.testing.assert_allclose(got, expected, atol=1e-9)

    def test_binary_classification_accuracy(self, tmp_path):
        data = tmp_path / "train.txt"
        X, y = make_classification_file(data, classes=2)
        model_path = tmp_path / "model.json"
        assert cli.main([
            "fit", str(data), "--task", "binary", "--map", "binning",
            "--kernel", "gamma:s=2,theta=1", "--copies", "32", "--lambda", "0.1",
            "--seed", "3", "--out", str(model_path),
        ]) == 0
        preds_path = tmp_path / "p.csv"
        assert cli.main([
            "predict", str(data), "--model", str(model_path), "--out", str(preds_path),
        ]) == 0
        lines = preds_path.read_text().strip().splitlines()[1:]
        got = np.array([float(line.split(",")[1]) for line in lines])
        assert (got == y).mean() >= 0.9

    def test_multiclass_runs_and_stores_classes(self, tmp_path):
        data = tmp_path / "train.txt"
        X, y = make_classification_file(data, classes=3, per_class=15)
        model_path = tmp_path / "model.json"
        assert cli.main([
            "fit", str(data), "--task", "multiclass", "--map", "binning",
            "--kernel", "gamma:s=2,theta=1", "--copies", "32", "--lambda", "0.1",
            "--seed", "4", "--out", str(model_path),
        ]) == 0
        bundle = json.loads(model_path.read_text())
        assert bundle["classes"] == [0.0, 1.0, 2.0]

    def test_binary_task_rejects_three_classes(self, tmp_path):
        data = tmp_path / "train.txt"
        make_classification_file(data, classes=3, per_class=5)
        code = cli.main([
            "fit", str(data), "--task", "binary", "--map", "binning",
            "--kernel", "gamma:s=2,theta=1", "--copies", "4", "--lambda", "0.1",
            "--out", str(tmp_path / "m.json"),
        ])
        assert code != 0

    def test_fourier_regression_roundtrip(self, tmp_path):
        data = tmp_path / "train.txt"
        make_regression_file(data, seed=22, n=30)
        model_path = tmp_path / "model.json"
        assert cli.main([
            "fit", str(data), "--task", "regression", "--map", "fourier_real",
            "--kernel", "cauchy:scale=1", "--copies", "24", "--lambda", "0.1",
            "--seed", "6", "--out", str(model_path),
        ]) == 0
        preds_path = tmp_path / "p.csv"
        assert cli.main([
            "predict", str(data), "--model", str(model_path), "--out", str(preds_path),
        ]) == 0
        got = np.array([
            float(line.split(",")[1])
            for line in preds_path.read_text().strip().splitlines()[1:]
        ])
        assert np.all(np.isfinite(got))
        assert got.std() > 0.0

    def test_predict_pads_narrow_file_and_rejects_wide(self, tmp_path, capsys):
        train = tmp_path / "train.txt"
        write_lines(train, ["1 1:0.5 3:0.2", "2 2:0.1 3:-0.4", "0 1:-0.3 2:0.9 3:0.7"])
        model_path = tmp_path / "model.json"
        assert cli.main([
            "fit", str(train), "--task", "regression", "--map", "binning",
            "--kernel", "gamma:s=2,theta=1", "--copies", "8", "--lambda", "0.1",
            "--seed", "5", "--out", str(model_path),
        ]) == 0
        # trailing zero columns omitted: the same rows as explicit zeros
        narrow = tmp_path / "narrow.txt"
        write_lines(narrow, ["0 1:0.5", "0 2:0.1", "0", "0 1:-0.3 2:0.9", "0 2:2.0"])
        full = tmp_path / "full.txt"
        write_lines(full, ["0 1:0.5 3:0", "0 2:0.1 3:0", "0 3:0", "0 1:-0.3 2:0.9 3:0",
                           "0 2:2.0 3:0"])
        outputs = []
        for data in (narrow, full):
            out = tmp_path / (data.stem + ".csv")
            assert cli.main(["predict", str(data), "--model", str(model_path),
                             "--out", str(out)]) == 0
            outputs.append(out.read_text())
        assert outputs[0] == outputs[1]
        assert len(outputs[0].strip().splitlines()) == 6
        capsys.readouterr()
        wide = tmp_path / "wide.txt"
        write_lines(wide, ["0 1:0.5 4:1.0"])
        assert cli.main(["predict", str(wide), "--model", str(model_path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert "model has 3 features" in json.loads(err[0])["error"]

    @pytest.mark.parametrize("kind,kernel", [
        ("binning", "gamma:s=2,theta=1"), ("fourier_real", "cauchy:scale=1"),
    ])
    def test_non_finite_points_are_json_errors(self, tmp_path, capsys, kind, kernel):
        data = tmp_path / "train.txt"
        make_regression_file(data, seed=23, n=20)
        model_path = tmp_path / "model.json"
        assert cli.main([
            "fit", str(data), "--task", "regression", "--map", kind,
            "--kernel", kernel, "--copies", "8", "--lambda", "0.1",
            "--seed", "2", "--out", str(model_path),
        ]) == 0
        for value in ("nan", "inf"):
            bad = tmp_path / f"{value}.txt"
            write_lines(bad, ["0 1:0.1 2:0.2", f"0 1:{value} 2:0.3"])
            capsys.readouterr()
            assert cli.main(["predict", str(bad), "--model", str(model_path)]) == 1
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1
            assert "finite" in json.loads(err[0])["error"]
            code = cli.main([
                "fit", str(bad), "--task", "regression", "--map", kind,
                "--kernel", kernel, "--copies", "8", "--lambda", "0.1",
                "--out", str(tmp_path / "never.json"),
            ])
            assert code == 1
            assert "finite" in json.loads(capsys.readouterr().err.strip())["error"]


    def test_bin_index_overflow_is_json_error(self, tmp_path, capsys):
        # min-max normalization keeps training points in [0, 1]; a test
        # point at 1e300 lands beyond the int64 range of bin indices
        data = tmp_path / "train.txt"
        make_regression_file(data, seed=24, n=20)
        model_path = tmp_path / "model.json"
        assert cli.main([
            "fit", str(data), "--task", "regression", "--map", "binning",
            "--kernel", "gamma:s=2,theta=1", "--copies", "8", "--lambda", "0.1",
            "--seed", "2", "--out", str(model_path),
        ]) == 0
        for value in ("1e300", "-1e300"):
            far = tmp_path / "far.txt"
            write_lines(far, ["0 1:0.1 2:0.2", f"0 1:{value} 2:0.3"])
            capsys.readouterr()
            assert cli.main(["predict", str(far), "--model", str(model_path)]) == 1
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1
            assert "int64" in json.loads(err[0])["error"]


def fit_bundle(tmp_path, task="regression", kind="binning", kernel="gamma:s=2,theta=1"):
    data = tmp_path / "train.txt"
    if task == "regression":
        make_regression_file(data, seed=25, n=20)
    else:
        make_classification_file(data, classes=3, per_class=6)
    model_path = tmp_path / "model.json"
    assert cli.main([
        "fit", str(data), "--task", task, "--map", kind, "--kernel", kernel,
        "--copies", "8", "--lambda", "0.1", "--seed", "2", "--out", str(model_path),
    ]) == 0
    return data, model_path


def predict_error(data, model_path, capsys):
    capsys.readouterr()
    assert cli.main(["predict", str(data), "--model", str(model_path)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    return json.loads(err[0])["error"]


def rewrite_bundle(model_path, edit):
    bundle = json.loads(model_path.read_text())
    edit(bundle)
    model_path.write_text(json.dumps(bundle))


def typed_array(values, dtype):
    """A bundle array: dtype, shape and base64 of the raw bytes."""
    values = np.ascontiguousarray(values, dtype=dtype)
    return {"dtype": dtype, "shape": list(values.shape),
            "data": base64.b64encode(values.tobytes()).decode("ascii")}


def array_of(blob):
    raw = base64.b64decode(blob["data"], validate=True)
    return np.frombuffer(raw, dtype=blob["dtype"]).reshape(blob["shape"])


def edit_weights(bundle, change):
    model = bundle["models"][0]
    model["weights"] = typed_array(change(array_of(model["weights"])), "<f8")


class TestBundleChecks:
    def test_binning_weights_cut_short(self, tmp_path, capsys):
        data, model_path = fit_bundle(tmp_path)
        width = json.loads(model_path.read_text())["vocabulary"]["shape"][0]
        rewrite_bundle(model_path, lambda b: edit_weights(b, lambda w: w[:2]))
        message = predict_error(data, model_path, capsys)
        assert f"weights have 2 entries; the map has {width} feature columns" in message

    def test_fourier_weights_not_one_per_copy(self, tmp_path, capsys):
        data, model_path = fit_bundle(tmp_path, kind="fourier_real", kernel="cauchy:scale=1")
        rewrite_bundle(model_path, lambda b: edit_weights(b, lambda w: np.append(w, 0.5)))
        message = predict_error(data, model_path, capsys)
        assert "weights have 9 entries; the map has 8 feature columns" in message

    def test_classes_do_not_match_models(self, tmp_path, capsys):
        data, model_path = fit_bundle(tmp_path, task="multiclass")
        rewrite_bundle(model_path, lambda b: b["classes"].pop())
        message = predict_error(data, model_path, capsys)
        assert "3 models for task 'multiclass' with 2 classes" in message

    def test_empty_binning_vocabulary(self, tmp_path, capsys):
        data, model_path = fit_bundle(tmp_path)

        def empty(bundle):
            bundle["vocabulary"] = typed_array(np.empty((0, 3)), "<i1")
            edit_weights(bundle, lambda w: w[:0])

        rewrite_bundle(model_path, empty)
        message = predict_error(data, model_path, capsys)
        assert "empty vocabulary" in message


class TestBundleFormat:
    def test_layout(self, tmp_path):
        _, model_path = fit_bundle(tmp_path)
        bundle = json.loads(model_path.read_text())
        assert bundle["format"] == "polyakern-model-v4"
        vocab = array_of(bundle["vocabulary"])
        assert vocab.shape[1] == 3  # the copy, then dim = 2 bins
        assert sorted(set(vocab[:, 0].tolist())) == list(range(8))
        assert bundle["vocabulary"]["dtype"] in ("<i1", "<i2")
        assert array_of(bundle["models"][0]["weights"]).shape == (vocab.shape[0],)

    @pytest.mark.parametrize("values,dtype", [
        ([0], "<i1"), ([-128, 127], "<i1"), ([128], "<i2"), ([-129], "<i2"),
        ([-32768, 32767], "<i2"), ([32768], "<i4"), ([-(2 ** 31)], "<i4"),
        ([2 ** 31], "<i8"), ([-(2 ** 63), 2 ** 63 - 1], "<i8"), ([], "<i1"),
    ])
    def test_narrowest_vocabulary_dtype(self, values, dtype):
        assert cli._narrowest_int(np.array(values, dtype=np.int64)) == dtype

    def test_reload_is_exact_for_every_dtype(self):
        for dtype, big in (("<i1", 100), ("<i2", 30000), ("<i4", 2 ** 30), ("<i8", 2 ** 40)):
            rows = np.array([[0, big, -big], [1, -big, 7]])
            blob = cli._encode_array(rows, cli._narrowest_int(rows))
            assert blob["dtype"] == dtype
            back = cli._decode_array(json.loads(json.dumps(blob)), "vocabulary", (dtype,))
            assert np.array_equal(back, rows)

    @pytest.mark.parametrize("edit,needle", [
        (lambda b: b["models"][0]["weights"].update(data="not*base64!"), "not valid base64"),
        (lambda b: b["vocabulary"].update(data="-" + b["vocabulary"]["data"][1:]),
         "not valid base64"),
        (lambda b: b["vocabulary"].update(dtype="<f8"), "dtype '<f8'"),
        (lambda b: b["vocabulary"].update(dtype=">i8"), "dtype '>i8'"),
        (lambda b: b["models"][0]["weights"].update(dtype="|O"), "dtype '|O'"),
        (lambda b: b["models"][0]["weights"].update(dtype=">f8"), "dtype '>f8'"),
        (lambda b: b["models"][0]["weights"]["shape"].__setitem__(0, 3), "needs 24"),
        (lambda b: b["vocabulary"]["shape"].__setitem__(1, 2), "bytes; shape"),
        (lambda b: b["vocabulary"].update(typed_array(array_of(b["vocabulary"])[:, :2], "<i2")),
         "a copy and 2 bins"),
        (lambda b: b["vocabulary"].update(typed_array(array_of(b["vocabulary"])[:, 0], "<i2")),
         "a copy and 2 bins"),
        (lambda b: b["vocabulary"].update(typed_array(array_of(b["vocabulary"]) + 100, "<i2")),
         "copies must lie in [0, 8)"),
        (lambda b: b["vocabulary"].update(
            typed_array(np.repeat(array_of(b["vocabulary"])[:1], 2, axis=0), "<i2")),
         "repeats a (copy, bins) key"),
        (lambda b: b["models"][0].update(weights=[0.5, 0.25]), "dtype, shape and data"),
        (lambda b: b["vocabulary"].update(shape=[-1, 3]), "list of sizes"),
    ], ids=[
        "weights-not-base64", "vocabulary-not-base64", "vocabulary-f8", "vocabulary-big-endian",
        "weights-object", "weights-big-endian", "weights-byte-count", "vocabulary-byte-count",
        "vocabulary-row-narrow", "vocabulary-one-dim", "vocabulary-copy-range",
        "vocabulary-repeated-key", "weights-plain-list", "negative-shape",
    ])
    def test_malformed_bundle_is_json_error(self, tmp_path, capsys, edit, needle):
        data, model_path = fit_bundle(tmp_path)
        rewrite_bundle(model_path, edit)
        assert needle in predict_error(data, model_path, capsys)

    def test_v1_bundle_names_both_formats(self, tmp_path, capsys):
        def to_v1(bundle):
            rows = array_of(bundle["vocabulary"]).tolist()
            bundle["format"] = "polyakern-model-v1"
            bundle["vocabulary"] = [[r[0], r[1:], j] for j, r in enumerate(rows)]
            for m in bundle["models"]:
                m["weights"] = array_of(m["weights"]).tolist()

        def to_v2(bundle):
            # the v2 layout is v4's; its map was drawn by other samplers
            bundle["format"] = "polyakern-model-v2"

        def to_v3(bundle):
            # the v3 layout is v4's; some laws drew other last bits
            bundle["format"] = "polyakern-model-v3"

        for old, edit in (("v1", to_v1), ("v2", to_v2), ("v3", to_v3)):
            data, model_path = fit_bundle(tmp_path)
            rewrite_bundle(model_path, edit)
            message = predict_error(data, model_path, capsys)
            assert f"'polyakern-model-{old}'" in message, old
            assert "'polyakern-model-v4'" in message, old


class TestCv:
    def test_cv_reports_best_and_table(self, tmp_path, capsys):
        data = tmp_path / "train.txt"
        make_regression_file(data, seed=31, n=40)
        out = tmp_path / "cv.csv"
        code = cli.main([
            "cv", str(data), "--family", "gamma", "--shapes", "2.0",
            "--taus", "0.5,2.0", "--lambdas", "0.1", "--copies", "8",
            "--folds", "4", "--seed", "17", "--out", str(out),
        ])
        assert code == 0
        best = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert best["family"] == "gamma"
        assert best["tau"] in (0.5, 2.0)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "shape,tau,lambda,score"
        assert len(lines) == 3

    def test_cv_deterministic(self, tmp_path, capsys):
        data = tmp_path / "train.txt"
        make_regression_file(data, seed=32, n=24)
        args = [
            "cv", str(data), "--family", "gamma", "--shapes", "1.0",
            "--taus", "1.0", "--lambdas", "0.1,1.0", "--copies", "4",
            "--seed", "8",
        ]
        assert cli.main(args) == 0
        first = capsys.readouterr().out
        assert cli.main(args) == 0
        second = capsys.readouterr().out
        assert first == second


class TestBench:
    def test_rows_per_method_and_size(self, tmp_path):
        data = tmp_path / "train.txt"
        make_regression_file(data, seed=41, n=60)
        out = tmp_path / "bench.csv"
        code = cli.main([
            "bench", str(data), "--task", "regression",
            "--map", "fourier_real,binning", "--kernel", "gamma:s=2,theta=1",
            "--copies", "4,8", "--trials", "2", "--lambda", "0.1",
            "--seed", "19", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == (
            "method,copies,theory_rel_error,empirical_rel_error,"
            "empirical_stderr,metric"
        )
        assert len(lines) == 5  # 2 methods × 2 sizes
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[0] in ("fourier_real", "binning")
            assert int(fields[1]) in (4, 8)
            assert all(np.isfinite(float(v)) for v in fields[2:])

    def test_single_trial_single_size(self, tmp_path):
        data = tmp_path / "train.txt"
        make_regression_file(data, seed=42, n=30)
        out = tmp_path / "bench.csv"
        assert cli.main([
            "bench", str(data), "--task", "regression", "--map", "binning",
            "--kernel", "gamma:s=2,theta=1", "--copies", "8", "--trials", "1",
            "--lambda", "0.1", "--seed", "20", "--out", str(out),
        ]) == 0
        assert len(out.read_text().strip().splitlines()) == 2

    def test_bench_is_byte_identical(self, tmp_path):
        data = tmp_path / "train.txt"
        make_regression_file(data, seed=43, n=30)
        outs = []
        for name in ("b1.csv", "b2.csv"):
            out = tmp_path / name
            assert cli.main([
                "bench", str(data), "--task", "regression", "--map", "binning",
                "--kernel", "gamma:s=2,theta=1", "--copies", "4", "--trials", "2",
                "--lambda", "0.1", "--seed", "21", "--out", str(out),
            ]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_csv_bytes_pinned(self, tmp_path):
        # frozen output of a fixed seed and file: the error summary
        # (mean, standard error, relative errors) must not move by a bit
        data = tmp_path / "train.txt"
        make_regression_file(data, seed=47, n=40)
        out = tmp_path / "bench.csv"
        assert cli.main([
            "bench", str(data), "--task", "regression", "--map", "fourier_real,binning",
            "--kernel", "rayleigh:sigma=1", "--copies", "4,16", "--trials", "3",
            "--lambda", "0.1", "--seed", "23", "--out", str(out),
        ]) == 0
        assert out.read_text() == (
            "method,copies,theory_rel_error,empirical_rel_error,empirical_stderr,metric\n"
            "fourier_real,4,1.2366347856529336,1.3802927608826123,"
            "0.1696298519665566,0.17303194754176418\n"
            "fourier_real,16,0.6183173928264668,0.5315364942159512,"
            "0.04329405011403044,0.07319898633891785\n"
            "binning,4,0.5402271307721224,0.4778561803351589,"
            "0.02837393325680895,0.06256916952554525\n"
            "binning,16,0.2701135653860612,0.24926458204322674,"
            "0.013017797730314822,0.02147551525327594\n"
        )

    def test_subsample_and_descending_sizes_rejected(self, tmp_path):
        data = tmp_path / "train.txt"
        make_regression_file(data, seed=44, n=40)
        out = tmp_path / "bench.csv"
        code = cli.main([
            "bench", str(data), "--task", "regression", "--map", "binning",
            "--kernel", "gamma:s=2,theta=1", "--copies", "8,4", "--trials", "1",
            "--lambda", "0.1", "--out", str(out),
        ])
        assert code != 0
        assert cli.main([
            "bench", str(data), "--task", "regression", "--map", "binning",
            "--kernel", "gamma:s=2,theta=1", "--copies", "4", "--trials", "1",
            "--lambda", "0.1", "--subsample", "20", "--seed", "5",
            "--out", str(out),
        ]) == 0


class TestErrorRecords:
    def test_missing_file(self, capsys):
        code = cli.main(["fit", "/nonexistent/data.txt", "--task", "regression",
                         "--map", "binning", "--kernel", "gamma:s=2,theta=1",
                         "--copies", "2", "--lambda", "0.1",
                         "--out", "/tmp/never.json"])
        assert code != 0
        err = capsys.readouterr().err.strip().splitlines()
        record = json.loads(err[-1])
        assert "error" in record

    def test_unknown_subcommand(self, capsys):
        code = cli.main(["frobnicate"])
        assert code != 0
        err = capsys.readouterr().err.strip().splitlines()
        assert any(line.startswith("{") for line in err)

    @pytest.mark.parametrize("command", ["approx-error", "bench"])
    def test_malformed_kernel_fails_with_fourier_maps_only(self, tmp_path, capsys, command):
        # --kernel is a kernel spec even where no map kind reads it
        data = tmp_path / "train.txt"
        make_regression_file(data, seed=48, n=30)
        out = tmp_path / "out.csv"
        code = cli.main([
            command, str(data), "--kernel", "no_such_family:x=1", "--map", "fourier_real",
            "--copies", "2", "--trials", "1", "--seed", "3", "--out", str(out),
        ] + (["--task", "regression"] if command == "bench" else []))
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert "unknown family 'no_such_family'" in json.loads(err[0])["error"]
        assert not out.exists()

    def test_parse_error_reports_line(self, tmp_path, capsys):
        data = tmp_path / "bad.txt"
        data.write_text("1 1:1\n1 nope\n")
        code = cli.main(["features", str(data), "--map", "binning",
                         "--kernel", "gamma:s=2,theta=1", "--copies", "2",
                         "--out", str(tmp_path / "f")])
        assert code != 0
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "line 2" in record["error"]
