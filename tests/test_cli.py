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
import os
import subprocess
import sys
import textwrap
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from polyakern import approx, cli, feature_maps, learn
from polyakern import polya_kernels as kernels
from polyakern.distributions import Gamma, Weibull, format_distribution
from polyakern.errors import ParseError
from polyakern.feature_maps import (
    BINNING,
    FOURIER_REAL,
    FeatureMapConfig,
    IsotropicNormal,
    TensorCauchy,
    build_map,
    featurize,
)
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

    def test_index_too_large_to_densify_names_its_line(self, tmp_path, capsys):
        # numpy refuses a dimension past int64 before it allocates anything
        f = tmp_path / "d.txt"
        write_lines(f, ["1 1:0.5", "0 2:1 99999999999999999999:1", "2 3:1"])
        message = "line 2: feature index 99999999999999999999 is too large to densify"
        with pytest.raises(ParseError, match=message):
            cli.parse_libsvm(f)
        assert cli.main(["fit", str(f), "--task", "regression", "--map", "binning",
                         "--kernel", "gamma:s=2,theta=1", "--copies", "2",
                         "--lambda", "0.1", "--out", str(tmp_path / "m.json")]) == 1
        assert json.loads(capsys.readouterr().err) == {"error": message}

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
        out = cli.normalize(learn.Dataset(X, np.zeros(3)))
        np.testing.assert_allclose(out.points[:, 0], [-1.0, 1.0, 0.0])

    def test_constant_column_maps_to_zero(self):
        X = np.array([[3.0, 1.0], [3.0, 2.0]])
        out = cli.normalize(learn.Dataset(X, np.zeros(2)))
        np.testing.assert_array_equal(out.points[:, 0], [0.0, 0.0])

    def test_map_is_fit_on_train_rows_only(self):
        X = np.array([[0.0], [10.0], [20.0]])
        normalizer = cli.fit_normalizer(X[:2])
        # Train spans {0,10} → [−1,1]; the held-out 20 exceeds the range.
        np.testing.assert_allclose(normalizer.apply(X)[:, 0], [-1.0, 1.0, 3.0])

    def test_empty_train_rejected(self):
        with pytest.raises(ValueError):
            cli.fit_normalizer(np.zeros((0, 1)))


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

    @pytest.mark.parametrize("kernel", [
        "weibull:theta=1e-300,alpha=0.7", "gamma:s=2,theta=1e-300", "gamma:s=0.5,theta=1e-300",
        "weibull:theta=1e-300,alpha=0.45",
    ])
    def test_eval_where_distance_over_scale_overflows(self, capsys, kernel):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["kernel", "eval", "--kernel", kernel, "1e300"]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines() == ["r,k", "1e+300,0.0"]
        assert captured.err == ""

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

    def test_cos_pieces_at_extreme_scale(self, capsys):
        # the law's scale is 1e300: the law route bounds its pieces past a
        # phase of 2^52, and the kernel route takes the rest by parts from
        # where phase rounding would reach 1e-6 / 8; the transform is about
        # 2 E[1/X] / t^2
        code = cli.main(["kernel", "ft", "--kernel", "weibull:theta=1e300,alpha=3", "1"])
        assert code == 0
        value = float(capsys.readouterr().out.splitlines()[1].split(",")[1])
        assert value == pytest.approx(2.0 * math.gamma(2.0 / 3.0) / 1e300, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("theta,t,expected", [
        # t (t b) overflows, so the law keeps its own scale; about
        # 2 E[1/X] / t^2, a subnormal
        ("1e300", "1e9", 2.0 * math.gamma(2.0 / 3.0) / 1e300 / 1e18),
        # (t b)^2 underflows, so 1 - cos(tX) = (tX)^2 / 2 and the transform
        # is the mean theta Gamma(4/3)
        ("1e-30", "1e-150", 1e-30 * math.gamma(4.0 / 3.0)),
        ("1e-200", "1e-150", 1e-200 * math.gamma(4.0 / 3.0)),
    ])
    def test_ft_where_scaled_frequency_leaves_doubles(self, capsys, theta, t, expected):
        code = cli.main(["kernel", "ft", "--kernel", f"weibull:theta={theta},alpha=3", t])
        assert code == 0
        value = float(capsys.readouterr().out.splitlines()[1].split(",")[1])
        assert value == pytest.approx(expected, rel=1e-5, abs=0.0)

    def test_ft_rayleigh_at_large_frequency(self, capsys):
        # the tilted law's 1 - M(1/2, 1/2, -z) = 1 - e^-z: scipy's hyp1f1
        # took seconds to minutes here and returned NaN past z = 1e19, which
        # printed 0.0; the transform is 2 C / t^2 with C = sqrt(pi / 2)
        start = time.perf_counter()
        assert cli.main(["kernel", "ft", "--kernel", "rayleigh:sigma=1", "1e7"]) == 0
        assert time.perf_counter() - start < 1.0
        assert cli.main(["kernel", "ft", "--kernel", "rayleigh:sigma=1", "1e10"]) == 0
        lines = capsys.readouterr().out.splitlines()
        value = float(lines[3].split(",")[1])
        assert value == pytest.approx(2.5066282746310005e-20, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("spec,t,expected", [
        # log(t E X) is past 1400: the transform underflows to zero
        ("half_normal:sigma=1e300", "1e300", 0.0),
        # log(t E X) is past the largest double's log, 709.8, yet the
        # transform is a normal double; mpmath (Dawson's integral integrated
        # as a 2F2 at 40 digits) gives 1.2605334948654537e-306
        ("half_normal:sigma=1e308", "3", 1.2605334948654537e-306),
    ])
    def test_ft_half_normal_sigma_1e300(self, capsys, spec, t, expected):
        assert cli.main(["kernel", "ft", "--kernel", spec, t]) == 0
        value = float(capsys.readouterr().out.splitlines()[1].split(",")[1])
        assert value == pytest.approx(expected, rel=1e-12, abs=0.0)

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
        assert ft == pytest.approx(eval_ft(spec, r), abs=1e-12)

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

    def test_binning_lines_match_gram(self, tmp_path):
        # each line lists a point's rows once each, ascending, so the
        # lines' inner products are gram's
        data = tmp_path / "d.txt"
        make_regression_file(data, n=12)
        assert cli.main(["features", str(data), "--map", "binning",
                         "--kernel", "gamma:s=2,theta=1", "--copies", "16", "--seed", "5",
                         "--out", str(tmp_path / "h")]) == 0
        state = build_map(FeatureMapConfig(
            kind=BINNING, kernel=cli._kernel_for_kind(BINNING, "gamma:s=2,theta=1"),
            dim=2, copies=16, seed=5))
        batch = featurize(state, cli._load_normalized(data).points)
        lines = (tmp_path / "h.features.txt").read_text(encoding="ascii").splitlines()
        Z = np.zeros((batch.width, batch.n))
        for i, line in enumerate(lines):
            entries = [entry.split(":") for entry in line.split()]
            rows = [int(row) for row, _ in entries]
            assert rows == sorted(set(rows))  # strictly increasing
            for row, value in entries:
                Z[int(row), i] = float(value)
        assert len(lines) == batch.n
        np.testing.assert_allclose(Z.T @ Z, feature_maps.gram(batch), rtol=0.0, atol=1e-12)
        # one entry per copy, each 1/sqrt(D)
        weight = 1.0 / math.sqrt(16)
        assert lines == [" ".join(f"{int(row)}:{weight!r}" for row in column)
                         for column in batch.indices.T]

    @pytest.mark.parametrize("kind,kernel,row_ids", [
        ("binning", "gamma:s=2,theta=1", "key_rank"),
        ("fourier_real", "cauchy:scale=1", "copy"),
    ], ids=["binning", "fourier"])
    def test_sidecar_names_the_row_numbering(self, tmp_path, kind, kernel, row_ids):
        # a binning row is the rank of its (copy, bins) key among the
        # training keys, sorted with the copy first; a Fourier row is its copy
        data = tmp_path / "d.txt"
        make_regression_file(data, n=15)
        assert cli.main(["features", str(data), "--map", kind, "--kernel", kernel,
                         "--copies", "6", "--seed", "4", "--out", str(tmp_path / "f")]) == 0
        meta = json.loads((tmp_path / "f.meta.json").read_text())
        assert list(meta) == ["kind", "kernel", "dim", "copies", "seed", "n", "width",
                              "row_ids"]
        assert meta["row_ids"] == row_ids
        lines = (tmp_path / "f.features.txt").read_text(encoding="ascii").splitlines()
        rows = [[int(entry.split(":")[0]) for entry in line.split()] for line in lines]
        if kind == "binning":
            state = build_map(FeatureMapConfig(kind=BINNING, kernel=parse_kernel_spec(kernel),
                                               dim=2, copies=6, seed=4))
            X = cli._load_normalized(data).points
            bins = np.floor((X[None, :, :] - state.offsets[:, None, :])
                            / state.spacings[:, None, :]).astype(np.int64)
            keys = [[(copy, *bins[copy, i]) for copy in range(6)] for i in range(len(X))]
            ranked = sorted({key for point in keys for key in point})
            assert meta["width"] == len(ranked)
            assert rows == [[ranked.index(key) for key in point] for point in keys]
        else:
            assert rows == [list(range(6))] * 15

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

    @staticmethod
    def fourier_features(tmp_path, kind, n, copies=4):
        data = tmp_path / "d.txt"
        make_regression_file(data, n=n)
        prefix = tmp_path / "f"
        assert cli.main([
            "features", str(data), "--map", kind, "--kernel", "cauchy:scale=1",
            "--copies", str(copies), "--seed", "3", "--out", str(prefix),
        ]) == 0
        state = build_map(FeatureMapConfig(
            kind=kind, kernel=TensorCauchy(1.0), dim=2, copies=copies, seed=3))
        batch = featurize(state, cli._load_normalized(data).points)
        return (tmp_path / "f.features.txt").read_text(encoding="ascii"), batch

    @pytest.mark.parametrize("kind", ["fourier_real", "fourier_complex"])
    def test_fourier_features_one_block_bytes(self, tmp_path, kind):
        # one block: the text of the whole matrix, a line per column
        text, batch = self.fourier_features(tmp_path, kind, n=9)
        Z = feature_maps.feature_matrix(batch)
        expected = [
            " ".join(f"{row}:{cli._format_feature_value(v)}" for row, v in enumerate(Z[:, i]))
            for i in range(batch.n)
        ]
        assert text == "\n".join(expected) + "\n"

    def test_fourier_features_written_block_by_block(self, tmp_path, monkeypatch):
        monkeypatch.setattr(feature_maps, "BLOCK_CELLS", 4 * 4)  # 4 points a block
        made = []
        features = feature_maps._fourier_features

        def counting_features(state, X):
            made.append(X.shape[0])
            return features(state, X)

        monkeypatch.setattr(feature_maps, "_fourier_features", counting_features)
        text, batch = self.fourier_features(tmp_path, "fourier_real", n=10)
        assert made == [4, 4, 2]  # once per block, never the whole matrix
        Z = feature_maps.feature_matrix(batch)
        lines = text.splitlines()
        assert len(lines) == 10
        for i, line in enumerate(lines):
            entries = [e.split(":") for e in line.split()]
            assert [int(row) for row, _ in entries] == [0, 1, 2, 3]
            np.testing.assert_allclose([float(v) for _, v in entries], Z[:, i],
                                       rtol=0.0, atol=1e-14)

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

    @staticmethod
    def count_exact_grams(monkeypatch):
        calls = []
        exact_gram = approx.exact_gram

        def counted(kernel, X, double=False):
            calls.append((type(kernel).__name__, double))
            return exact_gram(kernel, X, double=double)

        monkeypatch.setattr(approx, "exact_gram", counted)
        return calls

    def test_one_exact_matrix_per_kind(self, tmp_path, monkeypatch):
        # every copy count of a kind is scored against the one K of that
        # kind (and one doubled-distance matrix for fourier_real); the
        # bytes are those of a K built anew for each copy count
        calls = self.count_exact_grams(monkeypatch)
        out = tmp_path / "err.csv"
        assert cli.main([
            "approx-error", "--kernel", "gamma:s=2,theta=1", "--fourier-law", "cauchy:scale=1",
            "--copies", "1,4", "--trials", "3", "--subsample", "12", "--seed", "5",
            "--out", str(out),
        ]) == 0
        assert calls == [("TensorCauchy", False), ("TensorCauchy", False),
                         ("TensorCauchy", True), ("KernelSpec", False)]
        assert out.read_text() == (
            "kind,copies,theory,empirical_mean,empirical_stderr\n"
            "fourier_complex,1,2.7043752038707956,2.696663813627455,0.10063756964320981\n"
            "fourier_complex,4,1.3521876019353978,1.3525248001494168,0.01816127906223992\n"
            "fourier_real,1,2.7952898317189234,2.9081847282779663,0.4764349798154886\n"
            "fourier_real,4,1.3976449158594617,1.505865456706649,0.16101247415260814\n"
            "binning,1,0.9193666892937199,1.3707684375520144,0.13689467741659236\n"
            "binning,4,0.45968334464685995,0.432166819319369,0.04426970653249285\n"
        )
        # bench scores its probe through the same reference, one per kind
        calls.clear()
        data = tmp_path / "train.txt"
        make_regression_file(data, seed=47, n=40)
        assert cli.main([
            "bench", str(data), "--task", "regression", "--kernel", "gamma:s=2,theta=1",
            "--copies", "2,4", "--trials", "1", "--out", str(tmp_path / "bench.csv"),
        ]) == 0
        assert calls == [("TensorCauchy", False), ("TensorCauchy", True),
                         ("KernelSpec", False)]

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

    def test_subsample_keeps_first_synthetic_points(self, tmp_path):
        # without a data file --subsample keeps the first N synthetic points
        argv = ["approx-error", "--kernel", "gamma:s=2,theta=1", "--map", "binning",
                "--copies", "2", "--trials", "2", "--seed", "3"]
        kept, whole = tmp_path / "kept.csv", tmp_path / "whole.csv"
        assert cli.main(argv + ["--subsample", "3", "--out", str(kept)]) == 0
        assert cli.main(argv + ["--out", str(whole)]) == 0
        spec = parse_kernel_spec("gamma:s=2,theta=1")
        stats = approx.empirical_error(
            approx.ErrorReference(spec, cli._synthetic_points(3)[:3], BINNING),
            FeatureMapConfig(kind=BINNING, kernel=spec, dim=3, copies=2, seed=3), trials=2,
        )
        row = ",".join(repr(float(v)) for v in (
            stats.theory_rel, stats.empirical_rel, stats.stderr_rel))
        assert kept.read_text().splitlines()[1] == f"binning,2,{row}"
        assert kept.read_bytes() != whole.read_bytes()

    @pytest.mark.parametrize("subsample", ["0", "-3"])
    def test_subsample_below_one_rejected(self, tmp_path, capsys, subsample):
        data = tmp_path / "train.txt"
        make_regression_file(data, seed=45, n=20)
        out = tmp_path / "err.csv"
        code = cli.main([
            "approx-error", str(data), "--kernel", "gamma:s=2,theta=1", "--map",
            "binning", "--copies", "2", "--trials", "2", "--subsample", subsample,
            "--out", str(out),
        ])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert json.loads(err[0])["error"] == "subsample must keep at least 1 point"
        assert not out.exists()

    @pytest.mark.parametrize("maps,copies,message", [
        ("binning", "", "expected comma-separated numbers, got ''"),
        ("binning", "4,4", "copy counts must be nonempty, ascending, distinct"),
        ("binning", "4,1", "copy counts must be nonempty, ascending, distinct"),
        ("binning,binning", "1,4", "map kinds must be distinct, got 'binning,binning'"),
        ("binning,fourier_real,binning", "1",
         "map kinds must be distinct, got 'binning,fourier_real,binning'"),
        ("binning,laplace", "1", "map kind 'laplace' is not one of "
         "('fourier_complex', 'fourier_real', 'binning')"),
    ], ids=["copies-empty", "copies-repeated", "copies-descending", "map-repeated",
            "map-repeated-apart", "map-unknown"])
    def test_list_arguments_are_checked(self, tmp_path, capsys, maps, copies, message):
        # an empty, unordered or repeating list is the JSON error, and no file is written
        out = tmp_path / "err.csv"
        code = cli.main([
            "approx-error", "--kernel", "gamma:s=2,theta=1", "--map", maps,
            "--copies", copies, "--trials", "2", "--seed", "3", "--out", str(out),
        ])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == message
        assert not out.exists()


class TestFitPredict:
    def test_regression_fit_predict_matches_library(self, tmp_path):
        data = tmp_path / "train.txt"
        make_regression_file(data, seed=21, n=40)
        model_path = tmp_path / "model.json"
        assert cli.main([
            "fit", str(data), "--task", "regression", "--map", "binning",
            "--kernel", "gamma:s=2,theta=1;tau=1.0", "--copies", "16",
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

    def test_regression_on_labels_whose_norm_overflows(self, tmp_path, capsys):
        # the norm of the labels 1, 1e200, -1e200 overflows; the solve's
        # residual check still holds, and nothing warns
        data = tmp_path / "train.txt"
        write_lines(data, ["1 1:0.1 2:0.5", "1e200 1:0.7 2:-0.2", "-1e200 1:-0.4 2:0.9"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([
                "fit", str(data), "--task", "regression", "--map", "binning",
                "--kernel", "gamma:s=2,theta=1", "--copies", "4", "--lambda", "0.1",
                "--seed", "3", "--out", str(tmp_path / "model.json"),
            ]) == 0
        assert capsys.readouterr().err == ""

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

    def test_infinite_lambda_is_json_error(self, tmp_path, capsys):
        data = tmp_path / "train.txt"
        make_regression_file(data, seed=21, n=20)
        model_path = tmp_path / "model.json"
        code = cli.main([
            "fit", str(data), "--task", "regression", "--map", "binning",
            "--kernel", "gamma:s=2,theta=1", "--copies", "4", "--lambda", "inf",
            "--out", str(model_path),
        ])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert json.loads(err[0])["error"] == "ridge penalty must be positive and finite, got inf"
        assert not model_path.exists()

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


#: A kernel whose bins are wide enough that an exact binning fit on
#: ``fit_bundle``'s regression or multiclass data has no more columns than
#: points, so that it takes the primal route.
WIDE_BINS = "gamma:s=2,theta=1;rho=0.2"


#: ``fit_bundle`` arguments of each bundle the format checks edit: dual
#: exact binning bundles of each task, and primal exact binning ones.
BUNDLES = {
    "regression": {},
    "binary": {"task": "binary"},
    "multiclass": {"task": "multiclass"},
    "primal": {"kernel": WIDE_BINS},
    "primal-multiclass": {"task": "multiclass", "kernel": WIDE_BINS},
}


def fit_bundle(tmp_path, task="regression", kind="binning", kernel="gamma:s=2,theta=1"):
    data = tmp_path / "train.txt"
    if task == "regression":
        make_regression_file(data, seed=25, n=20)
    else:
        make_classification_file(data, classes=2 if task == "binary" else 3, per_class=6)
    model_path = tmp_path / "model.json"
    assert cli.main([
        "fit", str(data), "--task", task, "--map", kind, "--kernel", kernel,
        "--copies", "8", "--lambda", "0.1", "--seed", "2", "--out", str(model_path),
    ]) == 0
    return data, model_path


def predict_error(data, model_path, capsys):
    """The one JSON error line of ``predict`` on a bad bundle, which exits 1
    and writes no predictions."""
    capsys.readouterr()
    assert cli.main(["predict", str(data), "--model", str(model_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
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


def vocabulary_rows(state, points):
    """The key of each column of an exact binning map that ``points``
    filled, in column order: (copy, bin of each coordinate), numbered by
    first appearance copy by copy and point by point (the v5 layout)."""
    bins = np.floor((points[None, :, :] - state.offsets[:, None, :])
                    / state.spacings[:, None, :]).astype(np.int64)
    keys = {(copy, *row): None for copy in range(len(bins)) for row in bins[copy].tolist()}
    return np.array(list(keys), dtype=np.int64)


def edit_array(bundle, name, change):
    bundle[name] = typed_array(change(array_of(bundle[name])), "<f8")


def edit_weights(bundle, change):
    edit_array(bundle, "weights", change)


class TestBundleChecks:
    def test_binning_weights_cut_short(self, tmp_path, capsys):
        # a primal exact binning bundle: the points rebuild the vocabulary,
        # and the weights must have one row per column of it
        data, model_path = fit_bundle(tmp_path, kernel=WIDE_BINS)
        bundle = json.loads(model_path.read_text())
        assert bundle["route"] == "primal"
        _, state, _, _, _ = cli.load_model(model_path)
        width = len(state.vocabulary)
        assert bundle["weights"]["shape"] == [width] and width > 2
        rewrite_bundle(model_path, lambda b: edit_weights(b, lambda w: w[:2]))
        message = predict_error(data, model_path, capsys)
        assert f"weights have shape [2]; its map and classes need [{width}]" in message

    def test_exact_binning_model_needs_the_points_that_filled_its_map(self, tmp_path):
        # a bundle rebuilds the vocabulary from the model's points, so a model
        # fit on other points is not saved
        X = np.linspace(0.0, 1.0, 6).reshape(-1, 1)
        y = np.arange(6.0)
        path = tmp_path / "m.json"
        state = build_map(FeatureMapConfig(kind=BINNING, kernel=KernelSpec(Gamma(2.0, 1.0)),
                                           dim=1, copies=2, seed=7))
        featurize(state, X)
        for other in (X[::-1], X[:4], 2.0 * X):
            model = learn.fit(state, featurize(state, other), y[:len(other)], lam=0.1)
            with pytest.raises(ValueError, match="points that filled its map"):
                cli.save_model(path, "regression", cli.fit_normalizer(X), model)
            assert not path.exists()
        # the same points featurized again are the points that filled it
        model = learn.fit(state, featurize(state, X.copy()), y, lam=0.1)
        cli.save_model(path, "regression", cli.fit_normalizer(X), model)
        assert np.array_equal(learn.predict(cli.load_model(path)[3][0], X),
                              learn.predict(model, X))

    def test_fourier_weights_not_one_per_copy(self, tmp_path, capsys):
        data, model_path = fit_bundle(tmp_path, kind="fourier_real", kernel="cauchy:scale=1")
        rewrite_bundle(model_path, lambda b: edit_weights(b, lambda w: np.append(w, 0.5)))
        message = predict_error(data, model_path, capsys)
        assert "weights have shape [9]; its map and classes need [8]" in message

    def test_classes_do_not_match_models(self, tmp_path, capsys):
        # three solution columns against two classes, on either route
        for kernel, name, rows_of in (("gamma:s=2,theta=1", "alpha", "points"),
                                      (WIDE_BINS, "weights", "map")):
            data, model_path = fit_bundle(tmp_path, task="multiclass", kernel=kernel)
            rows = json.loads(model_path.read_text())[name]["shape"][0]
            rewrite_bundle(model_path, lambda b: b["classes"].pop())
            message = predict_error(data, model_path, capsys)
            assert (f"{name} have shape [{rows}, 3]; its {rows_of} and classes need "
                    f"[{rows}, 2]") in message

    def test_empty_binning_vocabulary(self, tmp_path, capsys):
        # no points rebuild an empty vocabulary, on either route
        for kernel in ("gamma:s=2,theta=1", WIDE_BINS):
            data, model_path = fit_bundle(tmp_path, kernel=kernel)

            def empty(bundle):
                bundle["points"] = typed_array(np.empty((0, 2)), "<f8")
                solution = "alpha" if "alpha" in bundle else "weights"
                edit_array(bundle, solution, lambda a: a[:0])

            rewrite_bundle(model_path, empty)
            message = predict_error(data, model_path, capsys)
            assert message == "bundle points are empty"


def normalized_points(data):
    """The training points of a LIBSVM file as ``fit`` normalizes them."""
    ds = cli.parse_libsvm(data)
    return cli.fit_normalizer(ds.points).apply(ds.points)


class TestBundleFormat:
    def test_layout(self, tmp_path):
        # a dual bundle: the normalized training points and the dual
        # coefficients, one per point
        data, model_path = fit_bundle(tmp_path)
        bundle = json.loads(model_path.read_text())
        assert list(bundle) == ["format", "task", "map", "normalizer", "points",
                                "alpha", "y_mean", "lambda", "route"]
        assert bundle["format"] == "polyakern-model-v7"
        assert list(bundle["map"]) == ["kind", "kernel", "dim", "copies", "seed"]
        points = array_of(bundle["points"])
        assert points.tobytes() == normalized_points(data).tobytes()
        assert bundle["points"]["dtype"] == bundle["alpha"]["dtype"] == "<f8"
        assert array_of(bundle["alpha"]).shape == (20,)
        assert (bundle["lambda"], bundle["route"]) == (0.1, "dual")

    def test_primal_exact_binning_keeps_its_points(self, tmp_path):
        data, model_path = fit_bundle(tmp_path, kernel=WIDE_BINS)
        bundle = json.loads(model_path.read_text())
        assert list(bundle) == ["format", "task", "map", "normalizer", "points",
                                "weights", "y_mean", "lambda", "route"]
        assert array_of(bundle["points"]).tobytes() == normalized_points(data).tobytes()
        assert bundle["route"] == "primal"

    def test_classifier_weights_are_one_matrix(self, tmp_path):
        # one array with a column per class: the weights on the primal
        # route, the dual coefficients on the dual route
        for kernel, name, rows in ((WIDE_BINS, "weights", None),
                                   ("gamma:s=2,theta=1", "alpha", 18)):
            _, model_path = fit_bundle(tmp_path, task="multiclass", kernel=kernel)
            bundle = json.loads(model_path.read_text())
            _, state, _, _, _ = cli.load_model(model_path)
            assert bundle[name]["shape"] == [rows or len(state.vocabulary), 3]
            assert {"alpha", "weights"} & set(bundle) == {name}
            assert (bundle["classes"], bundle["y_mean"]) == ([0.0, 1.0, 2.0], 0.0)

    def test_no_vocabulary_without_a_binning_map(self, tmp_path):
        # a primal bundle of a map without a vocabulary holds its weights only
        data, model_path = fit_bundle(tmp_path, kind="fourier_real", kernel="cauchy:scale=1")
        bundle = json.loads(model_path.read_text())
        assert bundle["route"] == "primal"
        assert not {"vocabulary", "points", "alpha"} & set(bundle)
        assert bundle["weights"]["shape"] == [8]
        assert cli.main(["predict", str(data), "--model", str(model_path),
                         "--out", str(tmp_path / "p.csv")]) == 0

    def test_bundle_with_null_hash_buckets_loads(self, tmp_path):
        # bundles of this format written with the hashed map still in the
        # code name "hash_buckets": null in their map; they load and predict
        # as the bundle without it does
        data, model_path = fit_bundle(tmp_path)
        out = tmp_path / "p.csv"
        assert cli.main(["predict", str(data), "--model", str(model_path),
                         "--out", str(out)]) == 0
        expected = out.read_bytes()
        rewrite_bundle(model_path, lambda b: b["map"].update(hash_buckets=None))
        assert cli.main(["predict", str(data), "--model", str(model_path),
                         "--out", str(out)]) == 0
        assert out.read_bytes() == expected

    def test_reload_is_exact_for_every_dtype(self):
        # bundles write one dtype, little-endian doubles; every value,
        # signed zeros, subnormals and the extremes included, reads back
        values = np.array([[0.0, -0.0, 5e-324, -2.2250738585072014e-308],
                           [1.0 / 3.0, np.pi, 1.7976931348623157e308, -1.7976931348623157e308]])
        blob = cli._encode_array(values)
        assert blob["dtype"] == "<f8"
        back = cli._decode_array(json.loads(json.dumps(blob)), "points")
        assert back.tobytes() == values.tobytes()

    @pytest.mark.parametrize("edit,needle,bundle_of", [
        (lambda b: b["weights"].update(data="not*base64!"), "not valid base64", "primal"),
        (lambda b: b["points"].update(data="-" + b["points"]["data"][1:]),
         "not valid base64", "regression"),
        (lambda b: b["points"].update(typed_array(array_of(b["points"]), "<i8")),
         "dtype '<i8'", "regression"),
        (lambda b: b["points"].update(dtype=">f8"), "dtype '>f8'", "regression"),
        (lambda b: b["weights"].update(dtype="|O"), "dtype '|O'", "primal"),
        (lambda b: b["weights"].update(dtype=">f8"), "dtype '>f8'", "primal"),
        (lambda b: b["weights"]["shape"].__setitem__(0, 3), "needs 24", "primal"),
        (lambda b: b["points"]["shape"].__setitem__(1, 3), "bytes; shape", "regression"),
        (lambda b: edit_array(b, "points", lambda p: p[:, :1]),
         "points must be n x 2, got array of shape (20, 1)", "regression"),
        (lambda b: edit_array(b, "points", lambda p: p[:, 0]),
         "points must be n x 2, got array of shape (20,)", "regression"),
        (lambda b: edit_array(b, "points", lambda p: np.hstack([p, p[:, :1]])),
         "points must be n x 2, got array of shape (20, 3)", "primal"),
        (lambda b: edit_array(b, "points", lambda p: np.where(p == p.max(), np.nan, p)),
         "points must be finite", "regression"),
        (lambda b: edit_array(b, "points", lambda p: np.where(p == p.max(), np.inf, p)),
         "points must be finite", "primal"),
        # one point repeated: every copy puts it in one bin, so the points
        # rebuild a vocabulary of one (copy, bins) key per copy, narrower
        # than the weights fit on the points that filled the map
        (lambda b: edit_array(b, "points", lambda p: np.repeat(p[:1], len(p), axis=0)),
         "weights have shape [13]; its map and classes need [8]", "primal"),
        (lambda b: edit_array(b, "alpha", lambda a: a[:5]),
         "alpha have shape [5]; its points and classes need [20]", "regression"),
        (lambda b: edit_array(b, "alpha", lambda a: np.append(a, 0.5)),
         "alpha have shape [21]; its points and classes need [20]", "regression"),
        (lambda b: edit_array(b, "alpha", lambda a: a[:, 0]),
         "alpha have shape [12]; its points and classes need [12, 2]", "binary"),
        (lambda b: edit_array(b, "alpha", lambda a: np.hstack([a, a[:, :1]])),
         "alpha have shape [18, 4]; its points and classes need [18, 3]", "multiclass"),
        (lambda b: b["alpha"].update(dtype="<f4"), "dtype '<f4'", "regression"),
        (lambda b: b.update(weights=[0.5, 0.25]), "dtype, shape and data", "primal"),
        (lambda b: b["points"].update(shape=[-1, 2]), "list of sizes", "regression"),
        (lambda b: b.update({"lambda": None}), "positive finite lambda", "regression"),
        (lambda b: b.update(y_mean=[1, 2]), "finite y_mean", "regression"),
        (lambda b: b.update(map=[1]), "map must be an object", "regression"),
        (lambda b: b.update(normalizer={"center": [0.0], "halfwidth": [1.0]}),
         "needs 2 finite centers", "regression"),
        (lambda b: b["map"].update(copies=8.5), "integer dim, copies and seed", "regression"),
        (lambda b: b.update(task="foo"), "task 'foo' is not one of", "binary"),
        (lambda b: b.update(classes=[0.0]), "regression bundle has none", "regression"),
        (lambda b: b.update(classes=[0.0, 0.0]), "distinct finite numbers", "binary"),
        (lambda b: b.update(y_mean=10 ** 400), "finite y_mean", "regression"),
        (lambda b: b["normalizer"]["center"].__setitem__(0, -(10 ** 400)),
         "needs 2 finite centers", "regression"),
        (lambda b: b.update(classes=[0.0, 10 ** 400]), "distinct finite numbers", "binary"),
        (lambda b: b.update({"lambda": float("inf")}), "positive finite lambda", "regression"),
        (lambda b: b.update(route="cg"), "primal or dual route", "regression"),
        (lambda b: b.update(classes=[0.0]), "two or more distinct", "binary"),
        (lambda b: edit_weights(b, lambda w: w[:, 0]), "weights have shape [",
         "primal-multiclass"),
        (lambda b: b["map"].pop("kind"), "string kind and kernel", "regression"),
        (lambda b: b["map"].update(hash_buckets=16), "bundle map has hash_buckets 16; "
         "hashed binning maps are no longer supported", "regression"),
        (lambda b: b["normalizer"].pop("center"), "needs 2 finite centers", "regression"),
    ], ids=[
        "weights-not-base64", "points-not-base64", "points-i8", "points-big-endian",
        "weights-object", "weights-big-endian", "weights-byte-count", "points-byte-count",
        "points-narrow", "points-one-dim", "points-wide", "points-nan", "points-inf",
        "vocabulary-repeated-key",
        "alpha-short", "alpha-long", "alpha-one-column", "alpha-extra-column", "alpha-f4",
        "weights-plain-list", "negative-shape",
        "lambda-null", "y_mean-list", "map-list",
        "normalizer-one-entry", "copies-fraction", "task-unknown", "classes-on-regression",
        "classes-repeated", "y_mean-huge-int", "center-huge-int",
        "classes-huge-int", "lambda-infinite", "route-unknown", "classes-one",
        "weights-one-column", "map-without-kind", "map-hash-buckets",
        "normalizer-without-center",
    ])
    def test_malformed_bundle_is_json_error(self, tmp_path, capsys, edit, needle, bundle_of):
        data, model_path = fit_bundle(tmp_path, **BUNDLES[bundle_of])
        rewrite_bundle(model_path, edit)
        assert needle in predict_error(data, model_path, capsys)

    @pytest.mark.parametrize("field,bundle_of", [
        ("task", "regression"), ("map", "regression"), ("normalizer", "regression"),
        ("points", "primal"), ("points", "regression"), ("alpha", "regression"),
        ("weights", "primal"), ("y_mean", "regression"), ("lambda", "regression"),
        ("route", "regression"),
    ], ids=["task", "map", "normalizer", "points", "points-dual", "alpha", "weights",
            "y_mean", "lambda", "route"])
    def test_missing_field_is_named(self, tmp_path, capsys, field, bundle_of):
        data, model_path = fit_bundle(tmp_path, **BUNDLES[bundle_of])
        rewrite_bundle(model_path, lambda b: b.pop(field))
        assert predict_error(data, model_path, capsys) == f"bundle has no {field!r} field"

    def test_v1_bundle_names_both_formats(self, tmp_path, capsys):
        def to_v6(bundle, model_path):
            # the v6 layout is v7's; its exact binning columns, and so a
            # primal bundle's weights, were in first-appearance order
            bundle["format"] = "polyakern-model-v6"

        def to_v5(bundle, model_path):
            # the vocabulary rows and the weights in place of the points and
            # the dual coefficients
            _, state, _, (model,), _ = cli.load_model(model_path)
            rows = vocabulary_rows(state, model.points)
            columns = state.vocabulary.lookup(rows.T)
            assert sorted(columns.tolist()) == list(range(len(rows)))
            del bundle["points"], bundle["alpha"]
            bundle["format"] = "polyakern-model-v5"
            bundle["vocabulary"] = typed_array(rows, "<i8")
            bundle["weights"] = typed_array(model.weights[columns], "<f8")

        def to_v4(bundle, model_path):
            # one models entry per weight column, each with its own copy of
            # y_mean, lambda and route
            to_v5(bundle, model_path)
            bundle["format"] = "polyakern-model-v4"
            bundle["models"] = [{key: bundle.pop(key)
                                 for key in ("weights", "y_mean", "lambda", "route")}]

        def to_v1(bundle, model_path):
            to_v4(bundle, model_path)
            rows = array_of(bundle["vocabulary"]).tolist()
            bundle["format"] = "polyakern-model-v1"
            bundle["vocabulary"] = [[r[0], r[1:], j] for j, r in enumerate(rows)]
            for m in bundle["models"]:
                m["weights"] = array_of(m["weights"]).tolist()

        def to_v2(bundle, model_path):
            # the v2 layout is v4's; its map was drawn by other samplers
            to_v4(bundle, model_path)
            bundle["format"] = "polyakern-model-v2"

        def to_v3(bundle, model_path):
            # the v3 layout is v4's; some laws drew other last bits
            to_v4(bundle, model_path)
            bundle["format"] = "polyakern-model-v3"

        for old, edit in (("v1", to_v1), ("v2", to_v2), ("v3", to_v3), ("v4", to_v4),
                          ("v5", to_v5), ("v6", to_v6)):
            data, model_path = fit_bundle(tmp_path)
            rewrite_bundle(model_path, lambda b: edit(b, model_path))
            message = predict_error(data, model_path, capsys)
            assert f"'polyakern-model-{old}'" in message, old
            assert "'polyakern-model-v7'" in message, old


class TestCv:
    def test_infinite_lambda_is_json_error(self, tmp_path, capsys):
        data = tmp_path / "train.txt"
        make_regression_file(data, seed=31, n=20)
        code = cli.main([
            "cv", str(data), "--shapes", "2.0", "--taus", "1.0", "--lambdas", "0.1,inf",
            "--copies", "4", "--folds", "2", "--seed", "17",
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert json.loads(err[0])["error"] == "ridge penalty must be positive and finite, got inf"

    def test_nan_label_is_json_error(self, tmp_path, capsys):
        data = tmp_path / "train.txt"
        make_regression_file(data, seed=31, n=20)
        lines = data.read_text().splitlines()
        lines[3] = "nan " + lines[3].split(" ", 1)[1]
        data.write_text("\n".join(lines) + "\n")
        code = cli.main([
            "cv", str(data), "--shapes", "2.0", "--taus", "1.0", "--lambdas", "0.1",
            "--copies", "4", "--folds", "2", "--seed", "17",
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert json.loads(err[0])["error"] == "targets contain non-finite values"

    @pytest.mark.parametrize("grid,message", [
        (["--taus", "1,inf"], "tau must be positive and finite, got inf"),
        (["--shapes", "1,0"], "s must be positive and finite, got 0.0"),
        (["--family", "nakagami", "--shapes", "1,0.25"], "m must be >= 1/2, got 0.25"),
    ], ids=["tau-infinite", "gamma-shape-zero", "nakagami-shape-below-half"])
    def test_grid_is_checked_before_any_map_is_drawn(self, tmp_path, capsys, monkeypatch,
                                                     grid, message):
        data = tmp_path / "train.txt"
        make_regression_file(data, seed=31, n=20)
        calls = []
        build = learn.build_map
        monkeypatch.setattr(learn, "build_map", lambda cfg: calls.append(cfg) or build(cfg))
        args = ["cv", str(data), "--shapes", "1.0", "--taus", "1.0", "--lambdas", "0.1",
                "--copies", "4", "--folds", "2", "--seed", "17"]
        code = cli.main(args + grid)  # a later option overrides an earlier one
        assert code == 1
        assert calls == []
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert len(err) == 1
        assert message in json.loads(err[0])["error"]

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
        # (mean, standard error, relative errors) must not move by a bit;
        # the binning metric at 4 copies is a primal fit, whose Cholesky
        # rounding follows the order of the binning columns (key ranks).
        # The Rayleigh kernel matrix takes numpy's exp and scipy's erfc, so
        # the binning standard errors read those functions' last bits
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
            "fourier_real,4,1.2366347856529336,1.3802927467246164,"
            "0.1696298492071002,0.17303195040204986\n"
            "fourier_real,16,0.6183173928264668,0.5315364934051924,"
            "0.04329405140759462,0.07319898560235463\n"
            "binning,4,0.5402271307721224,0.4778561803351589,"
            "0.028373933256808953,0.06256916952554524\n"
            "binning,16,0.2701135653860612,0.24926458204322674,"
            "0.013017797730314827,0.02147551525327594\n"
        )

    def test_binary_rejects_three_classes(self, tmp_path, capsys):
        # the same check and JSON error as `fit --task binary`
        data = tmp_path / "c3.txt"
        make_classification_file(data, classes=3, per_class=5)
        out = tmp_path / "bench.csv"
        code = cli.main([
            "bench", str(data), "--task", "binary", "--map", "binning",
            "--kernel", "gamma:s=2,theta=1", "--copies", "4", "--trials", "1",
            "--out", str(out),
        ])
        assert code != 0
        assert not out.exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert json.loads(err[0])["error"] == (
            "binary task needs exactly two classes, found 3"
        )

    def test_repeated_map_kind_rejected(self, tmp_path, capsys):
        # a kind named twice would run twice, under two different seeds
        data = tmp_path / "train.txt"
        make_regression_file(data, seed=44, n=40)
        out = tmp_path / "bench.csv"
        code = cli.main([
            "bench", str(data), "--task", "regression", "--map", "binning,binning",
            "--kernel", "gamma:s=2,theta=1", "--copies", "4", "--trials", "1",
            "--out", str(out),
        ])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "map kinds must be distinct, got 'binning,binning'"
        assert not out.exists()

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

    KERNEL = ["--kernel", "gamma:s=2,theta=1"]
    CV = ["cv", "{data}", "--copies", "4", "--folds", "2"]
    FIT = ["fit", "{data}", "--task", "regression", "--map", "binning", *KERNEL,
           "--copies", "2", "--lambda", "0.1"]
    BENCH = ["bench", "{data}", "--task", "regression", *KERNEL]
    NO_OUT = "<no --out>"  # ends a case that runs without the --out the others get

    @pytest.mark.parametrize("argv,env,message", [
        (["kernel", "eval", *KERNEL, "1", "--frobnicate"], None,
         "unrecognized arguments: --frobnicate"),
        (["fit", "{data}", "--task", "regression", "--map", "binning", *KERNEL,
          "--copies", "x", "--lambda", "0.1"], None, "argument --copies: invalid int value: 'x'"),
        (["frobnicate"], None, "argument command: invalid choice: 'frobnicate'"),
        (["kernel", "eval", "1"], None, "the following arguments are required: --kernel"),
        (["kernel", "eval", *KERNEL, "1"], "abc", "POLYAKERN_SEED must be an integer, got 'abc'"),
        (["kernel", "eval", *KERNEL, "1"], "-5", "POLYAKERN_SEED must be non-negative, got '-5'"),
        (["fit", "{data}", "--task", "regression", "--map", "binning", *KERNEL,
          "--copies", "2", "--lambda", "0.1"], "-5",
         "POLYAKERN_SEED must be non-negative, got '-5'"),
        (CV + ["--seed", "-3"], None, "argument --seed: must be non-negative, got -3"),
        (["approx-error", *KERNEL, "--seed", "-3"], None,
         "argument --seed: must be non-negative, got -3"),
        (CV + ["--seed", "x"], None, "argument --seed: invalid int value: 'x'"),
        (["fit", "{data}", "--task", "regression", "--map", "binning", *KERNEL,
          "--copies", "2", "--lambda", "0.1", "--hash-buckets", "8"], None,
         "unrecognized arguments: --hash-buckets 8"),
        (["approx-error", *KERNEL, "--copies", "1,,4", "--trials", "1"], None,
         "expected comma-separated numbers, got '1,,4'"),
        (CV + ["--taus", "1,,2"], None, "expected comma-separated numbers, got '1,,2'"),
        (CV + ["--shapes", ""], None, "expected comma-separated numbers, got ''"),
        (CV + ["--taus", ""], None, "expected comma-separated numbers, got ''"),
        (CV + ["--lambdas", ""], None, "expected comma-separated numbers, got ''"),
        (["kernel", "table", *KERNEL, "--points", "0"], None, "points must be >= 1"),
        (["kernel", "table", *KERNEL, "--max", "-1", "--points", "3"], None,
         "max must be finite and >= 0, got -1.0"),
        (["kernel", "table", *KERNEL, "--max", "nan"], None, "max must be finite and >= 0"),
        (["kernel", "table", *KERNEL, "--max", "inf"], None, "max must be finite and >= 0"),
        (CV + ["--shapes", "2,2", "--taus", "1"], None,
         "search grid shapes must be non-empty and distinct, got (2.0, 2.0)"),
        (CV + ["--shapes", "2", "--taus", "1,1"], None,
         "search grid taus must be non-empty and distinct, got (1.0, 1.0)"),
        (CV + ["--shapes", "2", "--taus", "1", "--lambdas", "0.1,0.10"], None,
         "search grid lambdas must be non-empty and distinct, got (0.1, 0.1)"),
        (FIT + [NO_OUT], None, "the following arguments are required: --out"),
        (["features", "{data}", "--map", "binning", *KERNEL, "--copies", "2", NO_OUT], None,
         "the following arguments are required: --out"),
        (["approx-error", *KERNEL, "--copies", "1.5", "--trials", "1"], None,
         "expected comma-separated integers, got '1.5'"),
        (BENCH + ["--trials", "0"], None, "trials must be >= 1"),
        (BENCH + ["--subsample", "4"], None, "subsample must keep at least 5 points"),
        (["cv", "{data}", "--copies", "4", "--folds", "1"], None,
         "cross-validation needs at least two folds"),
        (["cv", "{data}", "--copies", "4", "--folds", "21"], None,
         "need at least 21 points, got 20"),
        (["features", "{data}", "--map", "binning", *KERNEL, "--copies", "2", "--out", "",
          NO_OUT], None, "features needs a non-empty --out PREFIX for its two files"),
        (["kernel", "eval", *KERNEL, "nan"], None, "r must be finite, got nan"),
        (["kernel", "ft", *KERNEL, "inf"], None, "t must be finite, got inf"),
    ], ids=["unknown-option", "copies-not-int", "unknown-subcommand", "missing-kernel",
            "seed-env", "seed-env-negative", "fit-seed-env-negative", "cv-seed-negative",
            "approx-seed-negative", "cv-seed-not-int", "fit-hash-buckets",
            "copies-empty-entry", "cv-taus-empty-entry", "cv-shapes-empty",
            "cv-taus-empty", "cv-lambdas-empty", "table-no-points", "table-negative-max",
            "table-nan-max", "table-infinite-max", "cv-shapes-repeated", "cv-taus-repeated",
            "cv-lambdas-repeated", "fit-no-out", "features-no-out", "copies-not-integer",
            "bench-no-trials", "bench-subsample-below-five", "cv-one-fold",
            "cv-more-folds-than-points", "features-empty-out", "eval-nan", "ft-infinite"])
    def test_argument_error_is_one_json_line(self, tmp_path, capsys, monkeypatch,
                                             argv, env, message):
        data, out = tmp_path / "train.txt", tmp_path / "out"
        make_regression_file(data, seed=48, n=20)
        if env is not None:
            monkeypatch.setenv("POLYAKERN_SEED", env)
        argv = argv[:-1] if argv[-1] == self.NO_OUT else argv + ["--out", str(out)]
        assert cli.main([arg.format(data=data) for arg in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1
        # a prefix, since argparse words its list of choices differently
        # across Python versions
        assert json.loads(err[0])["error"].startswith(message)
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--help"], ["fit", "--help"]])
    def test_help_is_printed_and_returns_zero(self, capsys, argv):
        assert cli.main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: polyakern")
        assert captured.err == ""

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

    def single_error(self, capsys):
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        return json.loads(err[0])["error"]

    # Each size below lies past the address space, so the allocation fails
    # at once and touches no memory.
    def test_libsvm_too_wide_to_densify(self, tmp_path, capsys):
        data = tmp_path / "wide.txt"
        write_lines(data, ["1 1:0.5 1000000000000000:1"])
        code = cli.main(["features", str(data), "--map", "binning",
                         "--kernel", "gamma:s=2,theta=1", "--copies", "2",
                         "--out", str(tmp_path / "f")])
        assert code == 1
        assert self.single_error(capsys) == (
            "line 1: feature index 1000000000000000 is too large to densify")

    def test_bundle_with_too_many_copies(self, tmp_path, capsys):
        data, model_path = fit_bundle(tmp_path, kind="fourier_real", kernel="cauchy:scale=1")
        rewrite_bundle(model_path, lambda b: b["map"].update(copies=10 ** 15))
        assert "Unable to allocate" in predict_error(data, model_path, capsys)

    def test_transform_overflow(self, monkeypatch, capsys):
        def overflow(law, a):
            raise OverflowError("math range error")

        monkeypatch.setattr(kernels, "_spectral_identity", overflow)
        code = cli.main(["kernel", "ft", "--kernel", "half_normal:sigma=1", "1"])
        assert code == 1
        assert self.single_error(capsys) == "math range error"

    def test_parse_error_reports_line(self, tmp_path, capsys):
        data = tmp_path / "bad.txt"
        data.write_text("1 1:1\n1 nope\n")
        code = cli.main(["features", str(data), "--map", "binning",
                         "--kernel", "gamma:s=2,theta=1", "--copies", "2",
                         "--out", str(tmp_path / "f")])
        assert code != 0
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "line 2" in record["error"]


MALFORMED_LAWS = [
    ("cauchy", "expected 'family:key=value,...', got 'cauchy'"),
    ("cauchy:", "expected 'family:key=value,...', got 'cauchy:'"),
    ("cauchy:sigma=1", "unknown parameter 'sigma' for family 'cauchy'"),
    ("cauchy:scale=1,scale=2", "duplicate parameter 'scale' in 'cauchy:scale=1,scale=2'"),
    ("cauchy:scale=-1", "scale must be positive and finite, got -1.0"),
    ("levy:scale=1", "unknown family 'levy' (known: ['cauchy', 'normal'])"),
]


class TestKernelArguments:
    """One catalog grammar for every map's kernel argument, and no --tau."""

    @pytest.mark.parametrize("text,law", [
        ("cauchy:scale=0.25", TensorCauchy(0.25)), ("normal:stddev=1.5", IsotropicNormal(1.5)),
    ])
    def test_laws_round_trip(self, tmp_path, text, law):
        assert cli._kernel_for_kind(FOURIER_REAL, text) == law
        assert format_distribution(law) == text
        _, model_path = fit_bundle(tmp_path, kind="fourier_real", kernel=text)
        assert json.loads(model_path.read_text())["map"]["kernel"] == text

    @pytest.mark.parametrize("text,message", MALFORMED_LAWS)
    def test_malformed_law_is_json_error_from_fit(self, tmp_path, capsys, text, message):
        data = tmp_path / "train.txt"
        make_regression_file(data, seed=25, n=20)
        out = tmp_path / "model.json"
        code = cli.main([
            "fit", str(data), "--task", "regression", "--map", "fourier_real",
            "--kernel", text, "--copies", "8", "--lambda", "0.1", "--out", str(out),
        ])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == message
        assert not out.exists()

    @pytest.mark.parametrize("text,message", MALFORMED_LAWS)
    def test_malformed_law_in_bundle_is_json_error(self, tmp_path, capsys, text, message):
        data, model_path = fit_bundle(tmp_path, kind="fourier_real", kernel="cauchy:scale=1")
        rewrite_bundle(model_path, lambda b: b["map"].update(kernel=text))
        assert predict_error(data, model_path, capsys) == message

    @pytest.mark.parametrize("command", ["approx-error", "bench"])
    def test_malformed_fourier_law_fails_with_binning_only(self, tmp_path, capsys, command):
        # --fourier-law is a frequency law even where no map kind reads it
        data = tmp_path / "train.txt"
        make_regression_file(data, seed=48, n=30)
        out = tmp_path / "out.csv"
        code = cli.main([
            command, str(data), "--kernel", "gamma:s=2,theta=1", "--map", "binning",
            "--fourier-law", "cauchy:sigma=1", "--copies", "2", "--trials", "1",
            "--seed", "3", "--out", str(out),
        ] + (["--task", "regression"] if command == "bench" else []))
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert "unknown parameter 'sigma' for family 'cauchy'" in json.loads(err[0])["error"]
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["kernel", "eval", "--kernel", "gamma:s=2,theta=1", "1"],
        ["kernel", "ft", "--kernel", "gamma:s=2,theta=1", "1"],
        ["kernel", "table", "--kernel", "gamma:s=2,theta=1"],
        ["features", "{data}", "--map", "binning", "--kernel", "gamma:s=2,theta=1",
         "--copies", "2"],
        ["approx-error", "--kernel", "gamma:s=2,theta=1", "--map", "binning",
         "--copies", "2", "--trials", "1"],
        ["fit", "{data}", "--task", "regression", "--map", "binning",
         "--kernel", "gamma:s=2,theta=1", "--copies", "4", "--lambda", "0.1"],
        ["fit", "{data}", "--task", "regression", "--map", "fourier_real",
         "--kernel", "cauchy:scale=1", "--copies", "4", "--lambda", "0.1"],
        ["bench", "{data}", "--task", "regression", "--map", "binning",
         "--kernel", "gamma:s=2,theta=1", "--copies", "2", "--trials", "1"],
    ], ids=["kernel-eval", "kernel-ft", "kernel-table", "features", "approx-error",
            "fit-binning", "fit-fourier", "bench"])
    def test_tau_option_is_rejected(self, tmp_path, capsys, argv):
        # the scale goes in the spec's own ;tau= clause, and a frequency law
        # has none; the same command without --tau runs
        data = tmp_path / "train.txt"
        make_regression_file(data, seed=25, n=20)
        argv = [arg.format(data=data) for arg in argv] + ["--out", str(tmp_path / "out")]
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert cli.main(argv + ["--tau", "2"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        # approx-error's optional data file positional takes the "2"
        left = "--tau" if argv[0] == "approx-error" else "--tau 2"
        assert json.loads(err[0]) == {"error": f"unrecognized arguments: {left}"}


class TestStartup:
    """Commands that never integrate must start without QUADPACK."""

    SCRIPT = textwrap.dedent("""
        import contextlib, io, json, sys
        from polyakern import cli

        data, out = sys.argv[1], sys.argv[2]
        codes = []
        for kernel, family, shape in [
            ("gamma:s=2,theta=1", "gamma", "2.0"),
            ("weibull:theta=1,alpha=0.4", "weibull", "0.4"),
            ("nakagami:m=1.5,omega=1", "nakagami", "1.5"),
            ("shifted_poisson:mu=2", "shifted_poisson", "2.0"),
        ]:
            model = f"{out}/{family}.json"
            codes.append(cli.main(["fit", data, "--task", "regression", "--map", "binning",
                                   "--kernel", kernel, "--copies", "8", "--lambda", "0.1",
                                   "--seed", "3", "--out", model]))
            codes.append(cli.main(["predict", data, "--model", model,
                                   "--out", f"{out}/{family}.csv"]))
            codes.append(cli.main(["cv", data, "--family", family, "--shapes", shape,
                                   "--taus", "0.5,2", "--lambdas", "0.1", "--copies", "4",
                                   "--folds", "2", "--seed", "3",
                                   "--out", f"{out}/{family}-cv.csv"]))
        codes.append(cli.main(["fit", data, "--task", "regression", "--map", "fourier_real",
                               "--kernel", "cauchy:scale=1", "--copies", "8",
                               "--lambda", "0.1", "--seed", "3",
                               "--out", f"{out}/fourier.json"]))
        weibull = io.StringIO()
        with contextlib.redirect_stdout(weibull):
            codes.append(cli.main(["kernel", "eval", "--kernel", "weibull:theta=1,alpha=0.4",
                                   "0.5"]))
        before = [m for m in ("scipy.integrate", "scipy.optimize") if m in sys.modules]
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            codes.append(cli.main(["kernel", "ft", "--kernel", "gamma:s=0.5,theta=1", "1"]))
        print(json.dumps({"codes": codes, "before": before, "ft": text.getvalue(),
                          "weibull": weibull.getvalue(), "after": "scipy.integrate" in sys.modules}))
    """)

    def test_binning_and_fourier_commands_leave_quadpack_unloaded(self, tmp_path):
        data = tmp_path / "train.txt"
        make_regression_file(data, seed=41, n=30)
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(data), str(tmp_path)],
            env=env, capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["codes"] == [0] * 15
        assert result["before"] == []
        assert result["ft"].splitlines() == ["t,ft", "1.0,0.3947364538712399"]
        # a law with no closed tail takes the cumulative one, not QUADPACK
        header, row = result["weibull"].splitlines()
        assert header == "r,k" and row.startswith("0.5,")
        oracle = kernels.eval_kernel_numeric(Weibull(1.0, 0.4), 0.5)
        assert float(row.split(",")[1]) == pytest.approx(oracle, rel=0.0, abs=1e-12)
        assert result["after"]
