"""Property tests: what the package writes, it reads back unchanged.

  * a model bundle: save -> load -> predict gives the same scores (or, for
    a multiclass model, the same per-class scores and labels), and a
    re-save of the loaded model writes the same bytes (binning and
    fourier_real, each on the primal and the dual route);
  * LIBSVM text: ``write_libsvm`` -> ``parse_libsvm`` gives the same
    points and labels;
  * kernel specs: ``format_kernel_spec`` -> ``parse_kernel_spec`` gives an
    equal spec.
"""

import json
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from polyakern import cli, learn
from polyakern import distributions as dist
from polyakern import polya_kernels as kernels
from polyakern.feature_maps import (
    BINNING, FOURIER_REAL, FeatureMapConfig, TensorCauchy, build_map, feature_width, featurize,
)
from polyakern.rng import RandomStream

MAPS = [BINNING, FOURIER_REAL]


class TestBundleRoundTrip:
    @given(
        which=st.sampled_from(range(len(MAPS))),
        n=st.integers(1, 30),
        dim=st.integers(1, 4),
        copies=st.integers(1, 12),
        seed=st.integers(0, 2 ** 32),
        spread=st.sampled_from([1.0, 1e3, 1e6, 1e12]),  # widens bins past int8/16/32
    )
    @settings(deadline=None, max_examples=40)
    def test_save_load_predict(self, which, n, dim, copies, seed, spread):
        kind = MAPS[which]
        stream = RandomStream(seed)
        X = spread * (2.0 * stream.uniform(n * dim).reshape(n, dim) - 1.0)
        y = stream.normal(n)
        X_new = spread * (2.0 * stream.uniform(7 * dim).reshape(7, dim) - 1.0)
        kernel = kernels.KernelSpec(dist.Gamma(2.0, 1.0)) if kind == BINNING else TensorCauchy(1.0)
        cfg = FeatureMapConfig(kind=kind, kernel=kernel, dim=dim, copies=copies, seed=seed)
        state = build_map(cfg)
        model = learn.fit(state, featurize(state, X), y, lam=0.1)
        normalizer = cli.fit_normalizer(X)
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "a.json", Path(tmp) / "b.json"
            cli.save_model(first, "regression", normalizer, model)
            task, loaded, norm, models, classes = cli.load_model(first)
            cli.save_model(second, task, norm, models[0])
            assert first.read_bytes() == second.read_bytes()
        assert (task, classes, len(models)) == ("regression", None, 1)
        assert models[0].state is loaded
        for points in (X, X_new):
            assert np.array_equal(learn.predict(models[0], points), learn.predict(model, points))
        assert np.array_equal(models[0].weights, model.weights)

    @given(
        which=st.sampled_from(range(len(MAPS))),
        n_classes=st.integers(2, 4),
        n=st.integers(4, 30),
        dim=st.integers(1, 4),
        copies=st.integers(1, 12),
        seed=st.integers(0, 2 ** 32),
    )
    @settings(deadline=None, max_examples=30)
    # a primal Fourier fit large enough for the weight matrix's memory order
    # to reach the last bit of its scores
    @example(which=1, n_classes=3, n=300, dim=8, copies=64, seed=9)
    def test_multiclass_save_load_predict(self, which, n_classes, n, dim, copies, seed):
        kind = MAPS[which]
        stream = RandomStream(seed)
        X = 2.0 * stream.uniform(n * dim).reshape(n, dim) - 1.0
        labels = np.arange(n) % n_classes - 1.0  # every class present
        X_new = 2.0 * stream.uniform(7 * dim).reshape(7, dim) - 1.0
        kernel = kernels.KernelSpec(dist.Gamma(2.0, 1.0)) if kind == BINNING else TensorCauchy(1.0)
        cfg = FeatureMapConfig(kind=kind, kernel=kernel, dim=dim, copies=copies, seed=seed)
        state = build_map(cfg)
        model = learn.fit(state, featurize(state, X), labels, lam=0.1, classify=True)
        task = "binary" if n_classes == 2 else "multiclass"
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "a.json", Path(tmp) / "b.json"
            cli.save_model(first, task, cli.fit_normalizer(X), model)
            # one solution array with a column per class: the dual
            # coefficients, a row per point, or the weights, a row per column
            bundle = json.loads(first.read_text())
            solution, rows = (("alpha", n) if model.route == "dual"
                              else ("weights", model.weights.shape[0]))
            assert bundle[solution]["shape"] == [rows, n_classes]
            loaded_task, _, norm, (loaded,), classes = cli.load_model(first)
            cli.save_model(second, loaded_task, norm, loaded)
            assert first.read_bytes() == second.read_bytes()
        assert loaded_task == task
        assert classes == loaded.classes == model.classes == tuple(np.arange(n_classes) - 1.0)
        assert np.array_equal(loaded.weights, model.weights)
        for points in (X, X_new):
            assert np.array_equal(learn.decision_scores(loaded, points),
                                  learn.decision_scores(model, points))
            assert np.array_equal(learn.predict(loaded, points), learn.predict(model, points))


#: (map kind, kernel, copies) that put a fit on ``matrix_data``'s 40 points
#: on each route: bins wide enough (rho = 0.2) or copies few enough for the
#: primal route, and narrow bins or many copies for the dual one.
MATRIX = {
    ("exact", "primal"): (BINNING, kernels.KernelSpec(dist.Gamma(2.0, 1.0), rho=0.2), 8),
    ("exact", "dual"): (BINNING, kernels.KernelSpec(dist.Gamma(2.0, 1.0), rho=4.0), 8),
    ("fourier_real", "primal"): (FOURIER_REAL, TensorCauchy(1.0), 16),
    ("fourier_real", "dual"): (FOURIER_REAL, TensorCauchy(1.0), 64),
}


def matrix_data(seed=5, n=40, dim=2):
    """Training points and fresh points on [-1, 1]^dim, regression targets
    and three-class labels."""
    stream = RandomStream(seed)
    X = 2.0 * stream.uniform(n * dim).reshape(n, dim) - 1.0
    X_new = 2.0 * stream.uniform(9 * dim).reshape(9, dim) - 1.0
    return X, X_new, np.sin(3.0 * X[:, 0]) + X[:, 1], np.arange(n) % 3 - 1.0


class TestBundleMatrix:
    @pytest.mark.parametrize("task", ["regression", "multiclass"])
    @pytest.mark.parametrize("case", sorted(MATRIX), ids=["-".join(c) for c in sorted(MATRIX)])
    def test_round_trip(self, tmp_path, case, task):
        route = case[1]
        kind, kernel, copies = MATRIX[case]
        X, X_new, y, labels = matrix_data()
        state = build_map(FeatureMapConfig(kind=kind, kernel=kernel, dim=2, copies=copies,
                                           seed=11))
        batch = featurize(state, X)
        classify = task == "multiclass"
        model = learn.fit(state, batch, labels if classify else y, lam=0.1, classify=classify)
        assert model.route == route
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        cli.save_model(first, task, cli.fit_normalizer(X), model)
        loaded_task, loaded_state, norm, (loaded,), _ = cli.load_model(first)
        # the loaded map has the fitted width, and an exact map's vocabulary
        # is the fitted one, rebuilt from the stored points: it numbers the
        # training points' bins and fresh points' bins as the fitted map does
        assert feature_width(loaded_state) == batch.width
        if kind == BINNING:
            assert len(loaded_state.vocabulary) == len(state.vocabulary)
            assert np.array_equal(featurize(loaded_state, X).indices, batch.indices)
            assert np.array_equal(featurize(loaded_state, X_new).indices,
                                  featurize(state, X_new).indices)
        assert loaded.weights.tobytes() == model.weights.tobytes()
        for points in (X, X_new):
            assert (learn.decision_scores(loaded, points).tobytes()
                    == learn.decision_scores(model, points).tobytes())
            assert learn.predict(loaded, points).tobytes() == learn.predict(model, points).tobytes()
        cli.save_model(second, loaded_task, norm, loaded)
        assert first.read_bytes() == second.read_bytes()

    def test_exact_binning_bundle_does_not_grow_with_copies(self, tmp_path):
        # a dual bundle holds the points and one coefficient per point,
        # whatever the copy count and so the vocabulary width
        X, _, y, _ = matrix_data()
        arrays = []
        for copies in (8, 64):
            state = build_map(FeatureMapConfig(kind=BINNING, kernel=MATRIX["exact", "dual"][1],
                                               dim=2, copies=copies, seed=11))
            model = learn.fit(state, featurize(state, X), y, lam=0.1)
            assert model.route == "dual"
            cli.save_model(tmp_path / "m.json", "regression", cli.fit_normalizer(X), model)
            bundle = json.loads((tmp_path / "m.json").read_text())
            assert "weights" not in bundle
            arrays.append({name: (bundle[name]["shape"], len(bundle[name]["data"]))
                           for name in ("points", "alpha")})
        assert arrays[0] == arrays[1]
        assert arrays[0]["points"][0] == [40, 2]


class TestLibsvmRoundTrip:
    @given(
        st.integers(1, 12).flatmap(lambda d: arrays(
            float, st.tuples(st.integers(1, 15), st.just(d)),
            elements=st.floats(allow_nan=False, allow_infinity=False)
            | st.just(0.0),
        )),
        st.data(),
    )
    @settings(deadline=None, max_examples=60)
    def test_write_then_parse(self, points, data):
        labels = data.draw(arrays(float, points.shape[0],
                                  elements=st.floats(allow_nan=False, allow_infinity=False)))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.txt"
            cli.write_libsvm(path, points, labels)
            ds = cli.parse_libsvm(path)
        width = ds.points.shape[1]
        # LIBSVM drops zero entries, so trailing all-zero columns vanish
        assert np.array_equal(ds.points, points[:, :width])
        assert not np.any(points[:, width:])
        assert width == 0 or np.any(points[:, width - 1])
        assert np.array_equal(ds.targets, labels)


def distributions():
    def build(cls):
        params = {
            f.name: st.integers(1, 30).map(float) if f.name == "nu"
            else st.floats(0.05, 50.0)
            for f in fields(cls)
        }
        return st.fixed_dictionaries(params).map(lambda kv: (cls, kv))

    return st.sampled_from(sorted(dist.FAMILIES.values(), key=lambda c: c.family)).flatmap(build)


class TestSpecRoundTrip:
    @given(distributions(), st.sampled_from(["none", "rho", "tau"]), st.floats(0.01, 100.0))
    @settings(deadline=None, max_examples=100)
    def test_format_then_parse(self, family, scale, value):
        cls, params = family
        try:
            d = cls(**params)
        except ValueError:
            assume(False)
        spec = kernels.KernelSpec(d, **({} if scale == "none" else {scale: value}))
        text = kernels.format_kernel_spec(spec)
        again = kernels.parse_kernel_spec(text)
        assert again == spec
        assert kernels.format_kernel_spec(again) == text
