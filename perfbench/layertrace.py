"""Spans and counters for polyakern's layers, recorded from outside the package.

``Tracer.install`` replaces each traced public function with a wrapper under
every name a polyakern module binds it to (``cli.featurize``,
``learn.featurize``, ``feature_maps.featurize``, ...), so a call made through
any import path is recorded and nested calls nest.  ``uninstall`` puts the
originals back.  Spans (name, start, end, parent) and counters stay in memory
until the benchmark writes them out.  Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


def _vocab_size(state):
    if state.cfg.hash_buckets is not None:
        return 0
    return len(getattr(state, "vocabulary", ()))


# Per-function hooks: ``before(tracer, args)`` returns a token handed to
# ``after(tracer, token, args, result)``, which updates the counters.


def _after_parse(tr, token, args, result):
    tr.counters["cli.parse_libsvm.rows"] += result.points.shape[0]


def _before_featurize(tr, args):
    return _vocab_size(args[0])


def _after_featurize(tr, before, args, result):
    tr.counters["feature_maps.featurize.cells"] += result.n * result.copies
    tr.counters["feature_maps.featurize.new_columns"] += _vocab_size(args[0]) - before
    tr.last_batch = result


def _after_build_map(tr, token, args, result):
    tr.counters["feature_maps.build_map.copies"] += args[0].copies


def _after_fit(tr, token, args, result):
    batch = args[1]
    width = batch.width if batch.indices is not None else batch.copies
    dual = result.route == "dual"
    tr.counters["learn.fit.dual_calls"] += int(dual)
    system = batch.n if dual else width
    tr.counters["learn.fit.system_n"] = max(tr.counters["learn.fit.system_n"], system)


def _before_predict(tr, args):
    tr.last_batch = None
    return _vocab_size(args[0].state)


def _after_predict(tr, before, args, result):
    model = args[0]
    tr.counters["learn.predict.vocab_growth"] += _vocab_size(model.state) - before
    batch = tr.last_batch
    if batch is not None and batch.indices is not None:
        tr.counters["learn.predict.unseen_cells"] += int(
            (batch.indices >= model.weights.shape[0]).sum()
        )
        tr.counters["learn.predict.cells"] += batch.indices.size


def _before_cv(tr, args):
    return tr.counters["feature_maps.build_map.calls"]


def _after_cv(tr, maps_before, args, result):
    from polyakern import learn

    space = args[1]
    shapes = space.shapes if space.shapes is not None else learn.shape_grid(space.family)
    tr.counters["learn.cross_validate.combos"] += len(result.table)
    tr.counters["learn.cross_validate.shape_folds"] += len(shapes) * space.folds
    tr.counters["learn.cross_validate.maps"] += (
        tr.counters["feature_maps.build_map.calls"] - maps_before
    )


def _after_exact_gram(tr, token, args, result):
    n = result.values.shape[0]
    tr.counters["approx.exact_gram.pairs"] += n * (n - 1) // 2


#: (layer name, defining module, attribute, before hook, after hook)
TARGETS = (
    ("cli.parse_libsvm", "polyakern.cli", "parse_libsvm", None, _after_parse),
    ("cli.save_model", "polyakern.cli", "save_model", None, None),
    ("cli.load_model", "polyakern.cli", "load_model", None, None),
    ("feature_maps.featurize", "polyakern.feature_maps", "featurize",
     _before_featurize, _after_featurize),
    ("feature_maps.build_map", "polyakern.feature_maps", "build_map", None, _after_build_map),
    ("feature_maps.gram", "polyakern.feature_maps", "gram", None, None),
    ("feature_maps.complex_gram", "polyakern.feature_maps", "complex_gram", None, None),
    ("learn.fit", "polyakern.learn", "fit", None, _after_fit),
    ("learn.predict", "polyakern.learn", "predict", _before_predict, _after_predict),
    ("learn.cross_validate", "polyakern.learn", "cross_validate", _before_cv, _after_cv),
    ("polya_kernels.eval_kernel", "polyakern.polya_kernels", "eval_kernel", None, None),
    ("polya_kernels.eval_kernel_numeric", "polyakern.polya_kernels",
     "eval_kernel_numeric", None, None),
    ("polya_kernels.eval_ft", "polyakern.polya_kernels", "eval_ft", None, None),
    ("polya_kernels.eval_ft_numeric", "polyakern.polya_kernels", "eval_ft_numeric", None, None),
    ("approx.exact_gram", "polyakern.approx", "exact_gram", None, _after_exact_gram),
    ("approx.empirical_error", "polyakern.approx", "empirical_error", None, None),
)


class Tracer:
    """Records spans and counters while installed; a no-op otherwise."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, nested in same name]
        self.counters = defaultdict(int)
        self.last_batch = None
        self._stack = []
        self._active = Counter()
        self._patches = []

    # -- spans ------------------------------------------------------------

    def _enter(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._active[name] > 0])
        self._stack.append(index)
        self._active[name] += 1
        return index

    def _exit(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()
        self._active[self.spans[index][0]] -= 1

    @contextmanager
    def span(self, name):
        """Span for a step of the benchmark itself (a CLI command, a batch loop)."""
        if not self._patches:
            yield
            return
        index = self._enter(name)
        try:
            yield
        finally:
            self._exit(index)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn, before, after):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.counters[name + ".calls"] += 1
            token = before(tracer, args) if before else None
            index = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(index)
            if after:
                after(tracer, token, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self):
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "polyakern" or k.startswith("polyakern."))]
        for name, module_name, attr, before, after in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original, before, after)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

        from polyakern.rng import RandomStream

        init = RandomStream.__init__
        counters = self.counters

        def counted_init(stream, *args, **kwargs):
            counters["rng.streams"] += 1
            init(stream, *args, **kwargs)

        self._patches.append((RandomStream, "__init__", init))
        RandomStream.__init__ = counted_init

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    # -- summaries --------------------------------------------------------

    def layer_times(self):
        """Per span name: (inclusive seconds, self seconds, count).

        Inclusive time skips spans nested inside a span of the same name, so
        recursion is not counted twice; self time subtracts the time covered
        by direct children.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        incl = defaultdict(float)
        own = defaultdict(float)
        count = Counter()
        for i, (name, start, end, parent, nested) in enumerate(self.spans):
            if not nested:
                incl[name] += end - start
            own[name] += end - start - child_time[i]
            count[name] += 1
        return {name: (incl[name], own[name], count[name]) for name in count}

    def coverage(self, prefix="cmd."):
        """Per command: (seconds covered by layer spans directly beneath its
        span, its wall seconds).  The uncovered rest is argument parsing,
        formatting and I/O done outside the traced functions."""
        covered = defaultdict(float)
        total = defaultdict(float)
        roots = {}
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if name.startswith(prefix):
                roots[i] = name[len(prefix):]
                total[roots[i]] += end - start
            elif parent in roots:
                covered[roots[parent]] += end - start
        return {cmd: (covered[cmd], total[cmd]) for cmd in total}

    def write(self, handle, pass_index):
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            handle.write(json.dumps({"pass": pass_index, "id": i, "name": name,
                                     "start": start, "end": end, "parent": parent}) + "\n")
        handle.write(json.dumps({"pass": pass_index, "counters": dict(self.counters)}) + "\n")
