"""Outside-in span tracer for crossrep, and the per-layer metrics it yields.

The tracer wraps every public module-level function of each layer module
and rebinds each wrapper wherever the original function object is bound
in a loaded ``crossrep.*`` module, so ``from .learners import predict``
style imports are traced too. Nothing inside the package changes; the
spans are recorded around the calls into each layer.

A span records its function, start, end, parent span, the command it
belongs to and the time the tracer itself spent after the call (reading
counts from the return value). That bookkeeping time is charged to no
layer: it is subtracted from the parent's self time.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

PACKAGE = "crossrep"

# Layer name -> module. ``parallel`` gets no spans: at the default worker
# count ``pmap`` is a plain loop, so its callers' spans cover its time.
LAYERS = {
    "cli": "crossrep.cli",
    "data": "crossrep.data",
    "synth": "crossrep.synth",
    "pipeline": "crossrep.pipeline",
    "engine": "crossrep.engine",
    "evaluation": "crossrep.evaluation",
    "learners.base": "crossrep.learners.base",
    "learners.forest": "crossrep.learners.forest",
    "learners.ridge": "crossrep.learners.ridge",
    "learners.svr": "crossrep.learners.svr",
    "learners.archive": "crossrep.learners.archive",
    "clustering": "crossrep.clustering",
}

SCOPES = ("setup", "timed")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _block_key(X) -> tuple:
    """Content fingerprint of a prediction input block.

    Two position-weighted wrapping sums over the raw float bits: far
    cheaper than a cryptographic hash on the many small blocks of the
    ridge workload, and collisions only lower the distinct count.
    """
    a = np.ascontiguousarray(X, dtype=np.float64)
    v = a.reshape(-1).view(np.uint64)
    weights = np.arange(1, 2 * v.size, 2, dtype=np.uint64)
    return a.shape, int(v.sum()), int((v * weights).sum())


def _dir_bytes(path) -> int:
    path = os.fspath(path)
    if os.path.isfile(path):
        path = os.path.dirname(path)
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


class Tracer:
    """Records spans in memory while installed, on the installing thread only."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []  # [fn, start, end, parent, command, hook_s]
        self.commands: list[str] = []  # scope of each command
        self.counts: dict[str, dict[str, float]] = {s: defaultdict(float) for s in SCOPES}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []
        self._owner = threading.get_ident()
        self._lock = threading.Lock()  # counters are also updated from worker threads
        self._pinned: list[object] = []
        self._blocks: set[tuple] = set()

    # -- commands -------------------------------------------------------
    def begin_command(self, scope: str) -> None:
        if scope not in SCOPES:
            raise ValueError(f"unknown scope {scope!r}")
        self.commands.append(scope)
        self._blocks = set()

    def _count(self, key: str, amount: float) -> None:
        self.counts[self.commands[-1] if self.commands else "setup"][key] += amount

    # -- counters read from return values --------------------------------
    def _hook_fit_forest(self, args, kwargs, model) -> None:
        trees = model.state.trees
        self._count("forest.trees", len(trees))
        self._count("forest.nodes", sum(int(t.feature.size) for t in trees))

    def _hook_fit_svr(self, args, kwargs, model) -> None:
        self._count("svr.smo_iters", model.state.n_iter)
        self._count("svr.support_vectors", int(model.state.support.shape[0]))

    def _hook_predict(self, args, kwargs, out) -> None:
        model = _arg(args, kwargs, 0, "model")
        X = _arg(args, kwargs, 1, "X")
        self._pinned.append(model)  # keeps id(model) unique for the run
        self._count("predict.rows", int(np.shape(X)[0]))
        key = (id(model), _block_key(X))
        if key not in self._blocks:
            self._blocks.add(key)
            self._count("predict.distinct", 1)

    def _hook_cross_validate(self, args, kwargs, result) -> None:
        self._count("cross_validate.folds", len(result.per_fold_rmse))

    def _hook_kmeans(self, args, kwargs, result) -> None:
        self._count("kmeans.iters", result.n_iter)
        self._count("kmeans.converged", 1 if result.converged else 0)

    def _hook_save_bank(self, args, kwargs, index_path) -> None:
        self._count("bank_bytes", _dir_bytes(index_path))

    def _hook_load_bank(self, args, kwargs, bank) -> None:
        self._count("bank_bytes", _dir_bytes(_arg(args, kwargs, 0, "bank_dir")))

    def _hooks(self) -> dict:
        return {
            "learners.forest.fit_forest": self._hook_fit_forest,
            "learners.svr.fit_svr": self._hook_fit_svr,
            "learners.base.predict": self._hook_predict,
            "evaluation.cross_validate": self._hook_cross_validate,
            "clustering.kmeans": self._hook_kmeans,
            "engine.save_bank": self._hook_save_bank,
            "engine.load_bank": self._hook_load_bank,
        }

    # -- install / restore ----------------------------------------------
    def install(self) -> "Tracer":
        hooks = self._hooks()
        targets = []
        for layer, modname in LAYERS.items():
            try:
                module = importlib.import_module(modname)
            except ImportError:
                self.absent.append(layer)
                continue
            for attr, obj in sorted(vars(module).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == modname):
                    targets.append((f"{layer}.{attr}", obj))
        found = {name for name, _ in targets}
        self.absent.extend(n for n in NAMED_SPANS if n not in found)
        wrappers = {}
        for name, fn in targets:
            self.names.append(name)
            wrappers[id(fn)] = (fn, self._wrap(len(self.names) - 1, fn, hooks.get(name)))
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._bindings.append((module, attr, obj))
        return self

    def restore(self) -> None:
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings.clear()

    def leftover_wrappers(self) -> list[str]:
        """Bindings in crossrep modules that still point at a wrapper."""
        out = []
        for n, module in list(sys.modules.items()):
            if module is None or not (n == PACKAGE or n.startswith(PACKAGE + ".")):
                continue
            for attr, obj in vars(module).items():
                if callable(obj) and hasattr(obj, "__perfbench_span__"):
                    out.append(f"{n}.{attr}")
        return out

    def _run_hook(self, name: str, hook, args, kwargs, result) -> None:
        try:
            hook(args, kwargs, result)
        except (AttributeError, TypeError, ValueError):
            # The call or its result changed shape: keep tracing, report
            # the counter as missing.
            if f"{name} (counts)" not in self.absent:
                self.absent.append(f"{name} (counts)")

    def _wrap(self, index: int, fn, hook):
        spans, stack, tracer, name = self.spans, self._stack, self, self.names[index]

        def wrapper(*args, **kwargs):
            if threading.get_ident() != tracer._owner:
                # Work handed to a worker thread (parallel.pmap) gets no span:
                # the submitting thread's span already covers its time.
                result = fn(*args, **kwargs)
                if hook is not None:
                    with tracer._lock:
                        tracer._run_hook(name, hook, args, kwargs, result)
                return result
            rec = [index, 0.0, 0.0, stack[-1] if stack else -1,
                   len(tracer.commands) - 1, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if hook is not None:
                with tracer._lock:
                    tracer._run_hook(name, hook, args, kwargs, result)
                rec[5] = perf_counter() - rec[2]
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        wrapper.__perfbench_span__ = name
        return wrapper

    # -- summary ----------------------------------------------------------
    def summary(self) -> dict:
        """Per scope: per-span and per-layer calls, total and self time."""
        layer_of = [name.rsplit(".", 1)[0] for name in self.names]
        child_cover = [0.0] * len(self.spans)
        for fn, start, end, parent, cmd, hook_s in self.spans:
            if parent >= 0:
                child_cover[parent] += (end - start) + hook_s
        out = {s: {"spans": {}, "layers": {}, "counts": dict(self.counts[s])} for s in SCOPES}
        for i, (fn, start, end, parent, cmd, hook_s) in enumerate(self.spans):
            scope = self.commands[cmd] if cmd >= 0 else "setup"
            name, layer = self.names[fn], layer_of[fn]
            dur, self_s = end - start, (end - start) - child_cover[i]
            outer_fn = outer_layer = True
            p = parent
            while p >= 0 and (outer_fn or outer_layer):
                pfn = self.spans[p][0]
                outer_fn = outer_fn and pfn != fn
                outer_layer = outer_layer and layer_of[pfn] != layer
                p = self.spans[p][3]
            rec = out[scope]["spans"].setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["self_s"] += self_s
            if outer_fn:
                rec["s"] += dur
            lrec = out[scope]["layers"].setdefault(layer, {"s": 0.0, "self_s": 0.0})
            lrec["self_s"] += self_s
            if outer_layer:
                lrec["s"] += dur
        return out

    def export_spans(self) -> dict:
        return {"names": self.names, "commands": self.commands,
                "fields": ["fn", "start", "end", "parent", "command", "hook_s"],
                "spans": self.spans}


# ---------------------------------------------------------------------------
# Per-layer metrics: (name, unit, better, value from {scope: summary}).


def _span(scope: str, name: str, field: str):
    return lambda S: S[scope]["spans"].get(name, {}).get(field, 0)


def _layer(name: str, field: str):
    return lambda S: S["timed"]["layers"].get(name, {}).get(field, 0.0)


def _count(scope: str, key: str):
    return lambda S: S[scope]["counts"].get(key, 0)


def _ratio(num, den):
    return lambda S: (num(S) / den(S)) if den(S) else 0.0


# Functions the metrics below name; missing ones are reported as absent.
NAMED_SPANS = (
    "cli.main",
    "data.load_collection", "data.write_collection",
    "synth.generate_collection",
    "pipeline.run_pipeline", "pipeline.write_result",
    "engine.stage1_train", "engine.build_extrinsic", "engine.second_order_extrinsic",
    "engine.stage2_train", "engine.save_bank", "engine.load_bank",
    "evaluation.cross_validate", "evaluation.compare_representations",
    "learners.base.fit_learner", "learners.base.predict",
    "learners.forest.fit_forest", "learners.forest.predict_state",
    "learners.ridge.fit_ridge", "learners.svr.fit_svr",
    "learners.archive.save_model", "learners.archive.load_model",
    "clustering.cross_prediction_matrix", "clustering.kmeans",
)

PER_LAYER = [
    ("learners.forest.fit.s", "s", "lower", _span("timed", "learners.forest.fit_forest", "s")),
    ("learners.forest.fit.self_s", "s", "lower",
     _span("timed", "learners.forest.fit_forest", "self_s")),
    ("learners.forest.trees", "count", "lower", _count("timed", "forest.trees")),
    ("learners.forest.nodes", "count", "lower", _count("timed", "forest.nodes")),
    ("learners.forest.predict.s", "s", "lower",
     _span("timed", "learners.forest.predict_state", "s")),
    ("learners.forest.predict.self_s", "s", "lower",
     _span("timed", "learners.forest.predict_state", "self_s")),
    ("learners.predict.calls", "count", "lower", _span("timed", "learners.base.predict", "calls")),
    ("learners.predict.rows", "count", "lower", _count("timed", "predict.rows")),
    ("learners.predict.s", "s", "lower", _span("timed", "learners.base.predict", "s")),
    ("learners.predict.distinct_ratio", "ratio", "higher",
     _ratio(_count("timed", "predict.distinct"), _span("timed", "learners.base.predict", "calls"))),
    ("learners.fit.calls", "count", "lower", _span("timed", "learners.base.fit_learner", "calls")),
    ("learners.fit.s", "s", "lower", _span("timed", "learners.base.fit_learner", "s")),
    ("learners.ridge.fit.s", "s", "lower", _span("timed", "learners.ridge.fit_ridge", "s")),
    ("learners.svr.fit.s", "s", "lower", _span("timed", "learners.svr.fit_svr", "s")),
    ("learners.svr.fit.self_s", "s", "lower", _span("timed", "learners.svr.fit_svr", "self_s")),
    ("learners.svr.smo_iters", "count", "lower", _count("timed", "svr.smo_iters")),
    ("learners.svr.support_vectors", "count", "lower", _count("timed", "svr.support_vectors")),
    ("learners.archive.load.s", "s", "lower", _span("timed", "learners.archive.load_model", "s")),
    ("engine.stage1_train.s", "s", "lower", _span("timed", "engine.stage1_train", "s")),
    ("engine.stage1_train.self_s", "s", "lower", _span("timed", "engine.stage1_train", "self_s")),
    ("engine.build_extrinsic.calls", "count", "lower",
     _span("timed", "engine.build_extrinsic", "calls")),
    ("engine.build_extrinsic.s", "s", "lower", _span("timed", "engine.build_extrinsic", "s")),
    ("engine.build_extrinsic.self_s", "s", "lower",
     _span("timed", "engine.build_extrinsic", "self_s")),
    ("engine.second_order_extrinsic.calls", "count", "lower",
     _span("timed", "engine.second_order_extrinsic", "calls")),
    ("engine.second_order_extrinsic.s", "s", "lower",
     _span("timed", "engine.second_order_extrinsic", "s")),
    ("engine.second_order_extrinsic.self_s", "s", "lower",
     _span("timed", "engine.second_order_extrinsic", "self_s")),
    ("engine.stage2_train.s", "s", "lower", _span("timed", "engine.stage2_train", "s")),
    ("engine.load_bank.s", "s", "lower", _span("timed", "engine.load_bank", "s")),
    ("engine.bank_bytes", "B", "lower", _count("setup", "bank_bytes")),
    ("evaluation.cross_validate.calls", "count", "lower",
     _span("timed", "evaluation.cross_validate", "calls")),
    ("evaluation.cross_validate.folds", "count", "lower", _count("timed", "cross_validate.folds")),
    ("evaluation.cross_validate.s", "s", "lower", _span("timed", "evaluation.cross_validate", "s")),
    ("evaluation.cross_validate.self_s", "s", "lower",
     _span("timed", "evaluation.cross_validate", "self_s")),
    ("evaluation.compare_representations.s", "s", "lower",
     _span("timed", "evaluation.compare_representations", "s")),
    ("pipeline.run_pipeline.s", "s", "lower", _span("timed", "pipeline.run_pipeline", "s")),
    ("pipeline.run_pipeline.self_s", "s", "lower",
     _span("timed", "pipeline.run_pipeline", "self_s")),
    ("pipeline.write_result.s", "s", "lower", _span("timed", "pipeline.write_result", "s")),
    ("cli.main.self_s", "s", "lower", _span("timed", "cli.main", "self_s")),
    ("data.load_collection.s", "s", "lower", _span("timed", "data.load_collection", "s")),
    ("clustering.cross_prediction_matrix.s", "s", "lower",
     _span("timed", "clustering.cross_prediction_matrix", "s")),
    ("clustering.kmeans.calls", "count", "lower", _span("timed", "clustering.kmeans", "calls")),
    ("clustering.kmeans.s", "s", "lower", _span("timed", "clustering.kmeans", "s")),
    ("clustering.kmeans.iters", "count", "lower", _count("timed", "kmeans.iters")),
    ("clustering.kmeans.converged_ratio", "ratio", "higher",
     _ratio(_count("timed", "kmeans.converged"), _span("timed", "clustering.kmeans", "calls"))),
    ("setup.synth.generate_collection.s", "s", "lower",
     _span("setup", "synth.generate_collection", "s")),
    ("setup.data.write_collection.s", "s", "lower", _span("setup", "data.write_collection", "s")),
    ("setup.learners.forest.fit.s", "s", "lower",
     _span("setup", "learners.forest.fit_forest", "s")),
    ("setup.engine.save_bank.s", "s", "lower", _span("setup", "engine.save_bank", "s")),
    ("setup.learners.archive.save.s", "s", "lower",
     _span("setup", "learners.archive.save_model", "s")),
]
PER_LAYER += [(f"layer.{layer}.{field}", "s", "lower", _layer(layer, field))
              for layer in LAYERS for field in ("s", "self_s")]


def layer_metrics(summary: dict) -> dict[str, float]:
    """Every per-layer metric above, from one traced iteration's summary."""
    return {name: float(fn(summary)) for name, _, _, fn in PER_LAYER}


def top_self_span(summary: dict, scope: str = "timed") -> str | None:
    spans = summary[scope]["spans"]
    return max(spans, key=lambda n: spans[n]["self_s"]) if spans else None
