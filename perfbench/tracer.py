"""In-memory span recorder that wraps heartlab's public functions from
outside the package.

Each wrapped call records one span: id, parent id, name, start, end
(perf_counter seconds), thread, thread CPU seconds and a few counts. The
name is `<layer>.<what>`, where the layer is the heartlab module the work
belongs to. Functions are patched where their callers look them up
(`heartlab.runner.fit`, `heartlab.neighbors.knn_search`, ...), so nothing
under src/ changes. Thread pools in runner and ensembles are replaced by
a subclass that hands the submitting thread's current span to the worker,
so spans in pool threads keep their parent.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor


class Tracer:
    """Collects spans in memory; `install` patches heartlab, `uninstall`
    restores it."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []          # (id, parent, name, start, end, thread, cpu, attrs)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def call(self, name, fn, args, kwargs, attrs_fn=None):
        """Run fn(*args, **kwargs) inside a span; attrs_fn(args, result)
        gives the span's counts."""
        with self._lock:
            sid = next(self._ids)
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(sid)
        c0 = time.thread_time()
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            c1 = time.thread_time()
            stack.pop()
        attrs = attrs_fn(args, out) if attrs_fn is not None else None
        with self._lock:
            self.spans.append((sid, parent, name, t0, t1, threading.get_ident(),
                               c1 - c0, attrs))
        return out

    def wrapped(self, name, fn, attrs_fn=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs_fn)
        return wrapper

    def patch(self, module, attr, value) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def wrap(self, module, attr, name, attrs_fn=None) -> None:
        self.patch(module, attr, self.wrapped(name, getattr(module, attr), attrs_fn))

    def pool_class(self, task_name):
        """ThreadPoolExecutor whose tasks run as spans under the span that
        was current in the submitting thread."""
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def task(*a, **kw):
                    stack = tracer._stack()
                    stack.append(parent)
                    try:
                        return tracer.call(task_name, fn, a, kw)
                    finally:
                        stack.pop()

                return super().submit(task, *args, **kwargs)

        return TracedPool

    def install(self) -> None:
        # import_module, because the package re-exports a function named smote
        kernels, cli, ensembles, explain, linear, models, neighbors, runner, \
            smote_mod = (importlib.import_module(f"heartlab.{m}") for m in (
                "_kernels", "cli", "ensembles", "explain", "linear", "models",
                "neighbors", "runner", "smote"))

        # runner stages
        self.wrap(cli, "parse_config", "runner.parse_config")
        self.wrap(cli, "run_experiment", "runner.run_experiment")
        self.wrap(runner, "prepare_tracks", "runner.prepare_tracks")
        self.wrap(runner, "_run_explain", "runner.explain_request")
        self.wrap(runner, "_write_bundle", "runner.write")
        self.patch(runner, "ThreadPoolExecutor", self.pool_class("runner.pool_task"))
        # data and preprocess
        self.wrap(runner, "_load_stage", "data.load")
        self.wrap(runner, "train_test_split", "data.split")
        for name in ("fit_preprocessor", "transform", "transform_filtered"):
            self.wrap(runner, name, f"preprocess.{name}")
        self.wrap(runner, "smote", "smote.smote",
                  lambda a, out: {"rows_added": out.n_rows - a[0].n_rows})
        # models: fit, evaluate and predict as the runner calls them
        self.wrap(runner, "fit", "models.fit", lambda a, out: {"family": a[0].family})
        self.wrap(runner, "_evaluate", "models.evaluate",
                  lambda a, out: {"family": a[1].family})
        self.wrap(runner, "predict", "models.predict")
        self.wrap(runner, "predict_proba", "models.predict_proba")
        for name in ("confusion_matrix", "classification_metrics", "roc_curve",
                     "regression_metrics", "residuals"):
            self.wrap(runner, name, f"metrics.{name}")
        # trees: every CART grown, and the forest's per-tree pool tasks
        for mod in (models, ensembles):
            self.wrap(mod, "fit_cart_matrix", "trees.grow")
        self.patch(ensembles, "ThreadPoolExecutor", self.pool_class("trees.pool_task"))
        # linear: every linear-family fit, around the epoch kernels below
        for name in ("fit_ols", "fit_ridge", "fit_lasso", "fit_logistic",
                     "fit_linear_svm", "fit_linear_svr"):
            self.wrap(models, name, "linear.fit")
        # explain: the explainers and every model call they make
        self.wrap(runner, "shap_values", "explain.shap")
        self.wrap(runner, "lime_explain", "explain.lime")
        self.wrap(runner, "sample_background", "explain.sample_background")
        self.patch(explain, "scalar_output", self._scalar_output(explain.scalar_output))
        # kernels, patched where trees, neighbors, smote and linear look them up
        self.wrap(kernels, "split_classification", "kernels.split_classification",
                  lambda a, out: {"work": a[2].shape[0] * a[3].shape[0]})
        self.wrap(kernels, "split_regression", "kernels.split_regression",
                  lambda a, out: {"work": a[2].shape[0] * a[3].shape[0]})
        self.wrap(kernels, "tree_route", "kernels.tree_route",
                  lambda a, out: {"work": a[4].shape[0]})
        for mod in (neighbors, smote_mod):
            self.wrap(mod, "knn_search", "kernels.knn_search",
                      lambda a, out: {"work": a[0].shape[0] * a[1].shape[0]})
        self.wrap(linear, "svm_epoch", "kernels.svm_epoch",
                  lambda a, out: {"work": a[2].shape[0]})
        self.wrap(linear, "svr_epoch", "kernels.svr_epoch",
                  lambda a, out: {"work": a[2].shape[0]})

    def _scalar_output(self, original):
        def scalar_output(model):
            return self.wrapped("models.scalar_output", original(model),
                                lambda a, out: {"rows": a[0].shape[0]})
        return scalar_output

    def uninstall(self) -> None:
        while self._patches:
            module, attr, value = self._patches.pop()
            setattr(module, attr, value)
