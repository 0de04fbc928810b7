"""Per-layer metrics from the spans of one traced run.

A layer is the part of a span name before the first dot: runner, data,
preprocess, smote, models, metrics, trees, linear, explain, kernels. A
span's self time is its duration minus the part of its interval that its
child spans cover; child spans in other threads count, so a span that
waits on a pool is not charged for the wait.
"""

from __future__ import annotations

from collections import defaultdict

LAYERS = ("runner", "data", "preprocess", "smote", "models", "metrics", "trees",
          "linear", "explain", "kernels")
FAMILIES = ("cart", "random_forest", "gbt", "logistic", "knn", "gaussian_nb",
            "linear_svm", "ols", "ridge", "lasso", "linear_svr")
KERNELS = ("split_classification", "split_regression", "tree_route", "knn_search",
           "svm_epoch", "svr_epoch")

_ID, _PARENT, _NAME, _START, _END, _THREAD, _CPU, _ATTRS = range(8)


def _union_length(intervals, lo: float, hi: float) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Seconds of self time per layer, summed over spans."""
    children = defaultdict(list)
    for s in spans:
        if s[_PARENT] is not None:
            children[s[_PARENT]].append((s[_START], s[_END]))
    out = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        covered = _union_length(children.get(s[_ID], ()), s[_START], s[_END])
        layer = s[_NAME].split(".", 1)[0]
        out[layer] += (s[_END] - s[_START]) - covered
    return out


def stage_bounds(spans) -> dict:
    """Start and end of each runner stage. The fit stage has no function
    of its own: it runs from the end of the data stages to the first
    explain request, or to the write when there is none."""
    first = {}
    for s in spans:
        name = s[_NAME]
        if name.startswith("runner.") and (name not in first
                                           or s[_START] < first[name][0]):
            first[name] = (s[_START], s[_END])
    prep_end = first["runner.prepare_tracks"][1]
    write_start = first["runner.write"][0]
    explain_start = first.get("runner.explain_request", (write_start,))[0]
    return {
        "parse": first["runner.parse_config"],
        "prepare": first["runner.prepare_tracks"],
        "fit": (prep_end, explain_start),
        "explain": (explain_start, write_start),
        "write": first["runner.write"],
    }


def layer_metrics(spans, run_s: float, jobs: int) -> dict:
    """Every per-layer metric one traced run gives, by name."""
    dur = defaultdict(float)
    calls = defaultdict(int)
    work = defaultdict(int)
    by_id = {s[_ID]: s for s in spans}
    for s in spans:
        name = s[_NAME]
        dur[name] += s[_END] - s[_START]
        calls[name] += 1
        attrs = s[_ATTRS] or {}
        if "work" in attrs:
            work[name] += attrs["work"]
        if "family" in attrs:
            dur[f"{name}.{attrs['family']}"] += s[_END] - s[_START]
        if "rows" in attrs:
            work[name] += attrs["rows"]
        if "rows_added" in attrs:
            work[name] += attrs["rows_added"]

    stages = stage_bounds(spans)
    fit_stage = stages["fit"][1] - stages["fit"][0]
    covered = sum(b - a for a, b in stages.values())

    # CPU spent on fit/evaluate items: their own thread CPU plus the
    # forest pool tasks they started in other threads
    fit_cpu = defaultdict(float)
    busy_cpu = 0.0
    for s in spans:
        if s[_NAME] in ("models.fit", "models.evaluate", "trees.pool_task"):
            busy_cpu += s[_CPU]
        if s[_NAME] == "models.fit":
            fit_cpu[s[_ID]] += s[_CPU]
        elif s[_NAME] == "trees.pool_task" and s[_PARENT] in by_id \
                and by_id[s[_PARENT]][_NAME] == "models.fit":
            fit_cpu[s[_PARENT]] += s[_CPU]
    fit_wait = sum((s[_END] - s[_START]) - fit_cpu[s[_ID]]
                   for s in spans if s[_NAME] == "models.fit")

    m = {
        "runner.fit_stage_s": fit_stage,
        "runner.fit_busy_ratio": busy_cpu / (jobs * fit_stage) if fit_stage > 0 else 0.0,
        "runner.explain_stage_s": stages["explain"][1] - stages["explain"][0],
        "runner.write_s": dur["runner.write"],
        "runner.stage_coverage": covered / run_s,
        "data.load_s": dur["data.load"],
        "data.split_s": dur["data.split"],
        "preprocess.s": sum(v for k, v in dur.items()
                            if k.startswith("preprocess.")),
        "smote.s": dur["smote.smote"],
        "smote.rows_added": work["smote.smote"],
    }
    for fam in FAMILIES:
        m[f"models.fit_s.{fam}"] = dur[f"models.fit.{fam}"]
    m["models.fit_wait_s"] = fit_wait
    m["models.evaluate_s"] = dur["models.evaluate"]
    for fam in ("knn", "random_forest", "gbt"):
        m[f"models.evaluate_s.{fam}"] = dur[f"models.evaluate.{fam}"]
    m["metrics.s"] = sum(v for k, v in dur.items() if k.startswith("metrics."))
    m["trees.trees_grown"] = calls["trees.grow"]
    m["trees.grow_s"] = dur["trees.grow"]
    m["linear.epochs"] = calls["kernels.svm_epoch"] + calls["kernels.svr_epoch"]
    m["linear.epoch_s"] = dur["kernels.svm_epoch"] + dur["kernels.svr_epoch"]
    model_calls = calls["models.scalar_output"]
    m["explain.shap_s"] = dur["explain.shap"]
    m["explain.lime_s"] = dur["explain.lime"]
    m["explain.model_calls"] = model_calls
    m["explain.rows_evaluated"] = work["models.scalar_output"]
    m["explain.rows_per_call"] = (work["models.scalar_output"] / model_calls
                                  if model_calls else 0.0)
    for k in KERNELS:
        m[f"kernels.{k}.calls"] = calls[f"kernels.{k}"]
        m[f"kernels.{k}.s"] = dur[f"kernels.{k}"]
        m[f"kernels.{k}.work"] = work[f"kernels.{k}"]
    return m
