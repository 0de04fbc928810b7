"""Workload configs for the heartlab run benchmark, built from a seed.

Every input a run sees is written from the benchmark seed: the fixture
CSV (through `heartlab fixture`) and the JSON config. The program gets
only those files.

- demo: `configs/fixture_demo.json`. Seed 7 (the default) reproduces the
  committed config exactly, apart from output_dir: master seed 7 and
  fixture seed 21 = 3 * 7.
- paper_10k: the shape of `configs/heart_full.json` on a 1,025-row
  fixture CSV read through the heart16 schema, SMOTE-augmented to 10,000
  rows, all eleven families at default hyperparameters, and heart_full's
  LIME-on-ols request.
- explain: the same CSV with SMOTE off, four models, and explanation
  requests that route many rows through trees.
"""

from __future__ import annotations

import copy

DEFAULT_SEED = 7
FIXTURE_ROWS = 1025

_SPLIT = {"train_fraction": 0.8, "stratified": True}

# configs/fixture_demo.json at the default seed, minus output_dir
_DEMO = {
    "dataset": {"fixture": {"n": 2000, "seed": 3 * DEFAULT_SEED}},
    "split": _SPLIT,
    "smote": {"mode": "balance", "k": 5},
    "models": [
        {"name": "cart", "family": "cart", "task": "classification",
         "hyperparams": {"max_depth": 6}},
        {"name": "rf", "family": "random_forest", "task": "classification",
         "hyperparams": {"n_trees": 50}},
        {"name": "gbt", "family": "gbt", "task": "classification"},
        {"name": "logit", "family": "logistic", "task": "classification"},
        {"name": "knn", "family": "knn", "task": "classification"},
        {"name": "nb", "family": "gaussian_nb", "task": "classification"},
        {"name": "svm", "family": "linear_svm", "task": "classification"},
        {"name": "ols", "family": "ols", "task": "regression"},
        {"name": "ridge", "family": "ridge", "task": "regression",
         "hyperparams": {"lam": 1.0}},
        {"name": "lasso", "family": "lasso", "task": "regression"},
        {"name": "svr", "family": "linear_svr", "task": "regression"},
    ],
    "explain": [
        {"model": "rf", "method": "shap", "rows": [0, 1], "mode": "sampled",
         "n_permutations": 200},
        {"model": "logit", "method": "shap", "rows": [0]},
        {"model": "ols", "method": "lime", "rows": [0], "n_samples": 2000},
    ],
    "seed": DEFAULT_SEED,
}

# configs/heart_full.json with the CSV, the augment target and the
# explain requests replaced
_PAPER_10K = {
    "split": _SPLIT,
    "smote": {"mode": "augment", "target_total": 10000, "k": 5},
    "models": [
        {"name": "cart", "family": "cart", "task": "classification"},
        {"name": "rf", "family": "random_forest", "task": "classification"},
        {"name": "gbt", "family": "gbt", "task": "classification"},
        {"name": "logit", "family": "logistic", "task": "classification"},
        {"name": "knn", "family": "knn", "task": "classification"},
        {"name": "nb", "family": "gaussian_nb", "task": "classification"},
        {"name": "svm", "family": "linear_svm", "task": "classification"},
        {"name": "ols", "family": "ols", "task": "regression"},
        {"name": "ridge", "family": "ridge", "task": "regression"},
        {"name": "lasso", "family": "lasso", "task": "regression"},
        {"name": "svr", "family": "linear_svr", "task": "regression"},
    ],
    "explain": [
        {"model": "ols", "method": "lime", "rows": [0, 1]},
    ],
}

_EXPLAIN = {
    "split": _SPLIT,
    "models": [
        {"name": "rf", "family": "random_forest", "task": "classification",
         "hyperparams": {"n_trees": 100}},
        {"name": "gbt", "family": "gbt", "task": "classification"},
        {"name": "logit", "family": "logistic", "task": "classification"},
        {"name": "ols", "family": "ols", "task": "regression"},
    ],
    "explain": [
        {"model": "rf", "method": "shap", "rows": [0, 1, 2], "mode": "sampled",
         "n_permutations": 200},
        {"model": "gbt", "method": "shap", "rows": [0], "mode": "sampled",
         "n_permutations": 200},
        {"model": "logit", "method": "shap", "rows": [0], "exact_feature_cap": 14},
        {"model": "ols", "method": "lime", "rows": [0, 1]},
        {"model": "rf", "method": "lime", "rows": [0]},
    ],
}

WORKLOADS = ("demo", "paper_10k", "explain")


def needs_csv(workload: str) -> bool:
    """Whether the workload reads a fixture CSV written by `heartlab fixture`."""
    return workload != "demo"


def build_config(workload: str, seed: int, output_dir: str,
                 csv_path: str | None = None) -> dict:
    """The JSON config document for one run of a workload."""
    if workload == "demo":
        doc = copy.deepcopy(_DEMO)
        doc["dataset"]["fixture"]["seed"] = 3 * seed
    elif workload in ("paper_10k", "explain"):
        doc = copy.deepcopy(_PAPER_10K if workload == "paper_10k" else _EXPLAIN)
        doc["dataset"] = {"path": csv_path, "schema": "heart16"}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    doc["seed"] = seed
    doc["output_dir"] = output_dir
    return doc


def expected_files(doc: dict) -> list:
    """Bundle files the config's models and explain requests must produce."""
    default_track = "synthetic" if doc.get("smote") else "real"
    names = ["manifest.json", "metrics.csv"]
    for req in doc.get("explain", []):
        tag = f"{req.get('track') or default_track}_{req['model']}"
        rows = req.get("rows", [0])
        if req.get("method", "shap") == "shap":
            names.append(f"shap_{tag}.csv")
            names += [f"shap_{tag}_{r}.csv" for r in rows]
        else:
            names += [f"lime_{tag}_{r}.csv" for r in rows]
    return sorted(set(names))


def configured_rows(doc: dict) -> list:
    """(track, model name, task) for every row metrics.csv must hold."""
    tracks = ["real"] + (["synthetic"] if doc.get("smote") else [])
    return [(t, m["name"], m["task"]) for t in tracks for m in doc["models"]]
