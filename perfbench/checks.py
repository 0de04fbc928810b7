"""Correctness checks and the byte digest of one run's bundle."""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

from workloads import configured_rows, expected_files

_TASK_METRICS = {
    "classification": ("accuracy", "precision", "recall", "f1", "mcc", "auc"),
    "regression": ("mse", "rmse", "mae", "r2"),
}

# release-gate floors that apply to the benchmark's runs:
# (workload or None for all, track, model, metric, floor, criterion)
_GATES = (
    ("paper_10k", "synthetic", "rf", "accuracy", 0.95, 4),
    (None, "real", "ols", "r2", 0.97, 5),
)


def bundle_digest(out_dir: Path) -> tuple:
    """sha256 over every bundle file, in name order, as (hex, files, bytes)."""
    h = hashlib.sha256()
    n_files = n_bytes = 0
    for path in sorted(p for p in out_dir.iterdir() if p.is_file()):
        data = path.read_bytes()
        h.update(path.name.encode() + b"\0")
        h.update(hashlib.sha256(data).digest())
        n_files += 1
        n_bytes += len(data)
    return h.hexdigest(), n_files, n_bytes


def check_bundle(workload: str, doc: dict, out_dir: Path) -> tuple:
    """(problems, quality): what is wrong with the bundle, and the mean
    real-track accuracy and R2 it reports."""
    problems = []
    manifest_path = out_dir / "manifest.json"
    if not manifest_path.is_file():
        return ["manifest.json missing"], {}
    status = json.loads(manifest_path.read_text()).get("status")
    if status != "ok":
        problems.append(f"manifest status is {status!r}")
    for name in expected_files(doc):
        if not (out_dir / name).is_file():
            problems.append(f"{name} missing")
    if not (out_dir / "metrics.csv").is_file():
        return problems, {}

    with open(out_dir / "metrics.csv", newline="") as fh:
        table = {(r["track"], r["model"]): r for r in csv.DictReader(fh)}
    values = {}
    for track, model, task in configured_rows(doc):
        row = table.get((track, model))
        if row is None:
            problems.append(f"metrics.csv has no row for {track}/{model}")
            continue
        for key in _TASK_METRICS[task]:
            if not row.get(key):
                problems.append(f"metrics.csv lacks {key} for {track}/{model}")
            else:
                values[(track, model, key)] = float(row[key])

    for gate_workload, track, model, key, floor, num in _GATES:
        if gate_workload not in (None, workload) or (track, model) not in table:
            continue
        got = values.get((track, model, key))
        if got is not None and got < floor:
            problems.append(f"criterion {num:02d}: {track} {model} {key} "
                            f"{got:.4f} < {floor}")

    quality = {}
    for metric, key in (("real_accuracy_mean", "accuracy"), ("real_r2_mean", "r2")):
        got = [v for (t, _, k), v in values.items() if t == "real" and k == key]
        if got:
            quality[metric] = sum(got) / len(got)
    return problems, quality
