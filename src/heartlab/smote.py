"""Synthetic minority oversampling and bulk augmentation.

Each synthetic row interpolates a class member toward one of its k
nearest same-class neighbors (Euclidean on the feature columns, which
must already be numeric and, in the pipeline, scaled):

    row = x + lam * (x_nn - x),   lam ~ Uniform[0, 1)

The continuous target is interpolated with the same lam; the label is
copied. Balance mode raises every class to the majority count; augment
mode adds rows round-robin over ascending class codes until the total
reaches ``target_total``. Originals are always retained, synthetics are
appended in generation order.

Every synthetic row index i draws from its own generator seeded with
(seed, i), drawing parent, neighbor slot, then lam, so any parallel
schedule over indices reproduces the serial output bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import knn_search
from .data import Dataset, check_seed
from .errors import ConfigError, ContractError, ResamplingError

MODE_BALANCE = "balance"
MODE_AUGMENT = "augment"


@dataclass(frozen=True)
class SmoteConfig:
    k: int = 5
    mode: str = MODE_BALANCE
    target_total: int | None = None
    seed: int = 0
    leak_free: bool = False

    def __post_init__(self):
        check_seed(self.seed)
        if self.k < 1:
            raise ConfigError(f"smote k must be >= 1, got {self.k}")
        if self.mode not in (MODE_BALANCE, MODE_AUGMENT):
            raise ConfigError(f"smote mode must be balance or augment, got {self.mode!r}")
        if (self.mode == MODE_AUGMENT) != (self.target_total is not None):
            raise ConfigError("target_total is required by augment mode and unused by balance mode")


def _class_neighbor_table(points: np.ndarray, k: int) -> np.ndarray:
    """(n, k) local neighbor indices within one class, self excluded.

    The kernel returns k+1 nearest including the query point; the query
    is dropped by identity, or the trailing entry when duplicates push
    it out of the window.
    """
    n = points.shape[0]
    idx, _ = knn_search(points, points, min(k + 1, n))
    keep = idx != np.arange(n)[:, None]
    keep[keep.all(axis=1), -1] = False
    return idx[keep].reshape(n, k)


def smote(ds: Dataset, config: SmoteConfig, lam_override: float | None = None) -> Dataset:
    """Oversample per config; lam_override pins the interpolation
    coefficient for every synthetic row (test hook)."""
    if ds.labels is None:
        raise ContractError("smote requires class labels")
    if ds.text_columns:
        raise ContractError("smote requires numeric features; encode text columns first")
    if np.isnan(ds.rows).any():
        raise ContractError("smote requires imputed features; found missing values")

    counts = ds.class_counts()
    codes = sorted(counts)
    n = ds.n_rows

    if config.mode == MODE_BALANCE:
        top = max(counts.values())
        plan = [c for c in codes for _ in range(top - counts[c])]
    else:
        if config.target_total <= n:
            raise ConfigError(
                f"augment target_total {config.target_total} must exceed current {n} rows"
            )
        total_new = config.target_total - n
        plan = [codes[i % len(codes)] for i in range(total_new)]

    if not plan:
        return ds

    needed = sorted(set(plan))
    members = {}
    tables = {}
    for c in needed:
        if counts[c] < config.k + 1:
            raise ResamplingError(
                f"class {c} has {counts[c]} rows, need at least {config.k + 1} for k={config.k}"
            )
        m = np.nonzero(ds.labels == c)[0]
        members[c] = m
        tables[c] = _class_neighbor_table(ds.rows[m], config.k)

    n_new = len(plan)
    new_rows = np.empty((n_new, ds.rows.shape[1]), dtype=np.float64)
    new_labels = np.empty(n_new, dtype=np.int64)
    new_targets = np.empty(n_new, dtype=np.float64) if ds.targets is not None else None

    for i, c in enumerate(plan):
        rng = np.random.default_rng([config.seed, i])
        m = members[c]
        base = int(rng.integers(0, m.size))
        slot = int(rng.integers(0, config.k))
        lam = float(rng.random()) if lam_override is None else float(lam_override)
        parent = m[base]
        neighbor = m[tables[c][base, slot]]
        x = ds.rows[parent]
        new_rows[i] = x + lam * (ds.rows[neighbor] - x)
        new_labels[i] = c
        if new_targets is not None:
            t = ds.targets[parent]
            new_targets[i] = t + lam * (ds.targets[neighbor] - t)

    rows = np.vstack([ds.rows, new_rows])
    labels = np.concatenate([ds.labels, new_labels])
    targets = None if ds.targets is None else np.concatenate([ds.targets, new_targets])
    return ds.with_rows(rows, labels=labels, targets=targets)
