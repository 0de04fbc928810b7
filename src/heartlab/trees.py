"""CART decision trees: Gini for classification, variance reduction for
regression. The shared core under the forest and boosting models.

Split candidates are midpoints between consecutive distinct sorted
values. A node becomes a leaf when depth or size limits bind, when it is
pure, or when no candidate strictly decreases the impurity score. Ties
between candidates break toward the highest gain, then the lowest
feature index, then the lowest threshold. Routing sends x[feature] <=
threshold to the left child.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .data import Dataset
from .errors import ConfigError, ContractError, FitError

TASK_CLASSIFICATION = "classification"
TASK_REGRESSION = "regression"


@dataclass(frozen=True)
class CartConfig:
    max_depth: int = 12
    min_samples_split: int = 2
    min_samples_leaf: int = 1
    feature_subsample: object = "all"  # per-split candidate count, or "all"
    seed: int = 0

    def __post_init__(self):
        if self.max_depth < 1:
            raise ConfigError(f"max_depth must be >= 1, got {self.max_depth}")
        if self.min_samples_leaf < 1:
            raise ConfigError(f"min_samples_leaf must be >= 1, got {self.min_samples_leaf}")
        if self.min_samples_split < 2:
            raise ConfigError(f"min_samples_split must be >= 2, got {self.min_samples_split}")
        if self.feature_subsample != "all":
            if not isinstance(self.feature_subsample, int) or self.feature_subsample < 1:
                raise ConfigError("feature_subsample must be a positive count or 'all'")


@dataclass(frozen=True)
class FlatTree:
    """A fitted tree as node arrays in preorder (node, left subtree, right
    subtree); node 0 is the root. Leaves have feature -1 and hold the
    class-proportion vector (classification) or the mean target
    (regression); n_samples counts the training rows routed to each node."""

    feature: np.ndarray   # int64, -1 at leaves
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf_value: np.ndarray  # (n_nodes,) regression or (n_nodes, n_classes) proportions
    n_samples: np.ndarray
    task: str

    def route(self, X: np.ndarray) -> np.ndarray:
        X = np.ascontiguousarray(X, dtype=np.float64)
        return _kernels.tree_route(self.feature, self.threshold, self.left,
                                   self.right, X)

    def predict_value(self, X: np.ndarray) -> np.ndarray:
        """Leaf payload per row: proportion matrix or mean vector."""
        return self.leaf_value[self.route(X)]

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Majority class per row (ties toward the lower code), or the leaf mean."""
        vals = self.predict_value(X)
        if self.task == TASK_CLASSIFICATION:
            return np.argmax(vals, axis=1).astype(np.int64)
        return vals


def gini(counts) -> float:
    """1 - sum(p_c^2) impurity of a count vector."""
    counts = np.asarray(counts, dtype=np.float64)
    if (counts < 0).any():
        raise ContractError("class counts must be nonnegative")
    total = counts.sum()
    if total <= 0:
        raise ContractError("gini of an empty count vector")
    p = counts / total
    return float(1.0 - np.sum(p * p))


def _grow(X, y, idx, depth, config, task, n_classes, rng, n_features, nodes) -> int:
    """Append the subtree over rows idx to nodes in preorder and return the
    position of its root. Each node is [feature, threshold, left, right,
    leaf value, n_samples]."""
    n = idx.size
    pos = len(nodes)
    f, gain = -1, 0.0
    if not (
        depth >= config.max_depth
        or n < config.min_samples_split
        or n < 2 * config.min_samples_leaf
        or np.all(y[idx] == y[idx[0]])
    ):
        if config.feature_subsample == "all" or int(config.feature_subsample) >= n_features:
            feats = np.arange(n_features, dtype=np.int64)
        else:
            feats = np.sort(rng.choice(n_features, size=int(config.feature_subsample),
                                       replace=False)).astype(np.int64)
        if task == TASK_CLASSIFICATION:
            f, thr, gain = _kernels.split_classification(
                X, y, idx, feats, n_classes, config.min_samples_leaf)
        else:
            f, thr, gain = _kernels.split_regression(
                X, y, idx, feats, config.min_samples_leaf)

    if f < 0 or gain <= 0.0:
        if task == TASK_CLASSIFICATION:
            value = np.bincount(y[idx], minlength=n_classes) / n
        else:
            value = float(y[idx].mean())
        nodes.append([-1, 0.0, 0, 0, value, n])
        return pos

    mask = X[idx, f] <= thr
    node = [int(f), float(thr), pos + 1, 0,
            np.zeros(n_classes) if task == TASK_CLASSIFICATION else 0.0, n]
    nodes.append(node)
    _grow(X, y, idx[mask], depth + 1, config, task, n_classes, rng, n_features, nodes)
    node[3] = _grow(X, y, idx[~mask], depth + 1, config, task, n_classes, rng,
                    n_features, nodes)
    return pos


def fit_cart_matrix(X: np.ndarray, y: np.ndarray, config: CartConfig, task: str,
                    rng: np.random.Generator | None = None,
                    n_classes: int | None = None) -> FlatTree:
    """Array-level fit used by the ensembles; fit_cart wraps it for Datasets."""
    if X.shape[0] == 0:
        raise FitError("cannot fit a tree on empty data")
    if task not in (TASK_CLASSIFICATION, TASK_REGRESSION):
        raise ConfigError(f"unknown task {task!r}")
    if rng is None:
        rng = np.random.default_rng(config.seed)
    X = np.ascontiguousarray(X, dtype=np.float64)
    if task == TASK_CLASSIFICATION:
        y = np.ascontiguousarray(y, dtype=np.int64)
        if n_classes is None:
            n_classes = int(y.max()) + 1
    else:
        y = np.ascontiguousarray(y, dtype=np.float64)
        n_classes = 0
    nodes: list = []
    _grow(X, y, np.arange(X.shape[0], dtype=np.int64), 0, config, task, n_classes,
          rng, X.shape[1], nodes)
    feature, threshold, left, right, leaf_value, n_samples = zip(*nodes)
    return FlatTree(feature=np.array(feature, dtype=np.int64),
                    threshold=np.array(threshold, dtype=np.float64),
                    left=np.array(left, dtype=np.int64),
                    right=np.array(right, dtype=np.int64),
                    leaf_value=np.array(leaf_value, dtype=np.float64),
                    n_samples=np.array(n_samples, dtype=np.int64), task=task)


def fit_cart(ds: Dataset, config: CartConfig = CartConfig(),
             task: str = TASK_CLASSIFICATION) -> FlatTree:
    if task == TASK_CLASSIFICATION:
        if ds.labels is None:
            raise FitError("classification tree requires labels")
        y = ds.labels
    else:
        if ds.targets is None:
            raise FitError("regression tree requires targets")
        y = ds.targets
    return fit_cart_matrix(ds.rows, y, config, task)
