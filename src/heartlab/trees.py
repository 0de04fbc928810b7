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


def presort(X: np.ndarray) -> np.ndarray:
    """(n_features, n_rows) int32 row ids: row f lists X's rows by ascending
    X[:, f], equal values by row id (the order the split kernels expect)."""
    return np.argsort(X.T, axis=1, kind="stable").astype(np.int32)


def _grow(X, y, sorted_rows, config, task, n_classes, rng, w=None):
    """The tree's nodes in preorder (node, left subtree, right subtree), each
    [feature, threshold, left, right, leaf value, n_samples], and each row's
    leaf. w (classification only) counts each row as that many copies of it.

    A pending node holds its rows in ascending order and, when it may split,
    its per-feature sorted lists; a split partitions the lists stably by a
    row flag, so each child's lists stay sorted and no node sorts again."""
    n_features = X.shape[1]
    flag = np.zeros(X.shape[0], dtype=bool)
    leaf_of = np.empty(X.shape[0], dtype=np.int64)
    size = len if w is None else (lambda rows: int(w.take(rows).sum()))

    def may_split(idx, n, depth):
        return not (depth >= config.max_depth or n < config.min_samples_split
                    or n < 2 * config.min_samples_leaf or (y[idx] == y[idx[0]]).all())

    nodes: list = []
    root = np.arange(X.shape[0], dtype=np.int64)
    n_root = size(root)
    # (rows, weighted count, their lists or None for a leaf, depth, parent whose
    # right child it is); popping a node drops its parent's lists
    stack = [(root, n_root, sorted_rows if may_split(root, n_root, 0) else None, 0, None)]
    while stack:
        idx, n, lists, depth, parent = stack.pop()
        if parent is not None:
            parent[3] = len(nodes)
        f, gain = -1, 0.0
        if lists is not None:
            if config.feature_subsample == "all" or int(config.feature_subsample) >= n_features:
                feats = np.arange(n_features, dtype=np.int64)
            else:
                feats = np.sort(rng.choice(n_features, size=int(config.feature_subsample),
                                           replace=False)).astype(np.int64)
            if task == TASK_CLASSIFICATION:
                f, thr, gain = _kernels.split_classification(
                    X, y, idx, feats, n_classes, config.min_samples_leaf, lists, w)
            else:
                f, thr, gain = _kernels.split_regression(
                    X, y, idx, feats, config.min_samples_leaf, lists)

        if f < 0 or gain <= 0.0:
            if task == TASK_CLASSIFICATION:
                value = np.bincount(y[idx], None if w is None else w[idx], n_classes) / n
            else:
                value = float(y[idx].mean())
            leaf_of[idx] = len(nodes)
            nodes.append([-1, 0.0, 0, 0, value, n])
            continue

        node = [int(f), float(thr), len(nodes) + 1, 0,
                np.zeros(n_classes) if task == TASK_CLASSIFICATION else 0.0, n]
        nodes.append(node)
        go_left = X[:, f].take(idx) <= thr
        flag[idx] = go_left
        goes = flag.take(lists).ravel()
        rows_left = idx[go_left]
        n_left = size(rows_left)
        for rows, n_rows, keep, parent in ((idx[~go_left], n - n_left, ~goes, node),
                                           (rows_left, n_left, goes, None)):
            stack.append((rows, n_rows,
                          lists.ravel().compress(keep).reshape(n_features, rows.size)
                          if may_split(rows, n_rows, depth + 1) else None, depth + 1, parent))
    return nodes, leaf_of


def fit_cart_matrix(X: np.ndarray, y: np.ndarray, config: CartConfig, task: str,
                    rng: np.random.Generator | None = None,
                    n_classes: int | None = None,
                    sorted_rows: np.ndarray | None = None,
                    weights: np.ndarray | None = None, leaves: bool = False):
    """Fit one tree on X and y (int labels or float targets).
    sorted_rows is presort(X), passed by callers that fit many trees on one X.
    weights (classification only) count rows; leaves returns (tree, row -> leaf)."""
    if X.shape[0] == 0:
        raise FitError("cannot fit a tree on empty data")
    if task not in (TASK_CLASSIFICATION, TASK_REGRESSION):
        raise ConfigError(f"unknown task {task!r}")
    if weights is not None and task != TASK_CLASSIFICATION:
        raise ContractError("row weights are for classification trees only")
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
    nodes, leaf_of = _grow(X, y, presort(X) if sorted_rows is None else sorted_rows,
                           config, task, n_classes, rng, weights)
    feature, threshold, left, right, leaf_value, n_samples = zip(*nodes)
    tree = FlatTree(feature=np.array(feature, dtype=np.int64),
                    threshold=np.array(threshold, dtype=np.float64),
                    left=np.array(left, dtype=np.int64),
                    right=np.array(right, dtype=np.int64),
                    leaf_value=np.array(leaf_value, dtype=np.float64),
                    n_samples=np.array(n_samples, dtype=np.int64), task=task)
    return (tree, leaf_of) if leaves else tree
