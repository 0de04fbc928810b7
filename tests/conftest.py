from dataclasses import replace

import numpy as np
import pytest
from hypothesis import settings

from heartlab.data import (
    ColumnSchema,
    Dataset,
    KIND_BINARY,
    KIND_CATEGORICAL,
    KIND_CONTINUOUS,
    ROLE_CLASS_LABEL,
    ROLE_FEATURE,
    ROLE_REGRESSION_TARGET,
)
from heartlab import _kernels
from heartlab.ensembles import Forest, _resolve_subsample
from heartlab.trees import (TASK_CLASSIFICATION, FlatTree, child_keys, draw_features,
                            fit_cart_matrix, presort)

# Every tier-1 run draws the same examples: a failure found once is found
# on every run, and no example database carries over between runs.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


def make_ds(rows, labels=None, targets=None, kinds=None, names=None):
    """Build a Dataset around plain arrays with a generated schema."""
    rows = np.ascontiguousarray(np.asarray(rows, dtype=np.float64))
    if rows.ndim != 2:
        raise ValueError("rows must be 2d")
    n = rows.shape[1]
    cols = []
    for j in range(n):
        kind = kinds[j] if kinds is not None else KIND_CONTINUOUS
        name = names[j] if names is not None else f"f{j}"
        cols.append(ColumnSchema(name=name, kind=kind, role=ROLE_FEATURE))
    if labels is not None:
        cols.append(ColumnSchema(name="label", kind=KIND_BINARY, role=ROLE_CLASS_LABEL))
        labels = np.asarray(labels, dtype=np.int64)
    if targets is not None:
        cols.append(ColumnSchema(name="score", kind=KIND_CONTINUOUS,
                                 role=ROLE_REGRESSION_TARGET))
        targets = np.asarray(targets, dtype=np.float64)
    return Dataset(schema=list(cols), rows=rows, labels=labels, targets=targets)


def tree_leaf(tree, x) -> int:
    """Node position of the leaf that one row reaches, walking the node
    arrays in Python: x[feature] <= threshold goes left."""
    x = np.asarray(x, dtype=np.float64)
    i = 0
    while tree.feature[i] >= 0:
        i = tree.left[i] if x[tree.feature[i]] <= tree.threshold[i] else tree.right[i]
    return int(i)


def tree_predict_row(tree, x):
    """Majority class of one row's leaf (ties to the lower code), or its mean."""
    value = tree.leaf_value[tree_leaf(tree, x)]
    if tree.task == TASK_CLASSIFICATION:
        return int(np.argmax(value))
    return float(value)


def node_lists(X, idx, lists=None):
    """A node's sorted lists as trees._grow keeps them in its segment: the
    tree-wide presort (lists, made here when omitted) with rows outside idx
    dropped."""
    lists = presort(X) if lists is None else lists
    member = np.zeros(X.shape[0], dtype=bool)
    member[idx] = True
    return lists[member.take(lists)].reshape(X.shape[1], idx.size)


def _reference_grow(X, y, idx, depth, config, task, n_classes, key, lists, nodes,
                    w=None) -> int:
    """CART growth as it was before level-wise growth: depth first, one
    split kernel call per node, on lists cut for that node alone.
    Appends the subtree over idx, whose root is keyed key, to nodes in
    preorder and returns the position of its root. w weights rows as
    trees._grow's does: node sizes and class counts sum it. lists is
    presort(X), which each node cuts its own lists from."""
    n_features = X.shape[1]
    n = idx.size if w is None else int(w[idx].sum())
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
            feats = draw_features(np.array([key], dtype=np.uint64), n_features,
                                  int(config.feature_subsample))[:, 0]
        if task == TASK_CLASSIFICATION:
            f, thr, gain = _kernels.split_classification(
                X, y, idx, feats, n_classes, config.min_samples_leaf, node_lists(X, idx, lists),
                w)
        else:
            f, thr, gain = _kernels.split_regression(
                X, y, idx, feats, config.min_samples_leaf, node_lists(X, idx, lists))

    if f < 0 or gain <= 0.0:
        if task == TASK_CLASSIFICATION:
            counts = np.zeros(n_classes)
            np.add.at(counts, y[idx], 1 if w is None else w[idx])
            value = counts / n
        else:
            value = float(y[idx].mean())
        nodes.append([-1, 0.0, 0, 0, value, n])
        return pos

    mask = X[idx, f] <= thr
    node = [int(f), float(thr), pos + 1, 0,
            np.zeros(n_classes) if task == TASK_CLASSIFICATION else 0.0, n]
    nodes.append(node)
    left_key, right_key = child_keys(np.array([key], dtype=np.uint64))[0]
    _reference_grow(X, y, idx[mask], depth + 1, config, task, n_classes, left_key, lists,
                    nodes, w)
    node[3] = _reference_grow(X, y, idx[~mask], depth + 1, config, task, n_classes, right_key,
                              lists, nodes, w)
    return pos


def reference_fit_cart_matrix(X, y, config, task, key=None, n_classes=None,
                              sorted_rows=None, weights=None, leaves=False):
    """trees.fit_cart_matrix over _reference_grow; sorted_rows is ignored,
    and the leaves come from routing X through the finished tree."""
    key = config.seed if key is None else key
    X = np.ascontiguousarray(X, dtype=np.float64)
    if task == TASK_CLASSIFICATION:
        y = np.ascontiguousarray(y, dtype=np.int64)
        n_classes = int(y.max()) + 1 if n_classes is None else n_classes
    else:
        y = np.ascontiguousarray(y, dtype=np.float64)
        n_classes = 0
    nodes: list = []
    _reference_grow(X, y, np.arange(X.shape[0], dtype=np.int64), 0, config, task,
                    n_classes, key, presort(X), nodes, weights)
    feature, threshold, left, right, leaf_value, n_samples = zip(*nodes)
    tree = FlatTree(feature=np.array(feature, dtype=np.int64),
                    threshold=np.array(threshold, dtype=np.float64),
                    left=np.array(left, dtype=np.int64),
                    right=np.array(right, dtype=np.int64),
                    leaf_value=np.array(leaf_value, dtype=np.float64),
                    n_samples=np.array(n_samples, dtype=np.int64), task=task)
    return (tree, tree.route(X)) if leaves else tree


def reference_fit_random_forest(X, y, config, task=TASK_CLASSIFICATION,
                                fit_tree=fit_cart_matrix):
    """ensembles.fit_random_forest as it was before weighted and batched
    growth: each tree grows alone, with fit_tree, on its materialized draw
    X[take], y[take]."""
    n_classes = int(y.max()) + 1 if task == TASK_CLASSIFICATION else 0
    X = np.ascontiguousarray(X, dtype=np.float64)
    n = X.shape[0]
    sub = _resolve_subsample(config.feature_subsample, X.shape[1], task)
    cart = replace(config.cart, feature_subsample=sub)
    trees = []
    for t in range(config.n_trees):
        rng = np.random.default_rng([config.seed, t])
        take = rng.integers(0, n, size=n) if config.bootstrap else np.arange(n)
        key = int(rng.integers(2 ** 64, dtype=np.uint64))
        trees.append(fit_tree(X[take], y[take], cart, task, key=key,
                              n_classes=n_classes or None))
    return Forest(trees=tuple(trees), task=task, n_classes=n_classes, config=config)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def two_blob_ds():
    """Two well-separated Gaussian blobs, 60 rows per class."""
    g = np.random.default_rng(7)
    a = g.normal(loc=(-2.0, -2.0), scale=0.6, size=(60, 2))
    b = g.normal(loc=(2.0, 2.0), scale=0.6, size=(60, 2))
    rows = np.vstack([a, b])
    labels = np.array([0] * 60 + [1] * 60)
    return make_ds(rows, labels=labels)


__all__ = ["make_ds", "tree_leaf", "tree_predict_row", "node_lists",
           "reference_fit_cart_matrix", "reference_fit_random_forest",
           "KIND_CATEGORICAL", "KIND_CONTINUOUS", "KIND_BINARY",
           "ROLE_FEATURE", "ROLE_CLASS_LABEL", "ROLE_REGRESSION_TARGET"]
