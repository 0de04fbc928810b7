"""CART decision trees: Gini for classification, variance reduction for
regression. The shared core under the forest and boosting models.

Split candidates are midpoints between consecutive distinct sorted
values. A node becomes a leaf when depth or size limits bind, when it is
pure, or when no candidate strictly decreases the impurity score. Ties
between candidates break toward the highest gain, then the lowest
feature index, then the lowest threshold. Routing sends x[feature] <=
threshold to the left child.

Trees grow a level at a time (SLIQ, Mehta et al. 1996) from one presort;
grow runs one level loop for a batch of independent trees. With a feature
subsample, each node draws its candidates from a counter-based hash (Salmon
et al. 2011) of its key, which hashes the tree key along the node's path
from the root: a draw depends on the tree key and the path alone, not on
the order in which nodes are grown, nor on the trees grown beside it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ConfigError, ContractError

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
        if self.feature_subsample != "all" and (type(self.feature_subsample) is not int
                                                or self.feature_subsample < 1):  # true is no count
            raise ConfigError(f"feature_subsample must be a positive count or 'all', "
                              f"got {self.feature_subsample!r}")


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

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Leaf payload per row: the leaf mean, or a proportion matrix."""
        return self.leaf_value[self.route(X)]

    def scored(self, X: np.ndarray) -> tuple:
        return by_argmax(self.predict(X))

    def check(self, n_cols: int, task: str, config=None) -> None:
        """Refuse a tree of another task, a classification leaf that is no
        class-proportion vector, or a tree that routing could index past or
        never leave. A tree saves no hyperparameters to hold to config."""
        n, inner, leaf = self.feature.size, np.flatnonzero(self.feature >= 0), self.leaf_value
        if n == 0 or leaf.shape[:1] != (n,) or any(a.shape != (n,) for a in (
                self.feature, self.threshold, self.left, self.right, self.n_samples)):
            raise ContractError("tree node arrays differ in length")
        if self.task != task or leaf.ndim != 1 + (task == TASK_CLASSIFICATION) or not leaf.size:
            raise ContractError(f"tree is not a {task} tree")
        if task == TASK_CLASSIFICATION and not ((leaf >= 0).all() and (
                abs(leaf[self.feature < 0].sum(axis=1) - 1.0) <= 1e-9).all()):
            raise ContractError("a classification leaf is not a vector of class proportions")
        if any(a.dtype.kind != "i" for a in (self.feature, self.left, self.right)) or (
                (self.feature < -1) | (self.feature >= n_cols)).any():
            raise ContractError(f"tree feature index outside [-1, {n_cols}) or an index not an int")
        right = self.right[inner]
        if (self.left[inner] != inner + 1).any() or not ((inner + 1 < right) & (right < n)).all():
            raise ContractError("tree child index does not point forward")


def by_argmax(mat: np.ndarray) -> tuple:
    """Labels (argmax, ties to the lower code) and the class-1 column of a
    per-class matrix, zeros if it has one class only."""
    return (np.argmax(mat, axis=1).astype(np.int64),
            mat[:, 1] if mat.shape[1] > 1 else np.zeros(mat.shape[0]))


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


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)  # 2**64 / golden ratio
_SIDES = np.array([1, 2], dtype=np.uint64) * _GOLDEN  # left and right child, mod 2**64
_DRAW = np.uint64(0xD1B54A32D192ED03)  # keeps draw counters apart from path keys


def _mix(z: np.ndarray) -> np.ndarray:
    """splitmix64's output function (Steele, Lea & Flood 2014): a bijection
    of uint64 arrays, whose arithmetic wraps modulo 2**64."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def child_keys(keys: np.ndarray) -> np.ndarray:
    """(n, 2) uint64 keys of the left and right children of the nodes keyed
    keys: a node's key hashes the tree key along its path from the root, so
    it stays 64 bits at any depth."""
    return _mix(keys[:, None] + _SIDES)


def draw_features(keys: np.ndarray, n_features: int, k: int) -> np.ndarray:
    """(k, len(keys)) int64 candidate features, column i node i's: the k
    features with the smallest hash of (node key, feature), ascending, so
    each node draws a uniform k-subset from its key alone."""
    counters = (keys ^ _DRAW)[:, None] + _GOLDEN * np.arange(1, n_features + 1, dtype=np.uint64)
    return np.sort(np.argsort(_mix(counters), axis=1, kind="stable")[:, :k], axis=1).T


def grow(X, y, sorted_rows, keys, sizes, w, config, task, n_classes):
    """Breadth-first growth of a batch of trees: root i holds the next
    sizes[i] rows of X, keyed keys[i], with its sorted lists side by side
    with the others' in sorted_rows. Returns per tree its node arrays in
    preorder, as FlatTree takes them, and its rows' leaves. w
    (classification only, or None) counts each row as that many copies.

    A level's open nodes, of every tree, keep their rows (ascending) side by
    side in idx and their sorted lists side by side in lists, one segment
    each. All open classification nodes are scored in one kernel call,
    regression nodes in one call each. A per-row code (left child kept,
    right child kept, dropped) partitions idx and the lists stably into the
    next level's segments, left children first, so no node sorts. Nodes are
    numbered level by level, then renumbered into their tree's preorder.
    No node's split, size or value depends on the nodes beside it."""
    n_rows, n_features = X.shape
    classify = task == TASK_CLASSIFICATION
    sub = config.feature_subsample
    k = n_features if sub == "all" else min(int(sub), n_features)
    min_size = max(config.min_samples_split, 2 * config.min_samples_leaf)

    def made(rows, counts, depth):
        """Size, leaf value and whether it may split, per node of a level
        whose node i holds the next counts[i] of rows."""
        if classify:
            node = np.arange(counts.size).repeat(counts)
            by_class = np.bincount(node * n_classes + y.take(rows),
                                   None if w is None else w.take(rows),
                                   counts.size * n_classes).reshape(-1, n_classes)
            n = by_class.sum(axis=1).astype(np.int64)
            value, pure = by_class / n[:, None], by_class.max(axis=1) == n
        else:
            parts = np.split(y.take(rows), counts.cumsum()[:-1])
            n = counts
            value = np.array([float(part.mean()) for part in parts])
            pure = np.array([(part == part[0]).all() for part in parts])
        return n, value, ~pure & (n >= min_size) & (depth < config.max_depth)

    n_trees = len(sizes)
    leaf_of = np.zeros(n_rows, dtype=np.int64)  # each row's leaf, numbered level by level
    code = np.empty(n_rows, dtype=np.int8)      # 0 left child kept, 1 right child kept, 2 dropped
    # the roots are the level-0 nodes, each a left child: s counts the level's left children
    per_kid = np.array(sizes, dtype=np.int64)   # rows of each node of the level
    kids, kid_of, s = np.arange(n_rows), np.arange(n_trees).repeat(per_kid), n_trees
    lists, keys = sorted_rows, np.array(keys, dtype=np.uint64)
    levels, links = [], []  # per level (feature, threshold, n_samples, value); per split level
    base = depth = 0        # number of the level's first node; its depth
    while True:
        n, value, may = made(kids, per_kid, depth)
        feat, thr = np.full(n.size, -1, dtype=np.int64), np.zeros(n.size)
        levels.append((feat, thr, n, value))
        kept = may.take(kid_of)
        leaf_of[kids[~kept]] = base + kid_of[~kept]
        if not may.any():
            break
        if depth or not kept.all():  # the roots' lists need none unless a root is a leaf
            code.fill(2)
            code[kids] = np.where(kept, kid_of >= s, 2)
            moves = code.take(lists).ravel()
            lists = np.concatenate([lists.compress(moves == side).reshape(n_features, -1)
                                    for side in (0, 1)], axis=1)
        idx, per_node, open_ = kids.compress(kept), per_kid[may], may.nonzero()[0]
        starts = np.concatenate([[0], per_node.cumsum()])
        keys = keys[may] if k < n_features else None  # only the feature draws read keys
        feats = (np.arange(n_features)[:, None].repeat(open_.size, axis=1) if k == n_features
                 else draw_features(keys, n_features, k))
        if classify:
            f, t, gain = _kernels.split_classification(
                X, y, idx, feats, n_classes, config.min_samples_leaf, lists, w, starts)
        else:
            f, t, gain = map(np.array, zip(*(
                _kernels.split_regression(X, y, idx[a:b], feats[:, s], config.min_samples_leaf,
                                          lists[:, a:b])
                for s, (a, b) in enumerate(zip(starts[:-1], starts[1:])))))
        split = (f >= 0) & (gain > 0.0)
        seg = np.arange(open_.size).repeat(per_node)  # position -> open node
        row_split = split[seg]
        leaf_of[idx[~row_split]] = base + open_[seg[~row_split]]
        parents = open_[split]
        if parents.size == 0:
            break
        feat[parents], thr[parents] = f[split], t[split]
        s = parents.size
        goes_left = X.take(idx * n_features + f.clip(0)[seg]) <= t[seg]
        rank = (split.cumsum() - 1)[seg]
        sides = (row_split & goes_left, row_split & ~goes_left)
        kids = np.concatenate([idx.compress(side) for side in sides])
        kid_of = np.concatenate([rank.compress(side) + i * s for i, side in enumerate(sides)])
        base, depth = base + n.size, depth + 1
        links.append((base - n.size + parents, base + np.arange(s), base + s + np.arange(s)))
        per_kid = np.bincount(kid_of, minlength=2 * s)
        keys = child_keys(keys[split]).T.ravel() if k < n_features else None
    # each tree's preorder: a node, its left subtree, its right subtree
    feature, threshold, n_samples, leaf_value = map(np.concatenate, zip(*levels))
    subtree = np.ones(feature.size, dtype=np.int64)
    for parents, lefts, rights in reversed(links):
        subtree[parents] += subtree[lefts] + subtree[rights]
    tree = np.minimum(np.arange(feature.size), n_trees - 1)  # nodes 0.. are the roots
    pre = np.zeros(feature.size, dtype=np.int64)
    left, right = np.zeros_like(pre), np.zeros_like(pre)
    for parents, lefts, rights in links:
        pre[lefts] = pre[parents] + 1
        pre[rights] = pre[lefts] + subtree[lefts]
        left[parents], right[parents] = pre[lefts], pre[rights]
        tree[lefts] = tree[rights] = tree[parents]
    leaf_value[feature >= 0] = 0.0
    order, cuts = np.lexsort((pre, tree)), subtree[:n_trees].cumsum()[:-1]
    arrays = (np.split(a[order], cuts) for a in (feature, threshold, left, right, leaf_value,
                                                 n_samples))
    return list(zip(zip(*arrays), np.split(pre[leaf_of], np.cumsum(sizes)[:-1])))


def fit_cart_matrix(X: np.ndarray, y: np.ndarray, config: CartConfig, task: str,
                    key: int | None = None,
                    n_classes: int | None = None,
                    sorted_rows: np.ndarray | None = None, leaves: bool = False):
    """Fit one tree on X and y (int labels or float targets).
    key, an int in [0, 2**64), keys the per-node feature draws (default
    config.seed). sorted_rows is presort(X), passed by callers that fit many
    trees on one X. leaves returns (tree, row -> leaf)."""
    if task not in (TASK_CLASSIFICATION, TASK_REGRESSION):
        raise ConfigError(f"unknown task {task!r}")
    X = np.ascontiguousarray(X, dtype=np.float64)
    if task == TASK_CLASSIFICATION:
        y = np.ascontiguousarray(y, dtype=np.int64)
        if n_classes is None:
            n_classes = int(y.max()) + 1
    else:
        y = np.ascontiguousarray(y, dtype=np.float64)
        n_classes = 0
    (arrays, leaf_of), = grow(X, y, presort(X) if sorted_rows is None else sorted_rows,
                              [config.seed if key is None else key], [X.shape[0]], None,
                              config, task, n_classes)
    tree = FlatTree(*arrays, task=task)
    return (tree, leaf_of) if leaves else tree
