"""CART correctness against an exhaustive split-search oracle plus the
structural invariants (strict impurity decrease, leaf sizes, depth)."""

import numpy as np
import pytest

from heartlab import _kernels
from heartlab.errors import ConfigError, ContractError
from heartlab.trees import (
    CartConfig,
    FlatTree,
    TASK_CLASSIFICATION,
    TASK_REGRESSION,
    child_keys,
    draw_features,
    fit_cart_matrix,
    gini,
    presort,
)

from conftest import reference_fit_cart_matrix, tree_leaf, tree_predict_row


# -- oracle ------------------------------------------------------------------


def _gini_of(ys, n_classes):
    n = len(ys)
    if n == 0:
        return 0.0
    out = 1.0
    for c in range(n_classes):
        out -= (sum(1 for v in ys if v == c) / n) ** 2
    return out


def _var_of(ys):
    n = len(ys)
    if n == 0:
        return 0.0
    m = sum(ys) / n
    return sum((v - m) ** 2 for v in ys) / n


def _depths(tree):
    """Depth of every node; preorder puts each parent before its children."""
    depth = np.zeros(tree.feature.size, dtype=np.int64)
    for i in np.flatnonzero(tree.feature >= 0):
        depth[tree.left[i]] = depth[tree.right[i]] = depth[i] + 1
    return depth


def _node_rows(tree, X):
    """Training rows that reach each node, routed from the root."""
    rows = {0: np.arange(X.shape[0])}
    for i in np.flatnonzero(tree.feature >= 0):
        here = rows[i]
        go_left = X[here, tree.feature[i]] <= tree.threshold[i]
        rows[tree.left[i]] = here[go_left]
        rows[tree.right[i]] = here[~go_left]
    return rows


def brute_best_split(X, y, n_classes=None, min_leaf=1):
    """Exhaustive midpoint search; ties resolved to the lowest feature
    then the lowest threshold, mirroring the documented contract."""
    n, m = X.shape
    if n_classes is None:
        parent = _var_of(list(y))
        impurity = lambda ys: _var_of(ys)
    else:
        parent = _gini_of(list(y), n_classes)
        impurity = lambda ys: _gini_of(ys, n_classes)
    best = (-1, 0.0, 0.0)
    for f in range(m):
        vals = sorted(set(X[:, f]))
        for a, b in zip(vals, vals[1:]):
            thr = (a + b) / 2.0
            left = [y[i] for i in range(n) if X[i, f] <= thr]
            right = [y[i] for i in range(n) if X[i, f] > thr]
            if len(left) < min_leaf or len(right) < min_leaf:
                continue
            gain = parent - (len(left) * impurity(left)
                             + len(right) * impurity(right)) / n
            if gain > best[2]:
                best = (f, thr, gain)
    return best


@pytest.mark.parametrize("seed", range(10))
def test_root_split_matches_exhaustive_search_classification(seed):
    g = np.random.default_rng(seed)
    n = 50
    X = np.round(g.normal(size=(n, 4)), 1)
    y = g.integers(0, 3, size=n).astype(np.int64)
    ds_cfg = CartConfig(max_depth=1)
    tree = fit_cart_matrix(np.ascontiguousarray(X), y, ds_cfg,
                           TASK_CLASSIFICATION, n_classes=3)
    f, thr, gain = brute_best_split(X, y, n_classes=3)
    if f < 0:
        assert tree.feature.tolist() == [-1]
    else:
        assert tree.feature[0] == f
        assert tree.threshold[0] == thr
        kf, kthr, kgain = _kernels.split_classification(
            X, y, np.arange(n, dtype=np.int64), np.arange(4, dtype=np.int64), 3, 1, presort(X))
        assert (kf, kthr) == (f, thr)
        assert abs(kgain - gain) < 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_root_split_matches_exhaustive_search_regression(seed):
    g = np.random.default_rng(seed + 100)
    n = 40
    X = np.round(g.normal(size=(n, 3)), 1)
    y = g.normal(size=n)
    tree = fit_cart_matrix(np.ascontiguousarray(X), y, CartConfig(max_depth=1),
                           TASK_REGRESSION)
    f, thr, gain = brute_best_split(X, y, n_classes=None)
    assert tree.feature[0] == f
    assert tree.threshold[0] == thr
    kf, kthr, kgain = _kernels.split_regression(
        X, y, np.arange(n, dtype=np.int64), np.arange(3, dtype=np.int64), 1)
    assert (kf, kthr) == (f, thr)
    assert abs(kgain - gain) < 1e-10


def test_min_leaf_respected_in_split_choice(rng):
    X = np.ascontiguousarray(rng.normal(size=(30, 2)))
    y = rng.integers(0, 2, size=30).astype(np.int64)
    tree = fit_cart_matrix(X, y, CartConfig(max_depth=1, min_samples_leaf=10),
                           TASK_CLASSIFICATION, n_classes=2)
    f, thr, gain = brute_best_split(X, y, n_classes=2, min_leaf=10)
    if f < 0:
        assert tree.feature.tolist() == [-1]
    else:
        assert (tree.feature[0], tree.threshold[0]) == (f, thr)


# -- pinned values -----------------------------------------------------------


def test_gini_known_values():
    assert gini(np.array([1, 2, 3])) == pytest.approx(11.0 / 18.0, abs=1e-15)
    assert gini(np.array([10, 0])) == 0.0
    assert gini(np.array([5, 5])) == 0.5
    with pytest.raises(ContractError):
        gini(np.array([-1, 2]))


def test_two_point_split_at_midpoint():
    X = np.ascontiguousarray([[0.0], [1.0]])
    y = np.array([0, 1], dtype=np.int64)
    tree = fit_cart_matrix(X, y, CartConfig(), TASK_CLASSIFICATION, n_classes=2)
    assert tree.feature.tolist() == [0, -1, -1]
    assert tree.threshold[0] == 0.5
    assert tree_predict_row(tree, np.array([0.2])) == 0
    assert tree_predict_row(tree, np.array([0.8])) == 1
    assert tree_predict_row(tree, np.array([0.5])) == 0  # boundary goes left
    assert tree.scored(np.array([[0.2], [0.8], [0.5]]))[0].tolist() == [0, 1, 0]


def test_and_function_learned_exactly():
    # greedy CART nails y = (x0 > 0) and (x1 > 0) at depth 2
    pts = []
    ys = []
    for x0 in (-1.0, 1.0):
        for x1 in (-1.0, 1.0):
            for _ in range(5):
                pts.append([x0, x1])
                ys.append(1 if (x0 > 0 and x1 > 0) else 0)
    X = np.ascontiguousarray(pts)
    y = np.array(ys, dtype=np.int64)
    tree = fit_cart_matrix(X, y, CartConfig(max_depth=2), TASK_CLASSIFICATION,
                           n_classes=2)
    pred = [tree_predict_row(tree, X[i]) for i in range(len(ys))]
    assert pred == ys
    assert _depths(tree).max() == 2


# -- invariants --------------------------------------------------------------


def _grow_tree(seed, task, max_depth=6, min_leaf=2):
    g = np.random.default_rng(seed)
    X = np.ascontiguousarray(np.round(g.normal(size=(120, 5)), 1))
    if task == TASK_CLASSIFICATION:
        y = (X[:, 0] + X[:, 1] ** 2 + 0.3 * g.normal(size=120) > 0.5).astype(np.int64)
        tree = fit_cart_matrix(X, y, CartConfig(max_depth=max_depth,
                                                min_samples_leaf=min_leaf),
                               task, n_classes=2)
    else:
        y = X[:, 0] * 2 + np.abs(X[:, 1]) + 0.1 * g.normal(size=120)
        tree = fit_cart_matrix(X, y, CartConfig(max_depth=max_depth,
                                                min_samples_leaf=min_leaf), task)
    return tree, X, y


@pytest.mark.parametrize("task", [TASK_CLASSIFICATION, TASK_REGRESSION])
def test_structural_invariants(task):
    tree, X, y = _grow_tree(42, task)
    if task == TASK_CLASSIFICATION:
        impurity = lambda ys: _gini_of(list(ys), 2)
    else:
        impurity = lambda ys: _var_of(list(ys))
    rows = _node_rows(tree, X)
    assert sorted(rows) == list(range(tree.feature.size))  # every node reached once
    for i in range(tree.feature.size):
        assert tree.n_samples[i] == rows[i].size
        if tree.feature[i] < 0:
            assert tree.n_samples[i] >= 2
            continue
        left, right = tree.left[i], tree.right[i]
        assert left == i + 1 and right > left  # preorder layout
        assert tree.n_samples[left] + tree.n_samples[right] == tree.n_samples[i]
        # strict impurity decrease at every split
        child = (rows[left].size * impurity(y[rows[left]])
                 + rows[right].size * impurity(y[rows[right]])) / rows[i].size
        assert impurity(y[rows[i]]) - child > 0.0
    n_leaves = int(np.sum(tree.feature < 0))
    assert n_leaves == tree.feature.size - n_leaves + 1
    assert _depths(tree).max() <= 6
    assert tree.n_samples[0] == 120


def test_pure_node_becomes_leaf():
    X = np.ascontiguousarray(np.random.default_rng(0).normal(size=(20, 2)))
    y = np.zeros(20, dtype=np.int64)
    tree = fit_cart_matrix(X, y, CartConfig(), TASK_CLASSIFICATION, n_classes=2)
    assert tree.feature.tolist() == [-1]
    assert tree.leaf_value.tolist() == [[1.0, 0.0]]


def test_monotone_transform_invariance():
    tree, X, y = _grow_tree(7, TASK_CLASSIFICATION)
    Xt = np.ascontiguousarray(X**3)  # strictly increasing map
    tree_t = fit_cart_matrix(Xt, y, CartConfig(max_depth=6, min_samples_leaf=2),
                             TASK_CLASSIFICATION, n_classes=2)
    for i in range(X.shape[0]):
        assert tree_predict_row(tree, X[i]) == tree_predict_row(tree_t, Xt[i])


def test_affine_scaling_invariance():
    tree, X, y = _grow_tree(8, TASK_REGRESSION)
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    Xs = np.ascontiguousarray((X - mu) / sd)
    tree_s = fit_cart_matrix(Xs, y, CartConfig(max_depth=6, min_samples_leaf=2),
                             TASK_REGRESSION)
    for i in range(X.shape[0]):
        a = tree_predict_row(tree, X[i])
        b = tree_predict_row(tree_s, Xs[i])
        assert abs(a - b) < 1e-9


# -- batch routing ------------------------------------------------------------


@pytest.mark.parametrize("task", [TASK_CLASSIFICATION, TASK_REGRESSION])
def test_flat_tree_equals_recursive(task):
    tree, X, y = _grow_tree(9, task)
    g = np.random.default_rng(1)
    Q = np.ascontiguousarray(g.normal(size=(300, 5)))
    want = np.array([tree_predict_row(tree, Q[i]) for i in range(300)])
    vals = tree.predict(Q)
    if task == TASK_CLASSIFICATION:
        got = tree.scored(Q)[0]
        assert got.dtype == np.int64
        assert np.array_equal(got, want.astype(np.int64))
        # leaf values are the class-proportion vectors
        assert vals.shape == (300, 2)
        assert np.allclose(vals.sum(axis=1), 1.0, atol=1e-12)
        assert np.array_equal(np.argmax(vals, axis=1), got)
    else:
        assert np.array_equal(vals, want)
    # the kernel reaches the same leaves as the Python walk, and they are leaves
    slots = tree.route(Q)
    assert slots.tolist() == [tree_leaf(tree, Q[i]) for i in range(300)]
    assert np.all(tree.feature[slots] == -1)


def test_flat_tree_labels_tied_leaves_to_the_lower_class():
    # root on feature 0, its right child on feature 1; three leaves, two tied
    tree = FlatTree(feature=np.array([0, -1, 1, -1, -1]),
                    threshold=np.array([0.0, 0.0, 0.0, 0.0, 0.0]),
                    left=np.array([1, 0, 3, 0, 0]), right=np.array([2, 0, 4, 0, 0]),
                    leaf_value=np.array([[0, 0, 0], [0, 0.5, 0.5], [0, 0, 0],
                                         [1 / 3, 1 / 3, 1 / 3], [0.25, 0.5, 0.25]]),
                    n_samples=np.array([8, 2, 6, 3, 3]), task=TASK_CLASSIFICATION)
    Q = np.array([[-1.0, 0.0], [1.0, -1.0], [1.0, 1.0], [0.0, np.nan]])
    got = tree.scored(Q)[0]
    assert got.tolist() == [1, 0, 1, 1]
    assert np.array_equal(got, np.argmax(tree.predict(Q), axis=1))


# -- dataset front end and config --------------------------------------------


def test_fit_cart_from_dataset(two_blob_ds):
    tree = fit_cart_matrix(two_blob_ds.rows, two_blob_ds.labels, CartConfig(max_depth=4),
                           TASK_CLASSIFICATION)
    right = sum(
        tree_predict_row(tree, two_blob_ds.rows[i]) == two_blob_ds.labels[i]
        for i in range(two_blob_ds.n_rows))
    assert right >= 118  # blobs are separable


def test_feature_subsample_deterministic(two_blob_ds):
    cfg = CartConfig(max_depth=4, feature_subsample=1, seed=5)
    t1 = fit_cart_matrix(two_blob_ds.rows, two_blob_ds.labels, cfg, TASK_CLASSIFICATION)
    t2 = fit_cart_matrix(two_blob_ds.rows, two_blob_ds.labels, cfg, TASK_CLASSIFICATION)
    q = two_blob_ds.rows
    assert all(tree_predict_row(t1, q[i]) == tree_predict_row(t2, q[i])
               for i in range(len(q)))


def test_cart_config_validation():
    with pytest.raises(ConfigError):
        CartConfig(max_depth=0)
    with pytest.raises(ConfigError):
        CartConfig(min_samples_split=1)
    with pytest.raises(ConfigError):
        CartConfig(min_samples_leaf=0)
    with pytest.raises(ConfigError):
        CartConfig(feature_subsample=0)
    with pytest.raises(ConfigError):
        CartConfig(feature_subsample="half")


def test_cart_config_refuses_a_bool_feature_subsample():
    with pytest.raises(ConfigError, match="got True"):
        CartConfig(feature_subsample=True)


def test_n_classes_inferred_from_labels(rng):
    X = np.ascontiguousarray(rng.normal(size=(40, 2)))
    y = (X[:, 0] > 0).astype(np.int64)
    implicit = fit_cart_matrix(X, y, CartConfig(max_depth=3), TASK_CLASSIFICATION)
    explicit = fit_cart_matrix(X, y, CartConfig(max_depth=3), TASK_CLASSIFICATION,
                               n_classes=2)
    assert all(tree_predict_row(implicit, X[i]) == tree_predict_row(explicit, X[i])
               for i in range(40))


# -- keyed feature draws -------------------------------------------------------


def _path_keys():
    """15,000 node keys: 5,000 consecutive tree keys and their children."""
    roots = np.arange(5000, dtype=np.uint64)
    return np.concatenate([roots, child_keys(roots).ravel()])


@pytest.mark.parametrize("k", [1, 4, 5, 13])
def test_keyed_draws_are_uniform_k_subsets(k):
    keys = _path_keys()
    feats = draw_features(keys, 14, k)
    assert feats.shape == (k, keys.size) and feats.dtype == np.int64
    assert ((feats >= 0) & (feats < 14)).all()
    assert (np.diff(feats, axis=0) > 0).all()  # k distinct features, ascending
    counts = np.bincount(feats.ravel(), minlength=14)
    p = k / 14
    assert (np.abs(counts - keys.size * p) <= 4 * np.sqrt(keys.size * p * (1 - p))).all(), counts


def test_keyed_draw_depends_on_its_key_alone():
    keys = _path_keys()[::97]
    together = draw_features(keys, 14, 4)
    for i, key in enumerate(keys):
        assert np.array_equal(draw_features(keys[i:i + 1], 14, 4)[:, 0], together[:, i])
    left, right = child_keys(keys).T
    assert np.array_equal(child_keys(keys[3:4])[0], [left[3], right[3]])
    assert np.unique(np.concatenate([keys, left, right])).size == 3 * keys.size


def _same_subtree(tree, root, sub):
    """tree's nodes from position root on are sub's, shifted by root."""
    span = slice(root, root + sub.feature.size)
    for name in ("feature", "threshold", "leaf_value", "n_samples"):
        assert np.array_equal(getattr(tree, name)[span], getattr(sub, name)), name
    inner = sub.feature >= 0
    for name in ("left", "right"):
        assert np.array_equal(getattr(tree, name)[span][inner] - root, getattr(sub, name)[inner])


def test_a_subtree_depends_on_its_rows_and_path_alone():
    """Each child subtree of the root equals a tree grown one level shallower
    on the child's rows, keyed with the child's path key: what was grown
    before a node does not change its draws."""
    g = np.random.default_rng(21)
    X = np.round(g.normal(size=(400, 6)), 1)
    y = (X[:, 0] + X[:, 1] + g.normal(0.0, 0.8, 400) > 0).astype(np.int64)
    y[g.random(400) < 0.15] = 2
    config = CartConfig(max_depth=8, feature_subsample=2, seed=3)
    tree = fit_cart_matrix(X, y, config, TASK_CLASSIFICATION)
    goes_left = X[:, tree.feature[0]] <= tree.threshold[0]
    for rows, key, root in zip((goes_left, ~goes_left), child_keys(np.array([3], np.uint64))[0],
                               (tree.left[0], tree.right[0])):
        sub = fit_cart_matrix(X[rows], y[rows], CartConfig(max_depth=7, feature_subsample=2),
                              TASK_CLASSIFICATION, key=int(key), n_classes=3)
        assert sub.feature.size > 15
        _same_subtree(tree, root, sub)


def test_deep_tree_keeps_drawing_past_depth_64():
    """max_depth 200 on a 300-row sawtooth (labels alternating along one
    variable, given as two columns that order the rows alike): path keys
    stay 64-bit hashes at any depth, and the tree equals the per-node one."""
    x = np.arange(300.0)
    X = np.column_stack([x, 2 * x])
    y = np.arange(300) % 2
    config = CartConfig(max_depth=200, feature_subsample=1, seed=3)
    tree, leaves = fit_cart_matrix(X, y, config, TASK_CLASSIFICATION, leaves=True)
    assert _depths(tree).max() > 64
    assert set(tree.feature[tree.feature >= 0].tolist()) == {0, 1}
    want, want_leaves = reference_fit_cart_matrix(X, y, config, TASK_CLASSIFICATION, leaves=True)
    for name in ("feature", "threshold", "left", "right", "leaf_value", "n_samples"):
        assert np.array_equal(getattr(tree, name), getattr(want, name)), name
    assert np.array_equal(leaves, want_leaves)
