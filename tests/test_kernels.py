"""Oracle equality: each kernel must return bit-identical results to its
`_*_py` loop oracle, including on ties, constant columns, exact branch
edges and NaN-free degenerate inputs. Each kernel, the SVM/SVR epochs
included, is a function distinct from its oracle."""

import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heartlab import _kernels as K
from heartlab import linear, trees

from conftest import node_lists


def _random_case(seed, n=80, m=5, n_classes=3, ties=True):
    g = np.random.default_rng(seed)
    X = g.normal(size=(n, m))
    if ties:
        # quantize some columns so duplicated values and tied splits occur
        X[:, 0] = np.round(X[:, 0])
        X[:, 1] = np.round(X[:, 1] * 2) / 2
        X[:, 2] = 1.5  # constant column: never splittable
    X = np.ascontiguousarray(X)
    y_cls = g.integers(0, n_classes, size=n).astype(np.int64)
    y_reg = g.normal(size=n)
    idx = np.sort(g.choice(n, size=max(4, n // 2), replace=False)).astype(np.int64)
    feats = np.arange(m, dtype=np.int64)
    return X, y_cls, y_reg, idx, feats


@pytest.mark.parametrize("seed", range(12))
def test_split_classification_backends_agree(seed):
    X, y, _, idx, feats = _random_case(seed)
    for min_leaf in (1, 3, 9):
        b = K.split_classification(X, y, idx, feats, 3, min_leaf)
        c = K._split_classification_py(X, y, idx, feats, 3, min_leaf)
        assert b == c


@pytest.mark.parametrize("seed", range(12))
def test_split_regression_backends_agree(seed):
    X, _, y, idx, feats = _random_case(seed)
    for min_leaf in (1, 3, 9):
        b = K.split_regression(X, y, idx, feats, min_leaf)
        c = K._split_regression_py(X, y, idx, feats, min_leaf)
        assert b == c


def test_split_tie_break_prefers_lowest_feature():
    # duplicated column: identical gain on features 0 and 1, pick feature 0
    X = np.ascontiguousarray(np.column_stack([
        np.array([0.0, 0.0, 1.0, 1.0]),
        np.array([0.0, 0.0, 1.0, 1.0]),
    ]))
    y = np.array([0, 0, 1, 1], dtype=np.int64)
    idx = np.arange(4, dtype=np.int64)
    feats = np.arange(2, dtype=np.int64)
    f, thr, gain = K.split_classification(X, y, idx, feats, 2, 1)
    assert f == 0
    assert thr == 0.5
    assert gain > 0


@pytest.mark.parametrize("seed", range(8))
def test_tree_route_backends_agree(seed):
    g = np.random.default_rng(seed)
    # build a random but well-formed tree in array form
    n_nodes = 15
    feat = np.full(n_nodes, -1, dtype=np.int64)
    thr = np.zeros(n_nodes)
    left = np.full(n_nodes, -1, dtype=np.int64)
    right = np.full(n_nodes, -1, dtype=np.int64)
    # nodes 0..6 internal (complete binary tree), 7..14 leaves
    for i in range(7):
        feat[i] = g.integers(0, 4)
        thr[i] = np.round(g.normal())  # integer thresholds, so rounded rows hit them
        left[i] = 2 * i + 1
        right[i] = 2 * i + 2
    X = np.ascontiguousarray(g.normal(size=(200, 4)))
    X[:50] = np.round(X[:50])  # exact threshold hits
    b = K.tree_route(feat, thr, left, right, X)
    c = K._tree_route_py(feat, thr, left, right, X)
    assert np.array_equal(b, c)
    assert np.all(feat[b] == -1)
    X[:4, :] = [[np.nan] * 4, [np.inf] * 4, [-np.inf] * 4, [np.nan, np.inf, -np.inf, 0.0]]
    assert np.array_equal(K.tree_route(feat, thr, left, right, X),
                          K._tree_route_py(feat, thr, left, right, X))


def _same_route(feat, thr, left, right, X):
    got = K.tree_route(feat, thr, left, right, X)
    assert got.dtype == np.int64
    assert np.array_equal(got, K._tree_route_py(feat, thr, left, right, X))
    return got


def test_tree_route_one_sided_chain():
    # preorder chain: node 2i splits, its left child 2i + 1 is a leaf and its
    # right child 2i + 2 splits again, 24 levels down to a last leaf
    depth, m = 24, 3
    n_nodes = 2 * depth + 1
    feat = np.full(n_nodes, -1, dtype=np.int64)
    thr, left, right = np.zeros(n_nodes), np.zeros(n_nodes, np.int64), np.zeros(n_nodes, np.int64)
    for i in range(depth):
        feat[2 * i], thr[2 * i] = i % m, float(i)
        left[2 * i], right[2 * i] = 2 * i + 1, 2 * i + 2
    g = np.random.default_rng(0)
    X = g.uniform(-5.0, 0.0, size=(400, m))  # most rows leave at the first leaf
    X[:40] = g.integers(0, depth + 3, size=(40, 1))  # a long tail, exact hits included
    X[40:44] = [np.nan, np.inf, -np.inf]
    got = _same_route(feat, thr, left, right, X)
    assert (got == 1).mean() > 0.8 and got.max() == n_nodes - 1


def test_tree_route_root_leaf_and_no_rows():
    leaf = (np.array([-1]), np.zeros(1), np.zeros(1, np.int64), np.zeros(1, np.int64))
    assert _same_route(*leaf, np.ones((5, 2))).tolist() == [0] * 5
    assert _same_route(*leaf, np.ones((3, 0))).tolist() == [0] * 3
    heap = (np.array([1, -1, -1]), np.array([0.5, 0.0, 0.0]), np.array([1, 0, 0]),
            np.array([2, 0, 0]))
    assert _same_route(*heap, np.empty((0, 2))).shape == (0,)


def test_tree_route_fitted_forest_and_boosting_trees():
    from heartlab.data import make_fixture
    from heartlab.ensembles import GbtConfig, ForestConfig, fit_gbt, fit_random_forest

    ds = make_fixture(300, seed=7)
    X, y = ds.rows, ds.labels
    rf = fit_random_forest(X, y, ForestConfig(n_trees=20, seed=7))
    gbt = fit_gbt(X, y, GbtConfig(n_rounds=20, loss="logistic", seed=7))
    g = np.random.default_rng(1)
    spliced = np.where(g.random(X.shape) < 0.5, X, X[g.permutation(X.shape[0])])
    Q = np.ascontiguousarray(np.vstack([X, spliced]))
    for t in rf.trees + gbt.trees:
        _same_route(t.feature, t.threshold, t.left, t.right, Q)


@pytest.mark.parametrize("seed", range(8))
def test_knn_backends_agree(seed):
    g = np.random.default_rng(seed)
    train = np.ascontiguousarray(np.round(g.normal(size=(60, 3)), 1))
    queries = np.ascontiguousarray(np.round(g.normal(size=(25, 3)), 1))
    for k in (1, 4, 7):
        ic, dc = K._knn_search_py(train, queries, k)
        i, d = K.knn_search(train, queries, k)
        assert np.array_equal(i, ic) and np.array_equal(d, dc)


def test_knn_tie_break_lowest_index():
    train = np.ascontiguousarray([[0.0], [2.0], [2.0], [2.0]])
    queries = np.ascontiguousarray([[2.0]])
    idx, d2 = K.knn_search(train, queries, 2)
    assert idx[0].tolist() == [1, 2]
    assert d2[0].tolist() == [0.0, 0.0]


def _run_epoch(fn, X, y, order, *params, t0=0):
    """t and the four buffers after one epoch from zeroed buffers."""
    m = X.shape[1]
    buffers = (np.zeros(m), np.zeros(1), np.zeros(m), np.zeros(1))
    t = fn(X, y, order, *buffers, *params, t0)
    return (t, *buffers)


def _same_epoch(a, b):
    return a[0] == b[0] and all(np.array_equal(u, v) for u, v in zip(a[1:], b[1:]))


@pytest.mark.parametrize("seed", range(6))
def test_svm_epoch_backends_agree(seed):
    g = np.random.default_rng(seed)
    n, m = 40, 3
    X = np.ascontiguousarray(g.normal(size=(n, m)))
    y = np.where(g.random(n) < 0.5, -1.0, 1.0)
    order = g.permutation(n).astype(np.int64)
    want = _run_epoch(K._svm_epoch_py, X, y, order, 0.05)
    assert _same_epoch(_run_epoch(K.svm_epoch, X, y, order, 0.05), want)


@pytest.mark.parametrize("seed", range(6))
def test_svr_epoch_backends_agree(seed):
    g = np.random.default_rng(seed)
    n, m = 40, 3
    X = np.ascontiguousarray(g.normal(size=(n, m)))
    y = g.normal(size=n)
    order = g.permutation(n).astype(np.int64)
    want = _run_epoch(K._svr_epoch_py, X, y, order, 0.05, 0.1)
    assert _same_epoch(_run_epoch(K.svr_epoch, X, y, order, 0.05, 0.1), want)


@st.composite
def _tied_epoch_case(draw):
    """Small-integer rows, lam = 1 and t0 = 0 (so eta = 1/t): margins land
    exactly on 1 and SVR residuals exactly on +-eps for quarter-valued y.
    Up to 450 rows, so batches of 1 to 4 rows and short last batches."""
    g = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    n, m = draw(st.integers(1, 450)), draw(st.integers(1, 4))
    X = np.ascontiguousarray(g.integers(-2, 3, size=(n, m)).astype(np.float64))
    y_cls = np.where(g.random(n) < 0.5, -1.0, 1.0)
    y_reg = g.integers(-8, 9, size=n) / 4.0
    order = g.permutation(np.repeat(np.arange(n), 2)).astype(np.int64)[:n]  # repeats rows
    return X, y_cls, y_reg, order, draw(st.sampled_from([0.0, 0.25]))


@settings(max_examples=150, deadline=None)
@given(case=_tied_epoch_case())
def test_epoch_kernels_match_python_loop_on_ties(case):
    X, y_cls, y_reg, order, eps = case
    for fn, py, y, params in ((K.svm_epoch, K._svm_epoch_py, y_cls, (1.0,)),
                              (K.svr_epoch, K._svr_epoch_py, y_reg, (1.0, eps))):
        assert _same_epoch(_run_epoch(fn, X, y, order, *params),
                           _run_epoch(py, X, y, order, *params))


@pytest.mark.parametrize("x, w0, b0", [
    ([1.0], [0.5], 0.5),  # lam = 1, t0 = 0: eta = 1, margin 0.5 + 0.5 * 1 == 1
    # b first, then j ascending: 1 - 2**-54 rounds to 1, twice; adding the
    # products first would give 1 - 2**-53 and cross the edge
    ([-1.0, -1.0], [2.0 ** -54, 2.0 ** -54], 1.0),
])
def test_epoch_kernels_on_exact_branch_edges(x, w0, b0):
    """margin == 1 and resid == eps take no step (scale 0 zeroes w), in
    both loops."""
    X, order = np.array([x]), np.array([0])
    for fn, y, params in ((K.svm_epoch, 1.0, (1.0,)), (K._svm_epoch_py, 1.0, (1.0,)),
                          (K.svr_epoch, 1.25, (1.0, 0.25)),
                          (K._svr_epoch_py, 1.25, (1.0, 0.25))):
        w, b = np.array(w0), np.array([b0])
        assert fn(X, np.array([y]), order, w, b, np.zeros(len(x)), np.zeros(1), *params, 0) == 1
        assert b[0] == b0 and not w.any()


@pytest.mark.parametrize("n, size", [(1, 1), (199, 1), (200, 2), (799, 7),
                                     (3200, 32), (80000, 32)])
def test_pegasos_batch_grows_with_the_row_count(n, size):
    assert K.pegasos_batch(n) == size


@pytest.mark.parametrize("block", [1, 7, 50])  # 50 rows: one batch; 7: one row last
def test_epoch_kernels_block_size_does_not_matter(block):
    """At any batch size the kernel equals the loop oracle at that size."""
    g = np.random.default_rng(3)
    n, m = 50, 4
    X = np.ascontiguousarray(np.round(g.normal(size=(n, m)), 1))
    y_cls = np.where(g.random(n) < 0.5, -1.0, 1.0)
    y_reg = np.round(g.normal(size=n), 1)
    order = g.permutation(n).astype(np.int64)
    with mock.patch.object(K, "pegasos_batch", lambda n_rows: block):
        got = (_run_epoch(K.svm_epoch, X, y_cls, order, 0.05, t0=19),
               _run_epoch(K.svr_epoch, X, y_reg, order, 0.05, 0.1, t0=19))
        want = (_run_epoch(K._svm_epoch_py, X, y_cls, order, 0.05, t0=19),
                _run_epoch(K._svr_epoch_py, X, y_reg, order, 0.05, 0.1, t0=19))
    assert got[0][0] == got[1][0] == 19 + -(-n // block)
    assert _same_epoch(got[0], want[0])
    assert _same_epoch(got[1], want[1])


def test_epoch_kernels_match_python_loop_with_a_one_row_last_batch():
    g = np.random.default_rng(3)
    n, m = 257, 4  # batches of 2 rows, and 1 row last
    X = np.ascontiguousarray(np.round(g.normal(size=(n, m)), 1))
    y_cls = np.where(g.random(n) < 0.5, -1.0, 1.0)
    y_reg = np.round(g.normal(size=n), 1)
    order = g.permutation(n).astype(np.int64)
    assert K.pegasos_batch(n) == 2
    got = (_run_epoch(K.svm_epoch, X, y_cls, order, 0.05, t0=19),
           _run_epoch(K.svr_epoch, X, y_reg, order, 0.05, 0.1, t0=19))
    assert got[0][0] == got[1][0] == 19 + 129
    assert _same_epoch(got[0], _run_epoch(K._svm_epoch_py, X, y_cls, order, 0.05, t0=19))
    assert _same_epoch(got[1], _run_epoch(K._svr_epoch_py, X, y_reg, order, 0.05, 0.1, t0=19))


@pytest.mark.parametrize("seed", range(3))
def test_epoch_below_200_rows_is_the_per_row_pegasos_step(seed):
    """One row per step: w = (1 - eta*lam)*w + eta*g*x and b += eta*g,
    row by row, with the margin summed from b over ascending j."""
    g = np.random.default_rng(seed)
    n, m, lam, t0 = 199, 14, 0.01, 99
    X = g.normal(size=(n, m))
    y = np.where(g.random(n) < 0.5, -1.0, 1.0)
    order = g.permutation(n).astype(np.int64)
    w, b, wavg, bavg, t = np.zeros(m), 0.0, np.zeros(m), 0.0, t0
    for i in order:
        t += 1
        eta = 1.0 / (lam * t)
        margin = b
        for j in range(m):
            margin += w[j] * X[i, j]
        step = eta * y[i] if y[i] * margin < 1.0 else 0.0
        w = (1.0 - eta * lam) * w + step * X[i]
        b += step
        wavg += (w - wavg) / t
        bavg += (b - bavg) / t
    got = _run_epoch(K.svm_epoch, X, y, order, lam, t0=t0)
    assert _same_epoch(got, (t, w, np.array([b]), wavg, np.array([bavg])))


@pytest.mark.parametrize("fit_name, kernel", [("fit_linear_svm", "svm_epoch"),
                                              ("fit_linear_svr", "svr_epoch")])
def test_linear_fits_identical_with_python_loop_kernel(monkeypatch, fit_name, kernel):
    g = np.random.default_rng(4)
    X = np.ascontiguousarray(g.normal(size=(120, 5)))
    y = (X[:, 0] + g.normal(size=120) > 0).astype(np.float64) if kernel == "svm_epoch" \
        else X @ g.normal(size=5) + g.normal(size=120)
    config = linear.PenaltyConfig(epochs=4, seed=2)
    monkeypatch.setattr(linear, kernel, getattr(K, kernel))
    new = getattr(linear, fit_name)(X, y, config)
    monkeypatch.setattr(linear, kernel, getattr(K, f"_{kernel}_py"))
    old = getattr(linear, fit_name)(X, y, config)
    assert np.array_equal(new.weights, old.weights)
    assert new.intercept == old.intercept
    assert new.objective_trace == old.objective_trace


# -- presorted split search and partial-selection kNN ---------------------------

def _with_flat_columns(g, X):
    """X and two columns with no split point: a constant, and signed zeros,
    which tie although their bits differ."""
    n = X.shape[0]
    return np.ascontiguousarray(np.column_stack([X, np.full(n, 2.5), g.choice([-0.0, 0.0], n)]))


_BLOCKS = [1, 7, K._SPLIT_BLOCK, 2 ** 14]


@st.composite
def _tied_split_case(draw):
    seed = draw(st.integers(0, 2 ** 16))
    g = np.random.default_rng(seed)
    n = draw(st.integers(2, 60))
    m = draw(st.integers(1, 5))
    X = _with_flat_columns(g, np.round(g.normal(size=(n, m)) * draw(st.sampled_from([1, 2, 4]))))
    m = X.shape[1]
    idx = np.sort(g.choice(n, size=draw(st.integers(2, n)), replace=False)).astype(np.int64)
    feats = np.sort(g.choice(m, size=draw(st.integers(1, m)), replace=False)).astype(np.int64)
    y_cls = g.integers(0, 3, size=n).astype(np.int64)
    y_reg = np.round(g.normal(size=n), 1)
    return X, y_cls, y_reg, idx, feats, draw(st.integers(2, 6)), draw(st.sampled_from(_BLOCKS))


@settings(max_examples=150, deadline=None)
@given(case=_tied_split_case())
def test_split_kernels_with_and_without_lists_agree(case):
    X, y_cls, y_reg, idx, feats, min_leaf, block = case
    lists = node_lists(X, idx)
    with mock.patch.object(K, "_SPLIT_BLOCK", block):
        cls = [fn(X, y_cls, idx, feats, 3, min_leaf, *extra)
               for fn in (K.split_classification, K._split_classification_py)
               for extra in ((), (lists,))]
        reg = [fn(X, y_reg, idx, feats, min_leaf, *extra)
               for fn in (K.split_regression, K._split_regression_py)
               for extra in ((), (lists,))]
    assert cls[1:] == cls[:-1] and reg[1:] == reg[:-1]


@st.composite
def _weighted_split_case(draw):
    """A node of a bootstrap tree: heavy ties, integer row weights 1-5."""
    g = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    n = draw(st.integers(2, 50))
    m = draw(st.integers(1, 4))
    levels = draw(st.sampled_from([2, 3, 8]))  # few distinct values per column
    X = _with_flat_columns(g, g.integers(0, levels, size=(n, m)).astype(np.float64))
    m = X.shape[1]
    n_classes = draw(st.sampled_from([2, 3]))
    y = g.integers(0, n_classes, size=n).astype(np.int64)
    w = g.integers(1, 6, size=n).astype(np.int64)
    idx = np.sort(g.choice(n, size=draw(st.integers(2, n)), replace=False)).astype(np.int64)
    feats = np.sort(g.choice(m, size=draw(st.integers(1, m)), replace=False)).astype(np.int64)
    return (X, y, w, idx, feats, n_classes, draw(st.integers(1, 4)),
            draw(st.sampled_from(_BLOCKS)))


@settings(max_examples=200, deadline=None)
@given(case=_weighted_split_case())
def test_weighted_split_backends_agree(case):
    X, y, w, idx, feats, n_classes, min_leaf, block = case
    lists = node_lists(X, idx)
    want = K._split_classification_py(X, y, idx, feats, n_classes, min_leaf, lists, w)
    with mock.patch.object(K, "_SPLIT_BLOCK", block):
        assert K.split_classification(X, y, idx, feats, n_classes, min_leaf, lists, w) == want


@settings(max_examples=200, deadline=None)
@given(case=_weighted_split_case())
def test_weighted_split_equals_split_of_the_copies(case):
    """A row of weight c scores as c copies of it: same feature, threshold
    and gain, to the bit."""
    X, y, w, idx, feats, n_classes, min_leaf, _ = case
    copies = np.repeat(idx, w[idx])  # ascending, so ties stay in row order
    Xc, yc = np.ascontiguousarray(X[copies]), y[copies]
    all_rows = np.arange(copies.size, dtype=np.int64)
    want = K.split_classification(Xc, yc, all_rows, feats, n_classes, min_leaf,
                                  trees.presort(Xc))
    got = K.split_classification(X, y, idx, feats, n_classes, min_leaf,
                                 node_lists(X, idx), w)
    assert got == want
    assert K._split_classification_py(X, y, idx, feats, n_classes, min_leaf,
                                      node_lists(X, idx), w) == want


@st.composite
def _level_case(draw):
    """One tree level: open nodes side by side, each with its own ascending
    candidate features; heavy ties; integer weights 1-5 or none."""
    g = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    n, m = draw(st.integers(2, 60)), draw(st.integers(1, 5))
    X = _with_flat_columns(
        g, g.integers(0, draw(st.sampled_from([2, 3, 8, 1000])), size=(n, m)).astype(np.float64))
    m = X.shape[1]
    n_classes = draw(st.sampled_from([2, 3]))
    y = g.integers(0, n_classes, size=n).astype(np.int64)
    w = g.integers(1, 6, size=n).astype(np.int64) if draw(st.booleans()) else None
    rows = g.permutation(n)[:draw(st.integers(1, n))]
    n_open = draw(st.integers(1, min(6, rows.size)))
    cuts = np.sort(g.choice(np.arange(1, rows.size), size=n_open - 1, replace=False))
    nodes = [np.sort(part).astype(np.int64) for part in np.split(rows, cuts)]
    k = draw(st.integers(1, m))
    feats = np.stack([np.sort(g.choice(m, size=k, replace=False)) for _ in nodes],
                     axis=1).astype(np.int64)
    return (X, y, w, nodes, feats, n_classes, draw(st.integers(1, 4)),
            draw(st.sampled_from(_BLOCKS)))


@settings(max_examples=200, deadline=None)
@given(case=_level_case())
def test_level_split_equals_one_node_calls(case):
    """One call over a level's side-by-side nodes returns, node by node,
    what a call for that node alone does, for the kernel and its loop
    oracle and at any block size."""
    X, y, w, nodes, feats, n_classes, min_leaf, block = case
    idx = np.concatenate(nodes)
    starts = np.concatenate([[0], np.cumsum([node.size for node in nodes])])
    lists = np.concatenate([node_lists(X, node) for node in nodes], axis=1)
    want = [K._split_classification_py(X, y, node, feats[:, i], n_classes, min_leaf,
                                       node_lists(X, node), w) for i, node in enumerate(nodes)]
    with mock.patch.object(K, "_SPLIT_BLOCK", block):
        alone = [K.split_classification(X, y, node, feats[:, i], n_classes, min_leaf,
                                        node_lists(X, node), w)
                 for i, node in enumerate(nodes)]
        level = K.split_classification(X, y, idx, feats, n_classes, min_leaf, lists, w,
                                       starts)
    assert alone == want
    levels = [level, K._split_classification_py(X, y, idx, feats, n_classes, min_leaf, lists, w,
                                                starts)]
    for got in levels:
        assert [a.dtype for a in got] == [np.int64, np.float64, np.float64]
        assert list(zip(*(a.tolist() for a in got))) == want


def test_unweighted_split_is_unit_weights():
    X, y, _, idx, feats = _random_case(4)
    lists = node_lists(X, idx)
    ones = np.ones(X.shape[0], dtype=np.int64)
    for min_leaf in (1, 3):
        for fn in (K.split_classification, K._split_classification_py):
            assert (fn(X, y, idx, feats, 3, min_leaf, lists)
                    == fn(X, y, idx, feats, 3, min_leaf, lists, ones))


@st.composite
def _tied_knn_case(draw):
    g = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    nt, nq, m = draw(st.integers(1, 40)), draw(st.integers(1, 15)), draw(st.integers(1, 3))
    levels = draw(st.integers(1, 4))  # few distinct values, so distances tie a lot
    train = np.ascontiguousarray(g.integers(0, levels, size=(nt, m)).astype(np.float64))
    queries = np.ascontiguousarray(g.integers(0, levels, size=(nq, m)).astype(np.float64))
    k = draw(st.sampled_from(sorted({1, max(1, nt - 1), nt})))
    return train, queries, k, draw(st.sampled_from([1, nt, 3 * nt + 1, 2 ** 20]))


@settings(max_examples=150, deadline=None)
@given(case=_tied_knn_case())
def test_knn_partial_selection_matches_python_loop(case):
    train, queries, k, block = case
    want_idx, want_d = K._knn_search_py(train, queries, k)
    with mock.patch.object(K, "_KNN_BLOCK", block):  # 1 and nt: one query row per block
        got_idx, got_d = K.knn_search(train, queries, k)
    assert np.array_equal(got_idx, want_idx) and np.array_equal(got_d, want_d)


def test_kernel_report_runs(tmp_path):
    """perfbench/kernels.py calls the kernels positionally; it must run and
    find every numpy kernel equal to a reference that is a different function."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    out = subprocess.run([sys.executable, str(root / "perfbench" / "kernels.py"), "0.02"],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stdout + out.stderr
    assert "DIFFER" not in out.stdout
    assert "exact (same function)" not in out.stdout
