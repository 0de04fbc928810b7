"""Presorted CART growth against the per-node-argsort reference.

trees._grow sorts each feature once per tree and partitions the sorted
lists down the tree; conftest.reference_fit_cart_matrix lets every node
argsort its rows afresh, as the growth did before. Both must build the
same node arrays, bit for bit, for single trees, forests and boosting,
on tie-heavy data, with feature subsampling and min_samples_leaf > 1."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heartlab import ensembles, trees
from heartlab.ensembles import ForestConfig, GbtConfig, fit_gbt, fit_random_forest
from heartlab.trees import TASK_CLASSIFICATION, TASK_REGRESSION, CartConfig, fit_cart_matrix

from conftest import make_ds, reference_fit_cart_matrix

FIELDS = ("feature", "threshold", "left", "right", "leaf_value", "n_samples")


def _data(seed, n=None):
    g = np.random.default_rng(seed)
    n = n or int(g.integers(30, 260))
    X = g.normal(size=(n, 6))
    X[:, :3] = np.round(X[:, :3] * 2) / 2  # many tied values
    X[:, 3] = np.round(X[:, 3])
    labels = (X[:, 0] + X[:, 4] + g.normal(0.0, 0.7, n) > 0).astype(np.int64)
    labels[g.random(n) < 0.1] = 2  # a third class
    targets = np.round(X[:, 1] * 2 + X[:, 5] + g.normal(0.0, 0.3, n), 1)
    return X, labels, targets


def assert_same_trees(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.task == b.task
        for name in FIELDS:
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and np.array_equal(x, y), name


configs = st.builds(CartConfig, max_depth=st.integers(1, 10),
                    min_samples_split=st.integers(2, 12), min_samples_leaf=st.integers(1, 6),
                    feature_subsample=st.sampled_from(["all", 1, 2, 4, 6]),
                    seed=st.integers(0, 1000))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 16), config=configs,
       task=st.sampled_from([TASK_CLASSIFICATION, TASK_REGRESSION]))
def test_cart_matches_reference(seed, config, task):
    X, labels, targets = _data(seed)
    y = labels if task == TASK_CLASSIFICATION else targets
    assert_same_trees([fit_cart_matrix(X, y, config, task)],
                      [reference_fit_cart_matrix(X, y, config, task)])


def test_cart_presort_argument_is_the_lists_it_would_make():
    X, labels, _ = _data(3, n=200)
    config = CartConfig(min_samples_leaf=2)
    given_lists = fit_cart_matrix(X, labels, config, TASK_CLASSIFICATION,
                                  sorted_rows=trees.presort(X))
    assert_same_trees([given_lists], [fit_cart_matrix(X, labels, config, TASK_CLASSIFICATION)])


def test_presort_orders_ties_by_row():
    X = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, -1.0], [0.0, 2.0]])
    lists = trees.presort(X)
    assert lists.dtype == np.int32
    assert lists.tolist() == [[1, 3, 0, 2], [2, 0, 1, 3]]


@pytest.mark.parametrize("task", [TASK_CLASSIFICATION, TASK_REGRESSION])
@pytest.mark.parametrize("hp", [
    {"feature_subsample": "auto", "cart": CartConfig()},
    {"feature_subsample": "all", "cart": CartConfig(max_depth=5, min_samples_leaf=4)},
    {"feature_subsample": 3, "cart": CartConfig(min_samples_split=9), "bootstrap": False},
])
def test_forest_matches_reference(monkeypatch, task, hp):
    X, labels, targets = _data(11, n=240)
    ds = make_ds(X, labels=labels, targets=targets)
    cfg = ForestConfig(n_trees=6, seed=5, **hp)
    got = fit_random_forest(ds, cfg, task)
    monkeypatch.setattr(ensembles, "fit_cart_matrix", reference_fit_cart_matrix)
    want = fit_random_forest(ds, cfg, task)
    assert_same_trees(got.trees, want.trees)


@pytest.mark.parametrize("loss", ["logistic", "squared"])
@pytest.mark.parametrize("max_depth", [1, 3, 6])
def test_gbt_matches_reference(monkeypatch, loss, max_depth):
    X, labels, targets = _data(17, n=220)
    ds = make_ds(X, labels=np.minimum(labels, 1), targets=targets)
    cfg = GbtConfig(n_rounds=12, max_depth=max_depth, loss=loss, seed=2)
    got = fit_gbt(ds, cfg)
    monkeypatch.setattr(ensembles, "fit_cart_matrix", reference_fit_cart_matrix)
    want = fit_gbt(ds, cfg)
    assert_same_trees(got.trees, want.trees)
    assert got.train_losses == want.train_losses


def test_gbt_sorts_once(monkeypatch):
    X, labels, _ = _data(5, n=120)
    calls = []
    original = trees.presort

    def counting(X):
        calls.append(X.shape)
        return original(X)

    monkeypatch.setattr(ensembles, "presort", counting)
    monkeypatch.setattr(trees, "presort", counting)
    fit_gbt(make_ds(X, labels=np.minimum(labels, 1)), GbtConfig(n_rounds=7, loss="logistic"))
    assert calls == [X.shape]
