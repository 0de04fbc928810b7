"""Presorted CART growth against the per-node-argsort reference.

trees._grow sorts each feature once per tree and partitions the sorted
lists down the tree; conftest.reference_fit_cart_matrix lets every node
sort its rows afresh, as the growth did before. Both must build the
same node arrays, bit for bit, for single trees, forests and boosting,
on tie-heavy data, with feature subsampling and min_samples_leaf > 1.

A bootstrap classification forest grows each tree on the distinct rows of
its draw, weighted by their counts; conftest.reference_fit_random_forest
grows it on the materialized draw, as the forest did before. Their trees
must be equal too."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heartlab import ensembles, trees
from heartlab.data import SplitSpec, make_fixture, train_test_split
from heartlab.ensembles import ForestConfig, GbtConfig, fit_gbt, fit_random_forest
from heartlab.errors import ContractError
from heartlab.smote import SmoteConfig, smote
from heartlab.trees import TASK_CLASSIFICATION, TASK_REGRESSION, CartConfig, fit_cart_matrix

from conftest import make_ds, reference_fit_cart_matrix, reference_fit_random_forest

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
    y = labels if task == TASK_CLASSIFICATION else targets
    cfg = ForestConfig(n_trees=6, seed=5, **hp)
    got = fit_random_forest(X, y, cfg, task)
    monkeypatch.setattr(ensembles, "fit_cart_matrix", reference_fit_cart_matrix)
    want = fit_random_forest(X, y, cfg, task)
    assert_same_trees(got.trees, want.trees)


@pytest.mark.parametrize("loss", ["logistic", "squared"])
@pytest.mark.parametrize("max_depth", [1, 3, 6])
def test_gbt_matches_reference(monkeypatch, loss, max_depth):
    X, labels, targets = _data(17, n=220)
    y = np.minimum(labels, 1) if loss == "logistic" else targets
    cfg = GbtConfig(n_rounds=12, max_depth=max_depth, loss=loss, seed=2)
    got = fit_gbt(X, y, cfg)
    monkeypatch.setattr(ensembles, "fit_cart_matrix", reference_fit_cart_matrix)
    want = fit_gbt(X, y, cfg)
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
    fit_gbt(X, np.minimum(labels, 1), GbtConfig(n_rounds=7, loss="logistic"))
    assert calls == [X.shape]


@pytest.fixture(scope="module")
def tracks():
    """Training sets of the paper_10k shape: the real track (80% of a
    1,025-row fixture) and the synthetic one (SMOTE-augmented to 10,000
    rows, 8,000 of them for training)."""
    real = make_fixture(1025, seed=7)
    synthetic = smote(real, SmoteConfig(mode="augment", target_total=10000, seed=7))
    split = SplitSpec(train_fraction=0.8, seed=7)
    return {"real": train_test_split(real, split)[0],
            "synthetic": train_test_split(synthetic, split)[0]}


def _three_classes_tied(ds):
    """ds with a third class and its first feature cut to four values."""
    rows = ds.rows.copy()
    rows[:, 0] = np.floor(4 * (rows[:, 0] - rows[:, 0].min()) / np.ptp(rows[:, 0]))
    labels = ds.labels.copy()
    labels[np.arange(ds.n_rows) % 7 == 3] = 2
    return make_ds(rows, labels=labels)


@pytest.mark.parametrize("track", ["real", "synthetic"])
@pytest.mark.parametrize("cart", [CartConfig(),
                                  CartConfig(max_depth=6, min_samples_leaf=3,
                                             min_samples_split=7)],
                         ids=["default", "depth6-leaf3-split7"])
@pytest.mark.parametrize("variant", ["as-is", "3-classes-tied"])
def test_forest_matches_materialized_bootstrap(tracks, track, cart, variant):
    ds = tracks[track] if variant == "as-is" else _three_classes_tied(tracks[track])
    cfg = ForestConfig(n_trees=3, seed=7, cart=cart)
    got = fit_random_forest(ds.rows, ds.labels, cfg, TASK_CLASSIFICATION)
    assert_same_trees(got.trees, reference_fit_random_forest(ds.rows, ds.labels, cfg).trees)


def test_forest_sorts_once(monkeypatch):
    X, labels, _ = _data(9, n=150)
    calls = []
    original = trees.presort

    def counting(X):
        calls.append(X.shape)
        return original(X)

    monkeypatch.setattr(ensembles, "presort", counting)
    monkeypatch.setattr(trees, "presort", counting)
    fit_random_forest(X, labels, ForestConfig(n_trees=5))
    assert calls == [X.shape]


def test_weights_are_for_classification_only():
    X, _, targets = _data(2, n=40)
    with pytest.raises(ContractError, match="classification"):
        fit_cart_matrix(X, targets, CartConfig(), TASK_REGRESSION,
                        weights=np.ones(40, dtype=np.int64))


def test_gbt_leaves_are_the_route_of_its_rows():
    X, _, targets = _data(4, n=200)
    tree, leaves = fit_cart_matrix(X, targets, CartConfig(max_depth=4), TASK_REGRESSION,
                                   leaves=True)
    assert leaves.dtype == np.int64 and np.array_equal(leaves, tree.route(X))
