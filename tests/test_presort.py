"""Level-wise CART growth against the per-node reference.

trees.grow grows a batch of trees a level at a time from one presort,
partitioning the sorted lists of all open nodes together;
conftest.reference_fit_cart_matrix grows one tree depth first, one split
call per node, on lists cut for that node alone. Both draw each node's
candidate features from its path key, and both must build the same node
arrays, bit for bit, for single trees, forests and boosting, on tie-heavy
data and on the paper_10k track shapes, with feature subsampling and
min_samples_leaf > 1.

A forest grows its trees in batches, and a bootstrap classification tree on
the distinct rows of its draw, weighted by their counts;
conftest.reference_fit_random_forest grows each tree alone on the
materialized draw, as the forest did before. Their trees must be equal too,
and equal however the forest's trees are cut into batches."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heartlab import ensembles, trees
from heartlab.data import SplitSpec, make_fixture, train_test_split
from heartlab.ensembles import ForestConfig, GbtConfig, fit_gbt, fit_random_forest
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
def test_forest_matches_reference(task, hp):
    X, labels, targets = _data(11, n=240)
    y = labels if task == TASK_CLASSIFICATION else targets
    cfg = ForestConfig(n_trees=6, seed=5, **hp)
    got = fit_random_forest(X, y, cfg, task)
    want = reference_fit_random_forest(X, y, cfg, task, reference_fit_cart_matrix)
    assert_same_trees(got.trees, want.trees)


def _batched(monkeypatch, entries, X, y, cfg, task):
    """The forest's trees with batches closed at entries list entries, and
    the number of trees in each batch."""
    sizes, grow = [], ensembles.grow

    def counting(*args):
        sizes.append(len(args[3]))
        return grow(*args)

    monkeypatch.setattr(ensembles, "grow", counting)
    monkeypatch.setattr(ensembles, "_BATCH_ENTRIES", entries)
    return fit_random_forest(X, y, cfg, task).trees, sizes


@pytest.mark.parametrize("task", [TASK_CLASSIFICATION, TASK_REGRESSION])
@pytest.mark.parametrize("hp", [
    {"cart": CartConfig(min_samples_leaf=3)},
    {"cart": CartConfig(max_depth=5, min_samples_split=9), "feature_subsample": 2,
     "bootstrap": False},
], ids=["leaf3", "no-bootstrap"])
def test_forest_batches_grow_the_same_trees(monkeypatch, task, hp):
    """One tree per batch, batches cut mid-forest and one batch of all
    trees, on tie-heavy three-class labels or rounded targets."""
    X, labels, targets = _data(13, n=160)
    y = labels if task == TASK_CLASSIFICATION else targets
    cfg = ForestConfig(n_trees=7, seed=3, **hp)
    alone, sizes = _batched(monkeypatch, 1, X, y, cfg, task)
    assert sizes == [1] * 7
    cut, sizes = _batched(monkeypatch, 2 * X.size, X, y, cfg, task)
    assert len(sizes) > 1 and max(sizes) > 1
    together, sizes = _batched(monkeypatch, 2 ** 40, X, y, cfg, task)
    assert sizes == [7]
    assert_same_trees(cut, alone)
    assert_same_trees(together, alone)


@pytest.mark.parametrize("task", [TASK_CLASSIFICATION, TASK_REGRESSION])
def test_batch_with_a_leaf_root_grows_each_tree_as_alone(task):
    """A root that is a leaf (its labels or targets all equal) grown in one
    batch beside two deep trees, weighted rows for classification."""
    X, labels, targets = _data(21, n=200)
    classify = task == TASK_CLASSIFICATION
    y = (labels if classify else targets).copy()
    y[90:110] = y[90]
    w = np.random.default_rng(4).integers(1, 4, size=200) if classify else None
    parts = [np.arange(0, 90), np.arange(90, 110), np.arange(110, 200)]
    keys = [11, 12, 2 ** 64 - 1]
    config = CartConfig(min_samples_leaf=2, feature_subsample=3)
    lists = np.concatenate([trees.presort(X[p]) + p[0] for p in parts], axis=1)
    batch = trees.grow(X, y, lists, keys, [p.size for p in parts], w, config, task,
                       3 if classify else 0)
    assert batch[1][0][0].tolist() == [-1]
    assert max(arrays[0].size for arrays, _ in batch) > 15
    for p, key, (arrays, leaves) in zip(parts, keys, batch):
        alone, want_leaves = reference_fit_cart_matrix(
            X[p], y[p], config, task, key=key, n_classes=3 if classify else None,
            weights=None if w is None else w[p], leaves=True)
        assert_same_trees([trees.FlatTree(*arrays, task=task)], [alone])
        assert leaves.dtype == want_leaves.dtype and np.array_equal(leaves, want_leaves)


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


def _fit_family(family, ds, cart, fit_tree):
    """What a family fits on ds with cart's limits: its trees, and gbt's
    losses or a cart's leaves (from fit_tree). A forest is heartlab's, or
    with the reference fit_tree, grown a tree at a time by it."""
    if family in ("rf_c", "rf_r"):
        task, y = ((TASK_CLASSIFICATION, ds.labels) if family == "rf_c"
                   else (TASK_REGRESSION, ds.targets))
        cfg = ForestConfig(n_trees=2, seed=7, cart=cart)
        if fit_tree is fit_cart_matrix:
            return fit_random_forest(ds.rows, y, cfg, task).trees, None
        return reference_fit_random_forest(ds.rows, y, cfg, task, fit_tree).trees, None
    if family == "cart_c":
        tree, leaves = fit_tree(ds.rows, ds.labels, replace(cart, feature_subsample=4),
                                TASK_CLASSIFICATION, leaves=True)
        return [tree], leaves
    loss = family.split("_")[1]
    y = np.minimum(ds.labels, 1) if loss == "logistic" else ds.targets
    model = fit_gbt(ds.rows, y, GbtConfig(n_rounds=3, max_depth=min(cart.max_depth, 6), loss=loss,
                                          seed=7))
    return model.trees, model.train_losses


@pytest.mark.parametrize("track", ["real", "synthetic"])
@pytest.mark.parametrize("variant", ["as-is", "depth6-leaf3-split7-3-classes"])
@pytest.mark.parametrize("family", ["rf_c", "cart_c", "rf_r", "gbt_logistic", "gbt_squared"])
def test_level_growth_matches_per_node_reference(monkeypatch, tracks, track, variant, family):
    """Weighted rf classification, cart with a feature subsample, rf
    regression and gbt with both losses on the paper_10k track shapes; the
    variant adds a tied third class to the labels and tighter limits (gbt:
    depth 6 in place of 3)."""
    ds, cart = tracks[track], CartConfig(seed=7)
    if variant != "as-is":
        cart = CartConfig(max_depth=6, min_samples_leaf=3, min_samples_split=7, seed=7)
        if family in ("rf_c", "cart_c"):
            ds = _three_classes_tied(ds)
    got, got_extra = _fit_family(family, ds, cart, fit_cart_matrix)
    monkeypatch.setattr(ensembles, "fit_cart_matrix", reference_fit_cart_matrix)
    want, want_extra = _fit_family(family, ds, cart, reference_fit_cart_matrix)
    assert_same_trees(got, want)
    if family == "cart_c":
        assert got_extra.dtype == want_extra.dtype and np.array_equal(got_extra, want_extra)
    elif family.startswith("gbt"):
        assert got_extra == want_extra


def test_forest_sorts_once(monkeypatch):
    X, labels, targets = _data(9, n=150)
    calls = []
    original = trees.presort

    def counting(X):
        calls.append(X.shape)
        return original(X)

    monkeypatch.setattr(ensembles, "presort", counting)
    monkeypatch.setattr(trees, "presort", counting)
    for task, y, bootstrap in [(TASK_CLASSIFICATION, labels, True),
                               (TASK_CLASSIFICATION, labels, False),
                               (TASK_REGRESSION, targets, False)]:
        calls.clear()
        fit_random_forest(X, y, ForestConfig(n_trees=5, bootstrap=bootstrap), task)
        assert calls == [X.shape], (task, bootstrap)


def test_gbt_leaves_are_the_route_of_its_rows():
    X, _, targets = _data(4, n=200)
    tree, leaves = fit_cart_matrix(X, targets, CartConfig(max_depth=4), TASK_REGRESSION,
                                   leaves=True)
    assert leaves.dtype == np.int64 and np.array_equal(leaves, tree.route(X))
