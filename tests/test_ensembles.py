from dataclasses import replace

import numpy as np
import pytest

from heartlab.ensembles import (
    Forest,
    ForestConfig,
    GbtConfig,
    GbtModel,
    default_jobs,
    fit_gbt,
    fit_random_forest,
)
from heartlab.errors import ConfigError, FitError
from heartlab.trees import (
    CartConfig,
    TASK_CLASSIFICATION,
    TASK_REGRESSION,
    fit_cart_matrix,
)

from conftest import make_ds, tree_predict_row


# -- random forest -----------------------------------------------------------


def test_degenerate_forest_equals_single_cart(two_blob_ds):
    cfg = ForestConfig(n_trees=1, bootstrap=False, feature_subsample="all",
                       cart=CartConfig(max_depth=5))
    forest = fit_random_forest(two_blob_ds.rows, two_blob_ds.labels, cfg, TASK_CLASSIFICATION)
    tree = fit_cart_matrix(two_blob_ds.rows, two_blob_ds.labels, CartConfig(max_depth=5),
                           TASK_CLASSIFICATION)
    want = np.array([tree_predict_row(tree, r) for r in two_blob_ds.rows])
    got = forest.scored(two_blob_ds.rows)[0]
    assert np.array_equal(got, want)


def test_proba_is_vote_fraction(two_blob_ds):
    cfg = ForestConfig(n_trees=7, seed=3, cart=CartConfig(max_depth=4))
    forest = fit_random_forest(two_blob_ds.rows, two_blob_ds.labels, cfg, TASK_CLASSIFICATION)
    labels, proba = forest.scored(two_blob_ds.rows)
    assert proba.shape == (two_blob_ds.n_rows,)
    votes = proba * 7
    assert np.allclose(votes, np.round(votes), atol=1e-9)  # sevenths exactly
    per_tree = np.stack([t.scored(two_blob_ds.rows)[0] for t in forest.trees])
    assert np.array_equal(proba, (per_tree == 1).sum(axis=0) / 7)
    assert np.array_equal(labels, (proba > 0.5).astype(np.int64))  # 7 votes never tie


def test_forest_regression_is_mean_of_trees(rng):
    rows = rng.normal(size=(80, 3))
    targets = rows @ np.array([1.0, -2.0, 0.5])
    ds = make_ds(rows, targets=targets)
    cfg = ForestConfig(n_trees=5, seed=1, cart=CartConfig(max_depth=4))
    forest = fit_random_forest(ds.rows, ds.targets, cfg, TASK_REGRESSION)
    per_tree = np.stack([t.predict(ds.rows) for t in forest.trees])
    assert np.allclose(forest.predict(ds.rows), per_tree.mean(axis=0), atol=1e-12)


def test_forest_deterministic_and_seed_sensitive(rng):
    # noisy labels so bootstrap draws actually change the trees
    rows = rng.normal(size=(150, 4))
    labels = ((rows[:, 0] + rng.normal(scale=1.5, size=150)) > 0).astype(np.int64)
    ds = make_ds(rows, labels=labels)
    cfg_a = ForestConfig(n_trees=6, seed=4, cart=CartConfig(max_depth=3))
    cfg_b = ForestConfig(n_trees=6, seed=5, cart=CartConfig(max_depth=3))
    fa1 = fit_random_forest(ds.rows, ds.labels, cfg_a, TASK_CLASSIFICATION)
    fa2 = fit_random_forest(ds.rows, ds.labels, cfg_a, TASK_CLASSIFICATION)
    fb = fit_random_forest(ds.rows, ds.labels, cfg_b, TASK_CLASSIFICATION)
    q = rng.normal(size=(400, 4))
    assert np.array_equal(fa1.scored(q)[1], fa2.scored(q)[1])
    assert not np.array_equal(fa1.scored(q)[1], fb.scored(q)[1])


def test_auto_subsample_resolution(rng):
    rows = rng.normal(size=(60, 6))
    labels = (rows[:, 0] > 0).astype(np.int64)
    ds = make_ds(rows, labels=labels)
    # M=6: classification auto is ceil(sqrt(6)) = 3
    auto = fit_random_forest(ds.rows, ds.labels,
                             ForestConfig(n_trees=4, seed=7, feature_subsample="auto"),
                             TASK_CLASSIFICATION)
    explicit = fit_random_forest(ds.rows, ds.labels,
                                 ForestConfig(n_trees=4, seed=7, feature_subsample=3),
                                 TASK_CLASSIFICATION)
    assert np.array_equal(auto.scored(rows)[1], explicit.scored(rows)[1])
    # regression auto is ceil(6/3) = 2
    ds_r = make_ds(rows, targets=rows[:, 0])
    auto_r = fit_random_forest(ds_r.rows, ds_r.targets,
                               ForestConfig(n_trees=4, seed=7, feature_subsample="auto"),
                               TASK_REGRESSION)
    explicit_r = fit_random_forest(ds_r.rows, ds_r.targets,
                                   ForestConfig(n_trees=4, seed=7, feature_subsample=2),
                                   TASK_REGRESSION)
    assert np.array_equal(auto_r.predict(rows), explicit_r.predict(rows))


def test_forest_config_validation():
    with pytest.raises(ConfigError):
        ForestConfig(n_trees=0)
    with pytest.raises(ConfigError):
        ForestConfig(feature_subsample="most")
    with pytest.raises(ConfigError, match="got True"):
        ForestConfig(feature_subsample=True)


# -- gradient boosting: squared loss ------------------------------------------


def test_gbt_annihilates_residuals_with_unit_rate(rng):
    rows = np.round(rng.normal(size=(20, 2)), 2)
    targets = rng.normal(size=20)
    ds = make_ds(rows, targets=targets)
    cfg = GbtConfig(n_rounds=3, learning_rate=1.0, max_depth=6, loss="squared", lambda_leaf=0)
    model = fit_gbt(ds.rows, ds.targets, cfg)
    # depth 6 isolates all 20 distinct rows, so round one already fits exactly
    assert model.train_losses[0] > 1e-3
    assert model.train_losses[-1] < 1e-20
    assert np.allclose(model.predict(ds.rows), targets, atol=1e-9)


def test_gbt_base_score_is_mean(rng):
    rows = rng.normal(size=(30, 2))
    targets = rng.normal(size=30) + 5.0
    ds = make_ds(rows, targets=targets)
    model = fit_gbt(ds.rows, ds.targets, GbtConfig(n_rounds=1, loss="squared"))
    assert abs(model.base_score - float(targets.mean())) < 1e-12
    base = replace(model, trees=model.trees[:0])
    assert np.allclose(base.predict(ds.rows), targets.mean(), atol=1e-12)


def test_gbt_staged_losses_non_increasing(rng):
    rows = np.round(rng.normal(size=(100, 3)), 1)
    targets = rows[:, 0] * 2 + np.sin(rows[:, 1]) + 0.1 * rng.normal(size=100)
    ds = make_ds(rows, targets=targets)
    model = fit_gbt(ds.rows, ds.targets, GbtConfig(n_rounds=40, learning_rate=0.3, loss="squared"))
    diffs = np.diff(model.train_losses)
    assert len(model.train_losses) == 41
    assert np.all(diffs <= 1e-12)


def test_gbt_staged_predict_matches_loss_trace(rng):
    rows = np.round(rng.normal(size=(60, 2)), 1)
    targets = rows[:, 0] + 0.2 * rng.normal(size=60)
    ds = make_ds(rows, targets=targets)
    model = fit_gbt(ds.rows, ds.targets, GbtConfig(n_rounds=10, learning_rate=0.5, loss="squared"))
    for m in (0, 3, 10):
        pred = replace(model, trees=model.trees[:m]).predict(ds.rows)
        loss = float(np.mean((targets - pred) ** 2))
        assert abs(loss - model.train_losses[m]) < 1e-12


# -- gradient boosting: logistic loss -----------------------------------------


def test_gbt_logistic_zero_information_gives_half(two_blob_ds):
    rows = np.zeros((40, 2))
    labels = np.array([0, 1] * 20)
    ds = make_ds(rows, labels=labels)
    model = fit_gbt(ds.rows, ds.labels, GbtConfig(n_rounds=5, loss="logistic"))
    proba = model.scored(rows)[1]
    assert np.allclose(proba, 0.5, atol=1e-12)
    assert model.base_score == 0.0  # log-odds of a balanced prior


def test_gbt_logistic_base_is_log_odds(rng):
    rows = rng.normal(size=(40, 2))
    labels = np.array([1] * 10 + [0] * 30)
    ds = make_ds(rows, labels=labels)
    model = fit_gbt(ds.rows, ds.labels, GbtConfig(n_rounds=1, loss="logistic"))
    assert abs(model.base_score - np.log(10 / 30)) < 1e-12


def test_gbt_logistic_separates_blobs(two_blob_ds):
    model = fit_gbt(two_blob_ds.rows, two_blob_ds.labels,
                    GbtConfig(n_rounds=20, learning_rate=0.3, loss="logistic"))
    pred, proba = model.scored(two_blob_ds.rows)
    acc = float(np.mean(pred == two_blob_ds.labels))
    assert acc >= 0.99
    assert proba.shape == (120,)
    assert np.all((proba >= 0) & (proba <= 1))
    losses = np.asarray(model.train_losses)
    assert np.all(np.diff(losses) <= 1e-12)


def test_gbt_logistic_threshold_consistency(two_blob_ds):
    model = fit_gbt(two_blob_ds.rows, two_blob_ds.labels, GbtConfig(n_rounds=8, loss="logistic"))
    pred, proba = model.scored(two_blob_ds.rows)
    assert np.array_equal(pred, (proba > 0.5).astype(np.int64))
    assert np.allclose(proba, 1.0 / (1.0 + np.exp(-model.predict(two_blob_ds.rows))),
                       rtol=1e-12, atol=0.0)


def test_gbt_logistic_rejects_bad_labels(rng):
    rows = rng.normal(size=(20, 2))
    ds3 = make_ds(rows, labels=(np.arange(20) % 3))
    with pytest.raises(FitError):
        fit_gbt(ds3.rows, ds3.labels, GbtConfig(loss="logistic"))
    ds1 = make_ds(rows, labels=np.ones(20, dtype=np.int64))
    with pytest.raises(FitError):
        fit_gbt(ds1.rows, ds1.labels, GbtConfig(loss="logistic"))


def test_gbt_config_validation():
    with pytest.raises(ConfigError):
        GbtConfig(n_rounds=0)
    with pytest.raises(ConfigError):
        GbtConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        GbtConfig(learning_rate=1.5)
    with pytest.raises(ConfigError):
        GbtConfig(loss="hinge")


# -- jobs --------------------------------------------------------------------


def test_default_jobs_env(monkeypatch):
    monkeypatch.delenv("HEARTLAB_N_JOBS", raising=False)
    assert default_jobs() == 1
    for value in ("3", "abc"):
        monkeypatch.setenv("HEARTLAB_N_JOBS", value)
        assert default_jobs() == 1
