import json

import numpy as np
import pytest

from heartlab.data import FixtureSpec, make_fixture, planted_coefficients
from heartlab.errors import ContractError, FitError, ModelLoadError, ModelSpecError
from heartlab.models import (
    ALL_FAMILIES,
    EstimatorSpec,
    fit,
    load_model,
    predict,
    predict_proba,
    save_model,
    scalar_output,
)
from heartlab.trees import TASK_CLASSIFICATION, TASK_REGRESSION

from conftest import make_ds

CLS_SPECS = [
    EstimatorSpec("cart", TASK_CLASSIFICATION, {"max_depth": 4}),
    EstimatorSpec("random_forest", TASK_CLASSIFICATION, {"n_trees": 9}, seed=3),
    EstimatorSpec("gbt", TASK_CLASSIFICATION, {"n_rounds": 12, "max_depth": 2}),
    EstimatorSpec("knn", TASK_CLASSIFICATION, {"k": 3}),
    EstimatorSpec("gaussian_nb", TASK_CLASSIFICATION),
    EstimatorSpec("linear_svm", TASK_CLASSIFICATION, {"epochs": 12}, seed=5),
    EstimatorSpec("logistic", TASK_CLASSIFICATION, {"ridge": 1e-6}),
]
REG_SPECS = [
    EstimatorSpec("cart", TASK_REGRESSION, {"max_depth": 4}),
    EstimatorSpec("random_forest", TASK_REGRESSION, {"n_trees": 7}, seed=3),
    EstimatorSpec("gbt", TASK_REGRESSION, {"n_rounds": 12, "max_depth": 2}),
    EstimatorSpec("knn", TASK_REGRESSION, {"k": 4}),
    EstimatorSpec("ols", TASK_REGRESSION),
    EstimatorSpec("ridge", TASK_REGRESSION, {"lam": 0.5}),
    EstimatorSpec("lasso", TASK_REGRESSION, {"lam": 0.02}),
    EstimatorSpec("linear_svr", TASK_REGRESSION, {"epochs": 12}, seed=5),
]


@pytest.fixture(scope="module")
def reg_ds():
    g = np.random.default_rng(42)
    X = g.normal(size=(60, 3))
    X = (X - X.mean(axis=0)) / X.std(axis=0)  # lasso warns off unstandardized data
    t = X @ np.array([1.5, -2.0, 0.5]) + 0.3 + 0.05 * g.normal(size=60)
    return make_ds(X, targets=t)


def test_spec_rejects_unknown_family():
    with pytest.raises(ModelSpecError):
        EstimatorSpec("perceptron", TASK_CLASSIFICATION)


def test_spec_rejects_unknown_task():
    with pytest.raises(ModelSpecError):
        EstimatorSpec("cart", "ranking")


@pytest.mark.parametrize("family,task", [
    ("ols", TASK_CLASSIFICATION),
    ("ridge", TASK_CLASSIFICATION),
    ("lasso", TASK_CLASSIFICATION),
    ("linear_svr", TASK_CLASSIFICATION),
    ("gaussian_nb", TASK_REGRESSION),
    ("linear_svm", TASK_REGRESSION),
    ("logistic", TASK_REGRESSION),
])
def test_spec_rejects_incompatible_pairs(family, task):
    with pytest.raises(ModelSpecError):
        EstimatorSpec(family, task)


def test_spec_rejects_unknown_hyperparam():
    with pytest.raises(ModelSpecError):
        EstimatorSpec("knn", TASK_CLASSIFICATION, {"n_neighbors": 5})
    with pytest.raises(ModelSpecError):
        EstimatorSpec("ols", TASK_REGRESSION, {"lam": 1.0})


@pytest.mark.parametrize("family,task,key,value", [
    ("cart", TASK_CLASSIFICATION, "max_depth", "deep"),
    ("random_forest", TASK_REGRESSION, "n_trees", None),
    ("gbt", TASK_CLASSIFICATION, "learning_rate", "fast"),
    ("knn", TASK_REGRESSION, "k", [3]),
    ("lasso", TASK_REGRESSION, "max_iter", float("inf")),
])
def test_spec_rejects_mistyped_hyperparam(family, task, key, value):
    with pytest.raises(ModelSpecError, match=f"{key!r} for family {family!r}"):
        EstimatorSpec(family, task, {key: value})


def test_spec_keeps_coercible_hyperparams_as_given(two_blob_ds):
    given = {"max_depth": "3", "min_samples_leaf": 2.0}
    spec = EstimatorSpec("cart", TASK_CLASSIFICATION, given)
    assert spec.hyperparams == given  # defaults and conversions are not written back
    m = fit(spec, two_blob_ds)
    typed = fit(EstimatorSpec("cart", TASK_CLASSIFICATION,
                              {"max_depth": 3, "min_samples_leaf": 2}), two_blob_ds)
    assert (json.loads(save_model(m))["params"]
            == json.loads(save_model(typed))["params"])
    assert json.loads(save_model(m))["spec"]["hyperparams"] == given


def test_cart_separates_four_points():
    rows = np.array([[0.0, 0.5], [1.0, -0.5], [5.0, 0.5], [6.0, -0.5]])
    labels = np.array([0, 0, 1, 1])
    # brute-force: some single-feature threshold must already separate
    separable = any(
        ({int(l) for l in labels[rows[:, j] <= thr]} in ({0}, {1}))
        and ({int(l) for l in labels[rows[:, j] > thr]} in ({0}, {1}))
        for j in range(2)
        for thr in (rows[:, j][:-1] + np.diff(np.sort(rows[:, j])) / 2)
    )
    assert separable
    ds = make_ds(rows, labels=labels)
    m = fit(EstimatorSpec("cart", TASK_CLASSIFICATION), ds)
    assert np.array_equal(predict(m, ds), labels)


def test_ols_recovers_planted_fixture_weights():
    ds = make_fixture(200, FixtureSpec(noise_sigma=0.0), seed=11)
    m = fit(EstimatorSpec("ols", TASK_REGRESSION), ds)
    w, b = planted_coefficients()
    assert np.allclose(m.params.weights, w, atol=1e-9)
    assert m.params.intercept == pytest.approx(b, abs=1e-9)
    assert np.allclose(predict(m, ds), ds.targets, atol=1e-9)


def test_knn_k1_reproduces_training_labels(two_blob_ds):
    m = fit(EstimatorSpec("knn", TASK_CLASSIFICATION, {"k": 1}), two_blob_ds)
    assert np.array_equal(predict(m, two_blob_ds), two_blob_ds.labels)


def test_predict_is_pure(two_blob_ds):
    for spec in CLS_SPECS:
        m = fit(spec, two_blob_ds)
        assert np.array_equal(predict(m, two_blob_ds), predict(m, two_blob_ds)), spec.family


def test_predict_on_empty_dataset(two_blob_ds, reg_ds):
    empty_cls = make_ds(np.empty((0, 2)), labels=np.empty(0, dtype=np.int64))
    for spec in CLS_SPECS:
        out = predict(fit(spec, two_blob_ds), empty_cls)
        assert out.shape == (0,), spec.family
    empty_reg = make_ds(np.empty((0, 3)), targets=np.empty(0))
    for spec in REG_SPECS:
        out = predict(fit(spec, reg_ds), empty_reg)
        assert out.shape == (0,), spec.family


def test_fit_determinism_all_families(two_blob_ds, reg_ds):
    for spec in CLS_SPECS:
        assert save_model(fit(spec, two_blob_ds)) == save_model(fit(spec, two_blob_ds)), spec.family
    for spec in REG_SPECS:
        assert save_model(fit(spec, reg_ds)) == save_model(fit(spec, reg_ds)), spec.family


def test_hyperparams_reach_the_families(two_blob_ds):
    m = fit(EstimatorSpec("random_forest", TASK_CLASSIFICATION, {"n_trees": 9}), two_blob_ds)
    assert len(m.params.trees) == 9
    m = fit(EstimatorSpec("knn", TASK_CLASSIFICATION, {"k": 3}), two_blob_ds)
    assert m.params.k == 3
    m = fit(EstimatorSpec("gbt", TASK_CLASSIFICATION, {"n_rounds": 12, "max_depth": 2}),
            two_blob_ds)
    assert len(m.params.trees) == 12


def test_fingerprint_rejects_renamed_columns(two_blob_ds):
    m = fit(EstimatorSpec("cart", TASK_CLASSIFICATION), two_blob_ds)
    other = make_ds(np.asarray(two_blob_ds.rows), labels=np.asarray(two_blob_ds.labels),
                    names=["g0", "g1"])
    with pytest.raises(ContractError):
        predict(m, other)
    with pytest.raises(ContractError):
        predict_proba(m, other)


def test_fit_requires_matching_column(two_blob_ds, reg_ds):
    with pytest.raises(FitError):
        fit(EstimatorSpec("cart", TASK_CLASSIFICATION), reg_ds)  # no labels
    with pytest.raises(FitError):
        fit(EstimatorSpec("cart", TASK_REGRESSION), two_blob_ds)  # no targets


def test_proba_requires_classification(reg_ds):
    m = fit(EstimatorSpec("ols", TASK_REGRESSION), reg_ds)
    with pytest.raises(ContractError):
        predict_proba(m, reg_ds)


def test_proba_in_unit_interval(two_blob_ds):
    for spec in CLS_SPECS:
        p = predict_proba(fit(spec, two_blob_ds), two_blob_ds)
        assert np.all((p >= 0.0) & (p <= 1.0)), spec.family


def test_proba_threshold_matches_predict(two_blob_ds):
    for fam in ("gaussian_nb", "random_forest", "gbt", "logistic"):
        spec = next(s for s in CLS_SPECS if s.family == fam)
        m = fit(spec, two_blob_ds)
        want = (predict_proba(m, two_blob_ds) > 0.5).astype(np.int64)
        assert np.array_equal(predict(m, two_blob_ds), want), fam


def test_forest_proba_is_vote_fraction(two_blob_ds):
    spec = EstimatorSpec("random_forest", TASK_CLASSIFICATION, {"n_trees": 9}, seed=3)
    p = predict_proba(fit(spec, two_blob_ds), two_blob_ds)
    assert np.allclose(p * 9, np.round(p * 9), atol=1e-12)


def test_svm_proba_monotone_in_margin(two_blob_ds):
    spec = next(s for s in CLS_SPECS if s.family == "linear_svm")
    m = fit(spec, two_blob_ds)
    margin = m.params.decision_function(np.asarray(two_blob_ds.rows))
    p = predict_proba(m, two_blob_ds)
    order = np.argsort(margin)
    assert np.all(np.diff(p[order]) >= 0.0)


def test_scalar_output_views(two_blob_ds, reg_ds):
    mc = fit(EstimatorSpec("logistic", TASK_CLASSIFICATION), two_blob_ds)
    f = scalar_output(mc)
    assert np.array_equal(f(np.asarray(two_blob_ds.rows)), predict_proba(mc, two_blob_ds))
    mr = fit(EstimatorSpec("ridge", TASK_REGRESSION, {"lam": 0.5}), reg_ds)
    g = scalar_output(mr)
    assert np.array_equal(g(np.asarray(reg_ds.rows)), predict(mr, reg_ds))


def test_save_load_round_trip_all_families(two_blob_ds, reg_ds):
    seen = set()
    for spec, ds in [(s, two_blob_ds) for s in CLS_SPECS] + [(s, reg_ds) for s in REG_SPECS]:
        m = fit(spec, ds)
        m2 = load_model(save_model(m))
        assert np.array_equal(predict(m, ds), predict(m2, ds)), spec.family
        assert save_model(m2) == save_model(m), spec.family
        assert m2.spec == spec
        assert m2.fingerprint == m.fingerprint
        seen.add(spec.family)
    assert seen == set(ALL_FAMILIES)


def test_save_load_preserves_proba(two_blob_ds):
    for spec in CLS_SPECS:
        m = fit(spec, two_blob_ds)
        m2 = load_model(save_model(m))
        assert np.array_equal(predict_proba(m, two_blob_ds),
                              predict_proba(m2, two_blob_ds)), spec.family


def test_truncated_payload_rejected(two_blob_ds):
    raw = save_model(fit(EstimatorSpec("cart", TASK_CLASSIFICATION), two_blob_ds))
    with pytest.raises(ModelLoadError, match="corrupt"):
        load_model(raw[: len(raw) // 2])
    with pytest.raises(ModelLoadError, match="corrupt"):
        load_model(b"not json at all {")


def test_non_model_json_rejected():
    with pytest.raises(ModelLoadError, match="not a saved model"):
        load_model(b'"hello"')
    with pytest.raises(ModelLoadError, match="not a saved model"):
        load_model(json.dumps({"format": "something-else", "version": 1}).encode())


def test_version_mismatch_rejected(two_blob_ds):
    doc = json.loads(save_model(fit(EstimatorSpec("cart", TASK_CLASSIFICATION), two_blob_ds)))
    doc["version"] = 99
    with pytest.raises(ModelLoadError, match="version"):
        load_model(json.dumps(doc).encode())


def test_cross_family_payload_rejected(reg_ds):
    doc = json.loads(save_model(fit(EstimatorSpec("ols", TASK_REGRESSION), reg_ds)))
    doc["spec"]["family"] = "knn"  # payload lacks the knn fields
    with pytest.raises(ModelLoadError, match="malformed"):
        load_model(json.dumps(doc).encode())
    doc["spec"]["family"] = "no-such-family"
    with pytest.raises(ModelLoadError, match="malformed"):
        load_model(json.dumps(doc).encode())


def test_missing_params_section_rejected(reg_ds):
    doc = json.loads(save_model(fit(EstimatorSpec("ols", TASK_REGRESSION), reg_ds)))
    del doc["params"]
    with pytest.raises(ModelLoadError, match="malformed"):
        load_model(json.dumps(doc).encode())
