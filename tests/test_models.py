import json

import numpy as np
import pytest

from heartlab.cli import main
from heartlab.data import FixtureSpec, make_fixture, planted_coefficients
from heartlab.errors import ContractError, FitError, ModelLoadError, ModelSpecError
from heartlab.models import (
    ALL_FAMILIES,
    FAMILIES,
    EstimatorSpec,
    TrainedModel,
    fit,
    load_model,
    predict,
    predict_proba,
    predict_scored,
    save_model,
    scalar_output,
)
from heartlab.linear import LinearModel
from heartlab.preprocess import fit_preprocessor, transform
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


@pytest.mark.parametrize("family, task", [(f, t) for f in FAMILIES for t in FAMILIES[f].tasks])
def test_fit_requires_matching_column(two_blob_ds, reg_ds, family, task):
    # reg_ds has no labels and two_blob_ds no targets
    ds = reg_ds if task == TASK_CLASSIFICATION else two_blob_ds
    with pytest.raises(FitError, match=f"{family} {task} requires"):
        fit(EstimatorSpec(family, task), ds)


@pytest.mark.parametrize("family, task", [(f, t) for f in FAMILIES for t in FAMILIES[f].tasks])
def test_fit_on_empty_data_raises_fit_error(family, task):
    empty = make_ds(np.empty((0, 3)), labels=np.empty(0, dtype=np.int64), targets=np.empty(0))
    with pytest.raises(FitError, match="empty data|zero rows"):
        fit(EstimatorSpec(family, task), empty)


def test_gbt_newton_step_that_is_not_finite_is_a_fit_error():
    # four separable points: by round 37 every p is exactly 0 or 1, so an
    # unregularised leaf step is 0/0
    ds = make_ds(np.arange(4.0).reshape(-1, 1), labels=np.array([0, 0, 1, 1]))
    spec = EstimatorSpec("gbt", TASK_CLASSIFICATION,
                         {"lambda_leaf": 0, "learning_rate": 1.0, "n_rounds": 50, "max_depth": 1})
    with pytest.raises(FitError, match="gbt round 37: a Newton leaf step is not finite"):
        fit(spec, ds)


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
    margin = m.params.predict(np.asarray(two_blob_ds.rows))
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


@pytest.mark.parametrize("spec", CLS_SPECS + [
    EstimatorSpec("knn", TASK_CLASSIFICATION, {"k": 3, "weighting": "inverse-distance"}),
], ids=lambda s: f"{s.family}-{s.hyperparams.get('weighting', '')}".rstrip("-"))
def test_scored_is_predict_and_proba_bit_for_bit(two_blob_ds, spec):
    m = fit(spec, two_blob_ds)
    labels, proba = predict_scored(m, two_blob_ds)
    assert labels.dtype == np.int64
    assert np.array_equal(labels, predict(m, two_blob_ds))
    assert np.array_equal(proba, predict_proba(m, two_blob_ds))
    assert np.array_equal(scalar_output(m)(two_blob_ds.rows), proba)


def _ridge_with_weight(w0):
    ds = make_fixture(300, seed=7)
    doc = json.loads(save_model(fit(EstimatorSpec("ridge", TASK_REGRESSION), ds)))
    doc["params"]["weights"][0] = w0
    return load_model(json.dumps(doc).encode()), ds


def test_non_finite_output_of_a_loaded_model_is_refused():
    m, ds = _ridge_with_weight(-1e308)  # finite, so it loads
    assert np.isfinite(predict(_ridge_with_weight(-1.0)[0], ds)).all()
    with pytest.raises(ContractError, match="ridge model gave a non-finite output"):
        predict(m, ds)
    with pytest.raises(ContractError, match="ridge model gave a non-finite output"):
        scalar_output(m)(ds.rows)


def test_non_finite_probability_is_refused(two_blob_ds):
    m = fit(EstimatorSpec("logistic", TASK_CLASSIFICATION), two_blob_ds)
    # inf - inf in the margin of every row with both features large
    broken = LinearModel(weights=np.array([1e308, -1e308]), intercept=0.0, family="logistic")
    m = TrainedModel(spec=m.spec, params=broken, fingerprint=m.fingerprint)
    rows = np.full((3, 2), 4.0)
    with pytest.raises(ContractError, match="logistic model gave a non-finite output"):
        scalar_output(m)(rows)
    with pytest.raises(ContractError, match="logistic model gave a non-finite output"):
        predict(m, make_ds(rows, labels=np.array([0, 1, 0]), names=two_blob_ds.feature_names()))


def test_linear_label_is_the_margin_sign_not_p_above_half():
    params = LinearModel(weights=np.array([1.0]), intercept=0.0, family="logistic")
    labels, proba = params.scored(np.array([[1e-17], [9e-17], [0.0]]))
    assert labels.tolist() == [1, 1, 0]
    assert proba.tolist() == [0.5, 0.5, 0.5]


# one value per hyperparameter, each far enough from its default to move outputs
MOVED = {"max_depth": 2, "min_samples_split": 60, "min_samples_leaf": 25,
         "feature_subsample": 2, "n_trees": 3, "bootstrap": False, "n_rounds": 3,
         "learning_rate": 0.9, "lambda_leaf": 50, "lam": 5, "tol": 0.5, "max_iter": 1,
         "lam_svm": 1, "epochs": 2, "eps": 0.5, "ridge": 5, "k": 25,
         "weighting": "inverse-distance"}


@pytest.fixture(scope="module")
def scaled_fixture():
    raw = make_fixture(400, seed=3)
    return transform(fit_preprocessor(raw), raw)


@pytest.mark.parametrize("family, task, key", [
    (family, task, key) for family, fam in FAMILIES.items() for task in fam.tasks
    for key in fam.defaults])
def test_every_hyperparameter_changes_its_models_outputs(scaled_fixture, family, task, key):
    base = {"n_trees": 5} if family == "random_forest" else {}
    assert MOVED[key] != {**FAMILIES[family].defaults, **base}[key]
    default, moved = (
        scalar_output(fit(EstimatorSpec(family, task, hp), scaled_fixture))(scaled_fixture.rows)
        for hp in (base, {**base, key: MOVED[key]}))
    assert not np.array_equal(default, moved), f"{family}/{task}: {key} changes nothing"


def test_save_load_round_trip_all_families(two_blob_ds, reg_ds):
    seen = set()
    ridge_as_ols = EstimatorSpec("ridge", TASK_REGRESSION, {"lam": 0})  # saves family "ols"
    unregularised_gbt = EstimatorSpec("gbt", TASK_CLASSIFICATION, {"lambda_leaf": 0})
    for spec, ds in [(s, two_blob_ds) for s in CLS_SPECS + [unregularised_gbt]] + [
            (s, reg_ds) for s in REG_SPECS + [ridge_as_ols]]:
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


def test_linear_weights_other_than_the_fingerprint_columns_rejected(two_blob_ds):
    doc = json.loads(save_model(fit(EstimatorSpec("logistic", TASK_CLASSIFICATION), two_blob_ds)))
    doc["params"]["weights"] = doc["params"]["weights"][:1]  # would predict from one weight
    with pytest.raises(ModelLoadError, match="malformed.*1 weights for 2 columns"):
        load_model(json.dumps(doc).encode())


@pytest.mark.parametrize("tamper, message", [
    (lambda t: t["right"].__setitem__(0, len(t["feature"])), "child index"),  # IndexError
    (lambda t: t["feature"].__setitem__(0, 40), "feature index"),              # IndexError
    (lambda t: t["threshold"].pop(), "differ in length"),                      # IndexError
    (lambda t: t["left"].__setitem__(0, 0), "child index"),                    # routes forever
], ids=["right-past-the-end", "feature-40", "short-threshold", "left-is-self"])
def test_tree_that_routing_cannot_follow_rejected(two_blob_ds, tamper, message):
    doc = json.loads(save_model(fit(EstimatorSpec("cart", TASK_CLASSIFICATION), two_blob_ds)))
    assert doc["params"]["tree"]["feature"][0] >= 0  # the root splits
    tamper(doc["params"]["tree"])
    with pytest.raises(ModelLoadError, match=f"malformed.*{message}"):
        load_model(json.dumps(doc).encode())


@pytest.fixture(scope="module")
def saved_run(tmp_path_factory):
    """A run's saved models (knn, naive Bayes, logistic) and its config,
    whose explain request any of them can answer."""
    tmp = tmp_path_factory.mktemp("saved")
    doc = {"dataset": {"fixture": {"n": 160, "seed": 5}}, "seed": 11,
           "output_dir": str(tmp / "out"),
           "models": [{"name": "near", "family": "knn", "task": "classification",
                       "hyperparams": {"k": 3}},
                      {"name": "nb", "family": "gaussian_nb", "task": "classification"},
                      {"name": "logit", "family": "logistic", "task": "classification"}],
           "explain": [{"model": "logit", "method": "lime", "rows": [0], "n_samples": 100}]}
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main(["run", str(cfg), "--save-models"]) == 0
    return tmp, cfg


@pytest.mark.parametrize("name, tamper, message", [
    # each of these loaded before; the comment says what predict_proba then did
    ("near", lambda p: p["y"].__setitem__(0, 5), "knn labels"),              # IndexError
    ("near", lambda p: p["y"].__setitem__(0, 0.5), "knn labels"),            # IndexError
    ("nb", lambda p: p["variances"][0].__setitem__(0, -1.0), "naive bayes"),  # NaN
    ("nb", lambda p: p.__setitem__("priors", [0.0, 0.0]), "naive bayes"),    # NaN
    ("logit", lambda p: p["weights"].__setitem__(0, float("nan")), "finite"),  # NaN
    ("logit", lambda p: p.__setitem__("intercept", float("inf")), "finite"),   # NaN
    ("nb", lambda p: p["means"][0].__setitem__(0, float("nan")), "means is not an array"),  # NaN
    ("near", lambda p: p.__setitem__("k", 2.9), "k must be int, got 2.9"),   # loaded as k = 2
], ids=["knn-label-5", "knn-label-half", "nb-variance-negative", "nb-priors-zero",
        "logit-weight-nan", "logit-intercept-inf", "nb-mean-nan", "knn-k-fractional"])
def test_saved_values_that_break_outputs_rejected_by_explain(saved_run, capsys, name, tamper,
                                                             message):
    tmp, cfg = saved_run
    doc = json.loads((tmp / "out" / f"model_real_{name}.json").read_text())
    assert main(["explain", str(tmp / "out" / f"model_real_{name}.json"), str(cfg)]) == 0
    tamper(doc["params"])
    bad = tmp / f"tampered_{name}.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["explain", str(bad), str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "malformed model payload" in err and message in err


@pytest.mark.parametrize("spec, tamper, message", [
    # each of these loaded before; the comment says what predict_proba then did
    (EstimatorSpec("gaussian_nb", TASK_CLASSIFICATION),
     lambda p: p["means"].__setitem__(slice(None), [m[:1] for m in p["means"]]),
     "naive bayes"),                                      # broadcast: wrong output
    (EstimatorSpec("gaussian_nb", TASK_CLASSIFICATION),
     lambda p: p["priors"].pop(), "naive bayes"),                           # wrong output
    (EstimatorSpec("gaussian_nb", TASK_CLASSIFICATION),
     lambda p: p["variances"].pop(), "naive bayes"),                        # IndexError
    (EstimatorSpec("random_forest", TASK_CLASSIFICATION, {"n_trees": 3}),
     lambda p: p.__setitem__("n_classes", 1), "more than 1 classes"),       # IndexError
    (EstimatorSpec("knn", TASK_CLASSIFICATION, {"k": 3}),
     lambda p: p["y"].__setitem__(slice(10, None), []), "one label"),       # IndexError
    (EstimatorSpec("knn", TASK_CLASSIFICATION, {"k": 3}),
     lambda p: p["X"].__setitem__(slice(None), [r[:1] for r in p["X"]]),
     "2 columns"),                                                          # ContractError
], ids=["nb-means-one-column", "nb-one-prior", "nb-one-variance-row", "rf-one-class",
        "knn-ten-labels", "knn-one-column"])
def test_parameters_that_contradict_each_other_or_the_columns_rejected(
        two_blob_ds, spec, tamper, message):
    doc = json.loads(save_model(fit(spec, two_blob_ds)))
    tamper(doc["params"])
    with pytest.raises(ModelLoadError, match=f"malformed.*{message}"):
        load_model(json.dumps(doc).encode())


@pytest.mark.parametrize("spec, tamper, message", [
    # each of these loaded before; the comment says what predict or predict_proba then did
    (EstimatorSpec("gbt", TASK_REGRESSION, {"n_rounds": 3}),
     lambda p: p.__setitem__("base_score", float("nan")), "base_score must be finite float"),  # NaN
    (EstimatorSpec("cart", TASK_REGRESSION, {"max_depth": 3}),
     lambda p: p["tree"]["leaf_value"].__setitem__(-1, float("inf")),
     "leaf_value is not an array of finite numbers"),        # inf for the rows in that leaf
    (EstimatorSpec("knn", TASK_REGRESSION, {"k": 3}),
     lambda p: p["y"].__setitem__(0, float("nan")), "y is not an array of finite"),  # NaN
    (EstimatorSpec("gaussian_nb", TASK_CLASSIFICATION),
     lambda p: p["means"][1].__setitem__(0, float("nan")), "means is not an array"),  # NaN
    (EstimatorSpec("knn", TASK_CLASSIFICATION, {"k": 3}),
     lambda p: p.__setitem__("k", 2.9), "k must be int, got 2.9"),          # k = 2
    (EstimatorSpec("random_forest", TASK_REGRESSION, {"n_trees": 3}),
     lambda p: p["config"].__setitem__("bootstrap", "no"), "bootstrap must be bool"),  # True
    (EstimatorSpec("lasso", TASK_REGRESSION),
     lambda p: p.__setitem__("converged", "false"), "converged must be bool"),  # True
    (EstimatorSpec("ols", TASK_REGRESSION),
     lambda p: p.__setitem__("family", "logistic"),
     "a logistic model does not serve the regression task"),               # 0/1 labels
    (EstimatorSpec("knn", TASK_CLASSIFICATION, {"k": 3}),
     lambda p: p.__setitem__("task", "regression"),
     "knn needs classification"),                                           # ValueError
    (EstimatorSpec("random_forest", TASK_CLASSIFICATION, {"n_trees": 3}),
     lambda p: p.__setitem__("trees", []), "forest does not hold 3 classification trees"),  # NaN
    (EstimatorSpec("gbt", TASK_CLASSIFICATION, {"n_rounds": 3}),
     lambda p: p["config"].__setitem__("loss", "squared"),
     "gbt needs 3 trees, 4 losses and loss 'logistic'"),  # ContractError at predict
    (EstimatorSpec("knn", TASK_CLASSIFICATION, {"k": 3}),
     lambda p: p.__setitem__("X", 5.0), "model payload"),  # IndexError while loading
    (EstimatorSpec("cart", TASK_CLASSIFICATION, {"max_depth": 3}),
     lambda p: p["tree"]["leaf_value"].__setitem__(-1, [0.0, 7.5]),
     "not a vector of class proportions"),                  # probability 7.5
    (EstimatorSpec("random_forest", TASK_CLASSIFICATION, {"n_trees": 3}),
     lambda p: p["trees"][0]["leaf_value"].__setitem__(-1, [1.5, -0.5]),
     "not a vector of class proportions"),                  # a vote for class 0
    (EstimatorSpec("knn", TASK_CLASSIFICATION, {"k": 3}),
     lambda p: p.__setitem__("k", 7), r"knn KnnConfig\(k=7, .* is not the spec's"),  # 7 neighbors
    (EstimatorSpec("random_forest", TASK_CLASSIFICATION, {"n_trees": 3}),
     lambda p: (p["config"].__setitem__("n_trees", 2), p["trees"].pop()),
     "forest config .*n_trees=2.* is not the spec's"),      # 2 trees voted
    (EstimatorSpec("gbt", TASK_REGRESSION, {"n_rounds": 3}),
     lambda p: (p["config"].__setitem__("n_rounds", 2), p["trees"].pop(),
                p["train_losses"].pop()),
     "gbt config .*n_rounds=2.* is not the spec's"),        # 2 rounds added up
], ids=["gbt-base-nan", "cart-leaf-inf", "knn-target-nan", "nb-mean-nan", "knn-k-fractional",
        "rf-bootstrap-no", "lasso-converged-false", "ols-as-logistic", "knn-task-regression",
        "rf-no-trees", "gbt-classifier-squared-loss", "knn-rows-a-scalar",
        "cart-leaf-not-proportions", "rf-leaf-negative", "knn-k-not-the-spec",
        "rf-n-trees-not-the-spec", "gbt-n-rounds-not-the-spec"])
def test_saved_values_that_break_load_rules_rejected(two_blob_ds, reg_ds, spec, tamper, message):
    ds = two_blob_ds if spec.task == TASK_CLASSIFICATION else reg_ds
    doc = json.loads(save_model(fit(spec, ds)))
    tamper(doc["params"])
    with pytest.raises(ModelLoadError, match=f"malformed.*{message}"):
        load_model(json.dumps(doc).encode())


@pytest.mark.parametrize("seed", [2.5, True, float("inf")])  # inf: OverflowError before
def test_non_integer_seed_rejected(reg_ds, seed):
    doc = json.loads(save_model(fit(EstimatorSpec("ols", TASK_REGRESSION), reg_ds)))
    doc["spec"]["seed"] = seed  # a truncating int() loads these as 2 and 1
    with pytest.raises(ModelLoadError, match="malformed"):
        load_model(json.dumps(doc).encode())
