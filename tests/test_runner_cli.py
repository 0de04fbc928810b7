import csv
import json
import threading
from pathlib import Path

import numpy as np
import pytest

from heartlab import ensembles, runner
from heartlab.cli import main
from heartlab.errors import ConfigError, ParseError
from heartlab.runner import (
    METRIC_FIELDS,
    TRACK_REAL,
    TRACK_SYNTHETIC,
    compare_models,
    derive_seed,
    parse_config,
    run_experiment,
)


def _doc(tmp_path, **over):
    doc = {
        "dataset": {"fixture": {"n": 240, "seed": 5}},
        "models": [
            {"name": "rf", "family": "random_forest", "task": "classification",
             "hyperparams": {"n_trees": 10, "max_depth": 6}},
            {"name": "cart", "family": "cart", "task": "classification",
             "hyperparams": {"max_depth": 4}},
            {"name": "logit", "family": "logistic", "task": "classification"},
            {"name": "ols", "family": "ols", "task": "regression"},
        ],
        "output_dir": str(tmp_path / "out"),
        "seed": 11,
        "smote": {"mode": "balance"},
    }
    doc.update(over)
    return doc


def _write_cfg(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def _read_metrics(out_dir):
    with open(Path(out_dir) / "metrics.csv", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


# -- parse_config ------------------------------------------------------------


def test_defaults_are_materialized(tmp_path):
    cfg = parse_config({
        "dataset": {"fixture": {"n": 100}},
        "models": [{"family": "cart", "task": "classification"}],
        "output_dir": str(tmp_path),
    })
    assert cfg.seed == 0
    assert cfg.split.train_fraction == 0.8
    assert cfg.split.stratified is True
    assert cfg.split.seed == derive_seed(0, "split")
    assert cfg.preprocess.iqr_factor == 1.5
    assert cfg.preprocess.scale is True
    assert cfg.smote is None
    assert cfg.metrics == METRIC_FIELDS
    assert cfg.explain == ()
    assert cfg.dataset["fixture"]["noise_sigma"] == 0.1
    assert cfg.dataset["fixture"]["seed"] == derive_seed(0, "fixture")
    name, spec = cfg.models[0]
    assert name == "cart"  # name defaults to the family
    assert spec.seed == derive_seed(0, "model:cart")


def test_seed_override_rewires_derived_seeds(tmp_path):
    doc = _doc(tmp_path)
    a = parse_config(doc)
    b = parse_config(doc, seed_override=99)
    assert b.seed == 99
    assert a.split.seed != b.split.seed
    assert a.smote.seed != b.smote.seed
    assert dict(a.models)["rf"].seed != dict(b.models)["rf"].seed


def test_explicit_seeds_win(tmp_path):
    doc = _doc(tmp_path)
    doc["models"][0]["seed"] = 1234
    doc["smote"]["seed"] = 77
    cfg = parse_config(doc)
    assert dict(cfg.models)["rf"].seed == 1234
    assert cfg.smote.seed == 77


@pytest.mark.parametrize("mutate,fragment", [
    (lambda d: d.update(extra=1), "config"),
    (lambda d: d["split"].update(ratio=0.5), "split"),
    (lambda d: d["smote"].update(epochs=3), "smote"),
    (lambda d: d["models"][0].update(depth=3), "models[0]"),
    (lambda d: d["dataset"]["fixture"].update(rows=10), "dataset.fixture"),
])
def test_unknown_keys_name_their_section(tmp_path, mutate, fragment):
    doc = _doc(tmp_path, split={})
    mutate(doc)
    with pytest.raises(ConfigError, match=fragment.replace("[", r"\[")):
        parse_config(doc)


def test_dataset_section_required(tmp_path):
    doc = _doc(tmp_path)
    doc["dataset"] = {}
    with pytest.raises(ConfigError, match="dataset"):
        parse_config(doc)
    doc["dataset"] = {"path": "x.csv", "schema": "no-such-schema"}
    with pytest.raises(ConfigError, match="schema"):
        parse_config(doc)


def test_models_required_and_unique(tmp_path):
    doc = _doc(tmp_path, models=[])
    with pytest.raises(ConfigError, match="at least one model"):
        parse_config(doc)
    doc = _doc(tmp_path)
    doc["models"].append(dict(doc["models"][0]))
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(doc)


def test_unknown_metric_rejected(tmp_path):
    with pytest.raises(ConfigError, match="metric"):
        parse_config(_doc(tmp_path, metrics=["accuracy", "brier"]))


def test_explain_cross_references(tmp_path):
    doc = _doc(tmp_path, explain=[{"model": "ghost", "method": "shap"}])
    with pytest.raises(ConfigError, match="unknown model"):
        parse_config(doc)
    doc = _doc(tmp_path, explain=[{"model": "rf", "method": "anchors"}])
    with pytest.raises(ConfigError, match="method"):
        parse_config(doc)
    doc = _doc(tmp_path, explain=[{"model": "rf", "track": "holdout"}])
    with pytest.raises(ConfigError, match="track"):
        parse_config(doc)
    doc = _doc(tmp_path, explain=[{"model": "rf", "track": "synthetic"}])
    del doc["smote"]
    with pytest.raises(ConfigError, match="smote"):
        parse_config(doc)


def test_config_root_must_be_object():
    with pytest.raises(ConfigError):
        parse_config(["not", "a", "dict"])


# -- run_experiment ----------------------------------------------------------


@pytest.fixture(scope="module")
def fixture_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("run")
    doc = _doc(tmp)
    cfg = parse_config(doc)
    bundle = run_experiment(cfg)
    return doc, cfg, bundle


def test_bundle_files_and_header(fixture_run):
    doc, cfg, bundle = fixture_run
    out = Path(cfg.output_dir)
    names = {p.name for p in out.iterdir()}
    for track in ("real", "synthetic"):
        for m in ("rf", "cart", "logit"):
            assert f"confusion_{track}_{m}.csv" in names
            assert f"roc_{track}_{m}.csv" in names
        assert f"residuals_{track}_ols.csv" in names
    assert "metrics.csv" in names and "manifest.json" in names

    header, rows = _read_metrics(out)
    assert header == ["track", "model", "family", "task"] + list(METRIC_FIELDS)
    # sorted tracks x config-ordered models
    assert [(r[0], r[1]) for r in rows] == [
        (t, m) for t in ("real", "synthetic") for m in ("rf", "cart", "logit", "ols")]


def test_undefined_metrics_are_empty_cells(fixture_run):
    doc, cfg, bundle = fixture_run
    header, rows = _read_metrics(cfg.output_dir)
    acc = header.index("accuracy")
    r2 = header.index("r2")
    for r in rows:
        if r[3] == "regression":
            assert r[acc] == "" and r[r2] != ""
        else:
            assert r[acc] != "" and r[r2] == ""


def test_manifest_contents(fixture_run):
    doc, cfg, bundle = fixture_run
    man = json.loads((Path(cfg.output_dir) / "manifest.json").read_text())
    assert man["status"] == "ok"
    assert man["kernel_backend"] == "numpy"
    assert man["seeds"]["master"] == 11
    assert man["seeds"]["split"] == derive_seed(11, "split")
    assert len(man["conventions"]) == 9
    assert man["dataset_counts"]["rows_loaded"] == 240
    assert set(man["tracks"]) == {"real", "synthetic"}
    assert any("re-splitting" in c for c in man["caveats"])
    # the effective config echoes every materialized default
    eff = man["effective_config"]
    assert eff["split"]["train_fraction"] == 0.8
    assert eff["smote"]["k"] == 5
    assert eff["models"][0]["seed"] == dict(cfg.models)["rf"].seed


def test_synthetic_track_balances_classes(fixture_run):
    doc, cfg, bundle = fixture_run
    info = bundle.tracks[TRACK_SYNTHETIC].info
    assert info["total_rows"] == info["pool_rows"] + info["rows_added"]
    merged: dict = {}
    for part in ("train_class_counts", "test_class_counts"):
        for k, v in info[part].items():
            merged[k] = merged.get(k, 0) + v
    counts = sorted(merged.values())
    assert counts[-1] - counts[0] <= 1


def test_compare_models_ranking(fixture_run):
    doc, cfg, bundle = fixture_run
    table = compare_models(bundle)
    cls_real = [r for r in table if r["track"] == "real" and r["task"] == "classification"]
    assert [r["rank"] for r in cls_real] == [1, 2, 3]
    accs = [r["accuracy"] for r in cls_real]
    assert accs == sorted(accs, reverse=True)
    # the ensemble outranks the single tree on this seeded fixture
    by_model = {r["model"]: r["rank"] for r in cls_real}
    assert by_model["rf"] < by_model["cart"]
    reg_rows = [r for r in table if r["task"] == "regression"]
    assert all(r["rank"] == 1 and r["model"] == "ols" for r in reg_rows)


def test_compare_models_tie_breaks_by_name(tmp_path):
    doc = _doc(tmp_path, models=[
        {"name": "zeta", "family": "cart", "task": "classification",
         "hyperparams": {"max_depth": 3}, "seed": 4},
        {"name": "alpha", "family": "cart", "task": "classification",
         "hyperparams": {"max_depth": 3}, "seed": 4},
    ])
    del doc["smote"]
    bundle = run_experiment(parse_config(doc))
    table = compare_models(bundle)
    assert [r["model"] for r in table] == ["alpha", "zeta"]
    assert [r["rank"] for r in table] == [1, 2]


def test_real_track_untouched_by_smote(tmp_path, fixture_run):
    doc, cfg, bundle = fixture_run
    plain = _doc(tmp_path)
    del plain["smote"]
    plain["output_dir"] = str(tmp_path / "plain")
    bundle2 = run_experiment(parse_config(plain))
    _, rows_smote = _read_metrics(cfg.output_dir)
    _, rows_plain = _read_metrics(plain["output_dir"])
    assert [r for r in rows_smote if r[0] == "real"] == rows_plain


def test_leak_free_mode_keeps_the_real_test(tmp_path):
    doc = _doc(tmp_path, smote={"mode": "balance", "leak_free": True})
    bundle = run_experiment(parse_config(doc))
    real, syn = bundle.tracks[TRACK_REAL], bundle.tracks[TRACK_SYNTHETIC]
    assert np.array_equal(syn.test.rows, real.test.rows)
    assert syn.train.n_rows >= real.train.n_rows
    man = json.loads((Path(doc["output_dir"]) / "manifest.json").read_text())
    assert not any("re-splitting" in c for c in man["caveats"])


def test_byte_identical_reruns(tmp_path):
    doc = _doc(tmp_path, explain=[
        {"model": "logit", "method": "shap", "rows": [0],
         "mode": "sampled", "n_permutations": 20, "background_size": 8},
        {"model": "rf", "method": "lime", "rows": [1], "n_samples": 400},
    ])
    cfg = parse_config(doc)
    run_experiment(cfg)
    out = Path(cfg.output_dir)
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    run_experiment(cfg)
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second
    assert any(n.startswith("shap_synthetic_logit") for n in first)


@pytest.mark.parametrize("jobs", ["4", "abc"])
def test_fit_stage_runs_in_the_calling_thread(tmp_path, monkeypatch, jobs):
    monkeypatch.setenv("HEARTLAB_N_JOBS", jobs)  # no longer read
    calls = []

    def recorded(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, threading.get_ident()))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(runner, "fit", recorded("fit", runner.fit))
    monkeypatch.setattr(ensembles, "fit_cart_matrix",
                        recorded("tree", ensembles.fit_cart_matrix))
    run_experiment(parse_config(_doc(tmp_path)))
    # 4 models and a 10-tree forest, on the real and the synthetic track
    assert sorted(name for name, _ in calls) == ["fit"] * 8 + ["tree"] * 20
    assert {ident for _, ident in calls} == {threading.get_ident()}


def test_partial_manifest_records_failing_stage(tmp_path):
    doc = _doc(tmp_path, dataset={"path": str(tmp_path / "absent.csv")})
    with pytest.raises(ParseError):
        run_experiment(parse_config(doc))
    man = json.loads((Path(doc["output_dir"]) / "manifest.json").read_text())
    assert man["status"] == "failed"
    assert man["stage"] == "load"
    assert man["error"]

    doc = _doc(tmp_path, output_dir=str(tmp_path / "out2"))
    doc["models"][0] = {"name": "rf", "family": "knn", "task": "classification",
                        "hyperparams": {"k": 100000}}
    with pytest.raises(ConfigError):
        run_experiment(parse_config(doc))
    man = json.loads((Path(doc["output_dir"]) / "manifest.json").read_text())
    assert man["status"] == "failed"
    assert man["stage"] == "fit"
    assert man["model"] == f"{TRACK_REAL}:rf"


def test_explanation_files(tmp_path):
    doc = _doc(tmp_path, explain=[
        {"model": "logit", "method": "shap", "rows": [0, 1],
         "mode": "sampled", "n_permutations": 30, "background_size": 8},
        {"model": "rf", "method": "lime", "rows": [0], "n_samples": 400,
         "n_features": 5},
    ])
    cfg = parse_config(doc)
    run_experiment(cfg)
    out = Path(cfg.output_dir)

    for row in (0, 1):
        path = out / f"shap_synthetic_logit_{row}.csv"
        assert path.exists()
        with open(path, newline="") as fh:
            rdr = csv.reader(fh)
            header = next(rdr)
            rows = list(rdr)
        assert header == ["feature", "value", "phi", "standard_error"]
        tail = {r[0]: float(r[2]) for r in rows[-2:]}
        phi_sum = sum(float(r[2]) for r in rows[:-2])
        assert phi_sum == pytest.approx(
            tail["__model_output__"] - tail["__base_value__"], abs=1e-8)

    ranking = out / "shap_synthetic_logit.csv"
    with open(ranking, newline="") as fh:
        rdr = csv.reader(fh)
        assert next(rdr) == ["feature", "mean_abs_phi"]
        vals = [float(r[1]) for r in rdr]
    assert vals == sorted(vals, reverse=True)
    assert len(vals) == 14

    lime_path = out / "lime_synthetic_rf_0.csv"
    with open(lime_path, newline="") as fh:
        rdr = csv.reader(fh)
        assert next(rdr) == ["feature", "value", "weight"]
        rows = list(rdr)
    assert rows[-2][0] == "__intercept__"
    assert rows[-1][0] == "__fidelity_r2__"
    assert 0.0 <= float(rows[-1][2]) <= 1.0
    assert len(rows) == 5 + 2


def test_outlier_filter_that_empties_training_fails_at_preprocess(tmp_path, capsys):
    doc = _doc(tmp_path, dataset={"fixture": {"n": 20, "seed": 5}},
               preprocess={"iqr_factor": 0.0})
    assert main(["run", str(_write_cfg(tmp_path, doc))]) == 2
    assert "outlier filter" in capsys.readouterr().err
    man = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert (man["status"], man["stage"]) == ("failed", "preprocess")


def test_cli_non_utf8_csv_exits_2(tmp_path, capsys):
    path = tmp_path / "latin.csv"
    path.write_bytes("age,note\n54,caf\u00e9\n".encode("latin-1"))
    doc = _doc(tmp_path, dataset={"path": str(path)})
    assert main(["run", str(_write_cfg(tmp_path, doc))]) == 2
    assert f"heartlab: error: {path} is not UTF-8 text" in capsys.readouterr().err
    man = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert (man["status"], man["stage"]) == ("failed", "load")


def test_explain_row_out_of_range(tmp_path):
    doc = _doc(tmp_path, explain=[
        {"model": "logit", "method": "lime", "rows": [100000], "n_samples": 200}])
    with pytest.raises(ConfigError, match="out of range"):
        run_experiment(parse_config(doc))


def test_run_without_smote_has_single_track(tmp_path):
    doc = _doc(tmp_path)
    del doc["smote"]
    bundle = run_experiment(parse_config(doc))
    assert set(bundle.tracks) == {TRACK_REAL}
    _, rows = _read_metrics(doc["output_dir"])
    assert {r[0] for r in rows} == {"real"}


# -- cli ---------------------------------------------------------------------


def test_cli_run_and_report(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, _doc(tmp_path))
    assert main(["run", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "bundle written" in out
    assert "real/classification  #1" in out
    assert main(["report", str(tmp_path / "out")]) == 0
    rep = capsys.readouterr().out
    # report reproduces the same ranking lines from metrics.csv alone
    run_lines = [l for l in out.splitlines() if l.startswith(("real/", "synthetic/"))]
    assert rep.splitlines() == run_lines


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.json")]) == 2
    assert "heartlab: error" in capsys.readouterr().err
    assert main(["no-such-command"]) == 1
    assert main([]) == 1
    assert main(["run"]) == 1
    assert main(["run", "x.json", "--bogus-flag"]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == 2
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'\xff\xfe{"seed": 1}')
    capsys.readouterr()
    assert main(["run", str(latin)]) == 2
    assert f"heartlab: error: {latin} is not UTF-8 text" in capsys.readouterr().err
    assert main(["report", str(tmp_path / "never-ran")]) == 2


@pytest.mark.parametrize("text, message", [
    (b"track,task,model,accuracy\nreal,classification,rf,abc\n", "accuracy cell 'abc' is not"),
    (b"track,task,accuracy\nreal,classification,0.5\n", "has no 'model' column"),
    (b"track,task,model,accuracy\nreal,classification,rf,\xff\n", "is not UTF-8 text"),
    (b"track,task,model,accuracy\nreal,classification\n", "row 1 does not have one cell"),
], ids=["non-numeric-cell", "no-model-column", "not-utf8", "short-row"])
def test_cli_report_malformed_metrics_exits_2(tmp_path, capsys, text, message):
    (tmp_path / "metrics.csv").write_bytes(text)
    assert main(["report", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"heartlab: error: {tmp_path / 'metrics.csv'}")
    assert message in err


def test_cli_rejects_mistyped_hyperparam_before_fitting(tmp_path, capsys):
    doc = _doc(tmp_path)
    doc["models"][1]["hyperparams"] = {"max_depth": "deep"}
    assert main(["run", str(_write_cfg(tmp_path, doc))]) == 2
    err = capsys.readouterr().err
    assert "'max_depth'" in err and "'cart'" in err
    assert not (tmp_path / "out").exists()  # rejected while parsing the config


def test_cli_rejects_explain_row_before_fitting(tmp_path, capsys, monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("fit called before the explain rows were checked")

    monkeypatch.setattr(runner, "fit", no_fit)
    doc = _doc(tmp_path, explain=[{"model": "logit", "method": "lime", "rows": [999]}])
    assert main(["run", str(_write_cfg(tmp_path, doc))]) == 2
    assert "explain[0] row 999 out of range" in capsys.readouterr().err
    man = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert (man["status"], man["stage"]) == ("failed", "explain")


def test_cli_rejects_exact_shap_above_the_cap_before_fitting(tmp_path, capsys, monkeypatch):
    fitted = []
    monkeypatch.setattr(runner, "fit", lambda *args: fitted.append(args))
    doc = _doc(tmp_path, explain=[{"model": "logit", "mode": "exact"}])  # 14 features, cap 12
    assert main(["run", str(_write_cfg(tmp_path, doc))]) == 2
    assert "explain[0]: 14 features exceed the exact cap 12" in capsys.readouterr().err
    assert fitted == []
    man = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert (man["status"], man["stage"]) == ("failed", "explain")


@pytest.mark.parametrize("mutate, path", [
    (lambda d: d.update(seed="abc"), "seed"),
    (lambda d: d.update(models="cart"), "models"),
    (lambda d: d.update(dataset={"fixture": 5}), "dataset.fixture"),
    (lambda d: d["dataset"]["fixture"].update(n="many"), "dataset.fixture.n"),
    (lambda d: d["models"][0].update(hyperparams=[1]), "models[0].hyperparams"),
    (lambda d: d.update(explain=[{"model": "rf", "rows": ["first"]}]), "explain[0].rows"),
    (lambda d: d.update(explain=[{"model": "rf", "n_permutations": "many"}]),
     "explain[0].n_permutations"),
    (lambda d: d["models"][0].update(family=["cart"]), "model family"),
    (lambda d: d.update(explain=[{"model": ["rf"]}]), "explain[0]"),
])
def test_cli_mistyped_config_value_exits_2(tmp_path, capsys, mutate, path):
    _assert_refused_while_parsing(tmp_path, capsys, mutate, path)


def _assert_refused_while_parsing(tmp_path, capsys, mutate, *fragments):
    doc = _doc(tmp_path)
    mutate(doc)
    assert main(["run", str(_write_cfg(tmp_path, doc))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("heartlab: error: ")
    assert all(f in err for f in fragments), err
    assert not (tmp_path / "out").exists()  # rejected while parsing the config


@pytest.mark.parametrize("mutate, path", [
    (lambda d: d.update(seed=2.5), "seed"),
    (lambda d: d.update(explain=[{"model": "rf", "rows": [1.7]}]), "explain[0].rows"),
    (lambda d: d.update(explain=[{"model": "rf", "rows": "12"}]), "explain[0].rows"),
    (lambda d: d.update(split={"stratified": "false"}), "split.stratified"),
    (lambda d: d.update(preprocess={"scale": "no"}), "preprocess.scale"),
])
def test_cli_lossy_config_value_exits_2(tmp_path, capsys, mutate, path):
    _assert_refused_while_parsing(tmp_path, capsys, mutate, path)


def _set_model(i, family, task, **hyperparams):
    def mutate(d):
        d["models"][i] = {"name": family, "family": family, "task": task,
                          "hyperparams": hyperparams}
    return mutate


def _explain(**request):
    return lambda d: d.update(explain=[{"model": "logit", **request}])


@pytest.mark.parametrize("mutate, where, key", [
    (lambda d: d["models"][1]["hyperparams"].update(max_depth=0), "models[1]", "max_depth"),
    (lambda d: d["models"][0]["hyperparams"].update(n_trees=-1), "models[0]", "n_trees"),
    (_set_model(1, "gbt", "classification", learning_rate=0), "models[1]", "learning_rate"),
    (_set_model(2, "linear_svm", "classification", epochs=0), "models[2]", "epochs"),
    (lambda d: d.update(split={"train_fraction": 1.5}), "split", "train_fraction"),
    (lambda d: d["smote"].update(k=0), "smote", "k must be"),
    (lambda d: d.update(preprocess={"iqr_factor": -1}), "preprocess", "iqr_factor"),
    (_explain(method="lime", n_samples=50), "explain[0]", "n_samples"),
    (_explain(method="shap", background_size=0), "explain[0]", "background_size"),
    (_explain(method="shap", n_permutations=0), "explain[0]", "n_permutations"),
    (_explain(method="shap", mode="fast"), "explain[0]", "mode"),
    (_explain(method="lime", n_permutations=200), "explain[0]", "'n_permutations'"),
    (_set_model(2, "knn", "classification", k=0), "models[2]", "k must be >= 1"),
    (_set_model(2, "knn", "classification", weighting="cosine"), "models[2]", "weighting"),
    (lambda d: d["dataset"]["fixture"].update(n=3), "dataset.fixture", "n >= 4"),
    (lambda d: d.update(preprocess={"iqr_factor": float("nan")}), "preprocess.iqr_factor",
     "nan"),
    (lambda d: d["dataset"]["fixture"].update(noise_sigma=float("nan")),
     "dataset.fixture.noise_sigma", "nan"),
    (lambda d: d["dataset"]["fixture"].update(noise_sigma=float("inf")),
     "dataset.fixture.noise_sigma", "inf"),
    (_set_model(1, "gbt", "classification", lambda_leaf=float("nan")), "models[1]",
     "'lambda_leaf'"),
    (_set_model(1, "gbt", "classification", lambda_leaf=float("-inf")), "models[1]",
     "'lambda_leaf'"),
    (_set_model(1, "gbt", "classification", lambda_leaf=-5), "models[1]",
     "lambda_leaf must be finite and >= 0"),
    (lambda d: d["dataset"]["fixture"].update(noise_sigma=-1), "dataset.fixture",
     "noise_sigma must be finite and >= 0"),
    (_explain(method="lime", sigma=float("nan")), "explain[0].sigma", "nan"),
    (_explain(method="lime", sigma=float("inf")), "explain[0].sigma", "inf"),
    (_explain(method="lime", n_features=-1), "explain[0]", "n_features must be >= 1"),
    (_explain(method="lime", n_features=0), "explain[0]", "n_features must be >= 1"),
    (_explain(method="lime", ridge=-5), "explain[0]", "ridge must be finite and >= 0"),
    (_set_model(2, "ridge", "regression", lam=float("nan")), "models[2]", "'lam'"),
    (_set_model(2, "lasso", "regression", lam=float("inf")), "models[2]", "'lam'"),
    (_set_model(2, "linear_svm", "classification", lam_svm=float("-inf")), "models[2]",
     "'lam_svm'"),
    # JSON true where a number is expected
    (lambda d: d["models"][0]["hyperparams"].update(feature_subsample=True), "models[0]",
     "feature_subsample must be 'auto', 'all', or a positive count, got True"),
    (lambda d: d["models"][1]["hyperparams"].update(feature_subsample=True), "models[1]",
     "feature_subsample must be a positive count or 'all', got True"),
    (lambda d: d["models"][0]["hyperparams"].update(n_trees=True), "models[0]", "'n_trees'"),
    (lambda d: d.update(explain=[{"model": "rf", "rows": [True]}]), "explain[0].rows", "True"),
    (lambda d: d["smote"].update(k=True), "smote.k", "True"),
    (lambda d: d.update(seed=True), "seed must be int", "True"),
    (lambda d: d.update(preprocess={"iqr_factor": True}), "preprocess.iqr_factor", "True"),
    (_set_model(1, "gbt", "classification", n_rounds=True), "models[1]", "'n_rounds'"),
    (_set_model(1, "gbt", "classification", learning_rate=True), "models[1]",
     "'learning_rate'"),
    (_set_model(2, "knn", "classification", k=True), "models[2]", "'k'"),
    (_explain(method="shap", n_permutations=True), "explain[0].n_permutations", "True"),
    # seeds numpy's generators and the uint64 tree keys cannot take
    (lambda d: d["models"][0].update(seed=-1), "models[0]", "seed must be in [0, 2**64), got -1"),
    (lambda d: d["models"][1].update(seed=2 ** 64), "models[1]", "seed must be in [0, 2**64)"),
    (lambda d: d["models"][1].update(family="gbt", hyperparams={}, seed=2 ** 64), "models[1]",
     "seed must be in [0, 2**64)"),
    (lambda d: d["dataset"]["fixture"].update(seed=-1), "dataset.fixture", "seed must be in"),
    (lambda d: d["smote"].update(seed=-1), "smote", "seed must be in [0, 2**64), got -1"),
], ids=["cart-max_depth", "rf-n_trees", "gbt-learning_rate", "svm-epochs",
        "train_fraction", "smote-k", "iqr_factor", "lime-n_samples", "shap-background_size",
        "shap-n_permutations", "shap-mode", "lime-shap-option", "knn-k", "knn-weighting",
        "fixture-n", "iqr_factor-nan", "noise_sigma-nan", "noise_sigma-inf",
        "lambda_leaf-nan", "lambda_leaf--inf", "lambda_leaf-negative", "noise_sigma-negative",
        "lime-sigma-nan", "lime-sigma-inf", "lime-n_features-negative", "lime-n_features-0",
        "lime-ridge-negative",
        "ridge-lam-nan", "lasso-lam-inf", "svm-lam_svm--inf",
        "rf-feature_subsample-true", "cart-feature_subsample-true", "rf-n_trees-true",
        "explain-rows-true", "smote-k-true", "seed-true", "iqr_factor-true",
        "gbt-n_rounds-true", "gbt-learning_rate-true", "knn-k-true",
        "shap-n_permutations-true", "rf-seed-negative", "cart-seed-2**64", "gbt-seed-2**64",
        "fixture-seed-negative", "smote-seed-negative"])
def test_cli_out_of_range_config_value_exits_2(tmp_path, capsys, mutate, where, key):
    _assert_refused_while_parsing(tmp_path, capsys, mutate, where, key)


@pytest.mark.parametrize("model, hyperparams, key", [
    (0, {"bootstrap": "false"}, "'bootstrap' for family 'random_forest'"),
    (1, {"max_depth": 2.7}, "'max_depth' for family 'cart'"),
])
def test_cli_lossy_hyperparameter_exits_2(tmp_path, capsys, model, hyperparams, key):
    doc = _doc(tmp_path)
    doc["models"][model]["hyperparams"] = hyperparams
    assert main(["run", str(_write_cfg(tmp_path, doc))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("heartlab: error: ") and key in err
    assert not (tmp_path / "out").exists()  # rejected while parsing the config


def test_lossless_hyperparameters_still_convert(tmp_path):
    doc = _doc(tmp_path)
    doc["models"][0]["hyperparams"] = {"n_trees": "3", "max_depth": 2.0, "bootstrap": 0}
    cfg = parse_config(doc).models[0][1].config
    assert (cfg.n_trees, cfg.cart.max_depth, cfg.bootstrap) == (3, 2, False)
    assert type(cfg.cart.max_depth) is int and type(cfg.bootstrap) is bool


def test_lossless_config_values_still_convert(tmp_path):
    cfg = parse_config(_doc(tmp_path, seed="3", split={"stratified": 0, "train_fraction": "0.75"},
                            preprocess={"scale": False, "iqr_columns": ("age",)},
                            explain=[{"model": "rf", "rows": ["2", 4.0]}]))
    assert cfg.seed == 3 and cfg.split.stratified is False and cfg.split.train_fraction == 0.75
    assert cfg.preprocess.scale is False and cfg.preprocess.iqr_columns == ["age"]
    assert cfg.explain[0].rows == (2, 4)


def test_evaluate_searches_knn_neighbors_once(tmp_path, monkeypatch):
    from heartlab import neighbors

    calls = []
    search = neighbors.knn_search

    def counting(train, queries, k):
        calls.append(queries.shape[0])
        return search(train, queries, k)

    monkeypatch.setattr(neighbors, "knn_search", counting)
    doc = _doc(tmp_path, models=[
        {"name": "knn", "family": "knn", "task": "classification"},
        {"name": "knn_r", "family": "knn", "task": "regression", "hyperparams": {"k": 3}},
    ])
    bundle = run_experiment(parse_config(doc))
    assert sorted(bundle.tracks) == [TRACK_REAL, TRACK_SYNTHETIC]
    assert len(bundle.results) == 4
    # one search per kNN model per track, each over that track's test rows
    assert sorted(calls) == sorted(bundle.tracks[t].test.n_rows for t, _ in bundle.results)


def test_cli_seed_override(tmp_path):
    cfg_path = _write_cfg(tmp_path, _doc(tmp_path))
    assert main(["run", str(cfg_path), "--seed", "321"]) == 0
    man = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert man["seeds"]["master"] == 321


def test_cli_fixture_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["fixture", str(a), "--n", "50", "--seed", "9"]) == 0
    assert main(["fixture", str(b), "--n", "50", "--seed", "9"]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert "wrote 50 rows" in capsys.readouterr().out
    assert main(["fixture", str(tmp_path / "c.csv"), "--n", "50"]) == 1  # --seed required


def test_cli_fixture_negative_noise_exits_2(tmp_path, capsys):
    out = tmp_path / "neg.csv"
    assert main(["fixture", str(out), "--n", "50", "--seed", "9", "--noise", "-1"]) == 2
    assert "noise_sigma must be finite and >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_cli_fixture_negative_seed_exits_2(tmp_path, capsys):
    out = tmp_path / "neg.csv"
    assert main(["fixture", str(out), "--n", "50", "--seed", "-1"]) == 2
    assert "seed must be in [0, 2**64), got -1" in capsys.readouterr().err
    assert not out.exists()


def test_cli_knn_k_above_the_training_rows_fails_before_any_fit(tmp_path, capsys, monkeypatch):
    fitted = []
    monkeypatch.setattr(runner, "fit", lambda *args: fitted.append(args))
    doc = _doc(tmp_path)
    doc["models"] = [doc["models"][0], {"name": "near", "family": "knn",
                                        "task": "classification", "hyperparams": {"k": 100000}}]
    assert main(["run", str(_write_cfg(tmp_path, doc))]) == 2
    err = capsys.readouterr().err
    assert "model 'near': k must be in 1.." in err and "the real training partition" in err
    assert fitted == []
    man = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert (man["status"], man["stage"], man["model"]) == ("failed", "fit", f"{TRACK_REAL}:near")


def test_cli_explain_saved_model(tmp_path, capsys):
    run_doc = _doc(tmp_path)
    cfg_path = _write_cfg(tmp_path, run_doc)
    assert main(["run", str(cfg_path), "--save-models"]) == 0
    model_file = tmp_path / "out" / "model_synthetic_logit.json"
    assert model_file.exists()

    exp_doc = _doc(tmp_path, output_dir=str(tmp_path / "exp"), explain=[
        {"model": "logit", "method": "lime", "rows": [0, 2], "n_samples": 300}])
    exp_path = _write_cfg(tmp_path, exp_doc, name="explain.json")
    capsys.readouterr()
    assert main(["explain", str(model_file), str(exp_path)]) == 0
    assert "explanations written" in capsys.readouterr().out
    for row in (0, 2):
        assert (tmp_path / "exp" / f"lime_synthetic_model_synthetic_logit_{row}.csv").exists()


def test_cli_explain_requires_requests(tmp_path, capsys):
    run_doc = _doc(tmp_path)
    cfg_path = _write_cfg(tmp_path, run_doc)
    assert main(["run", str(cfg_path), "--save-models"]) == 0
    model_file = tmp_path / "out" / "model_real_cart.json"
    assert main(["explain", str(model_file), str(cfg_path)]) == 2
    latin = tmp_path / "latin.json"
    latin.write_bytes(b"\xff\xfe{}")
    capsys.readouterr()
    assert main(["explain", str(model_file), str(latin)]) == 2
    assert f"heartlab: error: {latin} is not UTF-8 text" in capsys.readouterr().err
