"""Declarative experiment runner: one JSON config in, one report bundle
directory out.

Pipeline per run: load (or synthesize) the dataset, split, fit the
preprocessor on the training partition, transform both partitions, then
evaluate every configured model on the real track and, when SMOTE is
configured, on a synthetic track. The default synthetic track mirrors
the reproduced study: it oversamples the pooled train+test data and
re-splits, which leaks synthetic neighbors across the boundary; the
leak_free flag instead restricts SMOTE to training rows. The leaky
variant always carries a printed and recorded caveat.

Every random draw is derived from the master seed via labeled SHA-256
streams, models are fitted one after another in config order with
per-model seeds, and report files render floats with repr, so identical
configs produce byte-identical bundles.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import typing
from concurrent.futures import ThreadPoolExecutor  # unused; perfbench/tracer.py patches it
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import groupby
from pathlib import Path

import numpy as np

from . import __version__
from ._kernels import backend_name
from .data import (
    Dataset,
    FixtureSpec,
    SCHEMAS,
    SplitSpec,
    check_seed,
    load_csv,
    make_fixture,
    train_test_split,
)
from .errors import ConfigError, HeartlabError, MetricError
from .explain import (
    LimeConfig,
    ShapConfig,
    lime_explain,
    sample_background,
    shap_mode,
    shap_values,
)
from .metrics import (
    CLASSIFICATION_FIELDS,
    REGRESSION_FIELDS,
    EvaluationPairs,
    classification_metrics,
    confusion_matrix,
    regression_metrics,
    residuals,
    roc_curve,
)
from .models import EstimatorSpec, TrainedModel, fit, lossless, predict, predict_scored
from .models import predict_proba  # unused; perfbench/tracer.py wraps it
from .preprocess import PreprocessConfig, fit_preprocessor, transform, transform_filtered
from .smote import MODE_AUGMENT, SmoteConfig, smote
from .trees import TASK_CLASSIFICATION

METRIC_FIELDS = CLASSIFICATION_FIELDS + ("auc",) + REGRESSION_FIELDS

TRACK_REAL = "real"
TRACK_SYNTHETIC = "synthetic"


def derive_seed(master: int, label: str) -> int:
    """Stable 63-bit stream seed for a named purpose under one master seed."""
    digest = hashlib.sha256(f"{master}\x1f{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


@dataclass(frozen=True)
class ExplainRequest:
    model: str
    method: str                  # shap | lime
    config: ShapConfig | LimeConfig
    rows: tuple = (0,)
    track: str | None = None     # default: synthetic when smote is on
    options: dict = field(default_factory=dict)  # as given, for the effective config


@dataclass(frozen=True)
class _Fixture(FixtureSpec):
    """The dataset.fixture section: a FixtureSpec and make_fixture's other arguments."""
    n: int = 2000
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        check_seed(self.seed)
        if self.n < 4:
            raise ConfigError(f"fixture needs n >= 4, got {self.n}")


@dataclass(frozen=True)
class RunConfig:
    dataset: dict                # {"path","schema"} or {"fixture": {...}}
    models: tuple                # (name, EstimatorSpec) pairs
    output_dir: str
    seed: int = 0
    split: SplitSpec = SplitSpec()
    preprocess: PreprocessConfig = PreprocessConfig()
    smote: SmoteConfig | None = None
    metrics: tuple = METRIC_FIELDS
    explain: tuple = ()


def _want(d: dict, allowed: set, where: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown key {sorted(unknown)[0]!r} in {where}")


def _conv(hint, value, path: str):
    """value as type hint without loss (X | None lets null through), or a ConfigError."""
    kinds = typing.get_args(hint) or (hint,)
    if value is None and type(None) in kinds:
        return None
    try:
        return lossless(kinds[0], value)
    except ValueError:
        name = " or ".join({type(None): "null", float: "finite float"}.get(k, k.__name__)
                           for k in kinds)
        raise ConfigError(f"{path} must be {name}, got {value!r}") from None


def _section(d, where: str, cls, **own):
    """cls from config object d, keyed, typed and defaulted by cls's fields;
    a seed is a key only if own (key -> the runner's default) names it. A
    bad key, type or value raises a ConfigError naming the key path."""
    d = _conv(dict, d, where)
    hints = typing.get_type_hints(cls)
    keys = {f.name: f.default for f in fields(cls) if f.name != "seed"} | own
    _want(d, set(keys), where)
    values = {k: _conv(hints[k], d.get(k, default), f"{where}.{k}")
              for k, default in keys.items()}
    try:
        return cls(**values)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def parse_config(doc: dict, seed_override: int | None = None) -> RunConfig:
    """Validate a JSON config document and materialize every default."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    _want(doc, {"dataset", "models", "output_dir", "seed", "split", "preprocess",
                "smote", "metrics", "explain"}, "config")
    master = _conv(int, doc.get("seed", 0) if seed_override is None else seed_override,
                   "seed")

    ds = doc.get("dataset")
    if not isinstance(ds, dict) or len({"path", "fixture"} & set(ds)) != 1:
        raise ConfigError("dataset section needs a 'path' or a 'fixture', not both")
    _want(ds, {"path", "schema"} if "path" in ds else {"fixture"}, "dataset")
    if "path" in ds:
        schema = _conv(str, ds.get("schema", "heart16"), "dataset.schema")
        if schema not in SCHEMAS:
            raise ConfigError(f"unknown schema {schema!r}")
        dataset = {"path": _conv(str, ds["path"], "dataset.path"), "schema": schema}
    else:
        dataset = {"fixture": asdict(_section(ds["fixture"], "dataset.fixture", _Fixture,
                                              seed=derive_seed(master, "fixture")))}

    split = replace(_section(doc.get("split", {}), "split", SplitSpec),
                    seed=derive_seed(master, "split"))
    preprocess = _section(doc.get("preprocess", {}), "preprocess", PreprocessConfig)
    smote_cfg = None if doc.get("smote") is None else _section(
        doc["smote"], "smote", SmoteConfig, seed=derive_seed(master, "smote"))

    raw_models = doc.get("models")
    if not raw_models or not isinstance(raw_models, list):
        raise ConfigError(f"models must be a list of at least one model, got {raw_models!r}")
    models, csvs = [], []  # csvs: (model index, a CSV _evaluate or _run_explain writes for it)
    seen = {}  # model name -> its index
    tracks = (TRACK_REAL,) if smote_cfg is None else (TRACK_REAL, TRACK_SYNTHETIC)
    for i, m in enumerate(raw_models):
        m = _conv(dict, m, f"models[{i}]")
        _want(m, {"name", "family", "task", "hyperparams", "seed"}, f"models[{i}]")
        if "family" not in m or "task" not in m:
            raise ConfigError(f"models[{i}] needs 'family' and 'task'")
        family = _conv(str, m["family"], f"models[{i}].family")
        name = _conv(str, m.get("name", family), f"models[{i}].name")
        if name in seen:
            raise ConfigError(f"duplicate model name {name!r}; give explicit names")
        if not name or {"/", "\\", "\0"} & set(name):
            raise ConfigError(f"models[{i}].name {name!r} is empty or holds '/', '\\' or NUL")
        seen[name] = i
        hyperparams = _conv(dict, m.get("hyperparams", {}), f"models[{i}].hyperparams")
        seed = (_conv(int, m["seed"], f"models[{i}].seed") if "seed" in m
                else derive_seed(master, f"model:{name}"))
        try:
            spec = EstimatorSpec(family=family, task=m["task"],
                                 hyperparams=hyperparams, seed=seed)
        except HeartlabError as exc:
            raise type(exc)(f"models[{i}]: {exc}") from None
        models.append((name, spec))
        csvs += [(i, f"{kind}_{t}_{name}.csv") for t in tracks for kind in
                 (("confusion", "roc") if spec.task == TASK_CLASSIFICATION else ("residuals",))]

    metric_sel = tuple(_conv(list, doc.get("metrics", METRIC_FIELDS), "metrics"))
    bad = [x for x in metric_sel if x not in METRIC_FIELDS]
    if bad:
        raise ConfigError(f"unknown metric {bad[0]!r}")
    twice = [x for x in METRIC_FIELDS if metric_sel.count(x) > 1]
    if twice:
        raise ConfigError(f"metrics lists {twice[0]!r} twice")

    ex_reqs = []
    asked = {}  # (track, model, method) -> the explain index that asked first
    for i, e in enumerate(_conv(list, doc.get("explain") or [], "explain")):
        e = _conv(dict, e, f"explain[{i}]")
        model = _conv(str, e.get("model"), f"explain[{i}].model")
        if model not in seen:
            raise ConfigError(f"explain[{i}] references unknown model {model!r}")
        method = e.get("method", "shap")
        if method not in ("shap", "lime"):
            raise ConfigError(f"explain[{i}] method must be shap or lime")
        track = e.get("track")
        if track is not None and track not in (TRACK_REAL, TRACK_SYNTHETIC):
            raise ConfigError(f"explain[{i}] track must be real or synthetic")
        rows = tuple(_conv(int, r, f"explain[{i}].rows")
                     for r in _conv(list, e.get("rows", [0]), f"explain[{i}].rows"))
        if not rows:
            raise ConfigError(f"explain[{i}].rows must name at least one row")
        if len(set(rows)) < len(rows):  # each row writes one file
            raise ConfigError(f"explain[{i}].rows repeats row {max(rows, key=rows.count)}")
        key = (track or _default_track(smote_cfg), model, method)
        if key in asked:
            raise ConfigError(f"explain[{asked[key]}] and explain[{i}] both ask for {method} "
                              f"on {model!r} on the {key[0]} track; merge their rows")
        asked[key] = i
        csvs += [(seen[model], f"{method}_{key[0]}_{model}{s}.csv")
                 for s in [""] * (method == "shap") + [f"_{r}" for r in rows]]
        opts = {k: v for k, v in e.items() if k not in ("model", "method", "rows", "track")}
        config = replace(_section(opts, f"explain[{i}]", ShapConfig if method == "shap"
                                  else LimeConfig), seed=derive_seed(master, f"{method}:{model}"))
        ex_reqs.append(ExplainRequest(model=model, method=method, config=config, rows=rows,
                                      track=track, options=opts))
        if track == TRACK_SYNTHETIC and smote_cfg is None:
            raise ConfigError(f"explain[{i}] asks for the synthetic track but smote is off")

    writer = {}  # CSV file -> the index of the first model that writes it
    for i, csv_name in csvs:
        if writer.setdefault(csv_name, i) != i:
            raise ConfigError(f"models[{i}].name {models[i][0]!r} writes {csv_name}, as "
                              f"models[{writer[csv_name]}] does; rename one of them")

    out = _conv(str, doc.get("output_dir", ""), "output_dir")
    if not out:
        raise ConfigError("config needs an output_dir")

    return RunConfig(dataset=dataset, models=tuple(models), output_dir=out,
                     seed=master, split=split, preprocess=preprocess, smote=smote_cfg,
                     metrics=metric_sel, explain=tuple(ex_reqs))


@dataclass
class ModelResult:
    name: str
    spec: EstimatorSpec
    model: TrainedModel
    metrics: dict
    tables: dict                 # see _write_tables
    notes: tuple = ()


@dataclass
class TrackData:
    train: Dataset
    test: Dataset
    info: dict


@dataclass
class ReportBundle:
    config: RunConfig
    tracks: dict                  # name -> TrackData
    results: dict                 # (track, model name) -> ModelResult
    manifest: dict
    explanations: dict = field(default_factory=dict)  # (track, model, method) -> tables


def _effective_config_dict(cfg: RunConfig) -> dict:
    return {
        "seed": cfg.seed,
        "output_dir": cfg.output_dir,
        "dataset": cfg.dataset,
        "split": asdict(cfg.split),
        "preprocess": asdict(cfg.preprocess),
        "smote": None if cfg.smote is None else asdict(cfg.smote),
        "models": [{"name": name, **asdict(spec)} for name, spec in cfg.models],
        "metrics": list(cfg.metrics),
        "explain": [{"model": e.model, "method": e.method, "rows": list(e.rows),
                     "track": e.track, **e.options} for e in cfg.explain],
    }


def _load_stage(cfg: RunConfig) -> Dataset:
    if "path" in cfg.dataset:
        return load_csv(cfg.dataset["path"], SCHEMAS[cfg.dataset["schema"]])
    fx = _Fixture(**cfg.dataset["fixture"])
    return make_fixture(fx.n, fx, seed=fx.seed)


def _evaluate(name: str, spec: EstimatorSpec, model: TrainedModel,
              test: Dataset) -> ModelResult:
    notes = []
    values = {k: None for k in METRIC_FIELDS}
    tables = {}
    if spec.task == TASK_CLASSIFICATION:
        pred, scores = predict_scored(model, test)
        cm = confusion_matrix(test.labels, pred, positive_class=1)
        values.update(classification_metrics(cm))
        tables["confusion", ""] = (["tp", "fp", "tn", "fn"], [[cm.tp, cm.fp, cm.tn, cm.fn]])
        try:
            roc = roc_curve(test.labels, scores, positive_class=1)
            values["auc"] = roc.auc
            tables["roc", ""] = (["threshold", "fpr", "tpr"],
                                 np.column_stack([roc.thresholds, roc.fpr, roc.tpr]))
        except MetricError as exc:
            notes.append(f"roc skipped: {exc}")
    else:
        pairs = EvaluationPairs(y=test.targets, y_hat=predict(model, test))
        values.update(regression_metrics(pairs))
        res = residuals(pairs)
        tables["residuals", ""] = (["predicted", "residual"],
                                   np.column_stack([res.predicted, res.residual]))
    inner = model.params
    if getattr(inner, "rank_deficient", False):
        notes.append("rank-deficient design; minimum-norm solution")
    if getattr(inner, "converged", True) is False:
        notes.append("did not converge within the iteration budget")
    return ModelResult(name=name, spec=spec, model=model, metrics=values,
                       tables=tables, notes=tuple(notes))


def prepare_tracks(cfg: RunConfig, stage_box: list | None = None):
    """Run the data stages (load, split, preprocess, smote) shared by the
    run and explain entry points. stage_box, when given, is a one-element
    list updated with the current stage name for failure reporting."""
    box = stage_box if stage_box is not None else [None]

    box[0] = "load"
    full = _load_stage(cfg)
    counts = {"rows_loaded": full.n_rows, "class_counts": full.class_counts()}

    box[0] = "split"
    split = cfg.split
    if full.labels is None and split.stratified:
        split = replace(split, stratified=False)
    train, test = train_test_split(full, split)
    counts["train_rows"] = train.n_rows
    counts["test_rows"] = test.n_rows

    box[0] = "preprocess"
    state = fit_preprocessor(train, cfg.preprocess)
    train_real = transform_filtered(state, train)
    test_real = transform(state, test)
    counts["train_rows_after_outlier_filter"] = train_real.n_rows
    caveats = []
    if state.constant_columns:
        caveats.append("constant columns excluded from scaling: "
                       + ", ".join(state.constant_columns))

    tracks = {TRACK_REAL: TrackData(train=train_real, test=test_real, info={
        "train_rows": train_real.n_rows, "test_rows": test_real.n_rows,
        "train_class_counts": train_real.class_counts(),
        "test_class_counts": test_real.class_counts(),
    })}

    if cfg.smote is not None:
        box[0] = "smote"
        if cfg.smote.leak_free:
            grown = smote(train_real, cfg.smote)
            train_syn, test_syn = grown, test_real
            pool_rows = train_real.n_rows
        else:
            pool = _concat(train_real, test_real)
            pool_rows = pool.n_rows
            grown = smote(pool, cfg.smote)
            resplit = replace(cfg.split, stratified=True, seed=derive_seed(cfg.seed, "resplit"))
            train_syn, test_syn = train_test_split(grown, resplit)
            caveats.append(
                "synthetic track oversamples the pooled train+test data before "
                "re-splitting, so synthetic test rows interpolate training "
                "neighbors; set smote.leak_free=true for a leak-free protocol")
        tracks[TRACK_SYNTHETIC] = TrackData(train=train_syn, test=test_syn, info={
            "pool_rows": pool_rows,
            "rows_added": grown.n_rows - pool_rows,
            "total_rows": grown.n_rows,
            "train_rows": train_syn.n_rows, "test_rows": test_syn.n_rows,
            "train_class_counts": train_syn.class_counts(),
            "test_class_counts": test_syn.class_counts(),
        })
    return tracks, counts, caveats


def run_experiment(cfg: RunConfig) -> ReportBundle:
    """Execute the full pipeline and write the bundle to cfg.output_dir."""
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stage_box = ["load"]
    manifest: dict = {
        "status": "running",
        "version": __version__,
        "kernel_backend": backend_name(),
        "effective_config": _effective_config_dict(cfg),
    }

    def fail(exc: Exception):
        manifest["status"] = "failed"
        manifest["stage"] = stage_box[0]
        if hasattr(exc, "heartlab_model"):
            manifest["model"] = exc.heartlab_model
        manifest["error"] = str(exc)
        (out_dir / "manifest.json").write_text(
            json.dumps(manifest, sort_keys=True, indent=2) + "\n")
        return exc

    try:
        tracks, counts, caveats = prepare_tracks(cfg, stage_box)
        stage_box[0] = "explain"
        requests = _explain_tracks(cfg, tracks)

        stage_box[0] = "fit"
        for track_name, td in tracks.items():  # checked before any fit
            for name, spec in cfg.models:
                if spec.family == "knn" and spec.config.k > td.train.n_rows:
                    exc = ConfigError(f"k must be in 1..{td.train.n_rows} for the {track_name} "
                                      f"training partition, got {spec.config.k}")
                    exc.heartlab_model = f"{track_name}:{name}"  # as a failed fit is tagged
                    raise exc
        results = {}
        for track_name, td in tracks.items():
            for name, spec in cfg.models:
                try:
                    results[(track_name, name)] = _evaluate(
                        name, spec, fit(spec, td.train), td.test)
                except Exception as exc:  # re-raised as is, tagged for the failed manifest
                    exc.heartlab_model = f"{track_name}:{name}"
                    raise

        stage_box[0] = "explain"
        explanations = {(t, req.model, req.method): _run_explain(
            cfg, req, results[(t, req.model)].model, tracks[t]) for req, t in requests}

        stage_box[0] = "write"
        manifest["status"] = "ok"
        manifest["dataset_counts"] = counts
        manifest["tracks"] = {k: v.info for k, v in tracks.items()}
        manifest["caveats"] = caveats
        manifest["conventions"] = _conventions()
        manifest["model_notes"] = {
            f"{t}:{n}": list(r.notes) for (t, n), r in sorted(results.items()) if r.notes}
        manifest["seeds"] = {"master": cfg.seed, "split": cfg.split.seed,
                             "resplit": derive_seed(cfg.seed, "resplit")}
        bundle = ReportBundle(config=cfg, tracks=tracks, results=results, manifest=manifest,
                              explanations=explanations)
        _write_bundle(bundle, out_dir)
        for c in caveats:
            print(f"caveat: {c}")
        return bundle
    except Exception as exc:
        raise fail(exc)


def _concat(a: Dataset, b: Dataset) -> Dataset:
    def joined(x, y):
        return None if x is None or y is None else np.concatenate([x, y])
    return a.with_rows(np.vstack([a.rows, b.rows]), labels=joined(a.labels, b.labels),
                       targets=joined(a.targets, b.targets))


def _conventions() -> list:
    return [
        "quantiles: linear interpolation between order statistics",
        "scaling: z-score with population (divide-by-n) standard deviation",
        "outlier filter: applied to training rows only, bounds from training data",
        "pipeline order: encode, impute, outlier filter, scale",
        "positive class: code 1",
        "undefined metrics: reported as empty cells, never as 0",
        "smote: lambda drawn per synthetic row; neighbor ties to the lower row index",
        "trees: x[feature] <= threshold routes left; midpoint split candidates",
        "explanations: computed in the scaled feature space",
    ]


def _default_track(smote_cfg: SmoteConfig | None) -> str:
    """The track an explain request without one reads."""
    return TRACK_REAL if smote_cfg is None else TRACK_SYNTHETIC


def _explain_tracks(cfg: RunConfig, tracks: dict) -> list:
    """(request, track name) for each explain request, its rows and SHAP
    mode checked against that track's test partition, so a bad request
    fails before any fit."""
    out = []
    for i, req in enumerate(cfg.explain):
        track_name = req.track or _default_track(cfg.smote)
        n, m = tracks[track_name].test.rows.shape
        for row in req.rows:
            if not 0 <= row < n:
                raise ConfigError(f"explain[{i}] row {row} out of range for the "
                                  f"{track_name} test partition ({n} rows)")
        if req.method == "shap":
            try:
                shap_mode(req.config.mode, m, req.config.exact_feature_cap)
            except ConfigError as exc:
                raise ConfigError(f"explain[{i}]: {exc}") from None
        out.append((req, track_name))
    return out


def _run_explain(cfg: RunConfig, req: ExplainRequest, model: TrainedModel,
                 td: TrackData) -> dict:
    """The request's tables (see _write_tables): one per row, plus for SHAP
    the mean-|phi| ranking, summed over the rows in ascending order."""
    names = td.test.feature_names()
    tables = {}
    if req.method == "shap":
        background = sample_background(td.train.rows, req.config.background_size,
                                       seed=derive_seed(cfg.seed, f"shap-bg:{req.model}"))
        acc = np.zeros(len(names))
        for row in sorted(req.rows):
            att = shap_values(model, td.test.rows[row], background, req.config)
            acc += np.abs(att.phi)
            header = ["feature", "value", "phi"]
            cols = [names, td.test.rows[row], att.phi]
            if att.standard_errors is not None:
                header.append("standard_error")
                cols.append(att.standard_errors)
            tables["shap", f"_{row}"] = (header, [*map(list, zip(*cols)),
                                                  ["__base_value__", "", att.base_value],
                                                  ["__model_output__", "", att.fx]])
        acc /= len(req.rows)
        tables["shap", ""] = (["feature", "mean_abs_phi"],
                              [[names[j], acc[j]] for j in np.argsort(-acc, kind="stable")])
    else:
        for row in req.rows:
            le = lime_explain(model, td.test.rows[row], req.config)
            tables["lime", f"_{row}"] = (["feature", "value", "weight"], [
                *([names[j], td.test.rows[row][j], c]
                  for j, c in zip(le.feature_indices, le.coefficients)),
                ["__intercept__", "", le.intercept], ["__fidelity_r2__", "", le.fidelity_r2]])
    return tables


# ---------------------------------------------------------------------------
# Report writing. All floats render with repr for exact round-trips; files
# are written in a fixed order with \n newlines for byte-identity.
# ---------------------------------------------------------------------------


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v)).lower()
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _write_tables(out_dir: Path, tag: str, tables: dict) -> None:
    """Write each (kind, suffix) -> (header, rows) table as
    <kind><tag><suffix>.csv; rows are lists of cells or a 2-D float array."""
    for (kind, suffix), (header, rows) in tables.items():
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) if not isinstance(v, str) else v for v in row])
        (out_dir / f"{kind}{tag}{suffix}.csv").write_text(buf.getvalue())


def _write_bundle(bundle: ReportBundle, out_dir: Path) -> None:
    cfg = bundle.config
    header = ["track", "model", "family", "task"] + list(cfg.metrics)
    rows = []
    for track_name in sorted(bundle.tracks):
        for name, spec in cfg.models:
            r = bundle.results[(track_name, name)]
            rows.append([track_name, name, spec.family, spec.task]
                        + [r.metrics[k] for k in cfg.metrics])
    _write_tables(out_dir, "", {("metrics", ""): (header, rows)})
    for (track_name, name), r in sorted(bundle.results.items()):
        _write_tables(out_dir, f"_{track_name}_{name}", r.tables)
    for (track_name, name, _), tables in sorted(bundle.explanations.items()):
        _write_tables(out_dir, f"_{track_name}_{name}", tables)

    (out_dir / "manifest.json").write_text(
        json.dumps(bundle.manifest, sort_keys=True, indent=2) + "\n")


def compare_models(bundle: ReportBundle) -> list:
    """Ranked rows per (track, task): classification by accuracy then MCC,
    regression by R2 then mean squared error; names break ties."""
    return _rank((track_name, r.spec.task, name, r.metrics)
                 for (track_name, name), r in bundle.results.items())


def _ranking(task: str) -> tuple:
    """(metric, sign) pairs that order one task's models, best first: the
    sort key is sign * value, and a missing value sorts last."""
    if task == TASK_CLASSIFICATION:
        return (("accuracy", -1.0), ("mcc", -1.0))
    return (("r2", -1.0), ("mse", 1.0))


def _rank(rows) -> list:
    """Rank (track, task, model name, metrics) rows within each (track, task)
    group, groups in sorted order, as compare_models describes. The CLI's
    report ranks metrics.csv rows with it too."""
    def order(row):
        track_name, task, name, metrics = row
        return (track_name, task,
                *(float("inf") if metrics.get(k) is None else sign * metrics[k]
                  for k, sign in _ranking(task)),
                name)

    table = []
    for (track_name, task), group in groupby(sorted(rows, key=order), key=lambda r: r[:2]):
        for rank, (_, _, name, metrics) in enumerate(group, start=1):
            table.append({"track": track_name, "task": task, "rank": rank, "model": name,
                          **{k: metrics.get(k) for k, _ in _ranking(task)}})
    return table
