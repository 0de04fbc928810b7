"""Uniform estimator layer over all eleven families: one registry record
per family (supported tasks, typed hyperparameter defaults, fit,
persistence), named specs, and versioned JSON persistence.

A TrainedModel carries a fingerprint of the training columns; predict
refuses datasets whose feature columns differ. Every parameter type has
the same two output methods: predict(X) gives the regression value and
scored(X) a classifier's labels and positive-class probability from one
pass (one route per tree, one gbt raw score, one linear margin, one
posterior, one neighbor search). predict, predict_proba, predict_scored
and scalar_output call them and refuse a non-finite output. The SVM maps
its margin through a fixed logistic link, monotone but uncalibrated.

Parameters are saved field by field and read back by annotation: scalars
through lossless, arrays numeric and finite. Then the parameters' own
check(n_cols, task, config) refuses what contradicts the fingerprint, the
task or the hyperparameters the spec resolves to.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import typing
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Callable

import numpy as np

from .data import Dataset, check_seed
from .ensembles import (
    Forest,
    ForestConfig,
    GbtConfig,
    GbtModel,
    LOSS_OF_TASK,
    fit_gbt,
    fit_random_forest,
)
from .errors import ContractError, FitError, HeartlabError, ModelLoadError, ModelSpecError
from .linear import (
    LinearModel,
    PenaltyConfig,
    fit_lasso,
    fit_linear_svm,
    fit_linear_svr,
    fit_logistic,
    fit_ols,
    fit_ridge,
)
from .neighbors import (
    GaussianNbModel,
    KnnConfig,
    KnnModel,
    fit_gnb,
    fit_knn,
)
from .trees import (
    CartConfig,
    FlatTree,
    TASK_CLASSIFICATION,
    TASK_REGRESSION,
    fit_cart_matrix,
)

FORMAT_TAG = "heartlab-model"
FORMAT_VERSION = 1


@dataclass(frozen=True)
class Family:
    """Everything the estimator layer knows about one model family.

    fit(spec, X, y, config) gets the rows, the task's labels or targets and
    config(spec, hp): a config dataclass or hp, defaults filled in.
    Fitted parameters are saved field by field, under payload_key if set.
    """

    tasks: tuple
    defaults: dict               # hyperparameter -> default; its type is the key's type
    fit: Callable
    params_type: type
    config: Callable = lambda spec, hp: hp
    payload_key: str | None = None


def _defaults(owner, *names, **own) -> dict:
    """Defaults of the named hyperparameters, read from the signature of the
    config class or fit function that owns them; `own` are set here."""
    params = inspect.signature(owner).parameters
    return {**{k: params[k].default for k in names}, **own}


_BOTH = (TASK_CLASSIFICATION, TASK_REGRESSION)
_CLS = (TASK_CLASSIFICATION,)
_REG = (TASK_REGRESSION,)
_TREE_KEYS = ("max_depth", "min_samples_split", "min_samples_leaf")


def _forest_config(spec, hp):
    cart = CartConfig(seed=spec.seed, **{k: hp[k] for k in _TREE_KEYS})
    return ForestConfig(n_trees=hp["n_trees"], cart=cart, bootstrap=hp["bootstrap"],
                        feature_subsample=hp["feature_subsample"], seed=spec.seed)


def _gbt_config(spec, hp):
    return GbtConfig(loss=LOSS_OF_TASK[spec.task], seed=spec.seed, **hp)


def _penalty_config(spec, hp):
    return PenaltyConfig(seed=spec.seed, **hp)


# The fit lambdas name the fit routines so that they are looked up in this
# module at call time, not bound when the table is built: a wrapper set on
# the module attribute (perfbench/tracer.py does this) then sees every fit.
FAMILIES = {
    "cart": Family(
        _BOTH, _defaults(CartConfig, *_TREE_KEYS, "feature_subsample"),
        lambda spec, X, y, cfg: fit_cart_matrix(X, y, cfg, spec.task),
        FlatTree, config=lambda spec, hp: CartConfig(seed=spec.seed, **hp), payload_key="tree"),
    "random_forest": Family(
        _BOTH, {**_defaults(ForestConfig, "n_trees", "bootstrap", "feature_subsample"),
                **_defaults(CartConfig, *_TREE_KEYS)},
        lambda spec, X, y, cfg: fit_random_forest(X, y, cfg, spec.task), Forest,
        config=_forest_config),
    "gbt": Family(
        _BOTH, _defaults(GbtConfig, "n_rounds", "learning_rate", "max_depth", "lambda_leaf"),
        lambda spec, X, y, cfg: fit_gbt(X, y, cfg), GbtModel,
        config=_gbt_config),
    "ols": Family(_REG, {}, lambda spec, X, y, cfg: fit_ols(X, y), LinearModel),
    "ridge": Family(
        _REG, _defaults(fit_ridge, "lam"),
        lambda spec, X, y, cfg: fit_ridge(X, y, cfg.lam), LinearModel,
        config=_penalty_config),
    "lasso": Family(
        _REG, _defaults(PenaltyConfig, "tol", "max_iter", lam=0.01),
        lambda spec, X, y, cfg: fit_lasso(X, y, cfg), LinearModel,
        config=_penalty_config),
    "linear_svm": Family(
        _CLS, _defaults(PenaltyConfig, "lam_svm", "epochs"),
        lambda spec, X, y, cfg: fit_linear_svm(X, y, cfg), LinearModel,
        config=_penalty_config),
    "linear_svr": Family(
        _REG, _defaults(PenaltyConfig, "lam_svm", "eps", "epochs"),
        lambda spec, X, y, cfg: fit_linear_svr(X, y, cfg), LinearModel,
        config=_penalty_config),
    "knn": Family(
        _BOTH, _defaults(fit_knn, "k", "weighting"),
        lambda spec, X, y, cfg: fit_knn(X, y, cfg.k, cfg.weighting, spec.task), KnnModel,
        config=lambda spec, hp: KnnConfig(**hp)),
    "gaussian_nb": Family(
        _CLS, {}, lambda spec, X, y, cfg: fit_gnb(X, y), GaussianNbModel),
    "logistic": Family(
        _CLS, _defaults(PenaltyConfig, "tol", "max_iter", "ridge"),
        lambda spec, X, y, cfg: fit_logistic(X, y, cfg), LinearModel,
        config=lambda spec, hp: PenaltyConfig(lam=0.0, seed=spec.seed, **hp)),
}
ALL_FAMILIES = tuple(FAMILIES)


@dataclass(frozen=True)
class EstimatorSpec:
    """Making one builds `config`, the object the family's fit receives, so
    a bad hyperparameter fails here; as no field, it stays out of asdict."""

    family: str
    task: str
    hyperparams: dict = field(default_factory=dict)  # as given; defaults are not written in
    seed: int = 0

    def __post_init__(self):
        check_seed(self.seed)
        if self.family not in FAMILIES:
            raise ModelSpecError(f"unknown model family {self.family!r}")
        if self.task not in (TASK_CLASSIFICATION, TASK_REGRESSION):
            raise ModelSpecError(f"unknown task {self.task!r}")
        if self.task not in FAMILIES[self.family].tasks:
            raise ModelSpecError(f"family {self.family!r} does not support task {self.task!r}")
        object.__setattr__(self, "config", FAMILIES[self.family].config(self, _resolve(self)))


def lossless(kind, value):
    """kind(value), refusing what would lose or invent information: a
    fractional int, a list made from a string or an object, a dict from
    anything but a dict, a str from anything but a str, a bool from
    anything but true and false (or 1 and 0), a number from a bool, a float
    that is NaN or infinite. Each refusal is a ValueError that names the kind."""
    try:
        if (kind is bool and value not in (True, False)
                or kind in (int, float) and isinstance(value, bool)
                or kind is list and not isinstance(value, (list, tuple))
                or kind in (dict, str) and not isinstance(value, kind)):
            raise ValueError
        out = kind(value)
        if (kind is int and isinstance(value, float) and out != value
                or kind is float and not np.isfinite(out)):
            raise ValueError
        return out
    except (TypeError, ValueError, OverflowError):
        kind_name = "finite float" if kind is float else kind.__name__
        raise ValueError(f"must be {kind_name}, got {value!r}") from None


def _resolve(spec: EstimatorSpec) -> dict:
    """The family defaults overlaid with the spec's hyperparameters, each
    converted without loss to the type of its default (ints, floats and
    bools; other values pass as given)."""
    defaults = FAMILIES[spec.family].defaults
    unknown = set(spec.hyperparams) - set(defaults)
    if unknown:
        raise ModelSpecError(
            f"unknown hyperparameter {sorted(unknown)[0]!r} for family {spec.family!r}")
    hp = dict(defaults)
    for key, value in spec.hyperparams.items():
        kind = type(defaults[key])
        if kind in (bool, int, float):
            try:
                value = lossless(kind, value)
            except ValueError as exc:
                raise ModelSpecError(
                    f"hyperparameter {key!r} for family {spec.family!r} {exc}") from None
        hp[key] = value
    return hp


@dataclass(frozen=True)
class TrainedModel:
    spec: EstimatorSpec
    params: object
    fingerprint: dict  # n_rows trained on, feature names, sha of the names


def _fingerprint(ds: Dataset) -> dict:
    names = ds.feature_names()
    sha = hashlib.sha256("\x1f".join(names).encode()).hexdigest()[:16]
    return {"n_rows": ds.n_rows, "columns": names, "columns_sha": sha}


def _check_fingerprint(model: TrainedModel, ds: Dataset) -> None:
    if _fingerprint(ds)["columns_sha"] != model.fingerprint["columns_sha"]:
        raise ContractError(
            "dataset columns differ from the columns the model was fitted on")


def _labels_or_targets(spec: EstimatorSpec, ds: Dataset):
    if spec.task == TASK_CLASSIFICATION:
        if ds.labels is None:
            raise FitError(f"{spec.family} classification requires labels")
        return ds.labels
    if ds.targets is None:
        raise FitError(f"{spec.family} regression requires targets")
    return ds.targets


def fit(spec: EstimatorSpec, ds: Dataset) -> TrainedModel:
    """Fit with the family's routine; deterministic given spec.seed."""
    y = _labels_or_targets(spec, ds)
    if ds.n_rows == 0:
        raise FitError(f"cannot fit {spec.family} on empty data")
    params = FAMILIES[spec.family].fit(spec, ds.rows, y, spec.config)
    return TrainedModel(spec=spec, params=params, fingerprint=_fingerprint(ds))


def _finite(model: TrainedModel, out: np.ndarray) -> np.ndarray:
    if not np.isfinite(out).all():
        raise ContractError(f"{model.spec.family} model gave a non-finite output")
    return out


def _predict_matrix(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    return _finite(model, model.params.predict(np.ascontiguousarray(X, dtype=np.float64)))


def _scored_matrix(model: TrainedModel, X: np.ndarray):
    labels, proba = model.params.scored(np.ascontiguousarray(X, dtype=np.float64))
    return labels, _finite(model, proba)


def predict(model: TrainedModel, ds: Dataset) -> np.ndarray:
    if model.spec.task == TASK_CLASSIFICATION:
        return predict_scored(model, ds)[0]
    _check_fingerprint(model, ds)
    return _predict_matrix(model, ds.rows)


def predict_proba(model: TrainedModel, ds: Dataset) -> np.ndarray:
    """Positive-class probability per row (class code 1)."""
    return predict_scored(model, ds)[1]


def predict_scored(model: TrainedModel, ds: Dataset):
    """(labels, positive-class probabilities) of a classification model,
    from one pass over the rows."""
    if model.spec.task != TASK_CLASSIFICATION:
        raise ContractError("probabilities are defined for classification models only")
    _check_fingerprint(model, ds)
    return _scored_matrix(model, ds.rows)


def scalar_output(model: TrainedModel):
    """Matrix-in, real-vector-out view of a model for the explainers:
    positive-class probability for classification, prediction for
    regression. Skips the fingerprint check (perturbed rows share the
    training columns by construction)."""
    if model.spec.task == TASK_CLASSIFICATION:
        return lambda X: _scored_matrix(model, X)[1]
    return lambda X: _predict_matrix(model, X)


# ---------------------------------------------------------------------------
# Persistence: versioned JSON, exact float round-trip via repr semantics.
# ---------------------------------------------------------------------------


def _encode(value):
    if is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [_encode(v) for v in value]
    return value


def _decode(kind, value, name="params"):
    """value read back as kind: each scalar by lossless, each array numeric and finite."""
    if is_dataclass(kind):
        hints = typing.get_type_hints(kind)
        return kind(**{f.name: _decode(hints[f.name], value[f.name], f.name)
                       for f in fields(kind)})
    if kind is np.ndarray:
        arr = np.asarray(value)
        if arr.dtype.kind not in "if" or not np.isfinite(arr).all():
            raise ValueError(f"{name} is not an array of finite numbers")
        return arr.astype(np.int64 if arr.dtype.kind == "i" else np.float64)
    if typing.get_origin(kind) is tuple:
        return tuple(_decode(typing.get_args(kind)[0], v, name) for v in lossless(list, value))
    if kind in (int, float, bool, str):
        try:
            return lossless(kind, value)
        except ValueError as exc:
            raise ValueError(f"{name} {exc}") from None
    return value


def save_model(model: TrainedModel) -> bytes:
    key, params = FAMILIES[model.spec.family].payload_key, _encode(model.params)
    doc = {
        "format": FORMAT_TAG,
        "version": FORMAT_VERSION,
        "spec": {"family": model.spec.family, "task": model.spec.task,
                 "hyperparams": model.spec.hyperparams, "seed": model.spec.seed},
        "fingerprint": model.fingerprint,
        "params": {key: params} if key else params,
    }
    return json.dumps(doc, sort_keys=True).encode()


def load_model(payload: bytes) -> TrainedModel:
    try:
        doc = json.loads(payload.decode())
    except (ValueError, UnicodeDecodeError) as exc:
        raise ModelLoadError(f"corrupt model payload: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_TAG:
        raise ModelLoadError("payload is not a saved model")
    if doc.get("version") != FORMAT_VERSION:
        raise ModelLoadError(f"unsupported model format version {doc.get('version')!r}")
    try:
        s = doc["spec"]
        spec = EstimatorSpec(family=s["family"], task=s["task"],
                             hyperparams=dict(s.get("hyperparams", {})),
                             seed=lossless(int, s.get("seed", 0)))
        fam, params = FAMILIES[spec.family], doc["params"]
        params = _decode(fam.params_type, params[fam.payload_key] if fam.payload_key else params)
        fingerprint = dict(doc["fingerprint"])
        params.check(len(fingerprint["columns"]), spec.task, spec.config)
    except (LookupError, TypeError, ValueError, OverflowError, HeartlabError) as exc:
        raise ModelLoadError(f"malformed model payload: {exc}") from None
    return TrainedModel(spec=spec, params=params, fingerprint=fingerprint)
