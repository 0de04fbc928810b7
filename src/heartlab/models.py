"""Uniform estimator layer over all eleven families: one registry record
per family (supported tasks, typed hyperparameter defaults, fit, predict,
probabilities, persistence), named specs, and versioned JSON persistence.

A TrainedModel carries a fingerprint of the training columns; predict
refuses datasets whose feature columns differ. predict_proba returns the
positive-class probability. The SVM maps its margin through a fixed
logistic link, which is monotone but uncalibrated.
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
    LOSS_LOGISTIC,
    LOSS_SQUARED,
    fit_gbt,
    fit_random_forest,
)
from .errors import ConfigError, ContractError, FitError, ModelLoadError, ModelSpecError
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
    gnb_proba,
    predict_gnb_batch,
    predict_knn_batch,
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
    config(spec, hp): a config dataclass or hp, defaults filled in. predict(params, X)
    and proba(params, X) take a float64 matrix, and proba (classification
    families only) returns the positive-class probability; scored(params,
    X), when set, returns both labels and probabilities from one pass.
    Fitted parameters are saved field by field, under payload_key if set.
    """

    tasks: tuple
    defaults: dict               # hyperparameter -> default; its type is the key's type
    fit: Callable
    params_type: type
    config: Callable = lambda spec, hp: hp
    predict: Callable = lambda p, X: p.predict(X)
    proba: Callable | None = None
    scored: Callable | None = None
    payload_key: str | None = None


def _defaults(owner, *names, **own) -> dict:
    """Defaults of the named hyperparameters, read from the signature of the
    config class or fit function that owns them; `own` are set here."""
    params = inspect.signature(owner).parameters
    return {**{k: params[k].default for k in names}, **own}


def _positive(mat: np.ndarray) -> np.ndarray:
    if mat.shape[1] < 2:
        return np.zeros(mat.shape[0])
    return mat[:, 1]


def _knn_predict(p: KnnModel, X: np.ndarray) -> np.ndarray:
    out = predict_knn_batch(p, X)
    return out[0] if p.task == TASK_CLASSIFICATION else out


def _knn_scored(p: KnnModel, X: np.ndarray):
    labels, shares = predict_knn_batch(p, X)
    return labels, _positive(shares)


_BOTH = (TASK_CLASSIFICATION, TASK_REGRESSION)
_CLS = (TASK_CLASSIFICATION,)
_REG = (TASK_REGRESSION,)
_TREE_KEYS = ("max_depth", "min_samples_split", "min_samples_leaf")


def _forest_config(spec, hp):
    cart = CartConfig(seed=spec.seed, **{k: hp[k] for k in _TREE_KEYS})
    return ForestConfig(n_trees=hp["n_trees"], cart=cart, bootstrap=hp["bootstrap"],
                        feature_subsample=hp["feature_subsample"], seed=spec.seed)


def _gbt_config(spec, hp):
    loss = LOSS_LOGISTIC if spec.task == TASK_CLASSIFICATION else LOSS_SQUARED
    return GbtConfig(loss=loss, seed=spec.seed, **hp)


def _penalty_config(spec, hp):
    return PenaltyConfig(seed=spec.seed, **hp)


# The fit lambdas name the fit routines so that they are looked up in this
# module at call time, not bound when the table is built: a wrapper set on
# the module attribute (perfbench/tracer.py does this) then sees every fit.
FAMILIES = {
    "cart": Family(
        _BOTH, _defaults(CartConfig, *_TREE_KEYS, "feature_subsample"),
        lambda spec, X, y, cfg: fit_cart_matrix(X, y, cfg, spec.task),
        FlatTree, config=lambda spec, hp: CartConfig(seed=spec.seed, **hp),
        proba=lambda p, X: _positive(p.predict_value(X)), payload_key="tree"),
    "random_forest": Family(
        _BOTH, {**_defaults(ForestConfig, "n_trees", "bootstrap", "feature_subsample"),
                **_defaults(CartConfig, *_TREE_KEYS)},
        lambda spec, X, y, cfg: fit_random_forest(X, y, cfg, spec.task), Forest,
        config=_forest_config, proba=lambda p, X: _positive(p.predict_proba(X))),
    "gbt": Family(
        _BOTH, _defaults(GbtConfig, "n_rounds", "learning_rate", "max_depth", "lambda_leaf"),
        lambda spec, X, y, cfg: fit_gbt(X, y, cfg), GbtModel,
        config=_gbt_config, proba=lambda p, X: _positive(p.predict_proba(X))),
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
        config=_penalty_config, proba=lambda p, X: _positive(p.predict_proba(X))),
    "linear_svr": Family(
        _REG, _defaults(PenaltyConfig, "lam_svm", "eps", "epochs"),
        lambda spec, X, y, cfg: fit_linear_svr(X, y, cfg), LinearModel,
        config=_penalty_config),
    "knn": Family(
        _BOTH, _defaults(fit_knn, "k", "weighting"),
        lambda spec, X, y, cfg: fit_knn(X, y, cfg.k, cfg.weighting, spec.task), KnnModel,
        config=lambda spec, hp: KnnConfig(**hp),
        predict=_knn_predict, proba=lambda p, X: _knn_scored(p, X)[1], scored=_knn_scored),
    "gaussian_nb": Family(
        _CLS, {}, lambda spec, X, y, cfg: fit_gnb(X, y), GaussianNbModel,
        predict=predict_gnb_batch, proba=lambda p, X: _positive(gnb_proba(p, X))),
    "logistic": Family(
        _CLS, _defaults(PenaltyConfig, "tol", "max_iter", "ridge"),
        lambda spec, X, y, cfg: fit_logistic(X, y, cfg), LinearModel,
        config=lambda spec, hp: PenaltyConfig(lam=0.0, seed=spec.seed, **hp),
        proba=lambda p, X: _positive(p.predict_proba(X))),
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
    anything but a dict, a bool from anything but true and false (or 1
    and 0), a number from a bool, a float that is NaN or infinite."""
    if (kind is bool and value not in (True, False)
            or kind in (int, float) and isinstance(value, bool)
            or kind is list and not isinstance(value, (list, tuple))
            or kind is dict and not isinstance(value, dict)):
        raise ValueError(value)
    out = kind(value)
    if (kind is int and isinstance(value, float) and out != value
            or kind is float and not np.isfinite(out)):
        raise ValueError(value)
    return out


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
            except (TypeError, ValueError, OverflowError):
                raise ModelSpecError(
                    f"hyperparameter {key!r} for family {spec.family!r} must be "
                    f"{'finite float' if kind is float else kind.__name__}, got {value!r}") from None
        hp[key] = value
    return hp


@dataclass(frozen=True)
class TrainedModel:
    spec: EstimatorSpec
    params: object
    fingerprint: dict  # n_rows trained on, feature names, sha of the names

    def predict(self, ds: Dataset) -> np.ndarray:
        return predict(self, ds)

    def predict_proba(self, ds: Dataset) -> np.ndarray:
        return predict_proba(self, ds)


def _fingerprint(ds: Dataset) -> dict:
    names = ds.feature_names()
    sha = hashlib.sha256("\x1f".join(names).encode()).hexdigest()[:16]
    return {"n_rows": ds.n_rows, "columns": names, "columns_sha": sha}


def _check_fingerprint(model: TrainedModel, ds: Dataset) -> None:
    sha = hashlib.sha256("\x1f".join(ds.feature_names()).encode()).hexdigest()[:16]
    if sha != model.fingerprint["columns_sha"]:
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
    params = FAMILIES[spec.family].fit(spec, ds.rows, y, spec.config)
    return TrainedModel(spec=spec, params=params, fingerprint=_fingerprint(ds))


def _predict_matrix(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    return FAMILIES[model.spec.family].predict(
        model.params, np.ascontiguousarray(X, dtype=np.float64))


def _proba_matrix(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    return FAMILIES[model.spec.family].proba(
        model.params, np.ascontiguousarray(X, dtype=np.float64))


def predict(model: TrainedModel, ds: Dataset) -> np.ndarray:
    _check_fingerprint(model, ds)
    return _predict_matrix(model, ds.rows)


def predict_proba(model: TrainedModel, ds: Dataset) -> np.ndarray:
    """Positive-class probability per row (class code 1)."""
    if model.spec.task != TASK_CLASSIFICATION:
        raise ContractError("probabilities are defined for classification models only")
    _check_fingerprint(model, ds)
    return _proba_matrix(model, ds.rows)


def predict_scored(model: TrainedModel, ds: Dataset):
    """(labels, positive-class probabilities) of a classification model from
    one pass over the rows when its family has one (knn: one neighbor
    search for both), else None."""
    scored = FAMILIES[model.spec.family].scored
    if scored is None or model.spec.task != TASK_CLASSIFICATION:
        return None
    _check_fingerprint(model, ds)
    return scored(model.params, np.ascontiguousarray(ds.rows, dtype=np.float64))


def scalar_output(model: TrainedModel):
    """Matrix-in, real-vector-out view of a model for the explainers:
    positive-class probability for classification, prediction for
    regression. Skips the fingerprint check (perturbed rows share the
    training columns by construction)."""
    if model.spec.task == TASK_CLASSIFICATION:
        return lambda X: _proba_matrix(model, X)
    return lambda X: _predict_matrix(model, X)


# ---------------------------------------------------------------------------
# Persistence: versioned JSON, exact float round-trip via repr semantics.
# Parameters are written as their dataclass fields and read back by the
# field annotations.
# ---------------------------------------------------------------------------


def _encode(value):
    if is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [_encode(v) for v in value]
    return value


def _decode(kind, value):
    if is_dataclass(kind):
        hints = typing.get_type_hints(kind)
        return kind(**{f.name: _decode(hints[f.name], value[f.name]) for f in fields(kind)})
    if kind is np.ndarray:
        arr = np.asarray(value)
        return arr.astype(np.int64 if arr.dtype.kind in "iu" else np.float64)
    if typing.get_origin(kind) is tuple:
        return tuple(_decode(typing.get_args(kind)[0], v) for v in value)
    if kind in (tuple, int, float, bool):
        return kind(value)
    return value


def _save_params(model: TrainedModel) -> dict:
    key = FAMILIES[model.spec.family].payload_key
    payload = _encode(model.params)
    return {key: payload} if key else payload


def _load_params(family: str, payload: dict):
    fam = FAMILIES[family]
    return _decode(fam.params_type, payload[fam.payload_key] if fam.payload_key else payload)


def save_model(model: TrainedModel) -> bytes:
    doc = {
        "format": FORMAT_TAG,
        "version": FORMAT_VERSION,
        "spec": {"family": model.spec.family, "task": model.spec.task,
                 "hyperparams": model.spec.hyperparams, "seed": model.spec.seed},
        "fingerprint": model.fingerprint,
        "params": _save_params(model),
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
                             seed=int(s.get("seed", 0)))
        params = _load_params(spec.family, doc["params"])
        fingerprint = dict(doc["fingerprint"])
    except (KeyError, TypeError, ValueError, ConfigError, ModelSpecError) as exc:
        raise ModelLoadError(f"malformed model payload: {exc}") from None
    return TrainedModel(spec=spec, params=params, fingerprint=fingerprint)
