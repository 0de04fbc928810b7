"""Bagged forests and gradient-boosted trees on the CART core.

Forest: each tree t draws its bootstrap resample and per-split feature
subsets from an independent stream seeded with (seed, t), so a tree does
not depend on the trees grown before it. Classification predicts
by majority vote (ties to the lower class code) and reports vote
fractions as probabilities; regression averages tree means.

GBT: stagewise additive model F_m = F_{m-1} + eta * tree_m. Squared
loss fits residuals with mean-residual leaves starting from the target
mean. Logistic loss fits gradients y - p with second-order leaf steps
sum(g) / (sum(p(1-p)) + lambda_leaf) starting from the base-rate
log-odds. The per-round training loss is recorded.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor  # unused; perfbench/tracer.py patches it
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset
from .errors import ConfigError, ContractError, FitError
from .linear import sigmoid
from .trees import (
    CartConfig,
    FlatTree,
    TASK_CLASSIFICATION,
    TASK_REGRESSION,
    fit_cart_matrix,
    presort,
)

LOSS_SQUARED = "squared"
LOSS_LOGISTIC = "logistic"
LOSS_TASKS = {LOSS_SQUARED: TASK_REGRESSION, LOSS_LOGISTIC: TASK_CLASSIFICATION}


def default_jobs() -> int:  # read by perfbench/child.py
    """The number of threads heartlab fits in: one."""
    return 1


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 100
    cart: CartConfig = field(default_factory=CartConfig)
    bootstrap: bool = True
    # per-split candidate count: "auto" = ceil(sqrt(M)) classification,
    # ceil(M/3) regression; or an explicit count; or "all"
    feature_subsample: object = "auto"
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ConfigError(f"n_trees must be >= 1, got {self.n_trees}")
        if self.feature_subsample not in ("auto", "all"):
            if not isinstance(self.feature_subsample, int) or self.feature_subsample < 1:
                raise ConfigError(
                    "feature_subsample must be 'auto', 'all', or a positive count")


@dataclass(frozen=True)
class Forest:
    trees: tuple[FlatTree, ...]
    task: str
    n_classes: int
    config: ForestConfig

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self.task != TASK_CLASSIFICATION:
            raise ContractError("probabilities are defined for classification only")
        votes = np.zeros((X.shape[0], self.n_classes), dtype=np.float64)
        for tree in self.trees:
            labels = tree.predict(X)
            votes[np.arange(X.shape[0]), labels] += 1.0
        return votes / len(self.trees)

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.ascontiguousarray(X, dtype=np.float64)
        if self.task == TASK_CLASSIFICATION:
            return np.argmax(self.predict_proba(X), axis=1).astype(np.int64)
        acc = np.zeros(X.shape[0], dtype=np.float64)
        for tree in self.trees:
            acc += tree.predict_value(X)
        return acc / len(self.trees)


def _resolve_subsample(spec, n_features: int, task: str):
    if spec == "auto":
        if task == TASK_CLASSIFICATION:
            return min(n_features, math.ceil(math.sqrt(n_features)))
        return min(n_features, math.ceil(n_features / 3))
    return spec


def fit_random_forest(ds: Dataset, config: ForestConfig = ForestConfig(),
                      task: str = TASK_CLASSIFICATION) -> Forest:
    if task == TASK_CLASSIFICATION:
        if ds.labels is None:
            raise FitError("classification forest requires labels")
        y = ds.labels
        n_classes = int(y.max()) + 1
    else:
        if ds.targets is None:
            raise FitError("regression forest requires targets")
        y = ds.targets
        n_classes = 0
    X = np.ascontiguousarray(ds.rows, dtype=np.float64)
    n = X.shape[0]
    if n == 0:
        raise FitError("cannot fit a forest on empty data")
    sub = _resolve_subsample(config.feature_subsample, X.shape[1], task)
    cart = replace(config.cart, feature_subsample=sub)

    def train_one(t: int) -> FlatTree:
        rng = np.random.default_rng([config.seed, t])
        if config.bootstrap:
            take = rng.integers(0, n, size=n)
            Xt, yt = X[take], y[take]
        else:
            Xt, yt = X, y
        return fit_cart_matrix(Xt, yt, cart, task, rng=rng, n_classes=n_classes or None)

    trees = [train_one(t) for t in range(config.n_trees)]
    return Forest(trees=tuple(trees), task=task, n_classes=n_classes, config=config)


@dataclass(frozen=True)
class GbtConfig:
    n_rounds: int = 100
    learning_rate: float = 0.1
    max_depth: int = 3
    loss: str = LOSS_SQUARED
    lambda_leaf: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.learning_rate <= 1.0):
            raise ConfigError(f"learning_rate must be in (0,1], got {self.learning_rate}")
        if self.n_rounds < 1:
            raise ConfigError(f"n_rounds must be >= 1, got {self.n_rounds}")
        if self.loss not in (LOSS_SQUARED, LOSS_LOGISTIC):
            raise ConfigError(f"loss must be squared or logistic, got {self.loss!r}")


@dataclass(frozen=True)
class GbtModel:
    base_score: float
    trees: tuple[FlatTree, ...]
    config: GbtConfig
    train_losses: tuple  # length n_rounds + 1, loss before any round first

    def _raw(self, X: np.ndarray, m: int | None = None) -> np.ndarray:
        m = len(self.trees) if m is None else m
        out = np.full(X.shape[0], self.base_score, dtype=np.float64)
        for tree in self.trees[:m]:
            out += self.config.learning_rate * tree.predict_value(X)
        return out

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self.config.loss != LOSS_LOGISTIC:
            raise ContractError("probabilities are defined for the logistic loss only")
        X = np.ascontiguousarray(X, dtype=np.float64)
        p = sigmoid(self._raw(X))
        return np.column_stack([1.0 - p, p])

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.ascontiguousarray(X, dtype=np.float64)
        raw = self._raw(X)
        if self.config.loss == LOSS_LOGISTIC:
            return (sigmoid(raw) > 0.5).astype(np.int64)
        return raw


def _squared_loss(y, raw) -> float:
    d = y - raw
    return float(np.mean(d * d))


def _log_loss(y, raw) -> float:
    # mean(softplus(raw) - y*raw), algebraically -mean(y log p + (1-y) log(1-p))
    return float(np.mean(np.logaddexp(0.0, raw) - y * raw))


def fit_gbt(ds: Dataset, config: GbtConfig = GbtConfig(),
            task: str | None = None) -> GbtModel:
    """Task defaults to the one implied by the loss; a mismatch is an error."""
    implied = LOSS_TASKS[config.loss]
    if task is not None and task != implied:
        raise ConfigError(f"loss {config.loss!r} implies task {implied!r}, got {task!r}")

    X = np.ascontiguousarray(ds.rows, dtype=np.float64)
    if X.shape[0] == 0:
        raise FitError("cannot fit gbt on empty data")
    cart = CartConfig(max_depth=config.max_depth, min_samples_split=2,
                      min_samples_leaf=1, feature_subsample="all", seed=config.seed)

    if config.loss == LOSS_LOGISTIC:
        if ds.labels is None:
            raise FitError("logistic gbt requires labels")
        y = ds.labels.astype(np.float64)
        if not np.all((ds.labels == 0) | (ds.labels == 1)):
            raise FitError("logistic gbt requires binary 0/1 labels")
        base_rate = float(y.mean())
        if base_rate in (0.0, 1.0):
            raise FitError("logistic gbt needs both classes present")
        base = math.log(base_rate / (1.0 - base_rate))
        loss_fn = _log_loss
    else:
        if ds.targets is None:
            raise FitError("squared-loss gbt requires targets")
        y = ds.targets.astype(np.float64)
        base = float(y.mean())
        loss_fn = _squared_loss

    raw = np.full(X.shape[0], base, dtype=np.float64)
    losses = [loss_fn(y, raw)]
    sorted_rows = presort(X)  # every round splits the same X
    trees = []
    for m in range(config.n_rounds):
        rng = np.random.default_rng([config.seed, m])
        p = sigmoid(raw) if config.loss == LOSS_LOGISTIC else None
        g = y - (raw if p is None else p)
        flat = fit_cart_matrix(X, g, cart, TASK_REGRESSION, rng=rng, sorted_rows=sorted_rows)
        if p is not None:
            ids = flat.route(X)
            num = np.zeros(flat.leaf_value.shape[0])
            den = np.zeros(flat.leaf_value.shape[0])
            np.add.at(num, ids, g)
            np.add.at(den, ids, p * (1.0 - p))
            newton = num / (den + config.lambda_leaf)
            flat = replace(flat, leaf_value=newton)
            raw = raw + config.learning_rate * newton[ids]
        else:
            raw = raw + config.learning_rate * flat.predict_value(X)
        trees.append(flat)
        losses.append(loss_fn(y, raw))

    return GbtModel(base_score=base, trees=tuple(trees), config=config,
                    train_losses=tuple(losses))


def staged_predict(model: GbtModel, X: np.ndarray, m: int) -> np.ndarray:
    """Prediction of the ensemble truncated after m rounds; m=0 is the base
    score (base-rate probability under the logistic loss)."""
    if not 0 <= m <= len(model.trees):
        raise ContractError(f"round {m} out of range 0..{len(model.trees)}")
    X = np.ascontiguousarray(X, dtype=np.float64)
    raw = model._raw(X, m)
    if model.config.loss == LOSS_LOGISTIC:
        return sigmoid(raw)
    return raw
