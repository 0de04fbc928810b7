"""Instance-based and Bayesian baselines: brute-force KNN and Gaussian
naive Bayes. Both expect scaled numeric features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import knn_search
from .errors import ConfigError, ContractError, FitError
from .trees import TASK_CLASSIFICATION, by_argmax

WEIGHT_UNIFORM = "uniform"
WEIGHT_INVERSE = "inverse-distance"


@dataclass(frozen=True)
class KnnConfig:
    """The checks of knn's hyperparameters; fit_knn owns their defaults."""
    k: int
    weighting: str

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.weighting not in (WEIGHT_UNIFORM, WEIGHT_INVERSE):
            raise ConfigError(f"unknown weighting {self.weighting!r}")


@dataclass(frozen=True)
class KnnModel:
    X: np.ndarray
    y: np.ndarray            # int labels or float targets
    k: int
    weighting: str
    task: str
    n_classes: int = 0

    def __post_init__(self):
        KnnConfig(self.k, self.weighting)
        if self.k > self.X.shape[0]:
            raise ConfigError(f"k must be in 1..{self.X.shape[0]}, got {self.k}")

    def check(self, n_cols: int, task: str, config: KnnConfig) -> None:
        """n_cols-wide rows with one label (in 0..n_classes - 1) or target
        each, and config's k and weighting."""
        if self.task != task or self.X.shape[1:] != (n_cols,) or self.y.shape != self.X.shape[:1]:
            raise ContractError(f"knn needs {task}, {n_cols} columns, one label or target per row")
        if task == TASK_CLASSIFICATION and not (
                self.y.dtype.kind == "i" and ((0 <= self.y) & (self.y < self.n_classes)).all()):
            raise ContractError(f"knn labels must be integers in 0..{self.n_classes - 1}")
        if KnnConfig(self.k, self.weighting) != config:
            raise ContractError(f"knn {KnnConfig(self.k, self.weighting)} is not the spec's {config}")

    def _neighbors(self, X: np.ndarray) -> tuple:
        """Each row's k nearest training rows (ties to the lower index), weighted."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.X.shape[1]:
            raise ContractError("query width differs from training features")
        idx, d2 = knn_search(self.X, X, self.k)
        if self.weighting == WEIGHT_UNIFORM:
            return idx, np.ones_like(d2)
        return idx, 1.0 / (np.sqrt(d2) + 1e-12)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """The weighted mean of the neighbors' targets."""
        idx, wts = self._neighbors(X)
        return np.sum(self.y[idx] * wts, axis=1) / np.sum(wts, axis=1)

    def scored(self, X: np.ndarray) -> tuple:
        """The label with the most weighted votes (ties to the lower code)
        and class 1's share of the votes."""
        idx, wts = self._neighbors(X)
        votes = np.zeros((idx.shape[0], self.n_classes))
        for slot in range(self.k):
            votes[np.arange(idx.shape[0]), self.y[idx[:, slot]]] += wts[:, slot]
        labels, ones = by_argmax(votes)
        return labels, ones / votes.sum(axis=1)


def fit_knn(X: np.ndarray, y: np.ndarray, k: int = 5, weighting: str = WEIGHT_UNIFORM,
            task: str = TASK_CLASSIFICATION) -> KnnModel:
    """y holds int labels (classification) or float targets (regression)."""
    n_classes = int(y.max()) + 1 if task == TASK_CLASSIFICATION else 0
    return KnnModel(X=np.ascontiguousarray(X, dtype=np.float64), y=y,
                    k=k, weighting=weighting, task=task, n_classes=n_classes)


@dataclass(frozen=True)
class GaussianNbModel:
    priors: np.ndarray       # per class, sums to 1
    means: np.ndarray        # (n_classes, n_features)
    variances: np.ndarray    # floored population variances
    floor: float

    def check(self, n_cols: int, task: str, config=None) -> None:
        """Per class a prior (>= 0, positive sum), n_cols means and n_cols variances (> 0)."""
        if not (self.priors.ndim == 1 and (self.priors >= 0).all() and self.priors.sum() > 0
                and self.priors.shape + (n_cols,) == self.means.shape == self.variances.shape
                and (self.variances > 0).all()):
            raise ContractError(f"naive bayes needs a prior >= 0, {n_cols} means and variances > 0")

    def log_scores(self, X: np.ndarray) -> np.ndarray:
        """(n, n_classes) joint log densities log prior + sum_f log N(x_f)."""
        X = np.asarray(X, dtype=np.float64)
        out = np.empty((X.shape[0], self.priors.size))
        for c in range(self.priors.size):
            var = self.variances[c]
            diff = X - self.means[c]
            ll = -0.5 * (np.log(2.0 * np.pi * var) + diff * diff / var).sum(axis=1)
            out[:, c] = np.log(self.priors[c]) + ll
        return out

    def posterior(self, X: np.ndarray) -> np.ndarray:
        """Posterior class probabilities via log-sum-exp normalization."""
        scores = self.log_scores(X)
        ex = np.exp(scores - scores.max(axis=1, keepdims=True))
        return ex / ex.sum(axis=1, keepdims=True)

    def scored(self, X: np.ndarray) -> tuple:
        return by_argmax(self.posterior(X))


def fit_gnb(X: np.ndarray, y: np.ndarray) -> GaussianNbModel:
    """Per-class feature Gaussians for int labels y, with a variance floor of
    1e-9 times the largest overall feature variance (so constant-within-class
    features survive)."""
    n_classes = int(y.max()) + 1
    n, m = X.shape
    overall = np.mean((X - X.mean(axis=0)) ** 2, axis=0)
    top = float(overall.max()) if m else 0.0
    floor = 1e-9 * top if top > 0.0 else 1e-9

    priors = np.zeros(n_classes)
    means = np.zeros((n_classes, m))
    variances = np.zeros((n_classes, m))
    for c in range(n_classes):
        rows = X[y == c]
        if rows.shape[0] < 2:
            raise FitError(f"class {c} has {rows.shape[0]} row(s); need >= 2 for a variance")
        priors[c] = rows.shape[0] / n
        means[c] = rows.mean(axis=0)
        variances[c] = np.maximum(np.mean((rows - means[c]) ** 2, axis=0), floor)
    return GaussianNbModel(priors=priors, means=means, variances=variances, floor=floor)
