"""Linear family: OLS, ridge, lasso, logistic regression, linear SVM and
SVR. Intercepts are never penalized; all solvers center the data so the
intercept is recovered in closed form.

OLS and ridge share one least-squares routine: ridge appends sqrt(lam)*I
rows to the centered design, so lam=0 reduces to OLS by construction and
rank-deficient systems fall back to the minimum-norm solution with a
flag. Householder reflections (a column at a time, sequential sums, no
BLAS) reduce the design to the m x m triangle that lstsq solves. Lasso
minimizes (1/2n)*RSS + lam*||w||_1 by cyclic coordinate descent with
soft-thresholding. Logistic regression runs damped Newton steps to a
mean-scaled gradient tolerance. The SVM/SVR use averaged mini-batch
Pegasos epochs (Shalev-Shwartz et al. 2011, section 2.3), shuffled per
(seed, epoch), one 1/(lam*t) step per pegasos_batch(n) rows.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._kernels import svm_epoch, svr_epoch
from .errors import ConfigError, ContractError, FitError
from .trees import TASK_CLASSIFICATION

FAMILY_OLS = "ols"
FAMILY_RIDGE = "ridge"
FAMILY_LASSO = "lasso"
FAMILY_LOGISTIC = "logistic"
FAMILY_SVM = "linear_svm"
FAMILY_SVR = "linear_svr"
CLASSIFIERS = (FAMILY_LOGISTIC, FAMILY_SVM)


@dataclass(frozen=True)
class PenaltyConfig:
    lam: float = 1.0          # ridge / lasso penalty
    tol: float = 1e-6
    max_iter: int = 10000
    eps: float = 0.1          # SVR tube half-width
    lam_svm: float = 0.01     # SVM/SVR regularization
    epochs: int = 30
    ridge: float = 0.0        # optional logistic stabilizer for separable data
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.lam < math.inf:
            raise ConfigError(f"penalty lam must be finite and >= 0, got {self.lam}")
        if not 0 < self.tol < math.inf:
            raise ConfigError(f"tol must be finite and > 0, got {self.tol}")
        if self.max_iter < 1:
            raise ConfigError(f"max_iter must be >= 1, got {self.max_iter}")
        if not 0 <= self.eps < math.inf:
            raise ConfigError(f"eps must be finite and >= 0, got {self.eps}")
        if not 0 < self.lam_svm < math.inf:
            raise ConfigError(f"lam_svm must be finite and > 0, got {self.lam_svm}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if not 0 <= self.ridge < math.inf:
            raise ConfigError(f"ridge must be finite and >= 0, got {self.ridge}")


@dataclass(frozen=True)
class LinearModel:
    weights: np.ndarray
    intercept: float
    family: str
    converged: bool = True
    rank_deficient: bool = False
    n_iter: int = 0
    objective_trace: tuple[float, ...] = field(default=())

    def predict(self, X: np.ndarray) -> np.ndarray:
        """w.x + b, summed over the features in ascending order without
        BLAS: a row's output does not depend on the other rows of the call."""
        X = np.asarray(X, dtype=np.float64)
        out = np.zeros(X.shape[0])
        for j, wj in enumerate(self.weights):
            out += X[:, j] * wj
        return out + self.intercept

    def scored(self, X: np.ndarray) -> tuple:
        """Labels and the logistic link of the margin w.x + b: calibrated
        for logistic regression, monotone but uncalibrated for the SVM. A
        label is margin > 0, not p > 0.5: a margin in (0, 1e-16) has p
        exactly 0.5."""
        raw = self.predict(X)
        return (raw > 0.0).astype(np.int64), sigmoid(raw)

    def check(self, n_cols: int, task: str, config=None) -> None:
        """One weight per column; a classifier family iff a classification task."""
        if self.weights.shape != (n_cols,):
            raise ContractError(f"{self.weights.size} weights for {n_cols} columns")
        if (self.family in CLASSIFIERS) != (task == TASK_CLASSIFICATION):
            raise ContractError(f"a {self.family} model does not serve the {task} task")


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function, evaluated as e^z/(1+e^z) for negative z so that
    neither branch overflows."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _check_xy(X, y) -> tuple:
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    if X.ndim != 2:
        raise FitError("X must be a 2-D matrix")
    if y.shape != (X.shape[0],):
        raise FitError("target length differs from row count")
    return X, y


def check_binary(y: np.ndarray, what: str) -> None:
    """Refuse labels other than 0 and 1, or labels of one class only."""
    if not np.all((y == 0) | (y == 1)):
        raise FitError(f"{what} requires binary 0/1 labels")
    if y.min() == y.max():
        raise FitError(f"{what} needs both classes present")


def fit_ridge(X, targets, lam: float = 1.0) -> LinearModel:
    """Minimize RSS + lam*||w||^2 with an unpenalized intercept."""
    if not 0 <= lam < math.inf:
        raise ConfigError(f"ridge lam must be finite and >= 0, got {lam}")
    X, y = _check_xy(X, targets)
    n, m = X.shape
    xm = X.mean(axis=0)
    ym = float(y.mean())
    rows = n + m if lam > 0.0 else n
    A = np.zeros((rows, m + 1), order="F")  # the design, its target in the last column
    A[:n, :m], A[:n, m] = X - xm, y - ym
    A[range(n, rows), range(rows - n)] = math.sqrt(lam)
    for j in range(min(rows, m)):  # Householder: reflect column j's tail onto its top
        v = A[j:, j].copy()
        norm = math.sqrt(np.add.accumulate(v * v)[-1])
        if norm > 0.0:
            v[0] += math.copysign(norm, v[0])  # then v.v = 2 * norm * |v[0]|
            for c in range(j, m + 1):
                A[j:, c] -= (np.add.accumulate(v * A[j:, c])[-1] / (norm * abs(v[0]))) * v
    w, _, rank, _ = np.linalg.lstsq(np.triu(A[:m, :m]), A[:m, m],
                                    rcond=np.finfo(np.float64).eps * max(rows, m))
    deficient = bool(rank < m)
    if deficient:
        warnings.warn("rank-deficient design; returning the minimum-norm solution")
    intercept = ym - float(xm @ w)
    family = FAMILY_OLS if lam == 0.0 else FAMILY_RIDGE
    return LinearModel(weights=w, intercept=intercept, family=family,
                       rank_deficient=deficient)


def fit_ols(X, targets) -> LinearModel:
    return fit_ridge(X, targets, lam=0.0)


def _soft(z: float, lam: float) -> float:
    if z > lam:
        return z - lam
    if z < -lam:
        return z + lam
    return 0.0


def fit_lasso(X, targets, config: PenaltyConfig = PenaltyConfig()) -> LinearModel:
    """Cyclic coordinate descent on (1/2n)*RSS + lam*||w||_1.

    Expects standardized features (warns otherwise); stops when the
    largest coordinate update falls below tol, or flags non-convergence
    at max_iter sweeps.
    """
    X, y = _check_xy(X, targets)
    n, m = X.shape
    xm = X.mean(axis=0)
    sd = X.std(axis=0)
    # order-of-magnitude misuse guard, not a precision check: pipeline data
    # is only approximately standardized (scaler stats predate the outlier
    # filter, interpolation shrinks variance) and must not warn
    live = sd > 0
    if np.max(np.abs(xm)) > 1.0 or (live.any() and (np.max(sd[live]) > 4.0
                                                    or np.min(sd[live]) < 0.25)):
        warnings.warn("lasso expects standardized features; fitting anyway")
    ym = float(y.mean())
    Xc = X - xm
    yc = y - ym

    col_sq = np.einsum("ij,ij->j", Xc, Xc) / n
    w = np.zeros(m)
    r = yc.copy()
    lam = config.lam
    converged = False
    sweeps = 0
    for sweeps in range(1, config.max_iter + 1):
        delta = 0.0
        for j in range(m):
            if col_sq[j] == 0.0:
                continue  # constant column stays at weight 0
            wj = w[j]
            rho = (Xc[:, j] @ r) / n + col_sq[j] * wj
            new = _soft(rho, lam) / col_sq[j]
            if new != wj:
                r += Xc[:, j] * (wj - new)
                w[j] = new
                delta = max(delta, abs(new - wj))
        if delta < config.tol:
            converged = True
            break
    intercept = ym - float(xm @ w)
    return LinearModel(weights=w, intercept=intercept, family=FAMILY_LASSO,
                       converged=converged, n_iter=sweeps)


def lasso_kkt_gap(X, targets, model: LinearModel, lam: float) -> float:
    """Largest violation of the subgradient optimality conditions, in the
    (1/2n) objective scaling. Zero at an exact optimum."""
    X, y = _check_xy(X, targets)
    n = X.shape[0]
    Xc = X - X.mean(axis=0)
    yc = y - y.mean()
    g = Xc.T @ (yc - Xc @ model.weights) / n
    gap = 0.0
    for j, wj in enumerate(model.weights):
        if wj == 0.0:
            gap = max(gap, abs(g[j]) - lam)
        else:
            gap = max(gap, abs(g[j] - lam * np.sign(wj)))
    return float(gap)


def lasso_lambda_max(X, targets) -> float:
    """Smallest lam for which the all-zero weight vector is optimal."""
    X, y = _check_xy(X, targets)
    Xc = X - X.mean(axis=0)
    yc = y - y.mean()
    return float(np.max(np.abs(Xc.T @ yc)) / X.shape[0])


def fit_logistic(X, labels, config: PenaltyConfig = PenaltyConfig(lam=0.0)) -> LinearModel:
    """Damped Newton ascent of the binomial log-likelihood, optional ridge
    term (config.ridge) for separable data. Convergence criterion is the
    infinity norm of the mean-scaled gradient below tol."""
    X, y = _check_xy(X, labels)
    check_binary(y, "logistic regression")
    n, m = X.shape
    A = np.column_stack([np.ones(n), X])
    ridge_vec = np.concatenate([[0.0], np.full(m, config.ridge)])

    base = float(y.mean())
    beta = np.zeros(m + 1)
    beta[0] = math.log(base / (1.0 - base))

    def nll(b):
        raw = A @ b
        return float(np.sum(np.logaddexp(0.0, raw) - y * raw) + 0.5 * ridge_vec @ (b * b))

    converged = False
    it = 0
    max_newton = min(200, config.max_iter)
    for it in range(1, max_newton + 1):
        raw = A @ beta
        p = sigmoid(raw)
        grad = A.T @ (y - p) - ridge_vec * beta
        if np.max(np.abs(grad)) / n < config.tol:
            converged = True
            break
        wdiag = np.maximum(p * (1.0 - p), 1e-12)
        H = (A * wdiag[:, None]).T @ A + np.diag(ridge_vec)
        try:
            step = np.linalg.solve(H, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(H, grad, rcond=None)[0]
        f0 = nll(beta)
        scale = 1.0
        for _ in range(30):
            cand = beta + scale * step
            if nll(cand) <= f0:
                break
            scale *= 0.5
        beta = beta + scale * step
    return LinearModel(weights=beta[1:], intercept=float(beta[0]),
                       family=FAMILY_LOGISTIC, converged=converged, n_iter=it)


def _pegasos(X, y, config: PenaltyConfig, family: str, epoch, loss, *eps) -> LinearModel:
    """Averaged mini-batch subgradient epochs on lam/2*||w||^2 + mean(max(0,
    loss(Xw + b))), shuffled per (seed, epoch); epoch is the SVM or SVR
    kernel, eps its tube half-width if any; t counts batch steps. Records
    the objective of the average after each epoch and returns that average."""
    n, m = X.shape
    w, b, wavg, bavg = np.zeros(m), np.zeros(1), np.zeros(m), np.zeros(1)
    lam = config.lam_svm
    # Start the step counter at t0 ~ 1/lam so the first learning rates are
    # <= 1; otherwise the unregularized intercept takes a 1/lam jump on step
    # one that the harmonic corrections never repair. The running average
    # then counts t0 phantom zero iterates, undone by an exact rescale.
    t0 = t = max(int(math.ceil(1.0 / lam)) - 1, 0)
    trace = []
    for ep in range(config.epochs):
        order = np.random.default_rng([config.seed, ep]).permutation(n).astype(np.int64)
        t = epoch(X, y, order, w, b, wavg, bavg, lam, *eps, t)
        scale = t / (t - t0)
        wa, ba = wavg * scale, bavg[0] * scale
        trace.append(float(0.5 * lam * (wa @ wa) + np.mean(np.maximum(0.0, loss(X @ wa + ba)))))
    return LinearModel(weights=wa, intercept=float(ba), family=family,
                       n_iter=config.epochs, objective_trace=tuple(trace))


def fit_linear_svm(X, labels, config: PenaltyConfig = PenaltyConfig()) -> LinearModel:
    """Hinge loss over {-1,+1} labels, by the averaged Pegasos epochs."""
    X, y = _check_xy(X, labels)
    check_binary(y, "linear svm")
    yy = np.where(y == 1.0, 1.0, -1.0)
    return _pegasos(X, yy, config, FAMILY_SVM, svm_epoch, lambda raw: 1.0 - yy * raw)


def fit_linear_svr(X, targets, config: PenaltyConfig = PenaltyConfig()) -> LinearModel:
    """eps-insensitive loss, by the same averaged Pegasos epochs as the SVM."""
    X, y = _check_xy(X, targets)
    return _pegasos(X, y, config, FAMILY_SVR, svr_epoch,
                    lambda raw: np.abs(y - raw) - config.eps, config.eps)
