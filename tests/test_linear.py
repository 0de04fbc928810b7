import math
import warnings

import numpy as np
import pytest

from heartlab.errors import ConfigError, ContractError, FitError
from heartlab.linear import (
    PenaltyConfig,
    fit_lasso,
    fit_linear_svm,
    fit_linear_svr,
    fit_logistic,
    fit_ols,
    fit_ridge,
    lasso_kkt_gap,
    lasso_lambda_max,
)


def _standardize(X):
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    return (X - mu) / sd


# -- ols / ridge ---------------------------------------------------------------


def test_ols_exact_line():
    x = np.linspace(-3, 3, 25).reshape(-1, 1)
    y = 2.0 * x[:, 0] + 1.0
    m = fit_ols(x, y)
    assert abs(m.weights[0] - 2.0) < 1e-12
    assert abs(m.intercept - 1.0) < 1e-12
    assert m.family == "ols"
    assert np.allclose(m.predict(x), y, atol=1e-12)


def test_ridge_zero_equals_ols(rng):
    X = rng.normal(size=(60, 4))
    y = X @ np.array([1.0, -2.0, 0.5, 3.0]) + rng.normal(size=60)
    a = fit_ols(X, y)
    b = fit_ridge(X, y, lam=0.0)
    assert np.allclose(a.weights, b.weights, atol=1e-9)
    assert abs(a.intercept - b.intercept) < 1e-9


def test_ridge_matches_normal_equations_oracle(rng):
    X = rng.normal(size=(50, 3))
    y = X @ np.array([2.0, 0.0, -1.0]) + rng.normal(size=50)
    lam = 1.0
    Xc = X - X.mean(axis=0)
    yc = y - y.mean()
    want = np.linalg.solve(Xc.T @ Xc + lam * np.eye(3), Xc.T @ yc)
    m = fit_ridge(X, y, lam=lam)
    assert np.allclose(m.weights, want, atol=1e-9)
    want_b = float(y.mean() - X.mean(axis=0) @ want)
    assert abs(m.intercept - want_b) < 1e-9


def test_ridge_limit_behaviors(rng):
    X = rng.normal(size=(40, 3))
    y = X @ np.array([1.0, 2.0, 3.0]) + 5.0
    huge = fit_ridge(X, y, lam=1e9)
    assert np.max(np.abs(huge.weights)) < 1e-4
    assert abs(huge.intercept - float(y.mean())) < 1e-3


def test_ridge_norm_monotone_in_lambda(rng):
    X = rng.normal(size=(80, 5))
    y = X @ rng.normal(size=5) + rng.normal(size=80)
    norms = [float(np.linalg.norm(fit_ridge(X, y, lam=l).weights))
             for l in (0.0, 0.1, 1.0, 10.0, 100.0)]
    assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))


def test_rank_deficient_warns_and_flags(rng):
    x = rng.normal(size=(30, 1))
    X = np.hstack([x, x])  # exact duplicate column
    y = 3.0 * x[:, 0] + 1.0
    with pytest.warns(UserWarning):
        m = fit_ols(X, y)
    assert m.rank_deficient
    # minimum-norm solution splits the weight across the duplicates
    assert abs(m.weights[0] - m.weights[1]) < 1e-8
    assert abs(m.weights.sum() - 3.0) < 1e-8


@pytest.mark.parametrize("n,m,lam,shape", [
    (60, 4, 0.0, "as-is"), (60, 4, 2.0, "as-is"), (5, 9, 0.0, "as-is"), (5, 9, 0.5, "as-is"),
    (40, 6, 0.0, "duplicate"), (40, 6, 1.0, "duplicate"), (12, 3, 0.0, "zero-column"),
    (7, 7, 0.0, "as-is")])
def test_ridge_matches_lstsq_on_the_stacked_design(rng, n, m, lam, shape):
    """The Householder triangle keeps lstsq's rank rule and minimum-norm answer
    on the (n + m) x m design, wide, square and rank-deficient ones included."""
    X = rng.normal(size=(n, m))
    if shape == "duplicate":
        X[:, 1] = X[:, 0]
    elif shape == "zero-column":
        X[:, 2] = 1.5  # zero once centered
    y = rng.normal(size=n)
    Xc, yc = X - X.mean(axis=0), y - y.mean()
    A = np.vstack([Xc, math.sqrt(lam) * np.eye(m)]) if lam else Xc
    want, _, rank, _ = np.linalg.lstsq(A, np.concatenate([yc, np.zeros(len(A) - n)]), rcond=None)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = fit_ridge(X, y, lam=lam)
    assert got.rank_deficient == (rank < m)
    assert np.allclose(got.weights, want, rtol=0, atol=1e-12 * max(1.0, np.abs(want).max()))


def test_negative_lambda_rejected(rng):
    X = rng.normal(size=(10, 2))
    with pytest.raises(ConfigError):
        fit_ridge(X, X[:, 0], lam=-1.0)


# -- lasso ---------------------------------------------------------------------


def _orthonormal_design(rng, n=64, m=4):
    A = rng.normal(size=(n, m))
    Ac = A - A.mean(axis=0)
    Q, _ = np.linalg.qr(Ac)
    return Q * math.sqrt(n)  # centered, X.T @ X / n == I


def test_lasso_soft_threshold_oracle(rng):
    X = _orthonormal_design(rng)
    y = rng.normal(size=64) * 2.0
    yc = y - y.mean()
    rho = X.T @ yc / 64
    for lam in (0.05, 0.2, 0.8):
        m = fit_lasso(X, y, PenaltyConfig(lam=lam, tol=1e-12))
        want = np.sign(rho) * np.maximum(np.abs(rho) - lam, 0.0)
        assert np.allclose(m.weights, want, atol=1e-8)
        assert m.converged


def test_lasso_lambda_max_zeroes_everything(rng):
    X = _standardize(rng.normal(size=(50, 4)))
    y = X @ np.array([1.0, -1.0, 0.5, 0.0]) + 0.1 * rng.normal(size=50)
    lam_max = lasso_lambda_max(X, y)
    m = fit_lasso(X, y, PenaltyConfig(lam=lam_max * 1.0001))
    assert np.all(m.weights == 0.0)
    assert abs(m.intercept - float(y.mean())) < 1e-12
    m2 = fit_lasso(X, y, PenaltyConfig(lam=lam_max * 0.5))
    assert np.any(m2.weights != 0.0)


def test_lasso_zero_lambda_matches_ols(rng):
    X = _standardize(rng.normal(size=(70, 3)))
    y = X @ np.array([2.0, -1.0, 0.3]) + 0.05 * rng.normal(size=70)
    a = fit_lasso(X, y, PenaltyConfig(lam=0.0, tol=1e-12, max_iter=50000))
    b = fit_ols(X, y)
    assert np.allclose(a.weights, b.weights, atol=1e-6)


def test_lasso_kkt_conditions(rng):
    X = _standardize(rng.normal(size=(60, 5)))
    y = X @ np.array([1.5, 0.0, -2.0, 0.0, 0.7]) + 0.2 * rng.normal(size=60)
    lam = 0.1
    m = fit_lasso(X, y, PenaltyConfig(lam=lam, tol=1e-10))
    assert lasso_kkt_gap(X, y, m, lam) <= 1e-4


def test_lasso_sparsity_increases_with_lambda(rng):
    X = _standardize(rng.normal(size=(80, 6)))
    y = X @ np.array([2.0, 1.0, 0.5, 0.2, 0.1, 0.0]) + 0.1 * rng.normal(size=80)
    lmax = lasso_lambda_max(X, y)
    nz = [int(np.sum(fit_lasso(X, y, PenaltyConfig(lam=f * lmax)).weights != 0.0))
          for f in (0.005, 0.1, 0.4, 1.01)]
    assert all(a >= b for a, b in zip(nz, nz[1:]))
    assert nz[-1] == 0


def test_lasso_warns_on_unstandardized(rng):
    X = rng.normal(size=(30, 2)) * 100 + 5
    y = X[:, 0]
    with pytest.warns(UserWarning):
        fit_lasso(X, y, PenaltyConfig(lam=0.1))


# -- logistic ------------------------------------------------------------------


def test_logistic_constant_features_give_base_rate():
    X = np.ones((40, 2))
    y = np.array([1] * 10 + [0] * 30)
    m = fit_logistic(X, y)
    assert abs(m.intercept + np.log(3.0)) < 1e-8  # log(10/30)
    proba = m.scored(X)[1]
    assert np.allclose(proba, 0.25, atol=1e-8)


def test_logistic_gradient_zero_at_optimum(rng):
    X = rng.normal(size=(200, 3))
    z = X @ np.array([1.0, -1.0, 0.5]) + 0.3
    y = (rng.random(200) < 1.0 / (1.0 + np.exp(-z))).astype(np.int64)
    m = fit_logistic(X, y, PenaltyConfig(lam=0.0, tol=1e-8))
    assert m.converged
    # independent finite-difference check of the mean NLL gradient
    params = np.concatenate([[m.intercept], m.weights])

    def nll(p):
        raw = p[0] + X @ p[1:]
        return float(np.mean(np.logaddexp(0.0, raw) - y * raw))

    for j in range(4):
        e = np.zeros(4)
        e[j] = 1e-6
        g = (nll(params + e) - nll(params - e)) / 2e-6
        assert abs(g) < 1e-5, f"param {j} gradient {g}"


def test_logistic_separable_predicts_perfectly(two_blob_ds):
    m = fit_logistic(two_blob_ds.rows, two_blob_ds.labels)
    pred, proba = m.scored(two_blob_ds.rows)
    assert np.array_equal(pred, two_blob_ds.labels)
    assert np.array_equal(pred, (m.predict(two_blob_ds.rows) > 0.0).astype(np.int64))
    assert np.array_equal(pred, (proba > 0.5).astype(np.int64))


def test_logistic_ridge_shrinks_weights(rng):
    X = rng.normal(size=(100, 3))
    y = (X[:, 0] > 0).astype(np.int64)
    free = fit_logistic(X, y, PenaltyConfig(lam=0.0, ridge=0.0))
    shrunk = fit_logistic(X, y, PenaltyConfig(lam=0.0, ridge=10.0))
    assert np.linalg.norm(shrunk.weights) < np.linalg.norm(free.weights)


def test_logistic_rejects_single_class(rng):
    X = rng.normal(size=(20, 2))
    with pytest.raises(FitError):
        fit_logistic(X, np.ones(20, dtype=np.int64))
    with pytest.raises(FitError):
        fit_logistic(X, np.arange(20) % 3)


# -- linear svm ----------------------------------------------------------------


def test_svm_separates_blobs(two_blob_ds):
    m = fit_linear_svm(two_blob_ds.rows, two_blob_ds.labels,
                       PenaltyConfig(lam_svm=0.01, epochs=40))
    pred = m.scored(two_blob_ds.rows)[0]
    acc = float(np.mean(pred == two_blob_ds.labels))
    assert acc >= 0.99
    assert set(np.unique(pred)) <= {0, 1}
    assert m.family == "linear_svm"


def test_svm_objective_trace_recorded_and_improves(two_blob_ds):
    cfg = PenaltyConfig(lam_svm=0.01, epochs=30)
    m = fit_linear_svm(two_blob_ds.rows, two_blob_ds.labels, cfg)
    trace = np.asarray(m.objective_trace)
    assert trace.shape == (30,)
    assert trace[-1] <= trace[0]
    # averaged-iterate objective settles: late epochs are nearly monotone
    late = trace[14:]
    assert np.all(np.diff(late) <= 1e-3)


def test_svm_deterministic(two_blob_ds):
    cfg = PenaltyConfig(lam_svm=0.05, epochs=10, seed=3)
    a = fit_linear_svm(two_blob_ds.rows, two_blob_ds.labels, cfg)
    b = fit_linear_svm(two_blob_ds.rows, two_blob_ds.labels, cfg)
    assert np.array_equal(a.weights, b.weights)
    assert a.intercept == b.intercept


def test_svm_single_class_rejected(rng):
    X = rng.normal(size=(10, 2))
    with pytest.raises(FitError):
        fit_linear_svm(X, np.zeros(10, dtype=np.int64))


# -- linear svr ----------------------------------------------------------------


def test_svr_fits_line(rng):
    x = rng.normal(size=(300, 1))
    y = 3.0 * x[:, 0] + 2.0 + 0.05 * rng.normal(size=300)
    m = fit_linear_svr(x, y, PenaltyConfig(lam_svm=0.001, eps=0.1, epochs=80))
    pred = m.predict(x)
    r2 = 1.0 - float(np.mean((y - pred) ** 2) / np.var(y))
    assert r2 > 0.95
    assert m.family == "linear_svr"


def test_svr_wide_tube_kills_weights(rng):
    x = rng.normal(size=(100, 2))
    y = x[:, 0]
    m = fit_linear_svr(x, y, PenaltyConfig(lam_svm=0.1, eps=100.0, epochs=20))
    assert np.max(np.abs(m.weights)) < 1e-6


def test_svr_trace_length(rng):
    x = rng.normal(size=(50, 2))
    y = x[:, 0]
    m = fit_linear_svr(x, y, PenaltyConfig(epochs=12))
    assert len(m.objective_trace) == 12


# -- config and shared contracts -------------------------------------------------


def test_penalty_config_validation():
    with pytest.raises(ConfigError):
        PenaltyConfig(lam=-0.1)
    with pytest.raises(ConfigError):
        PenaltyConfig(tol=0.0)
    with pytest.raises(ConfigError):
        PenaltyConfig(max_iter=0)
    with pytest.raises(ConfigError):
        PenaltyConfig(eps=-1.0)
    with pytest.raises(ConfigError):
        PenaltyConfig(epochs=0)
    with pytest.raises(ConfigError):
        PenaltyConfig(lam_svm=0.0)


def test_shape_mismatch_rejected(rng):
    with pytest.raises(FitError):
        fit_ols(rng.normal(size=(10, 2)), rng.normal(size=9))
