import math

import numpy as np
import pytest

from heartlab.errors import ConfigError, ContractError, FitError
from heartlab.neighbors import (
    GaussianNbModel,
    KnnModel,
    WEIGHT_INVERSE,
    WEIGHT_UNIFORM,
    fit_gnb,
    fit_knn,
)
from heartlab.trees import TASK_CLASSIFICATION, TASK_REGRESSION

from conftest import make_ds


def _naive_knn(Xtr, ytr, Xq, k, weighting, task, n_classes=0):
    # independent loop oracle: sort by (distance, index), weighted votes/mean;
    # classification also gives class 1's share of the votes
    preds, ones = [], []
    for q in Xq:
        d = np.sqrt(((Xtr - q) ** 2).sum(axis=1))
        order = sorted(range(len(d)), key=lambda i: (d[i], i))[:k]
        wts = [1.0 if weighting == WEIGHT_UNIFORM else 1.0 / (d[i] + 1e-12)
               for i in order]
        if task == TASK_CLASSIFICATION:
            votes = [0.0] * n_classes
            for w, i in zip(wts, order):
                votes[int(ytr[i])] += w
            preds.append(max(range(n_classes), key=lambda c: (votes[c], -c)))
            ones.append(votes[1] / sum(votes))
        else:
            preds.append(sum(w * ytr[i] for w, i in zip(wts, order)) / sum(wts))
    return np.asarray(preds, dtype=np.float64), np.asarray(ones)


def test_k1_exact_match_returns_that_label():
    rows = np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 1.0]])
    ds = make_ds(rows, labels=np.array([2, 0, 1]))
    m = fit_knn(ds.rows, ds.labels, k=1)
    assert m.scored([[5.0, 5.0], [0.0, 0.0]])[0].tolist() == [0, 2]


def test_uniform_regression_mean_of_neighbors():
    rows = np.array([[0.0], [1.0], [2.0], [50.0]])
    ds = make_ds(rows, targets=np.array([1.0, 2.0, 3.0, 99.0]))
    m = fit_knn(ds.rows, ds.targets, k=3, task=TASK_REGRESSION)
    assert m.predict([[1.0]])[0] == pytest.approx(2.0, abs=1e-12)


def test_vote_tie_goes_to_lower_class_code():
    rows = np.array([[0.0, 0.0], [2.0, 0.0]])
    m = fit_knn(rows, np.array([0, 1]), k=2)
    assert m.scored([[1.0, 0.0]])[0][0] == 0
    # swap which point carries which label; the tie-break is on class code
    m2 = fit_knn(rows, np.array([1, 0]), k=2)
    assert m2.scored([[1.0, 0.0]])[0][0] == 0


def test_distance_tie_breaks_to_lower_row_index():
    rows = np.array([[3.0, 3.0], [3.0, 3.0], [8.0, 8.0]])
    m = fit_knn(rows, np.array([1, 0, 0]), k=1)
    assert m.scored([[3.0, 3.0]])[0][0] == 1


def test_inverse_distance_can_overturn_uniform_vote():
    rows = np.array([[1.0, 0.0], [-2.0, 0.0], [0.0, 2.2]])
    labels = np.array([1, 0, 0])
    uni = fit_knn(rows, labels, k=3, weighting=WEIGHT_UNIFORM)
    inv = fit_knn(rows, labels, k=3, weighting=WEIGHT_INVERSE)
    q = [[0.0, 0.0]]
    assert uni.scored(q)[0][0] == 0
    assert inv.scored(q)[0][0] == 1


def test_inverse_distance_regression_hand_case():
    rows = np.array([[1.0], [2.0], [10.0]])
    ds = make_ds(rows, targets=np.array([0.0, 3.0, 77.0]))
    m = fit_knn(ds.rows, ds.targets, k=2, weighting=WEIGHT_INVERSE, task=TASK_REGRESSION)
    # weights 1/1 and 1/2 -> (0*1 + 3*0.5) / 1.5 = 1.0
    assert m.predict([[0.0]])[0] == pytest.approx(1.0, abs=1e-9)


def test_inverse_distance_exact_match_dominates():
    rows = np.array([[0.0], [1.0], [2.0]])
    ds = make_ds(rows, targets=np.array([5.0, -3.0, 8.0]))
    m = fit_knn(ds.rows, ds.targets, k=3, weighting=WEIGHT_INVERSE, task=TASK_REGRESSION)
    assert m.predict([[1.0]])[0] == pytest.approx(-3.0, abs=1e-6)


def test_matches_naive_oracle_classification(rng):
    Xtr = rng.normal(size=(40, 3))
    ytr = rng.integers(0, 3, size=40)
    Xq = rng.normal(size=(25, 3))
    for weighting in (WEIGHT_UNIFORM, WEIGHT_INVERSE):
        m = fit_knn(Xtr, ytr, k=5, weighting=weighting)
        pred, share = m.scored(Xq)
        want, want_share = _naive_knn(Xtr, ytr, Xq, 5, weighting, TASK_CLASSIFICATION, 3)
        assert np.array_equal(pred, want.astype(np.int64))
        assert np.allclose(share, want_share, rtol=1e-12, atol=1e-12)


def test_matches_naive_oracle_regression(rng):
    Xtr = rng.normal(size=(40, 3))
    ttr = rng.normal(size=40)
    Xq = rng.normal(size=(25, 3))
    for weighting in (WEIGHT_UNIFORM, WEIGHT_INVERSE):
        m = fit_knn(Xtr, ttr, k=4, weighting=weighting,
                    task=TASK_REGRESSION)
        got = m.predict(Xq)
        want, _ = _naive_knn(Xtr, ttr, Xq, 4, weighting, TASK_REGRESSION)
        assert np.allclose(got, want, rtol=1e-9, atol=1e-12)


def test_prediction_invariant_under_training_permutation(rng):
    Xtr = rng.normal(size=(30, 4))
    ytr = rng.integers(0, 2, size=30)
    Xq = rng.normal(size=(20, 4))
    perm = rng.permutation(30)
    a = fit_knn(Xtr, ytr, k=7)
    b = fit_knn(Xtr[perm], ytr[perm], k=7)
    pa, sa = a.scored(Xq)
    pb, sb = b.scored(Xq)
    assert np.array_equal(pa, pb)
    assert np.allclose(sa, sb, atol=1e-12)


def test_knn_k_bounds_rejected(rng):
    ds = make_ds(rng.normal(size=(5, 2)), labels=np.array([0, 1, 0, 1, 0]))
    with pytest.raises(ConfigError):
        fit_knn(ds.rows, ds.labels, k=6)
    with pytest.raises(ConfigError):
        fit_knn(ds.rows, ds.labels, k=0)


def test_knn_unknown_weighting_rejected(rng):
    ds = make_ds(rng.normal(size=(5, 2)), labels=np.array([0, 1, 0, 1, 0]))
    with pytest.raises(ConfigError):
        fit_knn(ds.rows, ds.labels, weighting="gaussian", k=2)


def test_knn_query_width_mismatch(rng):
    ds = make_ds(rng.normal(size=(6, 3)), labels=np.zeros(6, dtype=np.int64))
    m = fit_knn(ds.rows, ds.labels, k=2)
    with pytest.raises(ContractError):
        m.scored(rng.normal(size=(2, 4)))
    with pytest.raises(ContractError):
        m.predict(rng.normal(size=(2, 4)))


def test_gnb_symmetric_classes_split_the_posterior():
    rows = np.array([[-1.5], [-0.5], [0.5], [1.5]])
    ds = make_ds(rows, labels=np.array([0, 0, 1, 1]))
    m = fit_gnb(ds.rows, ds.labels)
    p = m.posterior(np.array([[0.0]]))[0]
    assert p[0] == pytest.approx(0.5, abs=1e-9)
    assert p[1] == pytest.approx(0.5, abs=1e-9)


def test_gnb_likelihood_dominance():
    rows = np.vstack([np.array([[-0.5], [0.5]]), np.array([[49.5], [50.5]])])
    ds = make_ds(rows, labels=np.array([0, 0, 1, 1]))
    m = fit_gnb(ds.rows, ds.labels)
    p = m.posterior([[0.0]])[0]
    assert np.argmax(p) == 0
    assert p[0] > 0.9999


def test_gnb_hand_computed_posterior():
    # class 0: mean (0,0), pop var (0.5,0.5); class 1: mean (4,2), same vars
    rows = np.array([
        [-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0],
        [3.0, 2.0], [5.0, 2.0], [4.0, 1.0], [4.0, 3.0],
    ])
    labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    m = fit_gnb(rows, labels)
    q = np.array([1.0, 1.0])

    def dens(x, mu, var):
        return math.exp(-(x - mu) ** 2 / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)

    j0 = 0.5 * dens(1.0, 0.0, 0.5) * dens(1.0, 0.0, 0.5)
    j1 = 0.5 * dens(1.0, 4.0, 0.5) * dens(1.0, 2.0, 0.5)
    p = m.posterior(q.reshape(1, -1))[0]
    assert p[0] == pytest.approx(j0 / (j0 + j1), abs=1e-9)
    assert p[1] == pytest.approx(j1 / (j0 + j1), abs=1e-9)
    assert np.argmax(p) == 0


def test_gnb_unequal_priors_enter_the_posterior():
    rows = np.array([[-1.5], [-0.5], [0.5], [1.5], [-2.5], [2.5]])
    labels = np.array([0, 0, 1, 1, 0, 0])
    m = fit_gnb(rows, labels)
    assert np.allclose(m.priors, [4 / 6, 2 / 6], atol=1e-15)
    assert m.priors.sum() == pytest.approx(1.0, abs=1e-15)


def test_gnb_posteriors_sum_to_one(rng):
    X = rng.normal(size=(50, 4))
    y = rng.integers(0, 3, size=50)
    m = fit_gnb(X, y)
    p = m.posterior(rng.normal(size=(30, 4)) * 10.0)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(p >= 0.0)


def test_gnb_score_shift_invariance(rng):
    X = rng.normal(size=(40, 3))
    y = rng.integers(0, 2, size=40)
    m = fit_gnb(X, y)
    Q = rng.normal(size=(15, 3))
    scores = m.log_scores(Q)
    assert np.array_equal(np.argmax(scores, axis=1), np.argmax(m.posterior(Q), axis=1))
    assert np.array_equal(m.scored(Q)[0], np.argmax(scores, axis=1))
    assert np.array_equal(np.argmax(scores, axis=1), np.argmax(scores + 7.25, axis=1))


def test_gnb_variance_floor_applies_to_constant_feature(rng):
    n = 8
    X = np.column_stack([
        np.full(n, 3.0),                 # constant within every class
        rng.normal(size=n) * 2.0,
    ])
    y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    m = fit_gnb(X, y)
    overall = np.mean((X - X.mean(axis=0)) ** 2, axis=0)
    assert m.floor == pytest.approx(1e-9 * overall.max(), rel=1e-12)
    assert m.variances[0, 0] == m.floor
    assert np.all(m.variances >= m.floor)


def test_gnb_single_row_class_rejected(rng):
    X = rng.normal(size=(4, 2))
    with pytest.raises(FitError):
        fit_gnb(X, np.array([0, 0, 0, 1]))
