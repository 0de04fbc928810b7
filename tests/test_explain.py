import itertools
import math

import numpy as np
import pytest

from heartlab import explain
from heartlab.errors import ConfigError, ExplainError
from heartlab.explain import (
    Attribution,
    LimeConfig,
    ShapConfig,
    coalition_value,
    lime_explain,
    sample_background,
    shap_exact,
    shap_sampled,
    shap_values,
)
from heartlab.models import EstimatorSpec, fit, scalar_output
from heartlab.trees import TASK_CLASSIFICATION, TASK_REGRESSION

from conftest import make_ds


def _v(fn, x, S, background):
    # independent coalition evaluator: plain python splice-and-average
    total = 0.0
    for b in background:
        z = np.array(b, dtype=np.float64)
        for j in S:
            z[j] = x[j]
        total += float(fn(z.reshape(1, -1))[0])
    return total / len(background)


def _perm_oracle(fn, x, background):
    # average marginal contributions over all M! orders, via _v only
    M = x.size
    phi = np.zeros(M)
    for perm in itertools.permutations(range(M)):
        cur = []
        prev = _v(fn, x, cur, background)
        for j in perm:
            cur.append(j)
            nxt = _v(fn, x, cur, background)
            phi[j] += nxt - prev
            prev = nxt
    return phi / math.factorial(M)


def _depth2_tree(Z):
    Z = np.atleast_2d(Z)
    left = np.where(Z[:, 1] <= 1.0, 1.0, 3.0)
    right = np.where(Z[:, 2] <= -0.5, -2.0, 5.0)
    return np.where(Z[:, 0] <= 0.0, left, right)


def test_coalition_value_endpoints(rng):
    fn = lambda Z: Z[:, 0] * Z[:, 1] + Z[:, 2]
    bg = rng.normal(size=(10, 3))
    x = np.array([1.5, -2.0, 0.25])
    assert coalition_value(fn, x, [0, 1, 2], bg) == pytest.approx(
        float(fn(x.reshape(1, -1))[0]), abs=1e-12)
    assert coalition_value(fn, x, [], bg) == pytest.approx(
        float(np.mean(fn(bg))), abs=1e-12)


def test_coalition_value_additive_model(rng):
    gs = (lambda t: t ** 2, np.sin, np.abs)
    fn = lambda Z: gs[0](Z[:, 0]) + gs[1](Z[:, 1]) + gs[2](Z[:, 2])
    bg = rng.normal(size=(12, 3))
    x = np.array([0.7, -1.2, 2.0])
    for S in ([], [0], [1], [2], [0, 2], [1, 2], [0, 1, 2]):
        want = sum(float(gs[j](x[j])) for j in S)
        want += sum(float(np.mean(gs[j](bg[:, j]))) for j in range(3) if j not in S)
        assert coalition_value(fn, x, S, bg) == pytest.approx(want, abs=1e-10)


def test_coalition_value_empty_background():
    with pytest.raises(ConfigError):
        coalition_value(lambda Z: Z[:, 0], np.array([1.0]), [0], np.empty((0, 1)))


def test_exact_linear_point_background():
    fn = lambda Z: 2.0 * Z[:, 0] + 3.0 * Z[:, 1]
    att = shap_exact(fn, np.array([1.0, 1.0]), np.array([[0.0, 0.0]]))
    assert np.allclose(att.phi, [2.0, 3.0], atol=1e-12)
    assert att.base_value == pytest.approx(0.0, abs=1e-12)
    assert att.fx == pytest.approx(5.0, abs=1e-12)


def test_exact_dummy_feature_gets_zero(rng):
    fn = lambda Z: Z[:, 0] ** 2 - Z[:, 2]
    bg = rng.normal(size=(8, 3))
    att = shap_exact(fn, np.array([1.0, 99.0, -2.0]), bg)
    assert att.phi[1] == pytest.approx(0.0, abs=1e-12)


def test_exact_symmetry(rng):
    fn = lambda Z: Z[:, 0] + Z[:, 1] + 0.5 * Z[:, 2] ** 2
    bg = rng.normal(size=(6, 3))
    bg[:, 1] = bg[:, 0]  # identical columns in background and instance
    att = shap_exact(fn, np.array([1.3, 1.3, -0.4]), bg)
    assert att.phi[0] == pytest.approx(att.phi[1], abs=1e-10)


def test_exact_efficiency(rng):
    fn = lambda Z: np.tanh(Z[:, 0]) * Z[:, 1] + np.exp(0.1 * Z[:, 2]) - Z[:, 3] ** 2
    bg = rng.normal(size=(16, 4))
    x = rng.normal(size=4)
    att = shap_exact(fn, x, bg)
    assert att.phi.sum() == pytest.approx(att.fx - att.base_value, abs=1e-8)


def test_exact_matches_permutation_oracle_tree(rng):
    bg = rng.normal(size=(5, 3))
    x = np.array([0.4, 1.7, -1.0])
    att = shap_exact(_depth2_tree, x, bg)
    want = _perm_oracle(_depth2_tree, x, bg)
    assert np.allclose(att.phi, want, atol=1e-10)


def test_exact_matches_permutation_oracle_m4(rng):
    fn = lambda Z: Z[:, 0] * Z[:, 1] + np.sin(Z[:, 2]) + Z[:, 3] ** 2
    bg = rng.normal(size=(4, 4))
    x = rng.normal(size=4)
    att = shap_exact(fn, x, bg)
    want = _perm_oracle(fn, x, bg)
    assert np.allclose(att.phi, want, atol=1e-10)
    assert att.base_value == pytest.approx(_v(fn, x, [], bg), abs=1e-12)


def test_exact_feature_cap(rng):
    fn = lambda Z: Z.sum(axis=1)
    x = np.ones(13)
    bg = rng.normal(size=(2, 13))
    with pytest.raises(ConfigError, match="sampled"):
        shap_exact(fn, x, bg)
    att = shap_exact(fn, x, bg, ShapConfig(exact_feature_cap=13))
    assert att.phi.sum() == pytest.approx(att.fx - att.base_value, abs=1e-8)


def test_sampled_within_three_se_of_exact(rng):
    fn = lambda Z: (np.tanh(Z[:, 0]) * Z[:, 1] + Z[:, 2] ** 2 - 0.5 * Z[:, 3]
                    + np.abs(Z[:, 4]) + Z[:, 5] * Z[:, 6] + np.sin(Z[:, 7]))
    bg = rng.normal(size=(16, 8))
    x = rng.normal(size=8)
    exact = shap_exact(fn, x, bg)
    samp = shap_sampled(fn, x, bg, ShapConfig(mode="sampled", n_permutations=300, seed=4))
    assert samp.standard_errors is not None
    assert np.all(np.abs(samp.phi - exact.phi) <= 3.0 * samp.standard_errors + 1e-9)


def test_sampled_efficiency_is_exact(rng):
    fn = lambda Z: Z[:, 0] ** 2 + Z[:, 1] * Z[:, 2]
    bg = rng.normal(size=(8, 3))
    x = rng.normal(size=3)
    att = shap_sampled(fn, x, bg, ShapConfig(mode="sampled", n_permutations=9))
    assert att.phi.sum() == pytest.approx(att.fx - att.base_value, abs=1e-12)


def test_sampled_seed_determinism(rng):
    # M=3 with a partial permutation sample, so the seed actually matters
    # (at M=2 the antithetic pairs already enumerate both orders)
    fn = lambda Z: np.cos(Z[:, 0]) * Z[:, 1] + Z[:, 2] ** 2
    bg = rng.normal(size=(6, 3))
    x = np.array([0.3, -1.1, 0.8])
    cfg = ShapConfig(mode="sampled", n_permutations=4, seed=9)
    a = shap_sampled(fn, x, bg, cfg)
    b = shap_sampled(fn, x, bg, cfg)
    assert np.array_equal(a.phi, b.phi)
    assert np.array_equal(a.standard_errors, b.standard_errors)
    c = shap_sampled(fn, x, bg, ShapConfig(mode="sampled", n_permutations=4, seed=10))
    assert not np.array_equal(a.phi, c.phi)


def test_single_feature_game(rng):
    fn = lambda Z: 3.0 * Z[:, 0] ** 2
    bg = rng.normal(size=(7, 1))
    x = np.array([1.4])
    for att in (shap_exact(fn, x, bg),
                shap_sampled(fn, x, bg, ShapConfig(mode="sampled", n_permutations=5))):
        assert att.phi[0] == pytest.approx(att.fx - att.base_value, abs=1e-12)


def test_shap_values_dispatch(rng):
    fn = lambda Z: Z[:, 0] - Z[:, 1]
    bg = rng.normal(size=(4, 2))
    x = np.array([1.0, 2.0])
    assert shap_values(fn, x, bg).standard_errors is None
    assert shap_values(fn, x, bg,
                       ShapConfig(mode="sampled", n_permutations=8)).standard_errors is not None
    # a null mode is exact up to exact_feature_cap features, sampled above
    assert shap_values(fn, x, bg, ShapConfig(exact_feature_cap=1)).mode == "sampled"
    assert shap_values(fn, x, bg, ShapConfig(exact_feature_cap=2)).mode == "exact"


def test_shap_config_validation():
    with pytest.raises(ConfigError):
        ShapConfig(mode="approximate")
    with pytest.raises(ConfigError):
        ShapConfig(mode="sampled", n_permutations=0)
    with pytest.raises(ConfigError, match="background_size"):
        ShapConfig(background_size=0)


def test_shap_on_trained_model(two_blob_ds):
    m = fit(EstimatorSpec("logistic", TASK_CLASSIFICATION), two_blob_ds)
    rows = np.asarray(two_blob_ds.rows)
    bg = sample_background(rows, size=16, seed=1)
    att = shap_exact(m, rows[0], bg)
    assert att.phi.sum() == pytest.approx(att.fx - att.base_value, abs=1e-8)
    assert 0.0 <= att.fx <= 1.0


def test_model_argument_validation():
    with pytest.raises(ConfigError):
        coalition_value(42, np.array([1.0]), [0], np.ones((2, 1)))


def test_sample_background(rng):
    rows = rng.normal(size=(50, 3))
    bg = sample_background(rows, size=8, seed=3)
    assert bg.shape == (8, 3)
    # every background row is one of the training rows
    assert all(any(np.array_equal(b, r) for r in rows) for b in bg)
    assert np.array_equal(bg, sample_background(rows, size=8, seed=3))
    small = sample_background(rows[:5], size=8, seed=3)
    assert np.array_equal(small, rows[:5])
    with pytest.raises(ConfigError):
        sample_background(np.empty((0, 3)), size=8)


def test_lime_recovers_single_linear_signal():
    fn = lambda Z: 5.0 * Z[:, 0]
    x = np.array([0.5, -0.25, 1.0])
    exp = lime_explain(fn, x, LimeConfig(seed=2))
    coef = dict(zip(exp.feature_indices.tolist(), exp.coefficients))
    assert abs(coef[0] - 5.0) <= 0.25
    for j, c in coef.items():
        if j != 0:
            assert abs(c) <= 0.1
    assert exp.fx == pytest.approx(2.5, abs=1e-12)


def test_lime_constant_model():
    fn = lambda Z: np.full(Z.shape[0], 7.5)
    exp = lime_explain(fn, np.zeros(4), LimeConfig(seed=0))
    assert np.allclose(exp.coefficients, 0.0, atol=1e-9)
    assert exp.intercept == pytest.approx(7.5, abs=1e-9)
    assert exp.fidelity_r2 == 1.0


def test_lime_fidelity_in_unit_interval(rng):
    fn = lambda Z: np.sign(Z[:, 0]) + 0.2 * rngless_noise(Z)
    # deterministic pseudo-noise so the model is still a pure function
    def rngless_noise(Z):
        return np.sin(31.0 * Z[:, 1]) * np.cos(17.0 * Z[:, 2])
    exp = lime_explain(fn, np.array([0.1, 0.0, -0.3]), LimeConfig(seed=5))
    assert 0.0 <= exp.fidelity_r2 <= 1.0


def test_lime_selects_relevant_features():
    fn = lambda Z: 10.0 * Z[:, 0] + 10.0 * Z[:, 5]
    exp = lime_explain(fn, np.zeros(6), LimeConfig(n_features=2, seed=1))
    assert exp.feature_indices.tolist() == [0, 5]
    assert len(exp.coefficients) == 2


def test_lime_default_sigma_and_determinism():
    fn = lambda Z: Z[:, 0] ** 2
    x = np.array([1.0, 2.0, 3.0, 4.0])
    a = lime_explain(fn, x, LimeConfig(seed=3))
    b = lime_explain(fn, x, LimeConfig(seed=3))
    assert a.sigma == pytest.approx(0.75 * math.sqrt(4))
    assert np.array_equal(a.coefficients, b.coefficients)
    assert a.intercept == b.intercept


def test_lime_degenerate_kernel_width():
    fn = lambda Z: Z[:, 0]
    with pytest.raises(ExplainError, match="kernel width"):
        lime_explain(fn, np.zeros(3), LimeConfig(sigma=1e-160, seed=0))


def test_lime_config_validation():
    with pytest.raises(ConfigError):
        LimeConfig(n_samples=50)
    with pytest.raises(ConfigError):
        LimeConfig(sigma=0.0)
    with pytest.raises(ConfigError):
        LimeConfig(sigma=-1.0)


def test_lime_on_trained_model(two_blob_ds):
    m = fit(EstimatorSpec("logistic", TASK_CLASSIFICATION), two_blob_ds)
    exp = lime_explain(m, np.asarray(two_blob_ds.rows)[0], LimeConfig(seed=7))
    assert len(exp.feature_indices) == 2
    assert 0.0 <= exp.fidelity_r2 <= 1.0
    assert 0.0 <= exp.fx <= 1.0


# ---------------------------------------------------------------------------
# Oracle for the coalition table: sampled SHAP with one model call per
# permutation, splicing the chain's coalitions in one feature at a time.
# The explainer evaluates each distinct coalition once, in row blocks; its
# output must match this reference bit for bit.
# ---------------------------------------------------------------------------


def _reference_perms(M, n_perm, seed):
    perms = []
    pair = 0
    while len(perms) < n_perm:
        p = np.random.default_rng([seed, pair]).permutation(M)
        perms.append(p)
        if len(perms) < n_perm:
            perms.append(p[::-1].copy())
        pair += 1
    return perms


def _reference_sampled(fn, x, background, n_perm, seed):
    M = x.size
    bg = background.shape[0]
    samples = np.empty((n_perm, M))
    base = fx = None
    for pi, perm in enumerate(_reference_perms(M, n_perm, seed)):
        blocks = np.empty((M + 1, bg, M), dtype=np.float64)
        z = background.copy()
        blocks[0] = z
        for step, j in enumerate(perm):
            z = z.copy()
            z[:, j] = x[j]
            blocks[step + 1] = z
        means = fn(blocks.reshape((M + 1) * bg, M)).reshape(M + 1, bg).mean(axis=1)
        if base is None:
            base = float(means[0])
            fx = float(means[-1])
        samples[pi, perm] = np.diff(means)
    phi = samples.mean(axis=0)
    se = samples.std(axis=0, ddof=1) / math.sqrt(n_perm) if n_perm > 1 else np.zeros(M)
    phi = phi + ((fx - base) - float(phi.sum())) / M
    return Attribution(phi=phi, base_value=base, fx=fx, mode="sampled", standard_errors=se)


def _assert_same_bytes(a, b):
    assert a.phi.tobytes() == b.phi.tobytes()
    assert a.standard_errors.tobytes() == b.standard_errors.tobytes()
    assert a.base_value == b.base_value
    assert a.fx == b.fx


@pytest.fixture(scope="module")
def oracle_models():
    g = np.random.default_rng(11)
    rows = g.normal(size=(160, 6))
    labels = (rows[:, 0] + rows[:, 1] * rows[:, 2] + 0.3 * g.normal(size=160) > 0).astype(int)
    targets = 2.0 * rows[:, 0] + np.sin(rows[:, 3]) + 0.1 * g.normal(size=160)
    ds = make_ds(rows, labels=labels, targets=targets)
    specs = [("random_forest", TASK_CLASSIFICATION, {"n_trees": 8}),
             ("gbt", TASK_REGRESSION, {"n_rounds": 8}),
             ("logistic", TASK_CLASSIFICATION, {}),
             ("ols", TASK_REGRESSION, {}),
             ("knn", TASK_CLASSIFICATION, {})]
    models = {fam: fit(EstimatorSpec(fam, task, hp, seed=1), ds) for fam, task, hp in specs}
    return rows, models


# BLAS matrix-vector products round a row by its position within the
# call's groups of four rows, so linear models give call-independent
# outputs only when blocks and backgrounds are multiples of four rows;
# 12-row blocks over an 8-row background still split coalitions across calls.
@pytest.mark.parametrize("family", ["random_forest", "gbt", "logistic", "ols", "knn"])
@pytest.mark.parametrize("n_perm", [1, 2, 7, 200])
def test_sampled_matches_per_permutation_reference(oracle_models, monkeypatch, family, n_perm):
    rows, models = oracle_models
    bg = sample_background(rows, size=8, seed=2)
    fn = scalar_output(models[family])
    want = _reference_sampled(fn, rows[5], bg, n_perm, seed=3)
    for block in (1 << 14, 12):
        monkeypatch.setattr(explain, "_BLOCK_ROWS", block)
        got = shap_sampled(models[family], rows[5], bg,
                           ShapConfig(mode="sampled", n_permutations=n_perm, seed=3))
        _assert_same_bytes(got, want)


@pytest.mark.parametrize("family", ["random_forest", "logistic"])
def test_exact_same_bytes_at_two_block_sizes(oracle_models, monkeypatch, family):
    rows, models = oracle_models
    bg = sample_background(rows, size=8, seed=2)
    got = []
    for block in (1 << 14, 24):
        monkeypatch.setattr(explain, "_BLOCK_ROWS", block)
        got.append(shap_exact(models[family], rows[9], bg))
    assert got[0].phi.tobytes() == got[1].phi.tobytes()
    assert (got[0].base_value, got[0].fx) == (got[1].base_value, got[1].fx)


def test_sampled_past_int64_mask_width(rng, monkeypatch):
    # 70 features: coalitions no longer fit one int64 bitmask
    M = 70
    fn = lambda Z: np.sin(Z[:, :35]).sum(axis=1) * np.tanh(Z[:, 35:]).sum(axis=1)
    bg = rng.normal(size=(4, M))
    x = rng.normal(size=M)
    monkeypatch.setattr(explain, "_BLOCK_ROWS", 64)
    got = shap_sampled(fn, x, bg, ShapConfig(mode="sampled", n_permutations=6, seed=1))
    _assert_same_bytes(got, _reference_sampled(fn, x, bg, 6, seed=1))
    assert got.phi.sum() == pytest.approx(got.fx - got.base_value, abs=1e-9)


@pytest.mark.parametrize("block", [1 << 14, 40, 7])
def test_each_distinct_coalition_evaluated_once(rng, monkeypatch, block):
    M, n_perm = 5, 30
    bg = rng.normal(size=(6, M))
    x = rng.normal(size=M)
    calls = []

    def fn(Z):
        calls.append(Z.shape[0])
        return Z[:, 0] * Z[:, 1] + Z[:, 2:].sum(axis=1)

    monkeypatch.setattr(explain, "_BLOCK_ROWS", block)
    shap_sampled(fn, x, bg, ShapConfig(mode="sampled", n_permutations=n_perm, seed=2))
    distinct = {frozenset(p[:s].tolist())
                for p in _reference_perms(M, n_perm, 2) for s in range(M + 1)}
    assert sum(calls) == len(distinct) * bg.shape[0]
    assert max(calls) <= block
    assert len(calls) <= math.ceil(len(distinct) * bg.shape[0] / block)
