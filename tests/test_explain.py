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
from heartlab.trees import TASK_CLASSIFICATION, TASK_REGRESSION, by_argmax

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


def test_lime_on_a_forest_equals_lime_on_float_votes(oracle_models):
    """Votes counted as integers give LIME the bytes that votes added up as
    floats, one scatter per tree, gave."""
    rows, models = oracle_models
    forest = models["random_forest"].params

    def float_votes(X):
        votes = np.zeros((X.shape[0], forest.n_classes), dtype=np.float64)
        at = np.arange(X.shape[0])
        for tree in forest.trees:
            votes[at, by_argmax(tree.leaf_value)[0].take(tree.route(X))] += 1.0
        return by_argmax(votes / len(forest.trees))[1]

    for i in (0, 7):
        got = lime_explain(models["random_forest"], rows[i], LimeConfig(seed=i))
        want = lime_explain(float_votes, rows[i], LimeConfig(seed=i))
        assert got.coefficients.tobytes() == want.coefficients.tobytes()
        assert np.array_equal(got.feature_indices, want.feature_indices)
        assert (got.intercept, got.fidelity_r2, got.fx) == (want.intercept, want.fidelity_r2,
                                                             want.fx)


@pytest.mark.parametrize("M", [1, 7, 8, 9, 16, 17, 64, 65, 70])
@pytest.mark.parametrize("tied", [False, True], ids=["random", "tied"])
def test_distinct_rows_is_unique_of_the_unpacked_bits(M, tied):
    g = np.random.default_rng(M)
    if tied:  # a few rows that differ in one or two bits, each many times over
        pool = np.repeat(g.random((1, M)) < 0.5, 6, axis=0)
        pool[np.arange(6), g.integers(0, M, 6)] ^= True
        pool[1, -1] ^= True
        bits = pool[g.integers(0, 6, 300)]
    else:
        bits = g.random((300, M)) < 0.5
    want, first, inverse = np.unique(bits, axis=0, return_index=True, return_inverse=True)
    got_first, got_inverse = explain._distinct_rows(np.packbits(bits, axis=1))
    assert np.array_equal(got_first, first)
    assert np.array_equal(got_inverse, inverse.ravel())
    assert np.array_equal(bits[got_first], want)


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


# 12-row blocks over an 8-row background split coalitions across calls.
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


# ---------------------------------------------------------------------------
# The coalition table evaluates each distinct spliced row once. Its v(S)
# must match the plain table, which runs all k * bg spliced rows in table
# order in blocks of _BLOCK_ROWS, bit for bit.
# ---------------------------------------------------------------------------


def _plain_table(fn, x, background, member, block):
    bg = background.shape[0]
    out = np.empty(member.shape[0] * bg)
    for start in range(0, out.size, block):
        rows = np.arange(start, min(start + block, out.size))
        out[rows] = fn(np.where(member[rows // bg], x, background[rows % bg]))
    return out.reshape(member.shape[0], bg).mean(axis=1)


def _exact_member(M):
    return ((np.arange(1 << M)[:, None] >> np.arange(M)) & 1).astype(bool)


def _sampled_member(M, n_perm, seed):
    ranks = np.argsort(np.array(_reference_perms(M, n_perm, seed)), axis=1)
    return np.unique((ranks[:, None, :] < np.arange(M + 1)[:, None]).reshape(-1, M), axis=0)


def _tied_rows(g, n):
    # heart16-like columns: x agrees with many background rows on the
    # binary and small categorical ones
    return np.column_stack([g.normal(size=n), g.integers(0, 2, n), g.integers(0, 3, n),
                            g.normal(size=n), g.integers(0, 2, n),
                            np.round(g.normal(size=n), 1)]).astype(np.float64)


_FAMILIES = [("cart", TASK_CLASSIFICATION, {"max_depth": 4}),
             ("random_forest", TASK_CLASSIFICATION, {"n_trees": 6}),
             ("gbt", TASK_REGRESSION, {"n_rounds": 6}),
             ("ols", TASK_REGRESSION, {}),
             ("ridge", TASK_REGRESSION, {}),
             ("lasso", TASK_REGRESSION, {}),
             ("linear_svm", TASK_CLASSIFICATION, {"epochs": 3}),
             ("linear_svr", TASK_REGRESSION, {"epochs": 3}),
             ("knn", TASK_CLASSIFICATION, {}),
             ("gaussian_nb", TASK_CLASSIFICATION, {}),
             ("logistic", TASK_CLASSIFICATION, {})]


@pytest.fixture(scope="module")
def tied_models():
    g = np.random.default_rng(5)
    rows = _tied_rows(g, 200)
    labels = (rows[:, 0] + rows[:, 1] - rows[:, 2] * rows[:, 3] + 0.3 * g.normal(size=200)
              > 0).astype(int)
    targets = 2.0 * rows[:, 0] + rows[:, 2] + np.sin(rows[:, 5]) + 0.1 * g.normal(size=200)
    ds = make_ds(rows, labels=labels, targets=targets)
    return rows, {fam: fit(EstimatorSpec(fam, task, hp, seed=1), ds)
                  for fam, task, hp in _FAMILIES}


@pytest.fixture(scope="module")
def wide_models():
    # 14 features, as in heart16, where a BLAS matrix-vector product rounds
    # some rows differently by their place in the call
    g = np.random.default_rng(8)
    rows = g.normal(size=(300, 14))
    labels = (rows[:, 0] + rows[:, 1] * rows[:, 2] + 0.3 * g.normal(size=300) > 0).astype(int)
    ds = make_ds(rows, labels=labels, targets=rows @ g.normal(size=14) + 0.1 * g.normal(size=300))
    return rows, {fam: fit(EstimatorSpec(fam, task, hp, seed=1), ds)
                  for fam, task, hp in _FAMILIES}


@pytest.mark.parametrize("family", [f for f, _, _ in _FAMILIES])
def test_output_for_a_row_depends_on_that_row_alone(wide_models, family):
    rows, models = wide_models
    fn = scalar_output(models[family])
    X = rows[:203]
    whole = fn(X)
    perm = np.random.default_rng(1).permutation(X.shape[0])
    assert fn(X[perm]).tobytes() == whole[perm].tobytes()
    alone = np.concatenate([fn(X[i:i + 1]) for i in range(X.shape[0])])
    assert alone.tobytes() == whole.tobytes()


@pytest.mark.parametrize("family", [f for f, _, _ in _FAMILIES])
def test_coalition_table_matches_plain_table(tied_models, wide_models, monkeypatch, family):
    rows, models = tied_models
    cases = [(models[family], rows[7], sample_background(rows, size=size, seed=size), member)
             for size in (3, 5, 8, 32)
             for member in (_exact_member(6), _sampled_member(6, 9, seed=4))]
    rows, models = wide_models
    member = _sampled_member(14, 9, seed=4)
    cases += [(models[family], rows[0], sample_background(rows, size=size, seed=size), member)
              for size in (3, 5)]
    for model, x, bg, member in cases:
        fn = scalar_output(model)
        for block in (1 << 14, 12, 7):
            monkeypatch.setattr(explain, "_BLOCK_ROWS", block)
            got = explain._coalition_table(fn, x, bg, member)
            assert got.tobytes() == _plain_table(fn, x, bg, member, block).tobytes(), \
                (x.size, bg.shape[0], member.shape[0], block)


@pytest.mark.parametrize("family, task", [(f, task) for f, task, _ in _FAMILIES
                                          if f in ("ols", "ridge", "lasso", "linear_svm",
                                                   "linear_svr", "logistic")])
def test_table_tail_keeps_the_blas_remainder_path(wide_models, monkeypatch, family, task):
    # At 14 features, as in heart16, a BLAS matrix-vector product rounds
    # some rows differently on the remainder path of a call. The table's
    # last rows are x itself (the full coalition sorts last) and k * bg is
    # not a multiple of four, so the tail lands on that path; the linear
    # models sum without BLAS, so x's output must not move with it.
    rows, models = wide_models
    fn = scalar_output(models[family])
    x = rows[0]
    assert len(set(fn(np.repeat(x[None], 5, axis=0)))) == 1
    member = _sampled_member(14, 9, seed=4)[1:]
    assert member.shape[0] % 2 == 1 and member[-1].all()
    for size in (3, 5):
        bg = sample_background(rows, size=size, seed=size)
        for block in (1 << 14, 12, 7):
            monkeypatch.setattr(explain, "_BLOCK_ROWS", block)
            want = _plain_table(fn, x, bg, member, block)
            assert explain._coalition_table(fn, x, bg, member).tobytes() == want.tobytes()


def _bits_fn(Z):
    # reads the sign, exponent and top mantissa bits of column 0, so merging
    # two rows whose column 0 differs only in its sign would change the output
    return (Z[:, 0].view(np.uint64) >> np.uint64(48)).astype(np.float64) + Z[:, 1]


@pytest.mark.parametrize("x0, b0", [(0.0, -0.0), (np.nan, -np.nan)], ids=["zero", "nan"])
def test_rows_differing_only_in_bits_are_not_merged(x0, b0):
    payload = np.array([x0, b0]).view(np.uint64)
    assert payload[0] != payload[1]
    x = np.array([x0, 2.0])
    bg = np.array([[b0, 2.0], [b0, 3.0], [x0, 2.0]])
    member = _exact_member(2)
    got = explain._coalition_table(_bits_fn, x, bg, member)
    assert got.tobytes() == _plain_table(_bits_fn, x, bg, member, 1 << 14).tobytes()
    assert got[0b01] != got[0b00]    # {0} moves x's bits into rows 0 and 1
    # x ties the last background row bitwise: it splices to one row
    calls = []
    explain._coalition_table(lambda Z: calls.append(Z.copy()) or _bits_fn(Z), x, bg[2:], member)
    assert [c.shape[0] for c in calls] == [1]


def test_background_row_spans_several_blocks(tied_models, monkeypatch):
    rows, models = tied_models
    x = rows[7] + 0.5           # differs from every background value
    bg = sample_background(rows, size=3, seed=1)
    member = _exact_member(6)   # 64 distinct rows per background row
    logit = scalar_output(models["logistic"])
    calls = []

    def fn(Z):
        calls.append(Z.shape[0])
        return logit(Z)

    monkeypatch.setattr(explain, "_BLOCK_ROWS", 12)
    got = explain._coalition_table(fn, x, bg, member)
    assert calls == [12] * 16   # 3 background rows x 64 distinct rows
    assert got.tobytes() == _plain_table(logit, x, bg, member, 12).tobytes()


@pytest.mark.parametrize("block", [1 << 14, 40, 7])
def test_each_distinct_spliced_row_evaluated_once(monkeypatch, block):
    g = np.random.default_rng(3)
    M, n_perm = 6, 30
    bg = _tied_rows(g, 6)
    x = _tied_rows(g, 1)[0]
    calls = []

    def fn(Z):
        calls.append(Z.copy())
        return Z[:, 0] * Z[:, 1] + Z[:, 2:].sum(axis=1)

    monkeypatch.setattr(explain, "_BLOCK_ROWS", block)
    shap_sampled(fn, x, bg, ShapConfig(mode="sampled", n_permutations=n_perm, seed=2))
    member = _sampled_member(M, n_perm, seed=2)
    spliced = np.where(member[:, None, :], x, bg)   # (coalition, background row, M)
    per_row = [{r.tobytes() for r in spliced[:, b]} for b in range(bg.shape[0])]
    n_distinct = sum(map(len, per_row))
    assert n_distinct < spliced.shape[0] * bg.shape[0] // 2
    assert set().union(*per_row) <= {r.tobytes() for c in calls for r in c}
    assert sum(c.shape[0] for c in calls) == n_distinct
    assert len(calls) == -(-n_distinct // block)
    assert max(c.shape[0] for c in calls) <= block
