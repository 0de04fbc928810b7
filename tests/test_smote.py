import numpy as np
import pytest

from heartlab.errors import ConfigError, ContractError, ResamplingError
from heartlab._kernels import knn_search
from heartlab.smote import SmoteConfig, _class_neighbor_table, smote

from conftest import make_ds


def _blobs(n0=10, n1=30, seed=0):
    g = np.random.default_rng(seed)
    a = g.normal(loc=(-3.0, 0.0), scale=0.5, size=(n0, 2))
    b = g.normal(loc=(3.0, 0.0), scale=0.5, size=(n1, 2))
    rows = np.vstack([a, b])
    labels = np.array([0] * n0 + [1] * n1)
    return make_ds(rows, labels=labels)


def brute_knn_same_class(ds, i, k):
    same = [j for j in range(ds.n_rows)
            if ds.labels[j] == ds.labels[i] and j != i]
    d = [(float(np.sum((ds.rows[j] - ds.rows[i]) ** 2)), j) for j in same]
    d.sort()
    return [j for _, j in d[:k]]


# -- neighbor search ---------------------------------------------------------


def test_class_neighbor_table_matches_brute_force():
    ds = _blobs(0, 18, seed=3)  # one class: the table's local indices are row indices
    table = _class_neighbor_table(ds.rows, 4)
    for i in range(ds.n_rows):
        assert table[i].tolist() == brute_knn_same_class(ds, i, 4)


def test_class_neighbor_table_matches_the_row_loop():
    # few distinct values, so distances tie and duplicates can push a row
    # itself out of its k + 1 nearest
    g = np.random.default_rng(0)
    self_absent = 0
    for _ in range(300):
        n, m = int(g.integers(2, 25)), int(g.integers(1, 4))
        k = int(g.integers(1, n))
        points = g.integers(0, 3, size=(n, m)).astype(np.float64)
        idx, _ = knn_search(points, points, k + 1)
        want = np.array([[j for j in idx[i] if j != i][:k] for i in range(n)])
        self_absent += int((idx != np.arange(n)[:, None]).all(axis=1).sum())
        assert np.array_equal(_class_neighbor_table(points, k), want)
    assert self_absent > 0


# -- balance mode ------------------------------------------------------------


def test_balance_counts_10_30():
    ds = _blobs(10, 30)
    grown = smote(ds, SmoteConfig(k=5, mode="balance", seed=4))
    counts = grown.class_counts()
    assert counts == {0: 30, 1: 30}
    assert grown.n_rows == 60


def test_balance_exact_equality_three_classes(rng):
    rows = rng.normal(size=(45, 2))
    labels = np.array([0] * 7 + [1] * 18 + [2] * 20)
    ds = make_ds(rows, labels=labels)
    grown = smote(ds, SmoteConfig(k=3, mode="balance", seed=1))
    assert set(grown.class_counts().values()) == {20}


def test_originals_preserved_as_prefix():
    ds = _blobs(10, 30)
    grown = smote(ds, SmoteConfig(k=5, mode="balance", seed=4))
    assert np.array_equal(grown.rows[: ds.n_rows], ds.rows)
    assert np.array_equal(grown.labels[: ds.n_rows], ds.labels)


def test_synthetic_block_sorted_by_class_in_balance_mode():
    ds = _blobs(10, 12, seed=5)
    # make class 2 the majority so both 0 and 1 get synthetics
    rows = np.vstack([ds.rows, np.random.default_rng(9).normal(size=(20, 2))])
    labels = np.concatenate([ds.labels, np.full(20, 2)])
    ds3 = make_ds(rows, labels=labels)
    grown = smote(ds3, SmoteConfig(k=4, mode="balance", seed=2))
    tail = grown.labels[ds3.n_rows:]
    assert np.all(np.diff(tail) >= 0)


# -- geometry ----------------------------------------------------------------


def test_midpoint_with_lambda_override():
    ds = _blobs(10, 30, seed=7)
    grown = smote(ds, SmoteConfig(k=5, mode="balance", seed=8), lam_override=0.5)
    n = ds.n_rows
    for s in range(n, grown.n_rows):
        x = grown.rows[s]
        cls = grown.labels[s]
        ok = False
        cand = [i for i in range(n) if ds.labels[i] == cls]
        for p in cand:
            for q in brute_knn_same_class(ds, p, 5):
                mid = ds.rows[p] + 0.5 * (ds.rows[q] - ds.rows[p])
                if np.max(np.abs(x - mid)) < 1e-9:
                    ok = True
                    break
            if ok:
                break
        assert ok, f"synthetic row {s} is not a midpoint of any neighbor pair"


def test_synthetic_on_segment_general_lambda():
    ds = _blobs(12, 25, seed=11)
    grown = smote(ds, SmoteConfig(k=5, mode="balance", seed=12))
    n = ds.n_rows
    for s in range(n, grown.n_rows):
        x = grown.rows[s]
        cls = grown.labels[s]
        found = False
        for p in [i for i in range(n) if ds.labels[i] == cls]:
            for q in brute_knn_same_class(ds, p, 5):
                dp = ds.rows[q] - ds.rows[p]
                rel = x - ds.rows[p]
                j = int(np.argmax(np.abs(dp)))
                if abs(dp[j]) < 1e-12:
                    continue
                lam = rel[j] / dp[j]
                if -1e-12 <= lam < 1.0 and np.max(np.abs(rel - lam * dp)) < 1e-9:
                    found = True
                    break
            if found:
                break
        assert found


def test_synthetic_within_class_bounding_box():
    ds = _blobs(15, 40, seed=13)
    grown = smote(ds, SmoteConfig(k=5, mode="balance", seed=14))
    n = ds.n_rows
    for cls in (0, 1):
        orig = ds.rows[ds.labels == cls]
        lo, hi = orig.min(axis=0), orig.max(axis=0)
        synth = grown.rows[n:][grown.labels[n:] == cls]
        if synth.size:
            assert np.all(synth >= lo - 1e-12)
            assert np.all(synth <= hi + 1e-12)


def test_targets_interpolated_with_same_lambda():
    g = np.random.default_rng(21)
    rows = g.normal(size=(24, 2))
    labels = np.array([0] * 8 + [1] * 16)
    targets = rows[:, 0] * 2.0 + rows[:, 1]  # linear in features
    ds = make_ds(rows, labels=labels, targets=targets)
    grown = smote(ds, SmoteConfig(k=4, mode="balance", seed=3))
    # a linear function of the features interpolates exactly alongside them
    want = grown.rows[:, 0] * 2.0 + grown.rows[:, 1]
    assert np.allclose(grown.targets, want, atol=1e-9)


# -- augment mode ------------------------------------------------------------


def test_augment_total_and_round_robin():
    ds = _blobs(10, 30, seed=15)
    grown = smote(ds, SmoteConfig(k=5, mode="augment", target_total=100, seed=16))
    assert grown.n_rows == 100
    added = grown.labels[40:]
    codes = np.array([0, 1])
    assert np.array_equal(added, codes[np.arange(60) % 2])


def test_augment_rejects_non_growth():
    ds = _blobs(10, 30)
    with pytest.raises(ConfigError):
        smote(ds, SmoteConfig(k=5, mode="augment", target_total=40))
    with pytest.raises(ConfigError):
        smote(ds, SmoteConfig(k=5, mode="augment", target_total=12))


def test_augment_needs_target_total():
    with pytest.raises(ConfigError):
        SmoteConfig(k=5, mode="augment")


# -- contracts and determinism -----------------------------------------------


def test_smote_determinism():
    ds = _blobs(10, 30, seed=17)
    a = smote(ds, SmoteConfig(k=5, mode="balance", seed=18))
    b = smote(ds, SmoteConfig(k=5, mode="balance", seed=18))
    c = smote(ds, SmoteConfig(k=5, mode="balance", seed=19))
    assert np.array_equal(a.rows, b.rows)
    assert not np.array_equal(a.rows, c.rows)


def test_smote_requires_labels(rng):
    ds = make_ds(rng.normal(size=(20, 2)))
    with pytest.raises(ContractError):
        smote(ds, SmoteConfig(k=3))


def test_smote_rejects_nan(rng):
    rows = rng.normal(size=(20, 2))
    rows[3, 1] = np.nan
    ds = make_ds(rows, labels=(np.arange(20) % 2))
    with pytest.raises(ContractError):
        smote(ds, SmoteConfig(k=3))


def test_smote_small_class_rejected():
    ds = _blobs(3, 30)
    with pytest.raises(ResamplingError):
        smote(ds, SmoteConfig(k=5, mode="balance"))


def test_bad_config_values():
    with pytest.raises(ConfigError):
        SmoteConfig(k=0)
    with pytest.raises(ConfigError):
        SmoteConfig(k=5, mode="wild")
