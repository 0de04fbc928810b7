"""Release gate: one test per numbered acceptance check.

The package promises ten verifiable properties before a release:

  1. the nine scalar metrics match naive reimplementations on 1,000
     random inputs at 1e-12, in under 5 seconds
  2. the reference confusion counts (tn 9554, fp 287, fn 193, tp 9966)
     regenerate accuracy 0.9760 +/- 0.0005 and mcc 0.952 +/- 0.001
  3. on the real heart table, a default seeded random forest reaches
     held-out accuracy >= 0.93 and auc >= 0.95 in < 60 s single-threaded
  4. the oversampled synthetic track reaches rf accuracy >= 0.95 at
     20,000 rows, and the full 100,000-row run does the same in < 10 min
  5. ols reaches r2 >= 0.97 on the real risk score; on the fixture the
     test r2 lands within 0.02 of the analytic floor 1 - sigma^2/var(y)
  6. every synthetic oversampled row passes segment, neighbor, and
     class-hull checks; balance mode equalizes class counts within 1
  7. exact shapley satisfies efficiency (1e-8), dummy and symmetry
     (1e-10), matches a factorial oracle for all widths up to 6, and
     sampled mode lands within 3 reported standard errors of exact
  8. the lime surrogate recovers the slope of f(x) = 5*x1 within 5%
  9. optimizer certificates: lasso kkt gap <= 1e-4, ridge(lam=0) = ols
     at 1e-9, gbt staged loss non-increasing (1e-12 slack), logistic
     gradient norm < 1e-6 at exit, svm and svr objectives at the default
     30 epochs within 0.2% of a 300-epoch run on 2,000 planted rows
 10. two identical `run` invocations write byte-identical bundles

Checks 1, 2, 4, and 6-10 are self-contained. Check 3 and the real leg
of check 5 need the user-supplied table: set HEARTLAB_HEART_CSV to its
path, otherwise they skip with a notice.

Every expectation here is derived locally: hand-coded metric formulas,
a permutation-enumeration shapley oracle, replayed oversampling draws,
an analytic regression noise floor. No test trusts library internals
beyond the public entry points it exercises.
"""

import json
import math
import os
import time
from itertools import permutations

import numpy as np
import pytest

from conftest import make_ds
from heartlab.cli import main as cli_main
from heartlab.ensembles import GbtConfig, LOSS_LOGISTIC, LOSS_SQUARED, fit_gbt
from heartlab.explain import (
    LimeConfig,
    ShapConfig,
    lime_explain,
    shap_exact,
    shap_sampled,
)
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
from heartlab.metrics import (
    CLASSIFICATION_FIELDS,
    REGRESSION_FIELDS,
    ConfusionMatrix,
    EvaluationPairs,
    classification_metrics,
    regression_metrics,
)
from heartlab.runner import parse_config, run_experiment
from heartlab.smote import SmoteConfig, smote


def _ok(num: int, detail: str) -> None:
    print(f"[criterion {num:02d}] PASS {detail}")


def _match(got, want, tol: float = 1e-12) -> None:
    """None markers must agree exactly; numbers within tol."""
    if want is None:
        assert got is None
    else:
        assert got is not None
        assert abs(got - want) <= tol


# naive reimplementations of the nine scalar metrics, straight from the
# defining formulas, plain python arithmetic only

def _naive_classification(tp: int, fp: int, tn: int, fn: int) -> dict:
    total = (fn + tn) + (tp + fp)
    acc = (tn + tp) / total
    prec = tp / (fp + tp) if fp + tp else None
    rec = tp / (fn + tp) if fn + tp else None
    if prec is None or rec is None:
        f1 = None
    elif prec + rec == 0.0:
        f1 = 0.0
    else:
        f1 = 2.0 * rec * prec / (rec + prec)
    denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    mcc = None if denom == 0 else (tp * tn - fp * fn) / math.sqrt(denom)
    return {"accuracy": acc, "precision": prec, "recall": rec, "f1": f1, "mcc": mcc}


def _naive_regression(y: list, y_hat: list) -> dict:
    n = len(y)
    sq = [(a - b) ** 2 for a, b in zip(y, y_hat)]
    mse = math.fsum(sq) / n
    rmse = math.sqrt(mse)
    mae = math.fsum(abs(a - b) for a, b in zip(y, y_hat)) / n
    if max(y) == min(y):
        r2 = None
    else:
        ybar = math.fsum(y) / n
        tss = math.fsum((a - ybar) ** 2 for a in y)
        r2 = None if tss == 0.0 else 1.0 - math.fsum(sq) / tss
    return {"mse": mse, "rmse": rmse, "mae": mae, "r2": r2}


def test_criterion_01_metric_oracle_suite():
    rng = np.random.default_rng(20260101)
    t0 = time.perf_counter()
    checked = 0

    # fixed degenerate corners first: every single-cell and zero-margin case
    cms = [
        (5, 0, 0, 0), (0, 5, 0, 0), (0, 0, 5, 0), (0, 0, 0, 5),
        (3, 4, 0, 0), (0, 0, 3, 4), (3, 0, 4, 0), (0, 3, 0, 4),
    ]
    while len(cms) < 500:
        tp, fp, tn, fn = (int(v) for v in rng.integers(0, 60, size=4))
        if tp + fp + tn + fn == 0:
            continue
        cms.append((tp, fp, tn, fn))
    for tp, fp, tn, fn in cms:
        got = classification_metrics(ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=fn))
        want = _naive_classification(tp, fp, tn, fn)
        for key in CLASSIFICATION_FIELDS:
            _match(got[key], want[key])
        checked += 1

    for case in range(500):
        n = int(rng.integers(2, 60))
        if case % 25 == 0:
            y = np.full(n, float(rng.normal()))   # zero-variance targets
        else:
            y = rng.normal(0.0, 1.0, n)
        y_hat = y + rng.normal(0.0, 0.5, n)
        got = regression_metrics(EvaluationPairs(y=y, y_hat=y_hat))
        want = _naive_regression(list(y), list(y_hat))
        for key in REGRESSION_FIELDS:
            _match(got[key], want[key])
        checked += 1

    elapsed = time.perf_counter() - t0
    assert checked == 1000
    assert elapsed < 5.0
    _ok(1, f"nine metrics match naive oracles on 1000 inputs in {elapsed:.2f}s")


def test_criterion_02_confusion_count_regeneration():
    got = classification_metrics(ConfusionMatrix(tp=9966, fp=287, tn=9554, fn=193))
    assert abs(got["accuracy"] - 0.9760) <= 0.0005
    assert abs(got["mcc"] - 0.952) <= 0.001
    _ok(2, f"reference counts give accuracy {got['accuracy']:.4f}, mcc {got['mcc']:.4f}")


def test_criterion_03_real_data_classification(tmp_path):
    csv_path = os.environ.get("HEARTLAB_HEART_CSV")
    if not csv_path:
        pytest.skip("criterion 03 needs the real heart table; set "
                    "HEARTLAB_HEART_CSV=/path/to/heart.csv to enable it")
    doc = {
        "dataset": {"path": csv_path, "schema": "heart16"},
        "models": [{"family": "random_forest", "task": "classification"}],
        "output_dir": str(tmp_path / "real_out"),
        "seed": 7,
    }
    t0 = time.perf_counter()
    bundle = run_experiment(parse_config(doc))
    elapsed = time.perf_counter() - t0
    m = bundle.results[("real", "random_forest")].metrics
    assert elapsed < 60.0
    assert m["accuracy"] >= 0.93
    assert m["auc"] >= 0.95
    _ok(3, f"real-table rf accuracy {m['accuracy']:.3f}, auc {m['auc']:.3f} "
           f"in {elapsed:.1f}s single-threaded")


def test_criterion_04_synthetic_track_desk_scale(tmp_path):
    doc = {
        "dataset": {"fixture": {"n": 1000, "seed": 3}},
        "smote": {"mode": "augment", "target_total": 20000},
        "models": [{"family": "random_forest", "task": "classification"}],
        "output_dir": str(tmp_path / "out20k"),
        "seed": 13,
    }
    bundle = run_experiment(parse_config(doc))
    m = bundle.results[("synthetic", "random_forest")].metrics
    assert m["accuracy"] >= 0.95
    _ok(4, f"20k-row synthetic rf accuracy {m['accuracy']:.4f}")


def test_criterion_04_synthetic_track_full_scale(tmp_path):
    doc = {
        "dataset": {"fixture": {"n": 1000, "seed": 3}},
        "smote": {"mode": "augment", "target_total": 100000},
        "models": [{"family": "random_forest", "task": "classification"}],
        "output_dir": str(tmp_path / "out100k"),
        "seed": 13,
    }
    t0 = time.perf_counter()
    bundle = run_experiment(parse_config(doc))
    elapsed = time.perf_counter() - t0
    m = bundle.results[("synthetic", "random_forest")].metrics
    assert elapsed < 600.0
    assert m["accuracy"] >= 0.95
    _ok(4, f"100k-row synthetic rf accuracy {m['accuracy']:.4f} in {elapsed:.0f}s")


def test_criterion_05_regression_reproduction(tmp_path):
    sigma = 0.1
    doc = {
        "dataset": {"fixture": {"n": 2000, "seed": 21, "noise_sigma": sigma}},
        "models": [{"family": "ols", "task": "regression"}],
        "output_dir": str(tmp_path / "reg_out"),
        "seed": 5,
    }
    bundle = run_experiment(parse_config(doc))
    r2 = bundle.results[("real", "ols")].metrics["r2"]
    y_test = bundle.tracks["real"].test.targets
    floor = 1.0 - sigma * sigma / float(np.var(y_test))
    assert abs(r2 - floor) <= 0.02
    detail = f"fixture ols r2 {r2:.4f} vs analytic floor {floor:.4f}"

    csv_path = os.environ.get("HEARTLAB_HEART_CSV")
    if csv_path:
        doc_real = {
            "dataset": {"path": csv_path, "schema": "heart16"},
            "models": [{"family": "ols", "task": "regression"}],
            "output_dir": str(tmp_path / "reg_real"),
            "seed": 5,
        }
        r2_real = run_experiment(parse_config(doc_real)).results[("real", "ols")].metrics["r2"]
        assert r2_real >= 0.97
        detail += f"; real-table r2 {r2_real:.4f}"
    else:
        detail += "; real-table leg needs HEARTLAB_HEART_CSV, fixture floor used"
    _ok(5, detail)


def test_criterion_06_smote_geometry():
    rng = np.random.default_rng(606)
    sizes = {0: 700, 1: 300, 2: 200}
    centers = {0: (0, 0, 0, 0), 1: (4, 4, 0, 0), 2: (-4, 2, 3, -1)}
    blocks, labels = [], []
    for c in sorted(sizes):
        blocks.append(rng.normal(centers[c], 1.0, size=(sizes[c], 4)))
        labels += [c] * sizes[c]
    rows = np.vstack(blocks)
    labels = np.array(labels)
    w = np.array([0.5, -1.0, 0.25, 2.0])
    targets = rows @ w + rng.normal(0.0, 0.1, rows.shape[0])
    order = rng.permutation(rows.shape[0])    # interleave the class blocks
    ds = make_ds(rows[order], labels=labels[order], targets=targets[order])

    k, seed, n_new = 5, 909, 10000
    out = smote(ds, SmoteConfig(k=k, mode="augment",
                                target_total=ds.n_rows + n_new, seed=seed))
    assert out.n_rows == ds.n_rows + n_new

    members = {c: np.nonzero(ds.labels == c)[0] for c in sizes}
    hull_lo = {c: ds.rows[members[c]].min(axis=0) for c in sizes}
    hull_hi = {c: ds.rows[members[c]].max(axis=0) for c in sizes}
    dmat, kth = {}, {}
    for c in sizes:
        pts = ds.rows[members[c]]
        d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
        dmat[c] = d
        d_excl = d.copy()
        np.fill_diagonal(d_excl, np.inf)
        kth[c] = np.sort(d_excl, axis=1)[:, k - 1]   # distance of the kth neighbor

    n0 = ds.n_rows
    for i in range(n_new):
        xs = out.rows[n0 + i]
        c = int(out.labels[n0 + i])
        m = members[c]
        r = np.random.default_rng([seed, i])   # documented per-row draw stream
        base = int(r.integers(0, m.size))
        slot = int(r.integers(0, k))
        lam = float(r.random())
        assert 0.0 <= lam < 1.0
        xp = ds.rows[m[base]]
        # solve for the neighbor: which class member's segment point at lam
        # reproduces the synthetic row
        cand = xp[None, :] + lam * (ds.rows[m] - xp[None, :])
        resid = np.max(np.abs(cand - xs[None, :]), axis=1)
        j = int(np.argmin(resid))
        assert resid[j] <= 1e-9                          # collinear, on segment
        assert dmat[c][base, j] <= kth[c][base] + 1e-12  # a true k-nearest pick
        t_p, t_q = ds.targets[m[base]], ds.targets[m[j]]
        assert abs(out.targets[n0 + i] - (t_p + lam * (t_q - t_p))) <= 1e-9
        assert np.all(xs >= hull_lo[c] - 1e-12)
        assert np.all(xs <= hull_hi[c] + 1e-12)
    del slot  # drawn to keep the replayed stream aligned; identity checked via j

    bal_rng = np.random.default_rng(607)
    bal_sizes = [500, 300, 450]
    bal_rows = np.vstack([bal_rng.normal(3.0 * c, 1.0, size=(s, 3))
                          for c, s in enumerate(bal_sizes)])
    bal_labels = np.repeat(np.arange(3), bal_sizes)
    bal = smote(make_ds(bal_rows, labels=bal_labels),
                SmoteConfig(k=5, mode="balance", seed=4242))
    counts = bal.class_counts()
    assert max(counts.values()) - min(counts.values()) <= 1
    _ok(6, "10000 synthetic rows pass segment, k-nn membership, and hull "
           "checks; balance leaves counts within 1 row")


# factorial-enumeration oracle: the mean marginal contribution over all
# feature orderings, with coalition values memoized by frozenset

def _phi_factorial(fn, x: np.ndarray, bg: np.ndarray) -> np.ndarray:
    M = x.size
    cache: dict = {}

    def v(S) -> float:
        key = frozenset(S)
        if key not in cache:
            z = bg.copy()
            idx = sorted(key)
            if idx:
                z[:, idx] = x[idx]
            cache[key] = float(np.mean(fn(z)))
        return cache[key]

    phi = np.zeros(M)
    for ordering in permutations(range(M)):
        pre: list = []
        for j in ordering:
            before = v(pre)
            pre.append(j)
            phi[j] += v(pre) - before
    return phi / math.factorial(M)


def _quad_fn(M: int, g: np.random.Generator):
    a = g.normal(0.0, 1.0, M)
    B = g.normal(0.0, 0.5, (M, M))
    c = g.normal(0.0, 1.0, M)

    def fn(Z):
        Z = np.asarray(Z, dtype=np.float64)
        return Z @ a + 0.5 * np.einsum("ni,ij,nj->n", Z, B, Z) + np.sin(Z @ c)

    return fn


def test_criterion_07_shapley_correctness():
    # brute-force permutation oracle at every width up to 6
    for M in range(1, 7):
        g = np.random.default_rng(1000 + M)
        fn = _quad_fn(M, g)
        x = g.normal(0.0, 1.0, M)
        bg = g.normal(0.0, 1.0, (4, M))
        want = _phi_factorial(fn, x, bg)
        got = shap_exact(fn, x, bg)
        assert np.max(np.abs(got.phi - want)) <= 1e-10

    # axioms on an 8-feature game: 0 and 1 interchangeable, 6 and 7 unused
    g = np.random.default_rng(4040)
    mid = _quad_fn(4, g)

    def fn8(Z):
        Z = np.asarray(Z, dtype=np.float64)
        s = Z[:, 0] + Z[:, 1]
        p = Z[:, 0] * Z[:, 1]
        return s * s + 0.5 * np.sin(s) + 0.25 * p + mid(Z[:, 2:6]) + 0.1 * s * Z[:, 3]

    x = g.normal(0.0, 1.0, 8)
    x[1] = x[0]
    bg = g.normal(0.0, 1.0, (16, 8))
    bg[:, 1] = bg[:, 0]      # the game must also be symmetric in the background
    bg[:, 6] = 123.0         # wild values on a dummy must not leak in
    att = shap_exact(fn8, x, bg)
    fx = float(fn8(x[None, :])[0])
    base = float(np.mean(fn8(bg)))
    assert abs(att.phi.sum() - (fx - base)) <= 1e-8      # efficiency
    assert abs(att.phi[6]) <= 1e-10                      # dummy
    assert abs(att.phi[7]) <= 1e-10
    assert abs(att.phi[0] - att.phi[1]) <= 1e-10         # symmetry

    samp = shap_sampled(fn8, x, bg,
                        ShapConfig(mode="sampled", n_permutations=300, seed=11))
    diff = np.abs(samp.phi - att.phi)
    assert np.all(diff <= 3.0 * samp.standard_errors + 1e-9)
    _ok(7, "axioms, factorial oracle to width 6, sampled within 3 SE of exact")


def test_criterion_08_lime_fidelity():
    def fn(Z):
        return 5.0 * np.asarray(Z, dtype=np.float64)[:, 0]

    x = np.array([0.5, -0.2, 0.1])
    exp = lime_explain(fn, x, LimeConfig(n_samples=5000, n_features=3, seed=8))
    sel = {int(j): float(wj) for j, wj in zip(exp.feature_indices, exp.coefficients)}
    assert 0 in sel
    assert abs(sel[0] - 5.0) <= 0.25     # within 5% of the true slope
    assert exp.fidelity_r2 >= 0.99
    _ok(8, f"lime slope {sel[0]:.3f} vs 5.0, fidelity r2 {exp.fidelity_r2:.4f}")


def test_criterion_09_optimizer_certificates():
    rng = np.random.default_rng(909)

    # lasso: subgradient optimality gap at the returned solution
    X = rng.normal(0.0, 1.0, (160, 10))
    X = (X - X.mean(axis=0)) / X.std(axis=0)
    w_true = np.array([2.0, -1.5, 0.0, 0.0, 1.0, 0.0, 0.0, 0.5, 0.0, 0.0])
    y = X @ w_true + 0.05 * rng.normal(0.0, 1.0, 160)
    lam = 0.1 * lasso_lambda_max(X, y)
    model = fit_lasso(X, y, PenaltyConfig(lam=lam, tol=1e-10, max_iter=100000))
    gap = lasso_kkt_gap(X, y, model, lam)
    assert gap <= 1e-4

    # ridge at lam 0 collapses to ols
    Xo = rng.normal(0.0, 1.0, (80, 6))
    yo = Xo @ rng.normal(0.0, 1.0, 6) + rng.normal(0.0, 0.3, 80)
    m_ols = fit_ols(Xo, yo)
    m_r0 = fit_ridge(Xo, yo, lam=0.0)
    assert np.max(np.abs(m_ols.weights - m_r0.weights)) <= 1e-9
    assert abs(m_ols.intercept - m_r0.intercept) <= 1e-9

    # gbt: staged training loss never rises, under either loss
    Xg = rng.normal(0.0, 1.0, (200, 4))
    tg = np.sin(Xg @ np.array([1.0, -0.5, 0.25, 0.0])) + 0.5 * Xg[:, 0]
    gbt_r = fit_gbt(Xg, tg, GbtConfig(n_rounds=60, loss=LOSS_SQUARED))
    assert float(np.max(np.diff(gbt_r.train_losses))) <= 1e-12
    yg = (Xg @ np.array([1.0, 1.0, -0.5, 0.0]) + 0.5 * rng.normal(size=200) > 0).astype(int)
    gbt_c = fit_gbt(Xg, yg, GbtConfig(n_rounds=40, loss=LOSS_LOGISTIC))
    assert float(np.max(np.diff(gbt_c.train_losses))) <= 1e-12

    # logistic: recompute the mean-scaled gradient at the fitted weights
    Xl = np.vstack([rng.normal(-0.8, 1.0, (150, 3)), rng.normal(0.8, 1.0, (150, 3))])
    yl = np.concatenate([np.zeros(150), np.ones(150)])
    logit = fit_logistic(Xl, yl, PenaltyConfig(lam=0.0, tol=1e-8))
    assert logit.converged
    A = np.column_stack([np.ones(300), Xl])
    beta = np.concatenate([[logit.intercept], logit.weights])
    p = 1.0 / (1.0 + np.exp(-(A @ beta)))
    grad = A.T @ (yl - p) / 300.0
    assert float(np.max(np.abs(grad))) < 1e-6

    # svm and svr: 2,000 rows take mini-batch steps of 20; the default
    # epochs' objective is near the 300-epoch one (a 0.2% tolerance)
    Xs = rng.normal(0.0, 1.0, (2000, 6))
    ws = np.array([1.5, -1.0, 0.5, 0.0, 0.0, 0.25])
    ys = (Xs @ ws + 0.3 * rng.normal(size=2000) > 0).astype(float)
    yr = Xs @ ws + 0.5 + 0.1 * rng.normal(size=2000)
    gaps = []
    for fit, target in ((fit_linear_svm, ys), (fit_linear_svr, yr)):
        short = fit(Xs, target, PenaltyConfig()).objective_trace[-1]
        long = fit(Xs, target, PenaltyConfig(epochs=300)).objective_trace[-1]
        gaps.append(abs(short - long) / long)
        assert gaps[-1] <= 2e-3
    _ok(9, f"lasso kkt gap {gap:.2e}, ridge(0)=ols, monotone gbt loss, "
           f"logistic grad {float(np.max(np.abs(grad))):.2e}, "
           f"svm/svr objective gaps {gaps[0]:.1e}/{gaps[1]:.1e}")


def test_criterion_10_run_determinism(tmp_path):
    out = tmp_path / "bundle"
    doc = {
        "dataset": {"fixture": {"n": 400, "seed": 9}},
        "smote": {"mode": "balance"},
        "models": [
            {"name": "rf", "family": "random_forest", "task": "classification",
             "hyperparams": {"n_trees": 12, "max_depth": 8}},
            {"name": "logit", "family": "logistic", "task": "classification"},
            {"name": "ols", "family": "ols", "task": "regression"},
        ],
        "explain": [
            {"model": "logit", "method": "shap", "rows": [0, 1],
             "mode": "sampled", "n_permutations": 12},
            {"model": "ols", "method": "lime", "rows": [0], "n_samples": 400},
        ],
        "output_dir": str(out),
        "seed": 31,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))

    assert cli_main(["run", str(cfg_path), "--save-models"]) == 0
    first = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert "manifest.json" in first
    assert len(first) > 10

    assert cli_main(["run", str(cfg_path), "--save-models"]) == 0
    second = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert first == second
    _ok(10, f"two identical runs wrote byte-identical bundles ({len(first)} files)")
