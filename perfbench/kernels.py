"""Kernel report: the six heartlab kernels timed on their active backend,
with an exact-match check against a second implementation.

    python3 kernels.py [scale]

With numba installed, the jit and numpy kernels are compared on the full
inputs. Without it, the numpy kernels are compared against the
uncompiled `_*_py` loop kernels (the source numba compiles) on inputs
shrunk by ORACLE_SCALE, since those loops run at interpreter speed. The
two backends accumulate floats in the same order, so the check is
equality, not a tolerance. Exits 1 when any pair differs.
"""

import sys
import time

import numpy as np

import heartlab._kernels as K

SEED = 42
RUNS = 5
WARMUP = 2
ORACLE_SCALE = 0.02


def _split_classification(scale):
    rng = np.random.default_rng(SEED)
    n = max(8, int(20000 * scale))
    X = rng.normal(0.0, 1.0, (n, 14))
    y = (X[:, 0] + 0.5 * X[:, 3] + rng.normal(0.0, 0.5, n) > 0).astype(np.int64)
    return _args(X, y, np.arange(n, dtype=np.int64), np.arange(14, dtype=np.int64), 2, 1)


def _split_regression(scale):
    rng = np.random.default_rng(SEED + 1)
    n = max(8, int(20000 * scale))
    X = rng.normal(0.0, 1.0, (n, 14))
    y = X @ rng.normal(0.0, 1.0, 14) + rng.normal(0.0, 0.3, n)
    return _args(X, y, np.arange(n, dtype=np.int64), np.arange(14, dtype=np.int64), 1)


def _tree_route(scale):
    # complete binary tree of depth 10: nodes 0..1022 internal, the rest leaves
    rng = np.random.default_rng(SEED + 2)
    n_internal, n_nodes = 2 ** 10 - 1, 2 ** 11 - 1
    feat = np.full(n_nodes, -1, dtype=np.int64)
    feat[:n_internal] = rng.integers(0, 14, n_internal)
    thr = rng.normal(0.0, 1.0, n_nodes)
    left = 2 * np.arange(n_nodes, dtype=np.int64) + 1
    X = rng.normal(0.0, 1.0, (max(8, int(100000 * scale)), 14))
    return _args(feat, thr, left, left + 1, X)


def _knn_search(scale):
    rng = np.random.default_rng(SEED + 3)
    train = rng.normal(0.0, 1.0, (max(8, int(4000 * scale)), 14))
    queries = rng.normal(0.0, 1.0, (max(8, int(2000 * scale)), 14))
    return _args(train, queries, 5)


def _epoch(regression):
    def make(scale):
        rng = np.random.default_rng(SEED + 4)
        n = max(8, int(20000 * scale))
        X = rng.normal(0.0, 1.0, (n, 14))
        if regression:
            y = X @ rng.normal(0.0, 1.0, 14) + rng.normal(0.0, 0.3, n)
        else:
            y = np.where(X[:, 0] > 0, 1.0, -1.0)
        order = rng.permutation(n).astype(np.int64)
        extra = (0.1,) if regression else ()

        def run(fn):
            # the epoch mutates its buffers, so every call starts from zeros
            buffers = (np.zeros(14), np.zeros(1), np.zeros(14), np.zeros(1))
            t = fn(X, y, order, *buffers, 0.01, *extra, 99)
            return (t, *buffers)
        return run
    return make


def _args(*args):
    return lambda fn: fn(*args)


def _exact(a, b) -> bool:
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_exact(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return bool(np.array_equal(a, b))
    return a == b


def _best_time(fn, run) -> float:
    for _ in range(WARMUP):
        run(fn)
    best = float("inf")
    for _ in range(RUNS):
        t0 = time.perf_counter()
        run(fn)
        best = min(best, time.perf_counter() - t0)
    return best


CASES = (
    ("split_classification", _split_classification),
    ("split_regression", _split_regression),
    ("tree_route", _tree_route),
    ("knn_search", _knn_search),
    ("svm_epoch", _epoch(False)),
    ("svr_epoch", _epoch(True)),
)


def main() -> int:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 1.0
    have_jit = K.split_classification_jit is not None
    reference = "jit" if have_jit else f"_py loops at scale {ORACLE_SCALE}"
    print(f"active backend {K.backend_name()}; exact-match reference: {reference}")
    print(f"{'kernel':<22} {'active':>11} {'other':>11}  match")
    differ = False
    for name, make in CASES:
        active = getattr(K, name)
        run = make(scale)
        t_active = _best_time(active, run)
        if have_jit:
            jit_fn = getattr(K, f"{name}_jit")
            numpy_fn = getattr(K, f"{name}_numpy", getattr(K, f"_{name}_py"))
            other = numpy_fn if active is jit_fn else jit_fn
            t_other = f"{_best_time(other, run) * 1e3:9.2f}ms"
            pair, check = (jit_fn, numpy_fn), run
        else:
            pair, check = (getattr(K, f"_{name}_py"), active), make(ORACLE_SCALE)
            t_other = "n/a"
        same = _exact(check(pair[0]), check(pair[1]))
        if pair[0] is pair[1]:
            verdict = "exact (same function)"
        else:
            verdict = "exact" if same else "DIFFER"
        differ |= not same
        print(f"{name:<22} {t_active * 1e3:9.2f}ms {t_other:>11}  {verdict}")
    if differ:
        print("kernel outputs differ between backends", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
