"""Hot numeric kernels with two interchangeable backends.

Every kernel has a loop source `_<name>_py`, which numba's @njit compiles
into `<name>_jit`, and a numpy twin `<name>_numpy`: vectorized for splits,
routing and kNN; for the sequential SVM/SVR epochs, the same scalar loop on
Python floats. The active backend is chosen at import time: numba when
importable, unless HEARTLAB_NO_NUMBA=1 (or "true"/"yes") is set in the
environment. Both backends accumulate floats in the same order, so their
outputs are bit-identical; tests/test_kernels.py and `perfbench/run.py
--kernels` check each pair.

The split kernels read each feature's rows from sorted lists that the
caller keeps (trees.py sorts once per tree and partitions the lists stably
down the tree), so no node sorts. Equal feature values are listed in row
order, so prefix sums over ties visit rows in the same order on both
backends and tie-breaking between equal-gain splits cannot diverge.

The numpy kNN search selects each query's k nearest with argpartition and
orders only those by (distance, index); a query whose k-th distance is
tied by more rows than fit falls back to a stable argsort of its row.
"""

from __future__ import annotations

import os

import numpy as np

try:
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only on stripped installs
    _HAVE_NUMBA = False

_FLAG = os.environ.get("HEARTLAB_NO_NUMBA", "").strip().lower()
NUMBA_ENABLED = _HAVE_NUMBA and _FLAG not in ("1", "true", "yes")


def backend_name() -> str:
    return "numba" if NUMBA_ENABLED else "numpy"


# ---------------------------------------------------------------------------
# CART split search
#
# Scores use the sum-of-squares identity: for a node with per-class counts
# c_k (classification) or target sum s (regression), the impurity decrease of
# a split is ((ssq_left/n_left + ssq_right/n_right) - ssq_parent/n) / n up to
# the shared constant, where ssq is sum(c_k^2) resp. s^2. Candidates are
# midpoints between consecutive distinct sorted values; ties broken by
# highest gain, then lowest feature index, then lowest threshold (features
# must be passed in ascending order).
#
# sorted_rows, the optional last argument, is an (n_features, n) integer
# array whose row f lists the rows of idx by ascending X[:, f], equal values
# in their idx order; only the rows named in feats are read. Omitted, it is
# made with one stable argsort.
# ---------------------------------------------------------------------------

_SPLIT_BLOCK = 2 ** 13  # elements of one (features, n - 1) score block


def _sorted_rows_py(X, idx, feats):
    out = np.empty((X.shape[1], idx.shape[0]), np.int32)
    vals = np.empty(idx.shape[0], np.float64)
    for f in feats:
        for i in range(idx.shape[0]):
            vals[i] = X[idx[i], f]
        order = np.argsort(vals, kind="mergesort")
        for i in range(idx.shape[0]):
            out[f, i] = idx[order[i]]
    return out


def _split_classification_py(X, y, idx, feats, n_classes, min_leaf, sorted_rows=None):
    if sorted_rows is None:
        sorted_rows = _sorted_rows_py(X, idx, feats)
    n = idx.shape[0]
    parent = np.zeros(n_classes, np.int64)
    for i in range(n):
        parent[y[idx[i]]] += 1
    psq = 0.0
    for c in range(n_classes):
        psq += parent[c] * parent[c]
    parent_score = psq / n
    best_gain = 0.0
    best_feat = -1
    best_thr = 0.0
    left = np.zeros(n_classes, np.int64)
    for fi in range(feats.shape[0]):
        f = feats[fi]
        rows = sorted_rows[f]
        for c in range(n_classes):
            left[c] = 0
        ssq_l = 0.0
        for pos in range(n - 1):
            j = rows[pos]
            c = y[j]
            ssq_l += 2.0 * left[c] + 1.0
            left[c] += 1
            v = X[j, f]
            v_next = X[rows[pos + 1], f]
            if v == v_next:
                continue
            nl = pos + 1
            nr = n - nl
            if nl < min_leaf or nr < min_leaf:
                continue
            ssq_r = 0.0
            for c2 in range(n_classes):
                d = parent[c2] - left[c2]
                ssq_r += d * d
            gain = (ssq_l / nl + ssq_r / nr - parent_score) / n
            if gain > best_gain:
                best_gain = gain
                best_feat = f
                best_thr = 0.5 * (v + v_next)
    return best_feat, best_thr, best_gain


def _split_regression_py(X, y, idx, feats, min_leaf, sorted_rows=None):
    if sorted_rows is None:
        sorted_rows = _sorted_rows_py(X, idx, feats)
    n = idx.shape[0]
    total = 0.0
    for i in range(n):
        total += y[idx[i]]
    parent_score = total * total / n
    best_gain = 0.0
    best_feat = -1
    best_thr = 0.0
    for fi in range(feats.shape[0]):
        f = feats[fi]
        rows = sorted_rows[f]
        sl = 0.0
        for pos in range(n - 1):
            j = rows[pos]
            sl += y[j]
            v = X[j, f]
            v_next = X[rows[pos + 1], f]
            if v == v_next:
                continue
            nl = pos + 1
            nr = n - nl
            if nl < min_leaf or nr < min_leaf:
                continue
            sr = total - sl
            gain = (sl * sl / nl + sr * sr / nr - parent_score) / n
            if gain > best_gain:
                best_gain = gain
                best_feat = f
                best_thr = 0.5 * (v + v_next)
    return best_feat, best_thr, best_gain


def _best_split(X, idx, feats, min_leaf, sorted_rows, score):
    """The numpy split search of both tasks, over blocks of at most
    _SPLIT_BLOCK elements (or one feature): score(rows, nl, nr) maps a
    (features, n - 1) block of sorted row ids to gains. A block's first
    maximum in row-major order is its lowest feature and threshold with the
    top gain; it replaces the best of earlier blocks only if strictly greater."""
    n = idx.shape[0]
    if sorted_rows is None:
        sorted_rows = np.empty((X.shape[1], n), np.int32)
        sorted_rows[feats] = idx[np.argsort(X[np.ix_(idx, feats)], axis=0, kind="stable")].T
    nl = np.arange(1, n, dtype=np.float64)
    nr = n - nl
    short = (nl < min_leaf) | (nr < min_leaf) if min_leaf > 1 else None
    best_feat, best_thr, best_gain = -1, 0.0, 0.0
    per = max(1, _SPLIT_BLOCK // (n - 1))
    for start in range(0, feats.shape[0], per):
        fb = feats[start:start + per]
        rows = sorted_rows.take(fb, axis=0)
        vs = X.take(rows * np.int64(X.shape[1]) + fb[:, None])
        gains = score(rows[:, :-1], nl, nr)
        gains[vs[:, :-1] == vs[:, 1:]] = -np.inf
        if short is not None:
            gains[:, short] = -np.inf
        i, pos = divmod(int(np.argmax(gains)), n - 1)
        if gains[i, pos] > best_gain:
            best_feat, best_gain = int(fb[i]), float(gains[i, pos])
            best_thr = 0.5 * (vs[i, pos] + vs[i, pos + 1])
    return best_feat, best_thr, best_gain


def split_classification_numpy(X, y, idx, feats, n_classes, min_leaf, sorted_rows=None):
    n = idx.shape[0]
    parent = np.bincount(y[idx], minlength=n_classes).astype(np.int64)
    parent_score = float((parent * parent).sum()) / n
    if n < 2:
        return -1, 0.0, 0.0

    def score(rows, nl, nr):
        # class counts are exact integers, so their squares add up exactly
        ys = y.take(rows)
        ssq_l = ssq_r = 0
        for c in range(n_classes):
            lc = np.cumsum(ys == c, axis=1)
            ssq_l = ssq_l + lc * lc
            lc -= parent[c]
            ssq_r = ssq_r + lc * lc
        return (ssq_l / nl + ssq_r / nr - parent_score) / n

    return _best_split(X, idx, feats, min_leaf, sorted_rows, score)


def split_regression_numpy(X, y, idx, feats, min_leaf, sorted_rows=None):
    n = idx.shape[0]
    if n < 2:
        return -1, 0.0, 0.0
    total = float(np.cumsum(y[idx])[-1])
    parent_score = total * total / n

    def score(rows, nl, nr):
        sl = np.cumsum(y.take(rows), axis=1)
        sr = total - sl
        return (sl * sl / nl + sr * sr / nr - parent_score) / n

    return _best_split(X, idx, feats, min_leaf, sorted_rows, score)


# ---------------------------------------------------------------------------
# Tree routing: follow a flattened node table root-to-leaf for each row.
# feat[node] < 0 marks a leaf. x[feat] <= thr routes left.
# ---------------------------------------------------------------------------


def _tree_route_py(feat, thr, left, right, X):
    n = X.shape[0]
    out = np.empty(n, np.int64)
    for i in range(n):
        node = 0
        while feat[node] >= 0:
            if X[i, feat[node]] <= thr[node]:
                node = left[node]
            else:
                node = right[node]
        out[i] = node
    return out


def tree_route_numpy(feat, thr, left, right, X):
    n = X.shape[0]
    node = np.zeros(n, np.int64)
    active = np.nonzero(feat[node] >= 0)[0]
    while active.size:
        nd = node[active]
        go_left = X[active, feat[nd]] <= thr[nd]
        node[active] = np.where(go_left, left[nd], right[nd])
        active = active[feat[node[active]] >= 0]
    return node


# ---------------------------------------------------------------------------
# Brute-force k-nearest-neighbour search, squared Euclidean distance,
# ties broken by ascending training-row index.
# ---------------------------------------------------------------------------


def _knn_search_py(train, queries, k):
    nt = train.shape[0]
    nq = queries.shape[0]
    m = train.shape[1]
    out_idx = np.empty((nq, k), np.int64)
    out_d = np.empty((nq, k), np.float64)
    for q in range(nq):
        bd = np.full(k, np.inf, np.float64)
        bi = np.full(k, nt, np.int64)
        for t in range(nt):
            d = 0.0
            for j in range(m):
                diff = queries[q, j] - train[t, j]
                d += diff * diff
            if d < bd[k - 1] or (d == bd[k - 1] and t < bi[k - 1]):
                pos = k - 1
                while pos > 0 and (d < bd[pos - 1] or (d == bd[pos - 1] and t < bi[pos - 1])):
                    bd[pos] = bd[pos - 1]
                    bi[pos] = bi[pos - 1]
                    pos -= 1
                bd[pos] = d
                bi[pos] = t
        out_idx[q] = bi
        out_d[q] = bd
    return out_idx, out_d


_KNN_BLOCK = 2 ** 16  # elements of one (queries, training rows) distance block


def knn_search_numpy(train, queries, k):
    nt = train.shape[0]
    nq = queries.shape[0]
    out_idx = np.empty((nq, k), np.int64)
    out_d = np.empty((nq, k), np.float64)
    cols = np.ascontiguousarray(train.T)  # each feature's training values, contiguous
    chunk = max(1, _KNN_BLOCK // max(nt, 1))
    for start in range(0, nq, chunk):
        block = queries[start:start + chunk]
        d = np.zeros((block.shape[0], nt), np.float64)
        diff = np.empty_like(d)
        for j in range(train.shape[1]):
            np.subtract(block[:, j, None], cols[j], out=diff)
            np.multiply(diff, diff, out=diff)
            d += diff
        del diff
        near = np.argpartition(d, k - 1, axis=1)[:, :k]
        near.sort(axis=1)
        near_d = np.take_along_axis(d, near, axis=1)
        by_d = np.argsort(near_d, axis=1, kind="stable")
        near = np.take_along_axis(near, by_d, axis=1)
        near_d = np.take_along_axis(near_d, by_d, axis=1)
        # more than k rows at or below the k-th distance: which tied rows
        # make the cut was up to argpartition, so take the stable order
        tied = np.flatnonzero(np.count_nonzero(d <= near_d[:, -1:], axis=1) > k)
        if tied.size:
            near[tied] = np.argsort(d[tied], axis=1, kind="stable")[:, :k]
            near_d[tied] = np.take_along_axis(d[tied], near[tied], axis=1)
        out_idx[start:start + chunk] = near
        out_d[start:start + chunk] = near_d
    return out_idx, out_d


# ---------------------------------------------------------------------------
# Pegasos-style primal subgradient epochs for the linear SVM / SVR.
# Mutates w (and the running averages) in place; returns the step counter.
# The update is sequential, so the numpy backend runs the _py loop's scalar
# arithmetic, in the same order, on Python floats: IEEE doubles rounded like
# numpy's float64 scalars, but far cheaper to index. Rows become lists in
# epoch order, at most _EPOCH_BLOCK at a time; w, b and the averages are
# written back to the caller's arrays once, at the end.
# ---------------------------------------------------------------------------

_EPOCH_BLOCK = 2 ** 8  # rows of X converted to Python floats at a time


def _svm_epoch_py(X, y, order, w, b, wavg, bavg, lam, t0):
    n, m = X.shape
    t = t0
    for s in range(n):
        i = order[s]
        t += 1
        eta = 1.0 / (lam * t)
        margin = b[0]
        for j in range(m):
            margin += w[j] * X[i, j]
        scale = 1.0 - eta * lam
        if y[i] * margin < 1.0:
            for j in range(m):
                w[j] = scale * w[j] + eta * y[i] * X[i, j]
            b[0] = b[0] + eta * y[i]
        else:
            for j in range(m):
                w[j] = scale * w[j]
        for j in range(m):
            wavg[j] += (w[j] - wavg[j]) / t
        bavg[0] += (b[0] - bavg[0]) / t
    return t


def _svr_epoch_py(X, y, order, w, b, wavg, bavg, lam, eps, t0):
    n, m = X.shape
    t = t0
    for s in range(n):
        i = order[s]
        t += 1
        eta = 1.0 / (lam * t)
        pred = b[0]
        for j in range(m):
            pred += w[j] * X[i, j]
        resid = y[i] - pred
        scale = 1.0 - eta * lam
        if resid > eps:
            g = 1.0
        elif resid < -eps:
            g = -1.0
        else:
            g = 0.0
        if g != 0.0:
            for j in range(m):
                w[j] = scale * w[j] + eta * g * X[i, j]
            b[0] = b[0] + eta * g
        else:
            for j in range(m):
                w[j] = scale * w[j]
        for j in range(m):
            wavg[j] += (w[j] - wavg[j]) / t
        bavg[0] += (b[0] - bavg[0]) / t
    return t


def _epoch_rows(X, y, order):
    """(row of X as a list, y value) pairs in epoch order, as Python floats."""
    for start in range(0, order.shape[0], _EPOCH_BLOCK):
        o = order[start:start + _EPOCH_BLOCK]
        yield from zip(X.take(o, axis=0).tolist(), y.take(o).tolist())


def svm_epoch_numpy(X, y, order, w, b, wavg, bavg, lam, t0):
    w_, wavg_, b_, bavg_ = w.tolist(), wavg.tolist(), float(b[0]), float(bavg[0])
    t = t0
    for x, yi in _epoch_rows(X, y, order):
        t += 1
        eta = 1.0 / (lam * t)
        margin = b_
        for wj, xj in zip(w_, x):  # not sum(): it must add in this order, uncompensated
            margin += wj * xj
        scale = 1.0 - eta * lam
        if yi * margin < 1.0:
            c = eta * yi  # eta * y[i] * X[i, j] rounds left to right: same floats
            w_ = [scale * wj + c * xj for wj, xj in zip(w_, x)]
            b_ = b_ + c
        else:
            w_ = [scale * wj for wj in w_]
        wavg_ = [a + (wj - a) / t for a, wj in zip(wavg_, w_)]
        bavg_ += (b_ - bavg_) / t
    w[:], wavg[:], b[0], bavg[0] = w_, wavg_, b_, bavg_
    return t


def svr_epoch_numpy(X, y, order, w, b, wavg, bavg, lam, eps, t0):
    w_, wavg_, b_, bavg_ = w.tolist(), wavg.tolist(), float(b[0]), float(bavg[0])
    t = t0
    for x, yi in _epoch_rows(X, y, order):
        t += 1
        eta = 1.0 / (lam * t)
        pred = b_
        for wj, xj in zip(w_, x):
            pred += wj * xj
        resid = yi - pred
        scale = 1.0 - eta * lam
        g = 1.0 if resid > eps else -1.0 if resid < -eps else 0.0
        if g != 0.0:
            c = eta * g
            w_ = [scale * wj + c * xj for wj, xj in zip(w_, x)]
            b_ = b_ + c
        else:
            w_ = [scale * wj for wj in w_]
        wavg_ = [a + (wj - a) / t for a, wj in zip(wavg_, w_)]
        bavg_ += (b_ - bavg_) / t
    w[:], wavg[:], b[0], bavg[0] = w_, wavg_, b_, bavg_
    return t


# ---------------------------------------------------------------------------
# Backend wiring
# ---------------------------------------------------------------------------

_jit = njit(cache=True, nogil=True) if _HAVE_NUMBA else (lambda fn: None)
if _HAVE_NUMBA:  # rebound first: the compiled split kernels call it by this name
    _sorted_rows_py = _jit(_sorted_rows_py)
split_classification_jit = _jit(_split_classification_py)
split_regression_jit = _jit(_split_regression_py)
tree_route_jit = _jit(_tree_route_py)
knn_search_jit = _jit(_knn_search_py)
svm_epoch_jit = _jit(_svm_epoch_py)
svr_epoch_jit = _jit(_svr_epoch_py)

if NUMBA_ENABLED:
    split_classification = split_classification_jit
    split_regression = split_regression_jit
    tree_route = tree_route_jit
    knn_search = knn_search_jit
    svm_epoch = svm_epoch_jit
    svr_epoch = svr_epoch_jit
else:
    split_classification = split_classification_numpy
    split_regression = split_regression_numpy
    tree_route = tree_route_numpy
    knn_search = knn_search_numpy
    svm_epoch = svm_epoch_numpy
    svr_epoch = svr_epoch_numpy
