"""Hot numeric kernels: one numpy implementation each, and its loop oracle.

Every kernel `<name>` has a plain loop twin `_<name>_py`, the reference
that tests/test_kernels.py and `perfbench/kernels.py` compare it with.
`<name>` is vectorized for splits, routing and kNN; for the sequential
SVM/SVR epochs it is the same scalar loop on Python floats. Each
accumulates floats in the loop's order, so the two agree bit for bit.

The split kernels read each feature's rows from sorted lists that the
caller keeps (a forest or boosting run sorts X once; trees.py partitions the
lists stably a level at a time), so no node sorts. The classification kernel
scores every open node of a tree level in one call; its loop oracle runs the
one-node loop over the level's nodes. Equal feature values are listed in row
order, so prefix sums over ties visit rows in the same order on both
implementations and tie-breaking between equal-gain splits cannot diverge.

The numpy kNN search selects each query's k nearest with argpartition and
orders only those by (distance, index); a query whose k-th distance is
tied by more rows than fit falls back to a stable argsort of its row.
"""

from __future__ import annotations

import numpy as np

split_classification_jit = None  # no jit kernels: perfbench/kernels.py takes the _py oracles


def backend_name() -> str:
    """The kernel backend, as recorded in the run manifest."""
    return "numpy"


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
# sorted_rows is an (n_features, n) integer array whose row f lists the rows
# of idx by ascending X[:, f], equal values in their idx order; only the rows
# named in feats are read. Omitted (one node only), it is made with one
# stable argsort.
# w, the classification kernel's next argument, gives rows positive integer
# weights: counts sum them exactly, so a row of weight c scores as c copies.
#
# Given starts, the classification kernel scores a whole tree level in one
# call: node s owns positions starts[s]:starts[s + 1] (never empty) of idx
# and of every row of sorted_rows, and column s of the (k, n_open) feats
# holds its candidates. It returns arrays of each node's feature, threshold
# and gain; without starts, idx is one node and the result three scalars.
# ---------------------------------------------------------------------------

_SPLIT_BLOCK = 2 ** 13  # elements of one (features, positions) score block


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


def _split_node_py(X, y, idx, feats, n_classes, min_leaf, sorted_rows, w):
    if sorted_rows is None:
        sorted_rows = _sorted_rows_py(X, idx, feats)
    m = idx.shape[0]
    parent = np.zeros(n_classes, np.int64)
    for i in range(m):
        parent[y[idx[i]]] += 1 if w is None else w[idx[i]]
    n = parent.sum()
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
        nl = 0
        for pos in range(m - 1):
            j = rows[pos]
            c = y[j]
            wj = 1 if w is None else w[j]
            ssq_l += (2.0 * left[c] + wj) * wj
            left[c] += wj
            nl += wj
            v = X[j, f]
            v_next = X[rows[pos + 1], f]
            if v == v_next:
                continue
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


def _split_classification_py(X, y, idx, feats, n_classes, min_leaf, sorted_rows=None, w=None,
                             starts=None):
    if starts is None:
        return _split_node_py(X, y, idx, feats, n_classes, min_leaf, sorted_rows, w)
    n_open = starts.shape[0] - 1
    best_feat = np.empty(n_open, np.int64)
    best_thr = np.empty(n_open, np.float64)
    best_gain = np.empty(n_open, np.float64)
    for s in range(n_open):
        a = starts[s]
        b = starts[s + 1]
        f, thr, gain = _split_node_py(X, y, idx[a:b], feats[:, s], n_classes, min_leaf,
                                      sorted_rows[:, a:b], w)
        best_feat[s] = f
        best_thr[s] = thr
        best_gain[s] = gain
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


def _node_lists(X, idx, feats):
    """One node's sorted lists from one stable argsort; rows of features not
    in feats are left unset."""
    out = np.empty((X.shape[1], idx.shape[0]), np.int32)
    out[feats] = idx[np.argsort(X[np.ix_(idx, feats)], axis=0, kind="stable")].T
    return out


def split_classification(X, y, idx, feats, n_classes, min_leaf, sorted_rows=None, w=None,
                         starts=None):
    """The level search: blocks of whole nodes, at most _SPLIT_BLOCK
    (candidate, position) elements each unless one node alone is wider, in
    which case its candidates go a few at a time. Within a block each node
    takes its first maximum in (candidate, position) order, and it replaces
    the node's best from earlier candidates only if strictly greater."""
    if starts is None:  # one node: a level of one
        if sorted_rows is None:
            sorted_rows = _node_lists(X, idx, feats)
        f, thr, gain = split_classification(X, y, idx, feats[:, None], n_classes, min_leaf,
                                            sorted_rows, w, np.array([0, idx.shape[0]]))
        return int(f[0]), float(thr[0]), float(gain[0])
    n_open, m, k = starts.shape[0] - 1, X.shape[1], feats.shape[0]
    best_feat = np.full(n_open, -1, np.int64)
    best_thr, best_gain = np.zeros(n_open), np.zeros(n_open)
    if n_classes < 2:  # one class: every gain is 0
        return best_feat, best_thr, best_gain
    node = np.arange(n_open).repeat(starts[1:] - starts[:-1])  # position -> its node
    parent = np.bincount(node * n_classes + y.take(idx), None if w is None else w.take(idx),
                         n_open * n_classes).astype(np.int64).reshape(n_open, n_classes).T
    n = parent.sum(axis=0)
    parent_score = (parent * parent).sum(axis=0) / n
    cap = max(1, _SPLIT_BLOCK // k)  # positions of a block of several nodes
    lo = 0
    while lo < n_open:
        hi = max(lo + 1, int(np.searchsorted(starts, starts[lo] + cap, "right")) - 1)
        a, b = starts[lo], starts[hi]
        first = starts[lo:hi] - a  # each node's first position in the block
        sizes = starts[lo + 1:hi + 1] - starts[lo:hi]
        ends = first + sizes - 1
        pos = np.arange(b - a)

        def within(v, totals):
            """Prefix sums of v along axis 1, each node's from its first
            position: the totals of the nodes before it are taken off there."""
            v[:, first[1:]] -= totals[lo:hi - 1]
            return v.cumsum(axis=1, out=v)

        def spread(v):  # per node -> per position
            return v[lo:hi].repeat(sizes)

        nb, ps = spread(n), spread(parent_score)
        per = max(1, _SPLIT_BLOCK // (b - a))
        for j0 in range(0, k, per):
            fb = feats[j0:j0 + per, lo:hi]
            fat = fb.repeat(sizes, axis=1)  # (candidates, positions): each position's feature
            rows = sorted_rows.take(fat * sorted_rows.shape[1] + (pos + a))
            vs = X.take(rows * m + fat)
            ys = y.take(rows)
            ws = None if w is None else w.take(rows)
            # class counts are exact integers, so their squares add up exactly
            for c in range(n_classes):
                if c < n_classes - 1:
                    lc = within((ys == c).astype(np.int64) if ws is None else (ys == c) * ws,
                                parent[c])
                    taken = lc if c == 0 else taken + lc
                else:  # the last class: what the others leave of nl
                    nl = pos + 1 - first.repeat(sizes) if ws is None else within(ws, n)
                    lc = nl - taken
                rc = spread(parent[c]) - lc
                lc = lc * lc
                rc *= rc
                if c == 0:
                    ssq_l, ssq_r = lc, rc
                else:
                    ssq_l += lc
                    ssq_r += rc
            nr = nb - nl
            nr[..., ends] = 1  # 0 there: no split after a node's last row
            gains = ssq_l / nl
            gains += ssq_r / nr
            gains -= ps
            gains /= nb
            gains[:, ends] = -np.inf
            np.copyto(gains[:, :-1], -np.inf, where=vs[:, :-1] == vs[:, 1:])
            if min_leaf > 1:
                np.copyto(gains, -np.inf, where=(nl < min_leaf) | (nr < min_leaf))
            tops = np.maximum.reduceat(gains, first, axis=1)
            j = tops.argmax(axis=0)  # each node's first candidate with its top gain
            top = tops[j, np.arange(hi - lo)]
            better = np.flatnonzero(top > best_gain[lo:hi])
            if better.size:
                hit = gains[j.repeat(sizes), pos] == top.repeat(sizes)
                p = np.minimum.reduceat(np.where(hit, pos, b - a), first)[better]
                jb = j[better]
                best_feat[lo + better] = fb[jb, better]
                best_thr[lo + better] = 0.5 * (vs[jb, p] + vs[jb, p + 1])
                best_gain[lo + better] = top[better]
        lo = hi
    return best_feat, best_thr, best_gain


def split_regression(X, y, idx, feats, min_leaf, sorted_rows=None):
    """Blocks of at most _SPLIT_BLOCK (feature, threshold) elements, or one
    feature. A block's first maximum in row-major order is its lowest
    feature and threshold with the top gain; it replaces the best of earlier
    blocks only if strictly greater."""
    m = idx.shape[0]
    if m < 2:
        return -1, 0.0, 0.0
    if sorted_rows is None:
        sorted_rows = _node_lists(X, idx, feats)
    total = float(np.cumsum(y[idx])[-1])
    parent_score = total * total / m
    nl = np.arange(1, m, dtype=np.int64)
    nr = m - nl
    best_feat, best_thr, best_gain = -1, 0.0, 0.0
    per = max(1, _SPLIT_BLOCK // (m - 1))
    for start in range(0, feats.shape[0], per):
        fb = feats[start:start + per]
        rows = sorted_rows[fb]
        vs = X.take(rows * np.int64(X.shape[1]) + fb[:, None])
        sl = np.cumsum(y.take(rows[:, :-1]), axis=1)
        sr = total - sl
        gains = (sl * sl / nl + sr * sr / nr - parent_score) / m
        gains[vs[:, :-1] == vs[:, 1:]] = -np.inf
        if min_leaf > 1:
            np.copyto(gains, -np.inf, where=(nl < min_leaf) | (nr < min_leaf))
        i, pos = divmod(int(gains.argmax()), m - 1)
        if gains[i, pos] > best_gain:
            best_feat, best_gain = int(fb[i]), float(gains[i, pos])
            best_thr = 0.5 * (vs[i, pos] + vs[i, pos + 1])
    return best_feat, best_thr, best_gain

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


def tree_route(feat, thr, left, right, X):
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


def knn_search(train, queries, k):
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
# The update is sequential, so svm_epoch and svr_epoch run the _py loops' scalar
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


def svm_epoch(X, y, order, w, b, wavg, bavg, lam, t0):
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


def svr_epoch(X, y, order, w, b, wavg, bavg, lam, eps, t0):
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
