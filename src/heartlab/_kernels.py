"""Hot numeric kernels: one numpy implementation each, and its loop oracle.

Every kernel `<name>` has a plain loop twin `_<name>_py`, the reference
that tests/test_kernels.py and `perfbench/kernels.py` compare it with.
`<name>` is vectorized. The mini-batch Pegasos epoch is one kernel for
both the SVM's hinge and the SVR's tube, one numpy step per batch of rows;
svm_epoch and svr_epoch (and their oracles) only name its loss. Each
kernel accumulates floats in the loop's order, so the two agree bit for
bit.

The split kernels read each feature's rows from sorted lists that the
caller keeps (a forest or boosting run sorts X once; trees.py partitions the
lists stably a level at a time), so no node sorts. The classification kernel
scores every open node of a tree level in one call; its loop oracle runs the
one-node loop over the level's nodes. Prefix sums visit every row, equal
values in row order, as the loops do; gains are scored at candidate positions
only, in the loops' order, so equal-gain splits break ties alike.

Tree routing is predicated: leaves are their own children, so every routed
row takes the same step per level; rows are compacted once half sit at leaves.

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
# must be passed in ascending order). A block's gains are computed only at
# its candidate positions, those where the sorted value changes inside a
# node and min_leaf allows a split, found by one flatnonzero; the prefix
# sums under them still visit every row in order.
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
        pos = np.arange(b - a)

        def within(v, totals):
            """Prefix sums of v along axis 1, each node's from its first
            position: the totals of the nodes before it are taken off there."""
            v[:, first[1:]] -= totals[lo:hi - 1]
            return v.cumsum(axis=1, out=v)

        per = max(1, _SPLIT_BLOCK // (b - a))
        for j0 in range(0, k, per):
            fb = feats[j0:j0 + per, lo:hi]
            fat = fb.repeat(sizes, axis=1)  # (candidates, positions): each position's feature
            rows = sorted_rows.take(fat * sorted_rows.shape[1] + (pos + a))
            vs = X.take(rows * m + fat)
            ws = None if w is None else w.take(rows)
            cut = np.empty(vs.shape, bool)  # a split after the position: its value changes
            np.not_equal(vs[:, :-1], vs[:, 1:], out=cut[:, :-1])
            cut[:, first + sizes - 1] = False  # and its node goes on
            if min_leaf > 1:
                nl = pos + 1 - first.repeat(sizes) if ws is None else within(ws.copy(), n)
                cut &= (nl >= min_leaf) & (n[lo:hi].repeat(sizes) - nl >= min_leaf)
            at = np.flatnonzero(cut)
            if not at.size:
                continue
            # segment (j, s), candidate j's split points in node s, is contiguous in at
            seg_first = np.arange(fb.shape[0])[:, None] * (b - a) + starts[lo:hi + 1] - a
            bounds = np.searchsorted(at, seg_first)
            count = (bounds[:, 1:] - bounds[:, :-1]).ravel()
            bounds, seg_first = bounds[:, :-1].ravel(), seg_first[:, :-1].ravel()
            node = np.arange(lo, hi)[None].repeat(fb.shape[0], axis=0).repeat(count)
            nb = n.take(node)
            ys = y.take(rows)
            # class counts are exact integers, so their squares add up exactly
            taken = rtaken = ssq_l = ssq_r = 0  # over the classes before the last
            for c in range(n_classes - 1):
                lc = within((ys == c).astype(np.int64) if ws is None else (ys == c) * ws,
                            parent[c]).take(at)
                rc = parent[c].take(node) - lc
                taken, rtaken = taken + lc, rtaken + rc
                ssq_l, ssq_r = ssq_l + lc * lc, ssq_r + rc * rc
            nl = at - np.repeat(seg_first - 1, count) if ws is None else within(ws, n).take(at)
            lc, rc = nl - taken, nb - nl - rtaken  # the last class: what the others leave
            gains = (ssq_l + lc * lc) / nl
            gains += (ssq_r + rc * rc) / (nb - nl)
            gains -= parent_score.take(node)
            gains /= nb
            tops = np.full((fb.shape[0], hi - lo), -np.inf)  # per segment
            tops.flat[count > 0] = np.maximum.reduceat(gains, bounds[count > 0])
            j = tops.argmax(axis=0)  # each node's first candidate with its top gain
            top = tops[j, np.arange(hi - lo)]
            better = np.flatnonzero(top > best_gain[lo:hi])
            if better.size:  # the first split point of segment (j, s) with the top gain
                hits = np.flatnonzero(gains == tops.ravel().repeat(count))
                jb = j[better]
                p = at.take(hits.take(hits.searchsorted(bounds[jb * (hi - lo) + better]))) % (b - a)
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
    best_feat, best_thr, best_gain = -1, 0.0, 0.0
    per = max(1, _SPLIT_BLOCK // (m - 1))
    nl = np.arange(1, m)[None].repeat(min(per, feats.shape[0]), axis=0).ravel()  # left of a split
    for start in range(0, feats.shape[0], per):
        fb = feats[start:start + per]
        rows = sorted_rows[fb]
        vs = X.take(rows * np.int64(X.shape[1]) + fb[:, None])
        cut = vs[:, :-1] != vs[:, 1:]
        if min_leaf > 1:  # positions with fewer than min_leaf rows on a side
            cut[:, :min_leaf - 1] = cut[:, max(0, m - min_leaf):] = False
        at = np.flatnonzero(cut)
        if not at.size:
            continue
        sl = np.cumsum(y.take(rows[:, :-1]), axis=1).take(at)
        sr = total - sl
        nl_at = nl.take(at)
        gains = (sl * sl / nl_at + sr * sr / (m - nl_at) - parent_score) / m
        i = int(gains.argmax())
        if gains[i] > best_gain:
            r, pos = divmod(int(at[i]), m - 1)
            best_feat, best_gain = int(fb[r]), float(gains[i])
            best_thr = 0.5 * (vs[r, pos] + vs[r, pos + 1])
    return best_feat, best_thr, best_gain

# ---------------------------------------------------------------------------
# Tree routing: follow a flattened node table root-to-leaf for each row.
# feat[node] < 0 marks a leaf. x[feat] <= thr routes left, so NaN goes right.
# The kernel predicates (Asadi, Lin & de Vries 2014): child[2*node + (x <= thr)]
# is the right child in slot 0 and the left in slot 1; a leaf is its own child
# in both and reads column 0. Each level, every routed row reads X flat at
# row*m + feature, compares and takes its child; finished rows are written out
# and the rest compacted once _ROUTE_COMPACT of the routed rows are finished.
# ---------------------------------------------------------------------------

# A half steps at most twice the unfinished rows. Medians of 21 runs, 2 cores,
# 16,384 spliced fixture rows, at shares 1/4, 1/2, 3/4 and 1: rf of 100
# depth-12 trees 180, 157, 145 and 158 ms; gbt of 100 depth-3 trees 47, 45,
# 46 and 51 ms. 1/2 and 3/4 differ by less than their quartiles.
_ROUTE_COMPACT = 0.5


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
    n, m = X.shape
    leaf, own = feat < 0, np.arange(feat.size)
    child = 2 * np.column_stack([np.where(leaf, own, right), np.where(leaf, own, left)]).ravel()
    look, cut, leaf = np.where(leaf, 0, feat).repeat(2), thr.repeat(2), leaf.repeat(2)
    values, out = X.ravel(), np.empty(n, np.int64)
    rows, slot = np.arange(n), np.zeros(n, np.int64)  # slot: twice the row's node
    at = rows * m  # the row's offset in values
    while True:
        done = leaf.take(slot)
        n_done = np.count_nonzero(done)
        if n_done >= _ROUTE_COMPACT * slot.size:
            out[rows[done]] = slot[done] >> 1
            if n_done == slot.size:
                return out
            keep = np.flatnonzero(~done)
            rows, slot, at = rows.take(keep), slot.take(keep), at.take(keep)
        slot = child.take(slot + (values.take(at + look.take(slot)) <= cut.take(slot)))


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
# One averaged mini-batch Pegasos epoch (Shalev-Shwartz et al. 2011, section
# 2.3) for the SVM's hinge (eps None: g = y while y*margin < 1, y in {-1, +1})
# and the SVR's eps-tube (g = +-1 while |y - margin| > eps). Per batch of
# pegasos_batch(len(order)) consecutive rows of order, the last maybe short:
# t += 1, eta = 1/(lam*t), margins are b plus x[j]*w[j] over ascending j,
# w = (1 - eta*lam)*w + (eta/k)*sum(g*x) and b += (eta/k)*sum(g) over the k
# rows, then one update of the running averages, all in place; returns t.
# Sums run left to right from their first term: the kernel takes them from
# np.add.accumulate (np.cumsum's sequential scan), never from a reduction or
# BLAS, whose order numpy may choose. Its rows lead with a 1, so b rides with w.
# ---------------------------------------------------------------------------

def pegasos_batch(n_rows):
    """Rows per Pegasos step in an epoch of n_rows: 1 below 200 rows, then
    one per hundred rows, at most 32."""
    return min(max(n_rows // 100, 1), 32)


def _in_order(terms):
    """terms[0] + terms[1] + ..., left to right, as np.add.accumulate adds."""
    s = terms[0]
    for x in terms[1:]:
        s += x
    return s


def _pegasos_epoch_py(X, y, order, w, b, wavg, bavg, lam, eps, t0):
    n, m = order.shape[0], X.shape[1]
    size = pegasos_batch(n)
    t = t0
    for start in range(0, n, size):
        rows = order[start:start + size]
        t += 1
        eta = 1.0 / (lam * t)
        g = []
        for i in rows:
            margin = _in_order([b[0]] + [w[j] * X[i, j] for j in range(m)])
            if eps is None:
                g.append(y[i] if y[i] * margin < 1.0 else 0.0)
            else:
                resid = y[i] - margin
                g.append(1.0 if resid > eps else -1.0 if resid < -eps else 0.0)
        step = eta / len(rows)
        for j in range(m):
            gx = _in_order([gr * X[i, j] for gr, i in zip(g, rows)])
            w[j] = (1.0 - eta * lam) * w[j] + step * gx
            wavg[j] += (w[j] - wavg[j]) / t
        b[0] = b[0] + step * _in_order(g)
        bavg[0] += (b[0] - bavg[0]) / t
    return t


def pegasos_epoch(X, y, order, w, b, wavg, bavg, lam, eps, t0):
    n, m = order.shape[0], X.shape[1]
    size = pegasos_batch(n)
    A = np.ones((n, m + 1))  # rows in epoch order, led by 1 for the intercept
    X.take(order, axis=0, out=A[:, 1:])
    yo = y.take(order)
    v, vavg = np.concatenate((b, w)), np.concatenate((bavg, wavg))
    t = t0
    for start in range(0, n, size):
        a, yb = A[start:start + size], yo[start:start + size]
        t += 1
        eta = 1.0 / (lam * t)
        margin = np.add.accumulate(a * v, axis=1)[:, -1]
        if eps is None:
            g = np.where(yb * margin < 1.0, yb, 0.0)
        else:
            resid = yb - margin
            g = np.subtract(resid > eps, resid < -eps, dtype=np.float64)
        gx = np.add.accumulate(g[:, None] * a, axis=0)[-1]
        v[1:] *= 1.0 - eta * lam
        v += (eta / a.shape[0]) * gx
        vavg += (v - vavg) / t
    b[0], w[:], bavg[0], wavg[:] = v[0], v[1:], vavg[0], vavg[1:]
    return t


# The two losses by name: heartlab.linear fits with svm_epoch and svr_epoch,
# and perfbench traces those two there and times all four against each other.

def svm_epoch(X, y, order, w, b, wavg, bavg, lam, t0):
    return pegasos_epoch(X, y, order, w, b, wavg, bavg, lam, None, t0)


def svr_epoch(X, y, order, w, b, wavg, bavg, lam, eps, t0):
    return pegasos_epoch(X, y, order, w, b, wavg, bavg, lam, eps, t0)


def _svm_epoch_py(X, y, order, w, b, wavg, bavg, lam, t0):
    return _pegasos_epoch_py(X, y, order, w, b, wavg, bavg, lam, None, t0)


def _svr_epoch_py(X, y, order, w, b, wavg, bavg, lam, eps, t0):
    return _pegasos_epoch_py(X, y, order, w, b, wavg, bavg, lam, eps, t0)
