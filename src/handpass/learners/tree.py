"""CART decision tree, grown greedily on Gini impurity.

The tree is stored as parallel arrays (feature, threshold, left, right,
value, ...) so batch prediction can route whole row blocks level by
level instead of walking rows one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DimensionMismatch

# Split search walks features in chunks to bound its (rows x chunk)
# working arrays; the chunking also fixes which of several equal-impurity
# splits wins (see _best_split).
_FEATURE_CHUNK = 64


def gini(labels) -> float:
    """Gini impurity 1 - sum(p_c^2) of a label multiset."""
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValueError("gini of an empty set is undefined")
    _, counts = np.unique(labels, return_counts=True)
    p = counts / labels.size
    return float(1.0 - np.dot(p, p))


def resolve_max_features(spec, n_features: int) -> int:
    if spec is None:
        return n_features
    if spec == "sqrt":
        return max(1, int(round(np.sqrt(n_features))))
    m = int(spec)
    if not 1 <= m <= n_features:
        raise ValueError(f"max_features {spec!r} out of range for {n_features} features")
    return m


def _best_split(X, y_codes, idx, feats, n_classes):
    """Best (feature, threshold) over candidate features at one node.

    Candidates are midpoints between consecutive sorted values that lie
    strictly below the upper value; that rules out equal neighbours and
    a midpoint that rounds onto the upper value, neither of which would
    separate the pair.  Returns (children_impurity_sum, feature,
    threshold) minimizing nl*gini_l + nr*gini_r, or None when every
    candidate feature is constant on the node.  Ties go to the
    first minimum in row-major (threshold, feature) order within a
    64-feature chunk, and to the earliest chunk across chunks.
    """
    n = idx.size
    # small unsigned codes make the stable argsort below a radix sort
    y_node = y_codes[idx].astype(np.min_scalar_type(n_classes - 1))
    total = np.bincount(y_node, minlength=n_classes)
    # rows of class c occupy [start[c], start[c] + total[c]) of a stable
    # sort by class
    start_y = (np.cumsum(total) - total)[y_node]
    total_y = total[y_node]
    sum_total_sq = int(np.dot(total, total))
    rank = np.arange(n)[:, None]
    all_cols = np.arange(min(feats.size, _FEATURE_CHUNK))
    left_n = np.arange(1, n, dtype=np.float64)[:, None]
    right_n = n - left_n
    best_w, best_f, best_t = np.inf, -1, 0.0
    for start in range(0, feats.size, _FEATURE_CHUNK):
        fc = feats[start : start + _FEATURE_CHUNK]
        cols = all_cols[: fc.size]
        Xc = X[idx[:, None], fc]
        order = Xc.argsort(axis=0)
        Xs = Xc[order, cols]
        ys = y_node[order]

        # occ[i, j] = rows of class ys[i, j] among the i smallest of
        # feature j: a row's position in the stable class sort of its
        # column, less its class's start offset.
        by_class = ys.argsort(axis=0, kind="stable")
        occ = np.empty_like(by_class)
        occ[by_class, cols] = rank
        occ -= start_y[order]
        # With L_c / R_c the class counts left / right of each cut,
        # n*gini = n - sum(counts^2)/n per child, and
        #   sum L_c^2 grows by 2*occ + 1 per row moved left,
        #   sum R_c^2 = sum total_c^2 - 2*sum total_c*L_c + sum L_c^2.
        # Every term is an integer of at most n^2, exact in float64 for any
        # node under 9e7 rows, so w (and with it every split) does not
        # depend on how the sums are formed.
        ssl = (2 * occ + 1).cumsum(axis=0)[:-1]
        ssr = sum_total_sq + ssl - 2 * total_y[order].cumsum(axis=0)[:-1]
        w = (left_n - ssl / left_n) + (right_n - ssr / right_n)

        mids = 0.5 * (Xs[:-1] + Xs[1:])
        valid = mids < Xs[1:]
        w = np.where(valid, w, np.inf)
        if w.size == 0:
            continue
        pos = int(np.argmin(w))
        i, j = divmod(pos, w.shape[1])
        if w[i, j] < best_w:
            best_w, best_f, best_t = float(w[i, j]), int(fc[j]), float(mids[i, j])
    if not np.isfinite(best_w):
        return None
    return best_w, best_f, best_t


@dataclass
class DecisionTreeModel:
    """Fitted tree in flat-array form; value rows are class proportions."""

    classes: np.ndarray
    n_features: int
    feature: np.ndarray       # int32, -1 at leaves
    threshold: np.ndarray     # float64
    left: np.ndarray          # int32, -1 at leaves
    right: np.ndarray
    value: np.ndarray         # (n_nodes, n_classes) float64
    n_node_samples: np.ndarray
    impurity: np.ndarray

    kind = "DecisionTree"

    @property
    def n_nodes(self) -> int:
        return self.feature.shape[0]

    def _check(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if X.shape[1] != self.n_features:
            raise DimensionMismatch(
                f"{X.shape[1]} features, model trained on {self.n_features}"
            )
        return X

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf node index for every row (level-synchronous routing)."""
        X = self._check(X)
        node = np.zeros(X.shape[0], dtype=np.int64)
        active = np.nonzero(self.feature[node] >= 0)[0]
        while active.size:
            nd = node[active]
            go_left = X[active, self.feature[nd]] <= self.threshold[nd]
            node[active] = np.where(go_left, self.left[nd], self.right[nd])
            active = active[self.feature[node[active]] >= 0]
        return node

    def scores(self, X: np.ndarray) -> np.ndarray:
        """Per-class scores = class proportions of the reached leaf."""
        return self.value[self.apply(X)]


def grow_tree(X, y_codes, n_classes, classes, hyper, rng) -> DecisionTreeModel:
    """Grow one CART tree; rng is consumed only for feature subsampling."""
    n, d = X.shape
    max_feat = resolve_max_features(hyper.max_features, d)

    feature, threshold, left, right = [], [], [], []
    value, n_samples, impurity = [], [], []

    def emit(counts, n_i, imp):
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(counts / n_i)
        n_samples.append(n_i)
        impurity.append(imp)
        return len(feature) - 1

    stack = [(np.arange(n), 0, -1, False)]
    while stack:
        idx, depth, parent, is_left = stack.pop()
        counts = np.bincount(y_codes[idx], minlength=n_classes).astype(np.float64)
        imp = float(1.0 - np.dot(counts, counts) / (idx.size * idx.size))
        nid = emit(counts, idx.size, imp)
        if parent >= 0:
            (left if is_left else right)[parent] = nid

        if (
            imp <= 0.0
            or idx.size < hyper.min_samples_split
            or (hyper.max_depth is not None and depth >= hyper.max_depth)
        ):
            continue
        if max_feat < d:
            feats = np.sort(rng.choice(d, size=max_feat, replace=False))
        else:
            feats = np.arange(d)
        found = _best_split(X, y_codes, idx, feats, n_classes)
        if found is None:
            continue
        _, f, t = found
        go_left = X[idx, f] <= t
        feature[nid] = f
        threshold[nid] = t
        # right pushed first so the left child is emitted next (pre-order).
        stack.append((idx[~go_left], depth + 1, nid, False))
        stack.append((idx[go_left], depth + 1, nid, True))

    return DecisionTreeModel(
        classes=classes,
        n_features=d,
        feature=np.array(feature, dtype=np.int32),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int32),
        right=np.array(right, dtype=np.int32),
        value=np.array(value, dtype=np.float64),
        n_node_samples=np.array(n_samples, dtype=np.int64),
        impurity=np.array(impurity, dtype=np.float64),
    )
