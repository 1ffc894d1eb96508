"""CART decision tree, grown greedily on Gini impurity.

The tree is stored as parallel arrays (feature, threshold, left, right,
value, ...) so batch prediction can route whole row blocks level by
level instead of walking rows one at a time; `NodeTable` stacks one or
more trees for that routing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rows import check_rows

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


@dataclass(frozen=True)
class NodeTable:
    """Trees stacked into one node array, routed level-synchronously.

    Tree t's nodes sit at [roots[t], roots[t] + n_nodes_t), child indices
    offset by roots[t].  A node steps to children[2 * i + go_left]: its
    right child, or its left one when the row's feature value is <= the
    threshold.  Leaves loop to themselves (feature 0, threshold +inf,
    both children the leaf), so rows that reached a leaf stay put while
    the deepest tree finishes.  leaf_class is each node's argmax of its
    value row, the lowest class on ties.
    """

    feature: np.ndarray
    threshold: np.ndarray
    children: np.ndarray
    leaf_class: np.ndarray
    roots: np.ndarray
    depth: int                # steps from the roots to the deepest leaf

    @classmethod
    def stack(cls, trees) -> "NodeTable":
        sizes = [t.n_nodes for t in trees]
        roots = np.cumsum([0] + sizes[:-1])
        offset = np.repeat(roots, sizes)
        feature = np.concatenate([t.feature for t in trees]).astype(np.intp)
        left = np.concatenate([t.left for t in trees]) + offset
        right = np.concatenate([t.right for t in trees]) + offset
        leaf = feature < 0
        node = np.arange(feature.size)
        children = np.stack([np.where(leaf, node, right), np.where(leaf, node, left)], axis=1)
        feature[leaf] = 0
        threshold = np.where(leaf, np.inf, np.concatenate([t.threshold for t in trees]))
        # terminates: DecisionTreeModel only holds children past their parent
        depth, frontier = 0, roots[~leaf[roots]]
        while frontier.size:
            depth += 1
            frontier = np.concatenate([left[frontier], right[frontier]])
            frontier = frontier[~leaf[frontier]]
        return cls(
            feature=feature,
            threshold=threshold,
            children=children.ravel(),
            leaf_class=np.concatenate([t.value.argmax(axis=1) for t in trees]),
            roots=roots,
            depth=depth,
        )

    def route(self, X: np.ndarray) -> np.ndarray:
        """Node reached by every row in every tree, (n_rows, n_trees)."""
        n, d = X.shape
        x = X.ravel()  # row r's feature f at r * d + f
        at = np.arange(n)[:, None] * d
        node = np.tile(self.roots, (n, 1))
        for _ in range(self.depth):
            go_left = x[at + self.feature[node]] <= self.threshold[node]
            node = self.children[2 * node + go_left]
        return node


@dataclass
class DecisionTreeModel:
    """Fitted tree in flat-array form; value rows are class proportions.

    Nodes are in pre-order: every child index is past its parent's, so
    routing from the root reaches a leaf.  Construction coerces the
    arrays to their dtypes and rejects arrays that break this or any
    other shape rule with ValueError.
    """

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

    def __post_init__(self):
        self.classes = np.asarray(self.classes)
        self.n_features = int(self.n_features)
        self.feature = np.asarray(self.feature, dtype=np.int32)
        self.threshold = np.asarray(self.threshold, dtype=np.float64)
        self.left = np.asarray(self.left, dtype=np.int32)
        self.right = np.asarray(self.right, dtype=np.int32)
        self.value = np.asarray(self.value, dtype=np.float64)
        self.n_node_samples = np.asarray(self.n_node_samples, dtype=np.int64)
        self.impurity = np.asarray(self.impurity, dtype=np.float64)
        n = self.feature.shape[0] if self.feature.ndim == 1 else 0
        per_node = (self.feature, self.threshold, self.left, self.right,
                    self.n_node_samples, self.impurity)
        if not n or any(a.shape != (n,) for a in per_node):
            raise ValueError("tree arrays must be 1-D, of one equal length >= 1")
        if self.value.shape != (n, self.classes.shape[0]):
            raise ValueError(f"tree value has shape {self.value.shape}, "
                             f"want ({n}, {self.classes.shape[0]})")
        leaf = self.feature == -1
        if not (np.array_equal(leaf, self.left == -1) and np.array_equal(leaf, self.right == -1)):
            raise ValueError("tree leaves must have feature, left and right all -1")
        inner = np.nonzero(~leaf)[0]
        f = self.feature[inner]
        if not ((f >= 0) & (f < self.n_features)).all():
            raise ValueError(f"tree split feature outside [0, {self.n_features})")
        if not np.isfinite(self.threshold[inner]).all():
            raise ValueError("tree split threshold is not finite")
        for child in (self.left[inner], self.right[inner]):
            if not ((inner < child) & (child < n)).all():
                raise ValueError("tree child index not after its parent and inside the tree")

    @property
    def n_nodes(self) -> int:
        return self.feature.shape[0]

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf node index for every row: the one-tree `NodeTable`."""
        return NodeTable.stack([self]).route(check_rows(X, self.n_features))[:, 0]

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
        feature=feature,
        threshold=threshold,
        left=left,
        right=right,
        value=value,
        n_node_samples=n_samples,
        impurity=impurity,
    )
