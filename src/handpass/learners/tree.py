"""CART decision tree, grown greedily on Gini impurity.

The tree is stored as parallel arrays (feature, threshold, left, right,
value, ...) so batch prediction can route whole row blocks level by
level instead of walking rows one at a time; `NodeTable` stacks one or
more trees for that routing.  `grow_trees` grows one or more trees in
lockstep, all their split searches going through the batched
`best_splits` over one `SplitData`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rows import check_rows

# Split search works on (row, feature) cells.  Features go in chunks of
# 64, which bounds one node's working arrays and fixes which of several
# equal-impurity splits wins (see best_splits).  Nodes are packed into
# batches of at most _BATCH_CELLS cells a chunk, 40 to 65 bytes a cell
# at the peak; a node larger than that is searched alone.
_FEATURE_CHUNK = 64
_BATCH_CELLS = 32768


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


class SplitData:
    """A training matrix prepared once per fit for `best_splits`.

    rank holds each value's dense rank within its feature (equal values
    share a rank), in the smallest unsigned dtype, laid out like X so
    one flat index row * d + f reads both.  Sorting a node's rows by
    rank orders them as sorting by value does, up to the order of equal
    values, and small integer keys make numpy's stable sort a radix
    sort.
    """

    def __init__(self, X, y_codes, n_classes):
        self.X = np.ascontiguousarray(X, dtype=np.float64)
        n, self.d = self.X.shape
        self.n_classes = n_classes
        self.y = np.asarray(y_codes).astype(np.min_scalar_type(n_classes - 1))
        rank = np.empty((n, self.d), dtype=np.min_scalar_type(max(n - 1, 0)))
        for lo in range(0, self.d, _FEATURE_CHUNK):   # bounds the argsort's memory
            block = self.X[:, lo : lo + _FEATURE_CHUNK]
            order = block.argsort(axis=0)
            ranked = np.take_along_axis(block, order, axis=0)
            dense = np.zeros(block.shape, dtype=rank.dtype)
            np.cumsum(ranked[1:] != ranked[:-1], axis=0, out=dense[1:])
            np.put_along_axis(rank[:, lo : lo + _FEATURE_CHUNK], order, dense, axis=0)
        self.n_ranks = int(rank.max(initial=0)) + 1
        rank = rank.astype(np.min_scalar_type(self.n_ranks - 1), copy=False)
        self.rank = rank.ravel()


def best_splits(data: SplitData, nodes) -> list:
    """Best (feature, threshold) of each (rows, features) node of data.

    Candidates are midpoints between consecutive sorted values that lie
    strictly below the upper value; that rules out equal neighbours and
    a midpoint that rounds onto the upper value, neither of which would
    separate the pair.  Each entry is (children_impurity_sum, feature,
    threshold) minimizing nl*gini_l + nr*gini_r over the node's
    features, or None when every one is constant on the node.  Ties go
    to the first minimum in row-major (position, feature) order within a
    64-feature chunk, and to the earliest chunk across chunks.  All
    nodes take the same number of features.

    Nodes whose cells fit are searched together, smallest first, in
    batches of at most _BATCH_CELLS cells a chunk; a larger node is
    searched alone.
    """
    found = [None] * len(nodes)
    sizes = [rows.size for rows, _ in nodes]
    # a node of one row has no cut
    todo = sorted((i for i, n in enumerate(sizes) if n > 1), key=sizes.__getitem__)
    width = min(nodes[0][1].size, _FEATURE_CHUNK) if nodes else 0
    for batch in _batches(todo, sizes, width):
        w, f, t = _search(data, [nodes[i][0] for i in batch],
                          np.stack([nodes[i][1] for i in batch]))
        for i, wi, fi, ti in zip(batch, w.tolist(), f.tolist(), t.tolist()):
            if wi < np.inf:
                found[i] = (wi, fi, ti)
    return found


def _batches(todo, sizes, width):
    """Runs of todo whose sizes * width add up to at most _BATCH_CELLS,
    or one node alone."""
    batch, cells = [], 0
    for i in todo:
        if batch and cells + sizes[i] * width > _BATCH_CELLS:
            yield batch
            batch, cells = [], 0
        batch.append(i)
        cells += sizes[i] * width
    if batch:
        yield batch


def _search(data, rows, feats):
    """Split search of one batch: B row arrays of >= 2 rows each and
    their (B, m) features.  Returns per-node (w, feature, threshold)
    arrays, w = inf where no split exists.

    The batch's rows are concatenated into one column per feature, node
    b occupying segment [starts[b], ends[b]).  A stable sort by (node,
    rank) sorts every segment in place, and the class and impurity sums
    below run per segment.  With one node in the batch every
    per-segment step drops out.
    """
    X, y, d, C, K = data.X.ravel(), data.y, data.d, data.n_classes, data.n_ranks
    B = len(rows)
    lens = np.fromiter(map(len, rows), dtype=np.intp, count=B)
    ends = np.cumsum(lens)
    starts = ends - lens
    rows = rows[0] if B == 1 else np.concatenate(rows)
    N = rows.size
    at = rows * d                       # flat index of each row's feature 0
    y_rows = y[rows]
    left_n = np.arange(1, N, dtype=np.float64)
    if B == 1:
        counts = np.bincount(y_rows, minlength=C)[None, :]
        right_n = N - left_n
    else:
        counts = np.bincount(np.repeat(np.arange(0, B * C, C), lens) + y_rows,
                             minlength=B * C).reshape(B, C)
        left_n -= np.repeat(starts, lens)[:-1]
        right_n = np.repeat(lens, lens)[:-1] - left_n
        # a cut after a segment's last row has nothing on its right;
        # right_n = inf makes its w inf
        right_n[ends[:-1] - 1] = np.inf
        # sort keys: node * K + rank when they fit 16 bits, else the node
        if B * K <= 1 << 16:
            seg_key = np.repeat(np.arange(0, B * K, K, dtype=np.uint16), lens)
        else:
            seg = np.repeat(np.arange(B, dtype=np.min_scalar_type(B - 1)), lens)
    sq = (counts * counts).sum(axis=1)
    # With L_c / R_c the class counts left / right of each cut,
    # n*gini = n - sum(counts^2)/n per child.  Moving a row of class c
    # left, with occ rows of class c before it in its segment,
    #   sum L_c^2 grows by 2*occ + 1, and
    #   sum R_c^2 (from sum total_c^2) grows by 2*occ + 1 - 2*total_c.
    # A column stably sorted by class holds runs of (class, segment),
    # the same runs for every feature, and occ counts up from 0 along
    # each run; so both growths, in that order, are one vector per
    # batch, which the sort's inverse scatters to value order.  Every
    # term and running sum is an integer of at most n^2, exact in float64
    # for any node under 9e7 rows, so w (and with it every split) does
    # not depend on how the sums are formed.
    run = counts.T.ravel()
    occ = np.arange(N) - np.repeat(np.cumsum(run) - run, run)
    by_class_l = 2.0 * occ + 1.0
    by_class_r = by_class_l - 2.0 * np.repeat(run, run)

    best_w = np.full(B, np.inf)
    best_f = np.zeros(B, dtype=np.intp)
    best_t = np.zeros(B)
    for lo in range(0, feats.shape[1], _FEATURE_CHUNK):
        fc = feats[:, lo : lo + _FEATURE_CHUNK]
        flat = (np.arange(fc.shape[1]) * N)[:, None]  # row j of a chunk starts at j*N
        cell = (fc[0][:, None] if B == 1 else np.repeat(fc.T, lens, axis=1)) + at
        if B == 1:
            order = data.rank[cell].argsort(axis=1, kind="stable")
        elif B * K <= 1 << 16:
            order = (seg_key + data.rank[cell]).argsort(axis=1, kind="stable")
        else:
            # the same (node, rank) radix sort, one digit per pass
            order = data.rank[cell].argsort(axis=1, kind="stable")
            order = np.take_along_axis(order, seg[order].argsort(axis=1, kind="stable"), axis=1)
        by_class = y_rows[order].argsort(axis=1, kind="stable")
        order += flat
        xs = X[cell.ravel()[order]]
        del cell, order             # (here and below) to cap the chunk's peak memory

        by_class += flat
        ssl = np.empty(xs.shape)
        ssr = np.empty(xs.shape)
        ssl.ravel()[by_class] = by_class_l
        ssr.ravel()[by_class] = by_class_r
        del by_class
        # running sums per segment: sum L_c^2 ends a segment at its
        # sum total_c^2, to be cancelled where the next one starts;
        # sum R_c^2 starts there and ends at 0
        ssl[:, starts[1:]] -= sq[:-1]
        ssr[:, starts] += sq
        np.cumsum(ssl, axis=1, out=ssl)
        np.cumsum(ssr, axis=1, out=ssr)
        # w = (left_n - ssl / left_n) + (right_n - ssr / right_n), in place
        w = ssl[:, :-1]
        w /= left_n
        np.subtract(left_n, w, out=w)
        right = ssr[:, :-1]
        right /= right_n
        np.subtract(right_n, right, out=right)
        w += right
        del ssr, right

        mids = xs[:, :-1] + xs[:, 1:]
        mids *= 0.5
        np.putmask(w, mids >= xs[:, 1:], np.inf)
        least = w.min(axis=0)           # per position, over the chunk
        if B == 1:
            i = np.argmin(least, keepdims=True)
            w_min = least[i]
        else:
            w_min = np.minimum.reduceat(least, starts)
            hit = np.flatnonzero(least == np.repeat(w_min, lens)[:-1])
            i = hit[np.searchsorted(hit, starts)]
        j = (w[:, i] == w_min).argmax(axis=0)
        better = w_min < best_w
        best_w[better] = w_min[better]
        best_f[better] = fc[better, j[better]]
        best_t[better] = mids[j, i][better]
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
    data = SplitData(X, y_codes, n_classes)
    return grow_trees(data, classes, hyper, [(np.arange(data.X.shape[0]), rng)])[0]


def grow_trees(data: SplitData, classes, hyper, starts) -> list:
    """Grow one tree per (rows, rng) in starts, all in lockstep.

    Rows index data's matrix and may repeat (a bootstrap sample).  Each
    tree keeps its own DFS stack.  A step pops one node from every stack
    and sends all the splits they need through one `best_splits` call.
    A tree draws from its own rng, and emits its nodes, in its own
    pre-order, exactly as when grown alone, so every tree is the same
    whichever trees grow beside it.
    """
    X, y, C, d = data.X, data.y, data.n_classes, data.d
    max_feat = resolve_max_features(hyper.max_features, d)
    max_depth = np.inf if hyper.max_depth is None else hyper.max_depth
    all_feats = np.arange(d)
    rngs = [rng for _, rng in starts]
    # entries (rows, depth, step-order id of the parent, is left child)
    stacks = [[(rows, 0, -1, False)] for rows, _ in starts]
    count_type = np.min_scalar_type(max(rows.size for rows, _ in starts))
    live = list(range(len(starts)))
    steps = []
    n_seen = 0
    while live:
        rows, depth, parent, is_left = zip(*(stacks[t].pop() for t in live))
        B = len(live)
        n = np.fromiter(map(len, rows), dtype=np.intp, count=B)
        counts = np.bincount(np.repeat(np.arange(0, B * C, C), n) + y[np.concatenate(rows)],
                             minlength=B * C).reshape(B, C)
        # integer counts make every sum exact: impurity and the value rows
        # are bit for bit what the one-node formulas give
        impurity = 1.0 - (counts * counts).sum(axis=1) / (n * n)
        feature = np.full(B, -1, dtype=np.int32)
        threshold = np.zeros(B)
        grow = np.flatnonzero((impurity > 0.0) & (n >= hyper.min_samples_split)
                              & (np.array(depth) < max_depth)).tolist()
        nodes = [
            (rows[k], np.sort(rngs[live[k]].choice(d, size=max_feat, replace=False))
             if max_feat < d else all_feats)
            for k in grow
        ]
        for k, found in zip(grow, best_splits(data, nodes)):
            if found is None:
                continue
            _, feature[k], threshold[k] = found
            go_left = X[rows[k], feature[k]] <= threshold[k]
            # right pushed first so the left child is emitted next (pre-order).
            stack = stacks[live[k]]
            stack.append((rows[k][~go_left], depth[k] + 1, n_seen + k, False))
            stack.append((rows[k][go_left], depth[k] + 1, n_seen + k, True))
        steps.append((live, parent, is_left, counts.astype(count_type), n, impurity,
                      feature, threshold))
        n_seen += B
        live = [t for t in live if stacks[t]]
    return _assemble(steps, len(starts), classes, d)


def _assemble(steps, n_trees, classes, n_features) -> list:
    """Per-tree node arrays from the nodes of all steps, in step order;
    a tree's nodes, in step order, are its pre-order.  The trees' arrays
    are slices of one array per field."""
    tree, parent, is_left, counts, n, impurity, feature, threshold = (
        np.concatenate(column) for column in zip(*steps))
    order = np.argsort(tree, kind="stable")
    sizes = np.bincount(tree, minlength=n_trees)
    ends = np.cumsum(sizes)
    local = np.empty_like(order)        # index of each node within its tree
    local[order] = np.arange(order.size) - np.repeat(ends - sizes, sizes)
    left = np.full(order.size, -1, dtype=np.int32)
    right = np.full(order.size, -1, dtype=np.int32)
    is_right = ~is_left & (parent >= 0)    # a root is neither child
    left[parent[is_left]] = local[is_left]
    right[parent[is_right]] = local[is_right]
    # DecisionTreeModel's fields from feature on, tree by tree
    fields = (feature[order], threshold[order], left[order], right[order],
              counts[order] / n[order, None], n[order], impurity[order])
    return [DecisionTreeModel(classes, n_features, *(f[a:b] for f in fields))
            for a, b in zip((ends - sizes).tolist(), ends.tolist())]
