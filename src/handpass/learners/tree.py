"""CART decision tree, grown greedily on Gini impurity.

The tree is stored as parallel arrays (feature, threshold, left, right,
value, ...) so batch prediction can route whole row blocks level by
level instead of walking rows one at a time; `NodeTable` stacks one or
more trees for that routing.  `grow_trees` grows one or more trees in
lockstep, all their split searches going through the batched
`best_splits` over one `SplitData`.  A search sorts packed integer
keys, one per (row, feature) cell, that carry each cell's node, value
rank and position: one sort gives the value order of every node and
its equal values, and a threshold is computed only at the winning cut.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import _check_count
from .rows import check_rows, coerce_arrays

# Split search works on (row, feature) cells.  Features go in chunks of
# 64, which bounds one node's working arrays and fixes which of several
# equal-impurity splits wins (see best_splits).  Nodes are packed into
# batches of at most _BATCH_CELLS cells a chunk, about 41 bytes a cell
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
    return n_features if spec is None else max(1, int(round(np.sqrt(n_features))))


class SplitData:
    """A training matrix prepared once per fit for `best_splits`.

    rank holds each value's dense rank within its feature (equal values
    share a rank), in the smallest unsigned dtype, laid out like X so
    one flat index row * d + f reads both.  Sorting a node's rows by
    rank orders them as sorting by value does, up to the order of equal
    values, and equal ranks mark equal values, so the search compares
    integers where it would compare floats.
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

    Candidates are midpoints between distinct consecutive sorted values
    that lie at or above the lower value and strictly below the upper
    one; that rules out equal neighbours, a midpoint that rounds onto the
    upper value (adjacent floats) and a sum that overflows to +-inf, none
    of which would separate the pair.  Each entry is
    (children_impurity_sum, feature, threshold) minimizing
    nl*gini_l + nr*gini_r over the node's features, or None when every
    one is constant on the node.  Ties go to the first minimum in
    row-major (position, feature) order within a 64-feature chunk, and
    to the earliest chunk across chunks.  All nodes take the same number
    of features.

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
    b occupying segment [starts[b], ends[b]).  One sort of the cells'
    packed (node, rank, position) keys sorts every segment in place and
    puts equal values side by side, and the class and impurity sums
    below run per segment.  Cuts between equal values are masked by key;
    the float midpoint is formed only at each node's winning cut, and a
    node whose winning midpoint does not separate its pair is searched
    again by `_search_again`.
    """
    X, y, d, C, K = data.X.ravel(), data.y, data.d, data.n_classes, data.n_ranks
    B = len(rows)
    lens = np.fromiter(map(len, rows), dtype=np.intp, count=B)
    ends = np.cumsum(lens)
    starts = ends - lens
    rows = np.concatenate(rows)
    N = rows.size
    at = rows * d                       # flat index of each row's feature 0
    y_rows = y[rows]
    counts = np.bincount(np.repeat(np.arange(0, B * C, C), lens) + y_rows,
                         minlength=B * C).reshape(B, C)
    left_n = np.arange(1, N, dtype=np.float64) - np.repeat(starts, lens)[:-1]
    right_n = np.repeat(lens, lens)[:-1] - left_n
    # a cut after a segment's last row has nothing on its right;
    # right_n = inf makes its w inf
    right_n[ends[:-1] - 1] = np.inf
    # sort key of a cell: ((node * K + rank) << p) | position.  Keys are
    # distinct, so any sort orders them as a stable sort by (node, rank)
    # would; the low p bits give the order and equal high bits a tie.
    p = N.bit_length()
    key_type = np.uint32 if B * K << p <= 1 << 32 else np.uint64
    low = key_type((1 << p) - 1)
    base = np.repeat(np.arange(0, B * K, K, dtype=key_type) << key_type(p), lens)
    base |= np.arange(N, dtype=key_type)
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
    # sum L_c^2 growths in the real part, sum R_c^2 ones in the imaginary:
    # complex addition adds each part alone, so one scatter and one
    # cumsum give both running sums, bit for bit
    by_class_l = 2.0 * occ + 1.0
    by_class_lr = by_class_l + 1j * (by_class_l - 2.0 * np.repeat(run, run))

    best_w = np.full(B, np.inf)
    best_f = np.zeros(B, dtype=np.intp)
    best_t = np.zeros(B)
    for lo in range(0, feats.shape[1], _FEATURE_CHUNK):
        fc = feats[:, lo : lo + _FEATURE_CHUNK]
        flat = (np.arange(fc.shape[1]) * N)[:, None]  # row j of a chunk starts at j*N
        key = data.rank[np.repeat(fc.T, lens, axis=1) + at].astype(key_type)
        key <<= key_type(p)
        key += base
        key.sort(axis=1)
        order = (key & low).astype(np.intp)     # position of each sorted cell
        key >>= key_type(p)
        tie = key[:, 1:] == key[:, :-1]         # equal values: no cut between
        del key                     # (here and below) to cap the chunk's peak memory

        by_class = y_rows[order].argsort(axis=1, kind="stable")
        by_class += flat
        ss = np.empty(order.shape, dtype=np.complex128)
        ss.ravel()[by_class] = by_class_lr
        del by_class
        # running sums per segment: sum L_c^2 ends a segment at its
        # sum total_c^2, to be cancelled where the next one starts;
        # sum R_c^2 starts there and ends at 0
        ss[:, starts[1:]] -= sq[:-1]
        ss[:, starts] += 1j * sq
        np.cumsum(ss, axis=1, out=ss)
        # w = (left_n - ssl / left_n) + (right_n - ssr / right_n)
        w = ss.real[:, :-1] / left_n
        np.subtract(left_n, w, out=w)
        right = ss.imag[:, :-1] / right_n
        del ss
        np.subtract(right_n, right, out=right)
        w += right
        del right
        np.putmask(w, tie, np.inf)
        del tie

        w_min, i, j = _first_minima(w, lens, starts)
        # thresholds of the winning cuts only.  A midpoint separates its
        # pair when lower <= mid < upper (mid == lower sends lower left);
        # one that rounds onto the upper value (adjacent floats) or whose
        # sum overflows to +-inf does not, so that node is searched again
        # with every such cut of its segment masked
        won = np.flatnonzero(w_min < np.inf)
        f_won = fc[won, j[won]]
        lower = X[at[order[j[won], i[won]]] + f_won]
        upper = X[at[order[j[won], i[won] + 1]] + f_won]
        mid = (lower + upper) * 0.5
        t = np.zeros(B)
        t[won] = mid
        for b in won[(mid < lower) | (mid >= upper)].tolist():
            w_min[b], j[b], t[b] = _search_again(X, at, order, w, fc[b], starts[b], ends[b])
        better = w_min < best_w
        best_w[better] = w_min[better]
        best_f[better] = fc[better, j[better]]
        best_t[better] = t[better]
    return best_w, best_f, best_t


def _first_minima(w, lens, starts):
    """Each segment's least w of a chunk's (features, cuts) block, the
    first cut reaching it and the first feature there."""
    least = w.min(axis=0)               # per cut, over the chunk
    w_min = np.minimum.reduceat(least, starts)
    hit = np.flatnonzero(least == np.repeat(w_min, lens)[:-1])
    i = hit[np.searchsorted(hit, starts)]
    j = (w[:, i] == w_min).argmax(axis=0)
    return w_min, i, j


def _search_again(X, at, order, w, feats, start, end):
    """One node's least w over its cuts [start, end - 1) of w, with the
    chunk column and the threshold of the first cut reaching it, after
    masking every cut whose midpoint does not separate its pair."""
    xs = X[at[order[:, start:end]] + feats[:, None]]
    mids = xs[:, :-1] + xs[:, 1:]
    mids *= 0.5
    seg = w[:, start : end - 1]
    np.putmask(seg, (mids < xs[:, :-1]) | (mids >= xs[:, 1:]), np.inf)
    w_min, i, j = _first_minima(seg, [end - start], [0])   # one segment of end - start rows
    return w_min[0], j[0], mids[j[0], i[0]]


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
    feature: np.ndarray       # -1 at leaves
    threshold: np.ndarray
    left: np.ndarray          # -1 at leaves
    right: np.ndarray
    value: np.ndarray         # (n_nodes, n_classes)
    n_node_samples: np.ndarray
    impurity: np.ndarray

    kind = "DecisionTree"
    dtypes = {"feature": np.int32, "threshold": np.float64, "left": np.int32,
              "right": np.int32, "value": np.float64, "n_node_samples": np.int64,
              "impurity": np.float64}

    def __post_init__(self):
        self.n_features = _check_count("n_features", self.n_features, 1)
        coerce_arrays(self)
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
        # a one-row node has impurity 0, so a grown node has two rows or more
        grow = np.flatnonzero((impurity > 0.0) & (np.array(depth) < max_depth)).tolist()
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
