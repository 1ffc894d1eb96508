"""Random forest: bagged CART trees with per-split feature subsampling.

Prediction routes every row through every tree at once.  The trees are
stacked into one `NodeTable` when the model is built: all their nodes
in one array, each tree's child indices offset by its start, and leaves
that loop to themselves, so one gather-compare-step per level moves all
(rows x trees) entries and the deepest tree sets the number of levels.
The votes are one bincount over (row, leaf class).  `trees` stays the
model's content; the table is derived from it and never stored.

Fitting grows all trees in lockstep (`tree.grow_trees`): each step pops
one node from every live tree's DFS stack, and the splits those nodes
need go through one batched search over the shared training matrix.
The trees come out bit-identical to trees grown one at a time, because
nothing a tree computes depends on its neighbours:

- tree t draws its bootstrap sample and every node's feature subset
  from its own generator, default_rng((seed, t)), and nothing else
  draws from it.  The subsets come in per-tree blocks, one generator
  call a block, each subset bit for bit the sorted choice call it
  replaces (`tree._feature_subsets`); so the generator may end past the
  last draw the tree used, and nothing reads it after the fit;
- it pops its own nodes in its own DFS order, so it takes the feature
  subsets in the order, and emits its nodes in the pre-order, of a
  tree grown alone;
- a node's split depends only on its rows and features: the batched
  search gives each node the split it gives the node searched alone,
  ties included (see `tree.best_splits`);
- a bootstrap sample is a row index array into X rather than a copy of
  the rows, which changes no value, count or multiplicity a split sees.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rows import check_rows, coerce_arrays
from .tree import NodeTable, SplitData, grow_trees


@dataclass
class RandomForestModel:
    classes: np.ndarray
    trees: list
    table: NodeTable = field(init=False, repr=False, compare=False)

    kind = "RandomForest"
    dtypes = {}  # its trees coerce their own arrays

    def __post_init__(self):
        coerce_arrays(self)
        if not self.trees:
            raise ValueError("a forest needs at least one tree")
        shapes = {(t.n_features, t.value.shape[1]) for t in self.trees}
        if shapes != {(self.trees[0].n_features, self.classes.shape[0])}:
            raise ValueError("forest trees disagree on n_features or on the classes")
        self.table = NodeTable.stack(self.trees)

    @property
    def n_features(self) -> int:
        return self.trees[0].n_features

    def scores(self, X: np.ndarray) -> np.ndarray:
        """Vote fractions: share of trees predicting each class."""
        X = check_rows(X, self.n_features)
        n, C = X.shape[0], self.classes.shape[0]
        voted = np.arange(n)[:, None] * C + self.table.leaf_class[self.table.route(X)]
        votes = np.bincount(voted.ravel(), minlength=n * C)
        return votes.reshape(n, C) / len(self.trees)


def grow_forest(X, y_codes, n_classes, classes, hyper, seed) -> RandomForestModel:
    """Each tree gets its own (seed, index) substream covering both its
    bootstrap draw and its per-node feature sampling, so every tree is
    the same however the trees are grown: one after another, in lockstep
    (as here, see the module docstring), or in parallel."""
    n = X.shape[0]
    starts = []
    for t in range(hyper.n_trees):
        rng = np.random.default_rng((seed, t))
        starts.append((rng.integers(0, n, size=n) if hyper.bootstrap else np.arange(n), rng))
    trees = grow_trees(SplitData(X, y_codes, n_classes), classes, hyper, starts)
    return RandomForestModel(classes=classes, trees=trees)
