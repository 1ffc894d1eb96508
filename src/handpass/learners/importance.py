"""Gini-based feature importance and subcarrier selection."""

from __future__ import annotations

import re

import numpy as np

from ..errors import UnsupportedModel, _check_count
from .forest import RandomForestModel
from .tree import DecisionTreeModel

_FEATURE_RE = re.compile(r"^(amp|phase)_(-?\d+)$")


def _tree_importances(tree: DecisionTreeModel) -> np.ndarray:
    """Impurity decrease per feature, weighted by node sample fraction."""
    inner = tree.feature >= 0
    weighted = tree.n_node_samples * tree.impurity
    decrease = (
        weighted[inner] - weighted[tree.left[inner]] - weighted[tree.right[inner]]
    ) / tree.n_node_samples[0]
    # bincount adds in node order, as a per-node loop would
    imp = np.bincount(tree.feature[inner], weights=decrease, minlength=tree.n_features)
    total = imp.sum()
    return imp / total if total > 0 else imp


def feature_importance(model) -> np.ndarray:
    """Mean decrease in Gini, normalized to sum 1.

    Forests average per-tree importances.  A tree with no splits has no
    impurity decrease to attribute and yields all zeros.
    """
    if isinstance(model, DecisionTreeModel):
        return _tree_importances(model)
    if isinstance(model, RandomForestModel):
        acc = np.zeros(model.n_features)
        for tree in model.trees:
            acc += _tree_importances(tree)
        total = acc.sum()
        return acc / total if total > 0 else acc
    raise UnsupportedModel(
        f"feature importance requires a tree model, got {type(model).__name__}"
    )


def subcarrier_importance(importances, names=None) -> dict:
    """Summed (amplitude + phase) importance per logical subcarrier index.

    names defaults to the pruned feature layout.
    """
    if names is None:
        from ..dataset import feature_names

        names = feature_names(prune=True)
    importances = np.asarray(importances, dtype=np.float64)
    if importances.shape[0] != len(names):
        raise ValueError(
            f"{importances.shape[0]} importances for {len(names)} feature names"
        )
    per_k: dict = {}
    for name, w in zip(names, importances):
        m = _FEATURE_RE.match(name)
        if m is None:
            raise ValueError(f"feature name {name!r} does not map to a subcarrier")
        per_k[int(m.group(2))] = per_k.get(int(m.group(2)), 0.0) + float(w)
    return per_k


def select_subcarriers(importances, top_m: int, names=None) -> list:
    """Top subcarriers by summed (amplitude + phase) importance.

    names defaults to the pruned feature layout.  Ties break toward the
    lower subcarrier index.  A top_m that is not an integer >= 1 raises
    ValueError.
    """
    top_m = _check_count("top_m", top_m, 1)
    ranked = sorted(subcarrier_importance(importances, names).items(),
                    key=lambda kv: (-kv[1], kv[0]))
    return [k for k, _ in ranked[:top_m]]
