"""Training/prediction entry points shared by the five classifiers."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..errors import DegenerateLabels, NonFiniteFeature, _check_count, _check_member
from .bayes import GaussianNbModel, fit_gnb
from .forest import RandomForestModel, grow_forest
from .neighbors import KnnModel, fit_knn
from .svm import LinearSvmModel, fit_svm
from .tree import DecisionTreeModel, grow_tree

# short CLI aliases -> canonical model kinds
KINDS = {
    "rf": "RandomForest",
    "dt": "DecisionTree",
    "knn": "KNN",
    "nb": "GaussianNB",
    "svm": "LinearSVM",
}
# canonical model kind -> its model class
MODEL_CLASSES = {cls.kind: cls for cls in (
    DecisionTreeModel, RandomForestModel, KnnModel, GaussianNbModel, LinearSvmModel)}


@dataclass(frozen=True)
class HyperParams:
    """Knobs for all five model kinds; irrelevant fields are ignored.

    max_features applies per split: None = all, "sqrt" = round(sqrt(d)).
    Construction refuses, with ValueError, values that fit no model:
    n_trees, k_neighbors or svm_epochs below 1, a max_depth below 0, a
    max_features that is neither and a bootstrap that is not a bool.
    """

    n_trees: int = 100
    max_features: object = "sqrt"
    bootstrap: bool = True
    max_depth: int | None = None
    k_neighbors: int = 5
    svm_epochs: int = 200

    def __post_init__(self):
        for name in ("n_trees", "k_neighbors", "svm_epochs"):
            _check_count(name, getattr(self, name), 1)
        if self.max_depth is not None:
            _check_count("max_depth", self.max_depth, 0)
        _check_member("max_features", self.max_features, (None, "sqrt"))
        if type(self.bootstrap) is not bool:
            raise ValueError(f"bootstrap {self.bootstrap!r} is not true or false")


def canonical_kind(kind: str) -> str:
    if kind in MODEL_CLASSES:
        return kind
    if kind in KINDS:
        return KINDS[kind]
    raise ValueError(f"unknown model kind {kind!r}; expected one of {sorted(KINDS)}")


def default_hyper(kind: str) -> HyperParams:
    """Per-kind defaults: a standalone tree considers every feature."""
    hp = HyperParams()
    if canonical_kind(kind) == "DecisionTree":
        hp = replace(hp, max_features=None)
    return hp


def _validated(matrix, labels):
    X = np.asarray(matrix, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"feature matrix must be 2-D, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise NonFiniteFeature("feature matrix contains NaN or infinity")
    y = np.asarray(labels)
    if y.shape != (X.shape[0],):
        raise ValueError("labels must be one per row")
    classes = np.unique(y)
    if classes.shape[0] < 2:
        raise DegenerateLabels(f"need at least 2 classes, got {classes.shape[0]}")
    codes = np.searchsorted(classes, y)
    return X, classes, codes


def train(kind: str, matrix, labels, hyper: HyperParams | None = None, seed: int = 0):
    """Fit one model; deterministic given (data, hyper, seed)."""
    kind = canonical_kind(kind)
    if hyper is None:
        hyper = default_hyper(kind)
    X, classes, codes = _validated(matrix, labels)
    C = classes.shape[0]
    if kind == "DecisionTree":
        # same substream as a forest's tree 0, so a 1-tree forest without
        # bootstrap reproduces the standalone tree exactly
        return grow_tree(X, codes, C, classes, hyper, np.random.default_rng((seed, 0)))
    if kind == "RandomForest":
        return grow_forest(X, codes, C, classes, hyper, seed)
    if kind == "KNN":
        return fit_knn(X, codes, classes, hyper)
    if kind == "GaussianNB":
        return fit_gnb(X, codes, classes)
    return fit_svm(X, codes, classes, hyper)


def predict_scores(model, rows) -> np.ndarray:
    """Per-class scores, one row per input row; every row sums to 1."""
    return model.scores(rows)


def predict(model, rows) -> np.ndarray:
    """argmax of scores; ties resolve to the lowest class label."""
    s = model.scores(rows)
    return model.classes[np.argmax(s, axis=1)]
