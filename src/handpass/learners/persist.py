"""Model persistence as versioned JSON documents.

Floats pass through Python's shortest-round-trip repr, so a loaded
model predicts bit-identically to the saved one.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np

from ..errors import UnsupportedModel
from .base import HyperParams
from .bayes import GaussianNbModel
from .forest import RandomForestModel
from .neighbors import KnnModel
from .svm import LinearSvmModel
from .tree import DecisionTreeModel

FORMAT = "handpass-model"
VERSION = 1


def _tree_params(t: DecisionTreeModel) -> dict:
    return {
        "n_features": t.n_features,
        "feature": t.feature.tolist(),
        "threshold": t.threshold.tolist(),
        "left": t.left.tolist(),
        "right": t.right.tolist(),
        "value": t.value.tolist(),
        "n_node_samples": t.n_node_samples.tolist(),
        "impurity": t.impurity.tolist(),
    }


def _tree_from(params: dict, classes: np.ndarray) -> DecisionTreeModel:
    return DecisionTreeModel(
        classes=classes,
        n_features=int(params["n_features"]),
        feature=np.array(params["feature"], dtype=np.int32),
        threshold=np.array(params["threshold"], dtype=np.float64),
        left=np.array(params["left"], dtype=np.int32),
        right=np.array(params["right"], dtype=np.int32),
        value=np.array(params["value"], dtype=np.float64),
        n_node_samples=np.array(params["n_node_samples"], dtype=np.int64),
        impurity=np.array(params["impurity"], dtype=np.float64),
    )


def model_to_doc(model, hyper: HyperParams | None = None) -> dict:
    doc = {
        "format": FORMAT,
        "version": VERSION,
        "kind": model.kind,
        "classes": model.classes.tolist(),
    }
    if hyper is not None:
        doc["hyper"] = asdict(hyper)
    if isinstance(model, DecisionTreeModel):
        doc["params"] = _tree_params(model)
    elif isinstance(model, RandomForestModel):
        doc["params"] = {"trees": [_tree_params(t) for t in model.trees]}
    elif isinstance(model, KnnModel):
        doc["params"] = {
            "train_x": model.train_x.tolist(),
            "train_codes": model.train_codes.tolist(),
            "k": model.k,
        }
    elif isinstance(model, GaussianNbModel):
        doc["params"] = {
            "means": model.means.tolist(),
            "variances": model.variances.tolist(),
            "log_priors": model.log_priors.tolist(),
        }
    elif isinstance(model, LinearSvmModel):
        doc["params"] = {"weights": model.weights.tolist()}
    else:
        raise UnsupportedModel(f"cannot persist {type(model).__name__}")
    return doc


def model_from_doc(doc: dict):
    """Rebuild a model; a tree that breaks the invariants of
    `DecisionTreeModel`, or a forest whose trees disagree on their
    width, raises ValueError here rather than at the first predict."""
    if doc.get("format") != FORMAT:
        raise ValueError(f"not a {FORMAT} document")
    if doc.get("version") != VERSION:
        raise ValueError(f"unsupported model version {doc.get('version')!r}")
    classes = np.array(doc["classes"])
    kind = doc["kind"]
    p = doc["params"]
    if kind == "DecisionTree":
        return _tree_from(p, classes)
    if kind == "RandomForest":
        return RandomForestModel(
            classes=classes, trees=[_tree_from(t, classes) for t in p["trees"]]
        )
    if kind == "KNN":
        train_x = np.array(p["train_x"], dtype=np.float64)
        return KnnModel(
            classes=classes,
            train_x=train_x.reshape(len(p["train_codes"]), -1),
            train_codes=np.array(p["train_codes"], dtype=np.int64),
            k=p["k"],
        )
    if kind == "GaussianNB":
        return GaussianNbModel(
            classes=classes,
            means=np.array(p["means"], dtype=np.float64),
            variances=np.array(p["variances"], dtype=np.float64),
            log_priors=np.array(p["log_priors"], dtype=np.float64),
        )
    if kind == "LinearSVM":
        return LinearSvmModel(
            classes=classes, weights=np.array(p["weights"], dtype=np.float64)
        )
    raise ValueError(f"unknown model kind {kind!r} in document")


def save_model(model, path, hyper: HyperParams | None = None) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(model_to_doc(model, hyper), fh)


def load_model(path):
    with open(path, "r", encoding="ascii") as fh:
        return model_from_doc(json.load(fh))
