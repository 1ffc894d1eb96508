"""Model persistence as versioned JSON documents.

A document's params are the model's init fields after `classes`, in
declaration order: arrays as nested lists, and a forest's trees as a
list of tree params.  Loading hands them back to the model's
constructor, which coerces their dtypes and refuses fields that break
its invariants with ValueError.  Floats pass through Python's
shortest-round-trip repr, so a loaded model predicts bit-identically to
the saved one.

`arrays_hook` is a ``json`` object hook that coerces each params object
as the parser closes it, through the same per-class ``dtypes`` table
the constructors use.  A forest's node lists then exist one tree at a
time rather than all at once before the first array is made.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from ..errors import UnsupportedModel, _check_header, _check_member
from .base import MODEL_CLASSES
from .forest import RandomForestModel
from .tree import DecisionTreeModel

FORMAT = "handpass-model"
VERSION = 1


def _param_names(cls) -> list:
    return [f.name for f in fields(cls) if f.init and f.name != "classes"]


# a params object's exact key set -> the dtypes of its array fields
_DTYPES_BY_KEYS = {frozenset(_param_names(cls)): cls.dtypes for cls in MODEL_CLASSES.values()}


def arrays_hook(obj: dict) -> dict:
    """``json`` object hook: a model-params object gets its array fields
    as numpy arrays, any other object comes back as it is.  A value the
    coercion refuses stays as parsed, for the constructor to refuse."""
    for name, dtype in _DTYPES_BY_KEYS.get(frozenset(obj), {}).items():
        try:
            obj[name] = np.asarray(obj[name], dtype=dtype)
        except (ValueError, TypeError, OverflowError):
            pass
    return obj


def _plain(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, list):  # a forest's trees
        return [_params(tree) for tree in value]
    return value


def _params(model) -> dict:
    return {name: _plain(getattr(model, name)) for name in _param_names(type(model))}


def model_to_doc(model) -> dict:
    if type(model) not in MODEL_CLASSES.values():
        raise UnsupportedModel(f"cannot persist {type(model).__name__}")
    return {
        "format": FORMAT,
        "version": VERSION,
        "kind": model.kind,
        "classes": model.classes.tolist(),
        "params": _params(model),
    }


def _build(kind, classes: np.ndarray, params):
    cls = MODEL_CLASSES[_check_member("model kind", kind, tuple(MODEL_CLASSES))]
    names = _param_names(cls)
    if not isinstance(params, dict) or set(params) != set(names):
        raise ValueError(f"{kind} params must have exactly the keys {names}")
    try:
        if cls is RandomForestModel:
            params = {"trees": [_build(DecisionTreeModel.kind, classes, t) for t in params["trees"]]}
        return cls(classes=classes, **params)
    except (TypeError, OverflowError) as exc:  # a value of the wrong type or range
        raise ValueError(f"malformed {kind} params: {exc}") from exc


def model_from_doc(doc: dict):
    """Rebuild a model; a document that breaks the invariants of its
    kind raises ValueError here rather than at the first predict."""
    _check_header(doc, FORMAT, VERSION, "model")
    missing = {"kind", "classes", "params"} - set(doc)
    if missing:
        raise ValueError(f"model document lacks {sorted(missing)}")
    return _build(doc["kind"], np.array(doc["classes"]), doc["params"])
