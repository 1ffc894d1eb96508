"""The checks the classifiers share: the rows each one scores, the
dtypes of their array fields, and the counts among their settings."""

from __future__ import annotations

import numbers

import numpy as np

from ..errors import DimensionMismatch


def check_rows(X, n_features: int) -> np.ndarray:
    """X as a float64 (n_rows, n_features) block; one row may come 1-D."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    if X.shape[1] != n_features:
        raise DimensionMismatch(f"{X.shape[1]} features, model trained on {n_features}")
    return X


def coerce_arrays(model) -> None:
    """Set each field named in the model's ``dtypes`` table to an array
    of its dtype; ``persist`` coerces parsed params through the same table."""
    for name, dtype in model.dtypes.items():
        setattr(model, name, np.asarray(getattr(model, name), dtype=dtype))


def _check_count(name, value, least):
    """Refuse, with ValueError, a value that is not an integer >= least;
    numpy integers are integers, bools are not."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < least:
        raise ValueError(f"{name} {value!r} is not an integer >= {least}")
