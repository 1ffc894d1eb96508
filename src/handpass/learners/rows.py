"""The checks the classifiers share: the rows each one scores and the
dtypes of their array fields."""

from __future__ import annotations

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
    """Set ``classes`` to an array, and each field named in the model's
    ``dtypes`` table to an array of its dtype; ``persist`` coerces parsed
    params through the same table."""
    model.classes = np.asarray(model.classes)
    for name, dtype in model.dtypes.items():
        setattr(model, name, np.asarray(getattr(model, name), dtype=dtype))

