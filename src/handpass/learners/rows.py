"""The row check every classifier runs before it scores."""

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
