"""k-nearest-neighbors with inverse-rank vote weights."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import _check_count
from .rows import check_rows, coerce_arrays

_BLOCK = 512  # test rows per distance block


@dataclass
class KnnModel:
    classes: np.ndarray
    train_x: np.ndarray
    train_codes: np.ndarray
    k: int

    kind = "KNN"
    dtypes = {"train_x": np.float64, "train_codes": np.int64}

    def __post_init__(self):
        coerce_arrays(self)
        n = self.train_x.shape[0] if self.train_x.ndim == 2 else 0
        if not n or self.train_codes.shape != (n,):
            raise ValueError("KNN needs a 2-D train_x of >= 1 row and one train code per row")
        C = self.classes.shape[0]
        if not ((self.train_codes >= 0) & (self.train_codes < C)).all():
            raise ValueError(f"KNN train code outside [0, {C})")
        self.k = _check_count("KNN k", self.k, 1)

    @property
    def n_features(self) -> int:
        return self.train_x.shape[1]

    def scores(self, X: np.ndarray) -> np.ndarray:
        X = check_rows(X, self.n_features)
        k = min(self.k, self.train_x.shape[0])
        C = self.classes.shape[0]
        weights = 1.0 / np.arange(1, k + 1)
        tr_sq = np.einsum("ij,ij->i", self.train_x, self.train_x)
        out = np.empty((X.shape[0], C), dtype=np.float64)
        for lo in range(0, X.shape[0], _BLOCK):
            block = X[lo : lo + _BLOCK]
            # squared Euclidean via the |a|^2 + |b|^2 - 2ab expansion;
            # ranking is unaffected by skipping the square root.
            d2 = np.maximum(
                tr_sq[None, :]
                + np.einsum("ij,ij->i", block, block)[:, None]
                - 2.0 * block @ self.train_x.T,
                0.0,
            )
            # stable sort so distance ties go to the lower training index
            nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
            votes = np.zeros((block.shape[0], C), dtype=np.float64)
            rows = np.arange(block.shape[0])[:, None]
            np.add.at(votes, (rows, self.train_codes[nearest]), weights[None, :])
            out[lo : lo + _BLOCK] = votes / weights.sum()
        return out


def fit_knn(X, y_codes, classes, hyper) -> KnnModel:
    return KnnModel(
        classes=classes,
        train_x=np.array(X, dtype=np.float64),
        train_codes=np.array(y_codes, dtype=np.int64),
        k=hyper.k_neighbors,
    )
