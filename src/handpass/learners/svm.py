"""Linear one-vs-rest SVM trained by projected subgradient descent.

Full-batch hinge-loss subgradient steps with learning rate
1/(lambda*t + R) — R being the mean squared row norm, which keeps the
early steps sane when lambda is tiny — and projection onto the ball of
radius 1/sqrt(lambda), run for a fixed epoch count; deterministic, no
randomness.  A bias column is appended to the features (and
regularized with the rest of the weights).  Features are expected
pre-scaled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rows import check_rows, coerce_arrays

_LAMBDA = 1e-4  # the L2 regularization weight


@dataclass
class LinearSvmModel:
    classes: np.ndarray
    weights: np.ndarray  # (C, d+1), bias last

    kind = "LinearSVM"
    dtypes = {"weights": np.float64}

    def __post_init__(self):
        coerce_arrays(self)
        C = self.classes.shape[0]
        if self.weights.ndim != 2 or self.weights.shape[0] != C or self.weights.shape[1] < 1:
            raise ValueError(f"LinearSVM weights have shape {self.weights.shape}, want ({C}, d+1)")

    @property
    def n_features(self) -> int:
        return self.weights.shape[1] - 1

    def margins(self, X: np.ndarray) -> np.ndarray:
        X = check_rows(X, self.n_features)
        return X @ self.weights[:, :-1].T + self.weights[:, -1]

    def scores(self, X: np.ndarray) -> np.ndarray:
        """Softmax over the per-class margins."""
        m = self.margins(X)
        m -= m.max(axis=1, keepdims=True)
        e = np.exp(m)
        return e / e.sum(axis=1, keepdims=True)


def fit_svm(X, y_codes, classes, hyper) -> LinearSvmModel:
    n, d = X.shape
    C = classes.shape[0]
    lam = _LAMBDA
    Xb = np.hstack([X, np.ones((n, 1))])
    Y = np.where(y_codes[:, None] == np.arange(C)[None, :], 1.0, -1.0)  # (n, C)
    W = np.zeros((C, d + 1))
    radius = 1.0 / np.sqrt(lam)
    row_norm_sq = float(np.mean(np.einsum("ij,ij->i", Xb, Xb)))
    for t in range(1, hyper.svm_epochs + 1):
        eta = 1.0 / (lam * t + row_norm_sq)
        viol = (Y * (Xb @ W.T)) < 1.0  # (n, C)
        W = (1.0 - eta * lam) * W + (eta / n) * ((viol * Y).T @ Xb)
        norms = np.linalg.norm(W, axis=1, keepdims=True)
        W *= np.minimum(1.0, radius / np.maximum(norms, 1e-300))
    return LinearSvmModel(classes=classes, weights=W)
