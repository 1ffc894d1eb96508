"""Gaussian naive Bayes in the log domain."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rows import check_rows

_LOG_2PI = np.log(2.0 * np.pi)
_VAR_SMOOTHING = 1e-9
_BLOCK = 256  # test rows per (rows, classes, features) block


@dataclass
class GaussianNbModel:
    classes: np.ndarray
    means: np.ndarray       # (C, d)
    variances: np.ndarray   # (C, d), smoothed
    log_priors: np.ndarray  # (C,)

    kind = "GaussianNB"

    def __post_init__(self):
        self.classes = np.asarray(self.classes)
        self.means = np.asarray(self.means, dtype=np.float64)
        self.variances = np.asarray(self.variances, dtype=np.float64)
        self.log_priors = np.asarray(self.log_priors, dtype=np.float64)
        C = self.classes.shape[0]
        if self.means.ndim != 2 or self.means.shape[0] != C:
            raise ValueError(f"GaussianNB means have shape {self.means.shape}, want ({C}, d)")
        if self.variances.shape != self.means.shape or not (self.variances > 0).all():
            raise ValueError("GaussianNB variances must be > 0 and shaped like the means")
        if self.log_priors.shape != (C,):
            raise ValueError(f"GaussianNB needs one log prior per class, got {self.log_priors.shape}")

    @property
    def n_features(self) -> int:
        return self.means.shape[1]

    def log_joint(self, X: np.ndarray) -> np.ndarray:
        X = check_rows(X, self.n_features)
        const = -0.5 * (_LOG_2PI + np.log(self.variances)).sum(axis=1)
        out = np.empty((X.shape[0], self.classes.shape[0]))
        for lo in range(0, X.shape[0], _BLOCK):
            diff = X[lo : lo + _BLOCK, None, :] - self.means[None, :, :]
            diff *= diff  # squared and divided in place: one block
            diff /= self.variances
            out[lo : lo + _BLOCK] = -0.5 * diff.sum(axis=2)
        return out + const[None, :] + self.log_priors[None, :]

    def scores(self, X: np.ndarray) -> np.ndarray:
        """Posteriors, normalized with the usual max-shift for stability."""
        lj = self.log_joint(X)
        lj -= lj.max(axis=1, keepdims=True)
        p = np.exp(lj)
        return p / p.sum(axis=1, keepdims=True)


def fit_gnb(X, y_codes, classes) -> GaussianNbModel:
    n, d = X.shape
    C = classes.shape[0]
    means = np.empty((C, d))
    variances = np.empty((C, d))
    priors = np.empty(C)
    for c in range(C):
        rows = X[y_codes == c]
        means[c] = rows.mean(axis=0)
        variances[c] = rows.var(axis=0)
        priors[c] = rows.shape[0] / n
    # absolute smoothing floor scaled to the data's largest feature variance
    eps = _VAR_SMOOTHING * float(X.var(axis=0).max())
    if eps <= 0.0:
        eps = _VAR_SMOOTHING
    variances += eps
    return GaussianNbModel(
        classes=classes,
        means=means,
        variances=variances,
        log_priors=np.log(priors),
    )
