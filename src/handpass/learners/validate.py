"""Stratified k-fold cross-validation and the classification metric suite."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..dsp import fit_scaler
from ..errors import TooFewSamples, _check_count
from .base import HyperParams, predict, train


def stratified_folds(labels, k: int, seed: int = 0) -> np.ndarray:
    """Fold index per row: each class is shuffled once, then dealt
    round-robin, so every fold holds its share of every class."""
    y = np.asarray(labels)
    classes, counts = np.unique(y, return_counts=True)
    if counts.min() < k:
        lacking = classes[counts.argmin()]
        raise TooFewSamples(
            f"class {lacking} has {counts.min()} samples, fewer than k={k} folds"
        )
    rng = np.random.default_rng(seed)
    folds = np.empty(y.shape[0], dtype=np.int64)
    for c in classes:
        idx = np.nonzero(y == c)[0]
        idx = idx[rng.permutation(idx.shape[0])]
        folds[idx] = np.arange(idx.shape[0]) % k
    return folds


def confusion_matrix(y_true, y_pred, classes) -> np.ndarray:
    """cm[i, j] = rows of true class i predicted as class j."""
    ti = np.searchsorted(classes, y_true)
    pi = np.searchsorted(classes, y_pred)
    C = len(classes)
    cm = np.zeros((C, C), dtype=np.int64)
    np.add.at(cm, (ti, pi), 1)
    return cm


def metrics_from_confusion(cm: np.ndarray) -> dict:
    """Accuracy plus macro precision/recall/F1 from one confusion matrix."""
    cm = np.asarray(cm, dtype=np.float64)
    tp = np.diag(cm)
    support = cm.sum(axis=1)
    predicted = cm.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(predicted > 0, tp / predicted, 0.0)
        recall = np.where(support > 0, tp / support, 0.0)
        pr = precision + recall
        f1 = np.where(pr > 0, 2.0 * precision * recall / pr, 0.0)
    return {
        "accuracy": float(tp.sum() / cm.sum()),
        "precision": float(precision.mean()),
        "recall": float(recall.mean()),
        "f1": float(f1.mean()),
    }


@dataclass
class CvReport:
    fold_accuracy: list = field(default_factory=list)
    fold_precision: list = field(default_factory=list)
    fold_recall: list = field(default_factory=list)
    fold_f1: list = field(default_factory=list)
    confusion: np.ndarray = None  # summed over folds
    fit_s: float = 0.0            # wall time of train, summed over folds
    predict_s: float = 0.0        # wall time of predict, summed over folds

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean(self.fold_accuracy))

    @property
    def mean_precision(self) -> float:
        return float(np.mean(self.fold_precision))

    @property
    def mean_recall(self) -> float:
        return float(np.mean(self.fold_recall))

    @property
    def mean_f1(self) -> float:
        return float(np.mean(self.fold_f1))


def cross_validate(
    kind: str,
    matrix,
    labels,
    k: int = 10,
    hyper: HyperParams | None = None,
    seed: int = 0,
    scaler: str | None = None,
    per_fold_scaler: bool = False,
) -> CvReport:
    """Stratified k-fold CV; metrics are macro-averaged per fold, then
    averaged over folds.

    scaler names an optional feature scaling fitted on the full matrix
    up front; per_fold_scaler refits it on each fold's training rows
    instead (no information from the held-out fold).  A k that is not an
    integer >= 2 raises ValueError.
    """
    _check_count("k", k, 2)
    X = np.asarray(matrix, dtype=np.float64)
    y = np.asarray(labels)
    classes = np.unique(y)
    folds = stratified_folds(y, k, seed)
    if scaler is not None and not per_fold_scaler:
        X = fit_scaler(scaler, X).transform(X)

    report = CvReport(confusion=np.zeros((len(classes), len(classes)), dtype=np.int64))
    for f in range(k):
        test = folds == f
        Xtr, ytr = X[~test], y[~test]
        Xte, yte = X[test], y[test]
        if scaler is not None and per_fold_scaler:
            fitted = fit_scaler(scaler, Xtr)
            Xtr = fitted.transform(Xtr)
            Xte = fitted.transform(Xte)
        start = time.perf_counter()
        model = train(kind, Xtr, ytr, hyper, seed)
        trained = time.perf_counter()
        predicted = predict(model, Xte)
        report.fit_s += trained - start
        report.predict_s += time.perf_counter() - trained
        cm = confusion_matrix(yte, predicted, classes)
        m = metrics_from_confusion(cm)
        report.fold_accuracy.append(m["accuracy"])
        report.fold_precision.append(m["precision"])
        report.fold_recall.append(m["recall"])
        report.fold_f1.append(m["f1"])
        report.confusion += cm
    return report
