"""Five from-scratch classifiers with cross-validation and model IO."""

from .base import (
    KINDS,
    MODEL_CLASSES,
    HyperParams,
    canonical_kind,
    default_hyper,
    predict,
    predict_scores,
    train,
)
from .bayes import GaussianNbModel
from .forest import RandomForestModel
from .importance import feature_importance, select_subcarriers
from .neighbors import KnnModel
from .persist import model_from_doc, model_to_doc
from .svm import LinearSvmModel
from .tree import DecisionTreeModel, gini
from .validate import (
    CvReport,
    confusion_matrix,
    cross_validate,
    metrics_from_confusion,
    stratified_folds,
)

__all__ = [
    "KINDS",
    "MODEL_CLASSES",
    "HyperParams",
    "canonical_kind",
    "default_hyper",
    "train",
    "predict",
    "predict_scores",
    "gini",
    "DecisionTreeModel",
    "RandomForestModel",
    "KnnModel",
    "GaussianNbModel",
    "LinearSvmModel",
    "feature_importance",
    "select_subcarriers",
    "cross_validate",
    "stratified_folds",
    "confusion_matrix",
    "metrics_from_confusion",
    "CvReport",
    "model_to_doc",
    "model_from_doc",
]
