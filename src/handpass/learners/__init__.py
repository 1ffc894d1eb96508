"""Five from-scratch classifiers with cross-validation and model IO.

The package binds the names its callers use; the model classes, the
kind table, the split criterion and the fold helpers stay in their own
modules.
"""

from .base import KINDS, HyperParams, default_hyper, predict, predict_scores, train
from .importance import feature_importance, select_subcarriers
from .persist import model_from_doc, model_to_doc
from .validate import cross_validate
