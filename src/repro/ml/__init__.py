"""From-scratch NumPy learning stack.

The paper's models — decision tree, random forest, SVM, and a small dense
network — implemented without external ML dependencies, plus the metric and
cross-validation machinery §6.2 uses (stratified k-fold, accuracy,
weighted F1, Gini importances).
"""

from repro.ml.base import Estimator, check_Xy
from repro.ml.tree import DecisionTreeClassifier
from repro.ml.forest import RandomForestClassifier
from repro.ml.svm import SVMClassifier
from repro.ml.nn import DenseNetworkClassifier
from repro.ml.model_selection import (
    StratifiedKFold,
    cross_validate,
    repeated_cross_validate,
    train_test_evaluate,
)
from repro.ml.metrics import accuracy_score, f1_score_weighted, confusion_matrix
from repro.ml.persistence import save_forest, load_forest

__all__ = [
    "Estimator",
    "check_Xy",
    "DecisionTreeClassifier",
    "RandomForestClassifier",
    "SVMClassifier",
    "DenseNetworkClassifier",
    "StratifiedKFold",
    "cross_validate",
    "repeated_cross_validate",
    "train_test_evaluate",
    "accuracy_score",
    "f1_score_weighted",
    "confusion_matrix",
    "save_forest",
    "load_forest",
]
