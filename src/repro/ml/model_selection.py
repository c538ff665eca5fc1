"""Cross-validation machinery: stratified k-fold, repeated CV, and the
train-on-one-building / test-on-another evaluation of §6.2."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from repro.ml.base import Estimator
from repro.ml.metrics import accuracy_score, f1_score_weighted


class StratifiedKFold:
    """K folds preserving per-class proportions.

    Each class's sample indices are shuffled, then dealt round-robin over
    the folds, so every fold's class mix tracks the full dataset's —
    required for the imbalanced BA/RA labels.
    """

    def __init__(self, n_splits: int = 5, shuffle: bool = True, random_state=None):
        if n_splits < 2:
            raise ValueError("need at least 2 splits")
        self.n_splits = n_splits
        self.shuffle = shuffle
        self.random_state = random_state

    def split(self, X, y) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        y = np.asarray(y)
        n = len(y)
        if n < self.n_splits:
            raise ValueError(f"cannot make {self.n_splits} folds from {n} samples")
        rng = np.random.default_rng(self.random_state)
        fold_of = np.empty(n, dtype=int)
        for cls in np.unique(y):
            indices = np.flatnonzero(y == cls)
            if self.shuffle:
                rng.shuffle(indices)
            fold_of[indices] = np.arange(len(indices)) % self.n_splits
        for fold in range(self.n_splits):
            test = np.flatnonzero(fold_of == fold)
            train = np.flatnonzero(fold_of != fold)
            yield train, test


@dataclass
class CVResult:
    """Per-fold accuracy and weighted-F1 scores."""

    accuracies: np.ndarray
    f1_scores: np.ndarray

    @property
    def mean_accuracy(self) -> float:
        return float(self.accuracies.mean())

    @property
    def mean_f1(self) -> float:
        return float(self.f1_scores.mean())

    def __str__(self) -> str:
        return (
            f"accuracy {self.mean_accuracy:.3f} ± {self.accuracies.std():.3f}, "
            f"F1 {self.mean_f1:.3f} ± {self.f1_scores.std():.3f}"
        )


def cross_validate(
    model_factory: Callable[[], Estimator],
    X: np.ndarray,
    y: np.ndarray,
    n_splits: int = 5,
    random_state=None,
) -> CVResult:
    """One round of stratified k-fold CV with a fresh model per fold."""
    folds = StratifiedKFold(n_splits, shuffle=True, random_state=random_state)
    accuracies, f1_scores = [], []
    for train, test in folds.split(X, y):
        model = model_factory()
        model.fit(X[train], y[train])
        predictions = model.predict(X[test])
        accuracies.append(accuracy_score(y[test], predictions))
        f1_scores.append(f1_score_weighted(y[test], predictions))
    return CVResult(np.array(accuracies), np.array(f1_scores))


def repeated_cross_validate(
    model_factory: Callable[[], Estimator],
    X: np.ndarray,
    y: np.ndarray,
    n_splits: int = 5,
    repeats: int = 10,
    random_state: Optional[int] = 0,
) -> CVResult:
    """Repeat k-fold CV with random re-splits and pool the fold scores.

    The paper repeats its 5-fold CV 500 times; that is tractable here too
    but the estimates converge long before — ``repeats`` defaults to 10
    and the benchmark harness raises it.
    """
    all_acc, all_f1 = [], []
    base = np.random.default_rng(random_state)
    for _ in range(repeats):
        seed = int(base.integers(0, 2**31 - 1))
        result = cross_validate(model_factory, X, y, n_splits, seed)
        all_acc.append(result.accuracies)
        all_f1.append(result.f1_scores)
    return CVResult(np.concatenate(all_acc), np.concatenate(all_f1))


def train_test_evaluate(
    model: Estimator,
    X_train: np.ndarray,
    y_train: np.ndarray,
    X_test: np.ndarray,
    y_test: np.ndarray,
) -> tuple[float, float]:
    """Fit on one dataset, evaluate on another (the cross-building test).

    Returns ``(accuracy, weighted_f1)`` on the test set.
    """
    model.fit(X_train, y_train)
    predictions = model.predict(X_test)
    return (
        accuracy_score(y_test, predictions),
        f1_score_weighted(y_test, predictions),
    )
