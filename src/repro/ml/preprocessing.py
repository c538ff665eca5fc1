"""Feature standardisation shared by the SVM and the DNN."""

from __future__ import annotations

import numpy as np


class StandardScaler:
    """Z-score standardisation fitted on training data.

    Constant features get unit scale (they stay constant instead of
    producing NaNs).
    """

    def fit(self, X: np.ndarray) -> "StandardScaler":
        self.mean_ = X.mean(axis=0)
        self.scale_ = X.std(axis=0)
        self.scale_[self.scale_ == 0.0] = 1.0
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (X - self.mean_) / self.scale_
