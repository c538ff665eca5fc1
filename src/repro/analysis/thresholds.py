"""The §6.1 exercise, automated: can a single-metric threshold decide
RA vs BA?

For each PHY metric the paper eyeballs a candidate threshold from the
CDFs ("when the SNR drop is more than 7 dB, BA always outperforms RA …
using this threshold, we can classify 73 % of the BA cases").  This module
finds the *best possible* single-metric threshold rule and quantifies how
much of each class it can separate — which is exactly the evidence for
the paper's conclusion that no single metric suffices and a learned
combination is required.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.metrics import FEATURE_NAMES
from repro.dataset.entry import Dataset, ImpairmentKind


@dataclass(frozen=True)
class ThresholdRule:
    """``predict BA when metric {>, <} threshold`` plus its quality."""

    feature: str
    threshold: float
    ba_above: bool  # True: BA predicted above the threshold
    accuracy: float
    ba_recall: float  # fraction of BA cases the rule classifies correctly
    ra_recall: float

    def describe(self) -> str:
        direction = ">" if self.ba_above else "<"
        return (
            f"BA if {self.feature} {direction} {self.threshold:.3g}: "
            f"accuracy {self.accuracy:.0%}, catches {self.ba_recall:.0%} of BA "
            f"and {self.ra_recall:.0%} of RA cases"
        )


def best_threshold(values: np.ndarray, labels: np.ndarray, feature: str) -> ThresholdRule:
    """Exhaustively find the best single threshold for one metric.

    Candidate thresholds are midpoints between consecutive sorted unique
    values, then ``-inf`` and ``+inf``; both orientations (BA-above /
    BA-below) are tried.  The two infinite thresholds are the one-sided
    rules (every row BA, every row RA), so the best rule never scores
    below the majority class, also on a constant feature.  Ties keep the
    first winner: the lowest interior threshold, and a one-sided rule only
    when no interior threshold does as well.
    """
    values = np.asarray(values, dtype=float)
    labels = np.asarray(labels)
    if values.size != labels.size or values.size == 0:
        raise ValueError("values and labels must be equal-length, non-empty")
    is_ba = labels == "BA"
    if is_ba.all() or (~is_ba).all():
        raise ValueError("need both classes present to fit a threshold")
    unique = np.unique(values)
    candidates = np.concatenate([(unique[:-1] + unique[1:]) / 2.0, [-np.inf, np.inf]])
    best: Optional[ThresholdRule] = None
    for threshold in candidates:
        for ba_above in (True, False):
            predicted_ba = values > threshold if ba_above else values < threshold
            accuracy = float(np.mean(predicted_ba == is_ba))
            if best is None or accuracy > best.accuracy:
                best = ThresholdRule(
                    feature=feature,
                    threshold=float(threshold),
                    ba_above=ba_above,
                    accuracy=accuracy,
                    ba_recall=float(np.mean(predicted_ba[is_ba])),
                    ra_recall=float(np.mean(~predicted_ba[~is_ba])),
                )
    assert best is not None
    return best


def threshold_study(
    dataset: Dataset, kind: Optional[ImpairmentKind] = None
) -> dict[str, ThresholdRule]:
    """Best threshold per metric over one dataset view (or the whole set).

    Returns a mapping feature name → rule; callers compare rule accuracies
    against a learned model to quantify the paper's §6.1 argument.
    """
    subset = dataset.without_na() if kind is None else dataset.of_kind(kind)
    X = subset.feature_matrix()
    y = subset.labels()
    return {
        feature: best_threshold(X[:, index], y, feature)
        for index, feature in enumerate(FEATURE_NAMES)
    }
