"""Result statistics: CDFs, boxplot five-number summaries, quick tables.

The benchmark harness prints the same series the paper plots — CDF points
for Figs. 10-11, boxplot statistics for Figs. 12-13 — so a reader can
compare shapes line by line.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def cdf_points(values, num_points: int = 11) -> list[tuple[float, float]]:
    """(value, cumulative fraction) pairs at evenly spaced CDF levels.

    ``num_points`` levels from 0 to 1 inclusive; values come from the
    empirical quantile function, so the output is directly comparable to
    reading a paper CDF plot at fixed y-ticks.
    """
    values = np.sort(np.asarray(values, dtype=float))
    if values.size == 0:
        raise ValueError("no values")
    levels = np.linspace(0.0, 1.0, num_points)
    quantiles = np.quantile(values, levels)
    return [(float(q), float(level)) for q, level in zip(quantiles, levels)]


def fraction_at_most(values, threshold: float) -> float:
    """Empirical CDF evaluated at ``threshold`` (paper-style "within X")."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("no values")
    return float(np.mean(values <= threshold))


@dataclass(frozen=True)
class BoxplotStats:
    """The five-number summary a boxplot draws."""

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    mean: float

    def __str__(self) -> str:
        return (
            f"min {self.minimum:.3g} | q1 {self.q1:.3g} | med {self.median:.3g} "
            f"| q3 {self.q3:.3g} | max {self.maximum:.3g} (mean {self.mean:.3g})"
        )


def boxplot_stats(values) -> BoxplotStats:
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("no values")
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return BoxplotStats(
        float(values.min()), float(q1), float(median), float(q3),
        float(values.max()), float(values.mean()),
    )
