"""Result statistics tests."""

import numpy as np
import pytest

from repro.sim.results import (
    BoxplotStats,
    boxplot_stats,
    cdf_points,
    fraction_at_most,
)


class TestCdfPoints:
    def test_levels_and_monotonicity(self):
        values = np.arange(100.0)
        points = cdf_points(values, num_points=11)
        assert len(points) == 11
        levels = [level for _, level in points]
        assert levels == pytest.approx(list(np.linspace(0, 1, 11)))
        quantiles = [q for q, _ in points]
        assert quantiles == sorted(quantiles)

    def test_extremes_are_min_max(self):
        values = [3.0, 1.0, 7.0]
        points = cdf_points(values, num_points=3)
        assert points[0][0] == 1.0
        assert points[-1][0] == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cdf_points([])


class TestFractionAtMost:
    def test_basic(self):
        values = [0.0, 1.0, 2.0, 3.0]
        assert fraction_at_most(values, 1.0) == 0.5
        assert fraction_at_most(values, -1.0) == 0.0
        assert fraction_at_most(values, 10.0) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fraction_at_most([], 0.0)


class TestBoxplot:
    def test_five_number_summary(self):
        values = np.arange(1, 101, dtype=float)
        stats = boxplot_stats(values)
        assert stats.minimum == 1.0
        assert stats.maximum == 100.0
        assert stats.median == pytest.approx(50.5)
        assert stats.q1 == pytest.approx(25.75)
        assert stats.q3 == pytest.approx(75.25)
        assert stats.mean == pytest.approx(50.5)

    def test_single_value(self):
        stats = boxplot_stats([42.0])
        assert stats.minimum == stats.median == stats.maximum == 42.0

    def test_str_contains_fields(self):
        assert "med" in str(boxplot_stats([1.0, 2.0, 3.0]))
