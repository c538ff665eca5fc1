"""ASCII visualisation tests."""

import numpy as np
import pytest

from repro.viz.ascii import ascii_cdf, ascii_histogram, sector_strip


class TestAsciiCdf:
    def test_basic_structure(self):
        lines = ascii_cdf({"a": [1, 2, 3], "b": [2, 3, 4]}, width=30, height=5)
        # 5 grid rows + axis + scale + legend
        assert len(lines) == 8
        assert lines[0].startswith("1.00 |")
        assert "o=a" in lines[-1] and "*=b" in lines[-1]

    def test_title_prepended(self):
        lines = ascii_cdf({"a": [1.0, 2.0]}, title="My CDF")
        assert lines[0] == "My CDF"

    def test_monotone_marks(self):
        """Higher CDF rows mark columns at or right of lower rows."""
        lines = ascii_cdf({"a": list(range(100))}, width=40, height=9)
        columns = [line.index("o") for line in lines[:9]]
        assert columns == sorted(columns, reverse=True)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ascii_cdf({})
        with pytest.raises(ValueError):
            ascii_cdf({"a": []})


class TestAsciiHistogram:
    def test_counts_annotated(self):
        lines = ascii_histogram([1.0] * 10 + [5.0] * 2, bins=4, width=20)
        assert len(lines) == 4
        assert lines[0].rstrip().endswith("10")

    def test_tallest_bar_fills_width(self):
        lines = ascii_histogram(np.zeros(50), bins=2, width=15)
        assert any("#" * 15 in line for line in lines)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ascii_histogram([])


class TestSectorStrip:
    def test_letters_and_failures(self):
        strip = sector_strip([0, 1, 255, 2])
        assert strip == "abXc"

    def test_subsamples_long_timelines(self):
        strip = sector_strip([5] * 10_000, width=50)
        assert len(strip) <= 50
        assert set(strip) == {"f"}

    def test_empty(self):
        assert sector_strip([]) == "(empty)"
