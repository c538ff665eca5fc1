"""Dependency-free ASCII visualisation for terminals and result files.

The repository deliberately avoids plotting dependencies; these renderers
give the examples and benchmark artifacts readable CDFs, histograms,
and sector-timeline strips.
"""

from repro.viz.ascii import (
    ascii_cdf,
    ascii_histogram,
    beam_pattern_strip,
    codebook_gallery,
    sector_strip,
)

__all__ = [
    "ascii_cdf",
    "ascii_histogram",
    "sector_strip",
    "beam_pattern_strip",
    "codebook_gallery",
]
