"""ASCII renderers: CDFs, histograms, sector strips.

All functions return a list of text lines (no printing, no I/O) so the
callers — examples, benchmark artifacts, debug sessions — decide where
the output goes.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

_DEFAULT_WIDTH = 60
_GLYPHS = "o*x+#@%&"


def _scale(value: float, low: float, high: float, width: int) -> int:
    """Map ``value`` in [low, high] to a column in [0, width-1]."""
    if high <= low:
        return 0
    fraction = (value - low) / (high - low)
    return int(round(min(max(fraction, 0.0), 1.0) * (width - 1)))


def ascii_cdf(
    series: Mapping[str, Sequence[float]],
    width: int = _DEFAULT_WIDTH,
    height: int = 11,
    title: str = "",
) -> list[str]:
    """Render one or more empirical CDFs on a shared axis.

    Each series gets its own glyph; rows run from CDF level 1.0 (top) to
    0.0 (bottom).  Raises ``ValueError`` on empty input.
    """
    if not series:
        raise ValueError("no series to plot")
    arrays = {name: np.sort(np.asarray(v, dtype=float)) for name, v in series.items()}
    for name, values in arrays.items():
        if values.size == 0:
            raise ValueError(f"series {name!r} is empty")
    low = min(float(v[0]) for v in arrays.values())
    high = max(float(v[-1]) for v in arrays.values())
    grid = [[" "] * width for _ in range(height)]
    for index, (name, values) in enumerate(arrays.items()):
        glyph = _GLYPHS[index % len(_GLYPHS)]
        for row in range(height):
            level = 1.0 - row / (height - 1)
            quantile = float(np.quantile(values, level))
            grid[row][_scale(quantile, low, high, width)] = glyph
    lines = []
    if title:
        lines.append(title)
    for row in range(height):
        level = 1.0 - row / (height - 1)
        lines.append(f"{level:4.2f} |" + "".join(grid[row]))
    lines.append("     +" + "-" * width)
    lines.append(f"      {low:<12.3g}{'':^{max(width - 24, 0)}}{high:>12.3g}")
    legend = "  ".join(
        f"{_GLYPHS[i % len(_GLYPHS)]}={name}" for i, name in enumerate(arrays)
    )
    lines.append("      " + legend)
    return lines


def ascii_histogram(
    values: Sequence[float],
    bins: int = 12,
    width: int = 40,
    title: str = "",
) -> list[str]:
    """Render a horizontal-bar histogram."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("no values to plot")
    counts, edges = np.histogram(values, bins=bins)
    peak = counts.max() if counts.max() > 0 else 1
    lines = []
    if title:
        lines.append(title)
    for count, left, right in zip(counts, edges[:-1], edges[1:]):
        bar = "#" * int(round(count / peak * width))
        lines.append(f"[{left:9.3g}, {right:9.3g}) |{bar:<{width}} {count}")
    return lines


def sector_strip(sectors: Sequence[int], width: int = _DEFAULT_WIDTH) -> str:
    """Compress a sector timeline into a one-line strip.

    Each sector maps to a letter; the firmware's failed-sweep marker
    (sector 255) renders as ``X`` — the §3 figures at terminal width.
    """
    if not sectors:
        return "(empty)"
    step = max(1, len(sectors) // width)
    samples = list(sectors)[::step][:width]
    return "".join(
        "X" if sector == 255 else chr(ord("a") + sector % 26) for sector in samples
    )


def beam_pattern_strip(
    beam,
    width: int = _DEFAULT_WIDTH,
    span_deg: float = 180.0,
    levels: str = " .:-=+*#%@",
) -> str:
    """One beam's gain over ``[-span, +span]`` degrees as a density strip.

    Darker glyphs = more gain; the main lobe reads as a bright band with
    the side lobes as secondary ridges — enough to eyeball a codebook in a
    terminal.
    """
    if width < 2:
        raise ValueError("width must be at least 2")
    angles = np.linspace(-span_deg, span_deg, width)
    gains = beam.gain_dbi_array(angles)
    low, high = float(gains.min()), float(gains.max())
    if high <= low:
        return levels[0] * width
    scale = (gains - low) / (high - low)
    return "".join(levels[int(round(v * (len(levels) - 1)))] for v in scale)


def codebook_gallery(codebook, width: int = _DEFAULT_WIDTH) -> list[str]:
    """Every beam of a codebook as labelled pattern strips."""
    lines = []
    for beam in codebook:
        strip = beam_pattern_strip(beam, width)
        lines.append(f"beam {beam.index:2d} ({beam.steering_deg:+5.1f}°) |{strip}")
    return lines
