"""Text reports for evaluation-grid results.

Turns :class:`~repro.sim.sweep.PointResult` objects into the same kind of
readable artifact the benchmark harness writes — headline fractions, CDF
series, and ASCII figures — so users running their own operating points
get paper-style output without touching the plotting code.
"""

from __future__ import annotations

from typing import Sequence

from repro.sim.results import cdf_points, fraction_at_most
from repro.sim.sweep import PointResult
from repro.viz.ascii import ascii_cdf

MATCH_TOLERANCE_MB = 1.0
DELAY_TOLERANCE_MS = 5.0


def point_headline(result: PointResult) -> list[str]:
    """The one-paragraph summary of one operating point."""
    point = result.point
    lines = [
        f"operating point: BA overhead {point.ba_overhead_s * 1e3:g} ms, "
        f"FAT {point.frame_time_s * 1e3:g} ms, flow {point.flow_duration_s:g} s, "
        f"α {point.resolved_alpha():g}",
    ]
    for name in result.byte_gaps_mb:
        byte_match = result.oracle_match_fraction(name, MATCH_TOLERANCE_MB)
        delay_ok = fraction_at_most(result.delay_gaps_ms[name], DELAY_TOLERANCE_MS)
        lines.append(
            f"  {name:>9}: ==Oracle-Data {byte_match:5.0%} | "
            f"mean byte gap {result.byte_gaps_mb[name].mean():6.1f} MB | "
            f"within {DELAY_TOLERANCE_MS:g} ms of Oracle-Delay {delay_ok:5.0%}"
        )
    return lines


def point_cdf_tables(result: PointResult, num_points: int = 5) -> list[str]:
    """Numeric CDF series (the rows a plot would draw)."""
    lines = ["  byte-gap CDFs (MB@level):"]
    for name, values in result.byte_gaps_mb.items():
        series = ", ".join(f"{v:7.1f}@{p:.2f}" for v, p in cdf_points(values, num_points))
        lines.append(f"    {name:>9}: {series}")
    lines.append("  delay-gap CDFs (ms@level):")
    for name, values in result.delay_gaps_ms.items():
        series = ", ".join(f"{v:7.1f}@{p:.2f}" for v, p in cdf_points(values, num_points))
        lines.append(f"    {name:>9}: {series}")
    return lines


def point_figures(result: PointResult) -> list[str]:
    """ASCII renderings of the two CDF panels (Figs. 10/11-shaped)."""
    lines = []
    lines += ascii_cdf(
        {name: values for name, values in result.byte_gaps_mb.items()},
        width=56,
        height=9,
        title="  Oracle-Data − policy bytes (MB):",
    )
    lines.append("")
    lines += ascii_cdf(
        {name: values for name, values in result.delay_gaps_ms.items()},
        width=56,
        height=9,
        title="  policy − Oracle-Delay recovery delay (ms):",
    )
    return lines


def grid_report(
    results: Sequence[PointResult],
    include_figures: bool = False,
    title: str = "LiBRA evaluation grid",
) -> str:
    """One report covering every operating point.

    Returns a single string ready to print or write; benchmark-artifact
    shaped so diffs across runs stay readable.
    """
    if not results:
        raise ValueError("no results to report")
    lines: list[str] = [title, "=" * len(title), ""]
    for result in results:
        lines += point_headline(result)
        lines += point_cdf_tables(result)
        if include_figures:
            lines += point_figures(result)
        lines.append("")
    # Cross-point summary: which policy wins each regime.
    lines.append("summary (fraction of flows matching Oracle-Data within 1 MB):")
    header = f"{'BA ovh / FAT':>16} |" + "".join(
        f" {name:>9}" for name in results[0].byte_gaps_mb
    )
    lines.append(header)
    for result in results:
        point = result.point
        row = (
            f"{point.ba_overhead_s * 1e3:>7g} ms/{point.frame_time_s * 1e3:g} ms |"
        )
        for name in result.byte_gaps_mb:
            row += f" {result.oracle_match_fraction(name):>8.0%} "
        lines.append(row)
    return "\n".join(lines)
