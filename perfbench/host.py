"""Host-speed calibration for a shared machine.

Other tenants of a shared host slow every program on it down, by 10 to
30 % and for minutes at a time, so the wall time of the same work drifts
between runs by about as much as the benchmark's bounds.  :class:`HostClock`
runs a fixed reference loop after every timed section and scales the
run's wall times by how fast the loop ran in the run.  The result is
the time a section would take on a host where the loop takes
:data:`REFERENCE_S`: a change to the program moves it, a slower host does
not.  The raw wall times go into the run's provenance record.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_S = 0.2
"""Median wall time of :func:`reference_loop` over forty 20 s benchmark
runs on a 2-core VM (Xeon, Python 3.11); the scale of every calibrated
time, so calibrated and wall times agree on such a host."""


def reference_data() -> dict[str, int]:
    """The reference loop's working set: 40,000 short strings in a dict,
    about 5 MB, more than a core's L2 cache.  It is built once per run, so
    it adds a fixed amount to the process's peak memory instead of a
    transient one that would hide the workload's own peak."""
    return {str(i * 7919 % 100_003): i for i in range(40_000)}


def reference_loop(table: dict[str, int]) -> None:
    """Sorts the keys and looks every one of them up, twelve times.

    Like the workloads (campaign entries, forests, flow logs), this is
    interpreter work over objects scattered through memory.  A tight loop
    over a small dict sped up about twice as much as the workloads when
    other tenants went quiet, and over-corrected.
    """
    for _ in range(12):
        total = 0
        for key in sorted(table):
            total += table[key]


class HostClock:
    """Samples the reference loop between timed sections of a run."""

    def __init__(self) -> None:
        self.reference_s: list[float] = []
        self._table = reference_data()

    def sample(self) -> None:
        start = time.perf_counter()
        reference_loop(self._table)
        self.reference_s.append(time.perf_counter() - start)

    def to_reference(self, wall_s: float) -> float:
        """``wall_s`` measured during the run, at reference host speed.

        One loop varies by a tenth or more from the next, so the host's
        speed is taken from the median loop of the run.
        """
        return wall_s * REFERENCE_S / statistics.median(self.reference_s)
