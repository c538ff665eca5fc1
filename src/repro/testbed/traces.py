"""Measurement records produced by the emulated X60 testbed.

A :class:`StateMeasurement` is what the paper collects at each *state*
(position + orientation + impairment status) for one beam pair: 1 s-averaged
SNR, reported noise level, ToF, PDP, and per-MCS CDR/throughput traces
(§5.1).  X60 logs these per frame; we store the 1 s averages directly since
the paper confirmed the averages are stable over several seconds in the
controlled environments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.constants import X60_NUM_MCS
from repro.phy.error_model import is_working

METRIC_AGE_KEY = "metric_age_s"
"""`StateMeasurement.extra` key carrying how old the reported metrics are
(seconds).  Fresh measurements omit it (age 0); a stale replay — injected
or a real feedback-queue hiccup — sets it so timestamp-aware consumers
(:class:`repro.core.observation.MetricWindow`) can detect and drop the
report."""


def best_working_mcs(
    cdr: np.ndarray, throughput_mbps: np.ndarray, max_mcs: Optional[int] = None
) -> Optional[int]:
    """Highest-throughput *working* MCS per the §5.2 predicate, or ``None``.

    Shared by :class:`StateMeasurement` and the slimmer per-entry trace
    bundles the dataset stores.
    """
    top = len(cdr) - 1 if max_mcs is None else max_mcs
    # Plain-float lists: indexing numpy scalars in this (hot) loop costs
    # more than the comparison work itself.
    cdr_list = cdr.tolist() if isinstance(cdr, np.ndarray) else list(cdr)
    tput_list = (
        throughput_mbps.tolist()
        if isinstance(throughput_mbps, np.ndarray)
        else list(throughput_mbps)
    )
    best: Optional[int] = None
    best_tput = 0.0
    for mcs in range(top + 1):
        if not is_working(cdr_list[mcs], tput_list[mcs]):
            continue
        if tput_list[mcs] > best_tput:
            best, best_tput = mcs, tput_list[mcs]
    return best


def best_working_throughput(
    cdr: np.ndarray, throughput_mbps: np.ndarray, max_mcs: Optional[int] = None
) -> float:
    """Throughput of :func:`best_working_mcs`; 0.0 when nothing works."""
    best = best_working_mcs(cdr, throughput_mbps, max_mcs)
    return 0.0 if best is None else float(throughput_mbps[best])


@dataclass(frozen=True)
class McsTraces:
    """Per-MCS CDR/throughput traces without the full measurement record.

    Dataset entries persist these for both candidate beam pairs so that
    ground truth can be *relabelled* under any (α, BA overhead, FAT)
    without re-running the testbed — the trick §8 relies on.
    """

    cdr: np.ndarray
    throughput_mbps: np.ndarray

    def best_mcs(self, max_mcs: Optional[int] = None) -> Optional[int]:
        return best_working_mcs(self.cdr, self.throughput_mbps, max_mcs)

    def best_throughput(self, max_mcs: Optional[int] = None) -> float:
        return best_working_throughput(self.cdr, self.throughput_mbps, max_mcs)


@dataclass(frozen=True)
class PhyTrace:
    """One 1 s PHY trace at a fixed (beam pair, MCS)."""

    mcs: int
    cdr: float
    throughput_mbps: float


@dataclass
class StateMeasurement:
    """Everything logged for one state and one beam pair.

    Attributes:
        room_name: Environment provenance.
        tx_beam / rx_beam: Codebook indices of the measured pair.
        snr_db: 1 s-average SNR as reported by the firmware (with
            measurement jitter).
        true_snr_db: The underlying noiseless SINR (simulation-only; never
            fed to features).
        noise_dbm: Reported noise level (jittered, per §6.2's observation
            that X60 noise readings span a wide range).
        tof_ns: Time of flight of the dominant ray through this beam pair;
            ``math.inf`` when the signal is too weak to measure (§6.1).
        pdp: Normalised power delay profile (length-256 vector).
        cdr: Per-MCS codeword delivery ratios, shape (9,).
        throughput_mbps: Per-MCS MAC throughputs, shape (9,).
    """

    room_name: str
    tx_beam: int
    rx_beam: int
    snr_db: float
    true_snr_db: float
    noise_dbm: float
    tof_ns: float
    pdp: np.ndarray
    cdr: np.ndarray
    throughput_mbps: np.ndarray
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.cdr.shape != (X60_NUM_MCS,) or self.throughput_mbps.shape != (X60_NUM_MCS,):
            raise ValueError("per-MCS arrays must have one entry per X60 MCS")

    def best_mcs(self, max_mcs: Optional[int] = None) -> Optional[int]:
        """Highest-throughput *working* MCS (≤ ``max_mcs``), or ``None``.

        Working = the paper's §5.2 predicate, evaluated on the logged
        traces: CDR > 10 % and throughput > 150 Mbps.
        """
        return best_working_mcs(self.cdr, self.throughput_mbps, max_mcs)

    def best_throughput(self, max_mcs: Optional[int] = None) -> float:
        """Throughput of :meth:`best_mcs`, 0.0 when no MCS works."""
        return best_working_throughput(self.cdr, self.throughput_mbps, max_mcs)

    def mcs_traces(self) -> McsTraces:
        """The slim per-MCS trace bundle for dataset persistence."""
        return McsTraces(self.cdr.copy(), self.throughput_mbps.copy())

    def trace(self, mcs: int) -> PhyTrace:
        return PhyTrace(mcs, float(self.cdr[mcs]), float(self.throughput_mbps[mcs]))
