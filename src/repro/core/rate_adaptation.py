"""Frame-based rate adaptation (§7, Algorithm 1's RA pieces).

Two responsibilities:

1. **Link repair** (:func:`repair_ladder`, behind
   :meth:`RateAdaptation.repair`): starting from the MCS in use, probe
   downward one aggregated frame per MCS until the first *working* MCS
   appears, then settle on the best-throughput working MCS found along the
   way.  If nothing works, the caller falls back to BA followed by another
   scan.  :func:`first_working_descending` is the §5.2 ground truth's
   scan, which stops at the first working MCS.  The replay, the live loop
   and the ground truth all scan through these two.

2. **Upward probing** (:meth:`RateAdaptation.frames`): once settled, probe
   the next-higher MCS whenever the recent CDR clears an opportunistic
   threshold (inspired by RRAA's ORI rule), with an adaptive probing
   interval ``T = T0 · min(2^k, 2^5)`` where ``k`` counts consecutive
   failed probes (inspired by MiRA) — §7's exact construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.constants import (
    PROBE_BACKOFF_CAP,
    PROBE_INTERVAL_MIN_FRAMES,
    X60_NUM_MCS,
)
from repro.core.mcs import X60_MCS_SET, MCSSet
from repro.phy.error_model import is_working
from repro.testbed.traces import McsTraces, StateMeasurement


def cdr_ori_threshold(mcs: int, mcs_set: MCSSet = X60_MCS_SET) -> float:
    """Opportunistic-rate-increase threshold for probing ``mcs + 1``.

    Probing the next MCS is worthwhile only if the goodput it could reach
    can beat the current one; assuming a near-perfect next-step CDR of 0.9,
    the current CDR must exceed ``0.9 · rate(mcs+1)⁻¹ · rate(mcs)``
    inverted — i.e. CDR_ORI = 0.9 · rate(mcs) / rate(mcs+1) is the break-
    even point (following the spirit of RRAA's P_ORI).
    """
    if mcs >= len(mcs_set) - 1:
        return float("inf")  # no higher MCS to probe
    return 0.9 * mcs_set.rate_mbps(mcs) / mcs_set.rate_mbps(mcs + 1)


@dataclass
class RAResult:
    """Outcome of one repair round."""

    found_mcs: Optional[int]
    frames_spent: int
    bytes_during_search: float
    settled_throughput_mbps: float

    @property
    def failed(self) -> bool:
        return self.found_mcs is None


@dataclass
class FrameOutcome:
    """One simulated frame after the link has settled."""

    mcs: int
    throughput_mbps: float
    probing: bool


@dataclass(frozen=True)
class RepairLadder:
    """The point-independent skeleton of one :meth:`RateAdaptation.repair`.

    A repair round's *trajectory* — which MCSs it probes, where it settles,
    how many frames it burns — depends only on the traces and the starting
    MCS, never on the frame aggregation time.  The batched evaluation path
    computes the ladder once per (entry, pair) and converts it into an
    :class:`RAResult` per operating point with :meth:`search_bytes`, whose
    accumulation order matches ``repair()`` term for term so the bytes are
    bit-identical.
    """

    start_mcs: int
    found_mcs: Optional[int]
    frames_spent: int
    probed_throughputs_mbps: tuple[float, ...]
    settled_throughput_mbps: float

    @property
    def failed(self) -> bool:
        return self.found_mcs is None

    def search_bytes(self, frame_time_s: float) -> float:
        """Data delivered by the probe frames at one frame time."""
        total = 0.0
        for tput in self.probed_throughputs_mbps:
            total += tput * 1e6 / 8.0 * frame_time_s
        return total

    def result(self, frame_time_s: float) -> RAResult:
        return RAResult(
            self.found_mcs,
            self.frames_spent,
            self.search_bytes(frame_time_s),
            self.settled_throughput_mbps,
        )


def repair_ladder(
    traces: McsTraces, start_mcs: int, initial_throughput_mbps: float = 0.0
) -> RepairLadder:
    """Run Algorithm 1's RA() scan and record its ladder.

    The scan behind :meth:`RateAdaptation.repair`, minus the per-point
    byte accounting: the probed-MCS sequence and the settling decision are
    frame-time-free.
    """
    if not 0 <= start_mcs < X60_NUM_MCS:
        raise ValueError(f"start_mcs {start_mcs} out of range")
    frames = 0
    probed: list[float] = []
    max_tput = initial_throughput_mbps
    best_mcs: Optional[int] = None
    for mcs in range(start_mcs, -1, -1):
        frames += 1
        tput = float(traces.throughput_mbps[mcs])
        probed.append(tput)
        if tput < max_tput:
            # Throughput turned down: settle at the previous MCS.
            break
        max_tput = tput
        if is_working(traces.cdr[mcs], tput):
            best_mcs = mcs
    settled = 0.0 if best_mcs is None else float(traces.throughput_mbps[best_mcs])
    return RepairLadder(start_mcs, best_mcs, frames, tuple(probed), settled)


def first_working_descending(
    measurement: StateMeasurement, start_mcs: int
) -> tuple[Optional[int], int]:
    """Scan MCSs ``start_mcs, start_mcs-1, …, 0`` until one works.

    The §5.2 ground truth's scan: unlike :func:`repair_ladder` it stops at
    the first working MCS instead of following the throughput down.
    Returns ``(found_mcs_or_None, frames_spent)``; a full failed scan costs
    ``start_mcs + 1`` frames.
    """
    for steps, mcs in enumerate(range(start_mcs, -1, -1), start=1):
        if is_working(measurement.cdr[mcs], measurement.throughput_mbps[mcs]):
            return mcs, steps
    return None, start_mcs + 1


_STEADY_RUNS_MAX_FRAMES = 1_000_000
"""Safety bound for the cycle search; real dynamics recur within a few
hundred frames (the probe interval saturates at T0 · 2^5 and the MCS can
only move up eight times)."""


def steady_rate_runs(
    traces: McsTraces,
    settled_mcs: int,
    mcs_set: Optional[MCSSet] = None,
    probe_interval_min: int = PROBE_INTERVAL_MIN_FRAMES,
    probe_backoff_cap: int = PROBE_BACKOFF_CAP,
) -> tuple[list[float], list[float]]:
    """The per-frame throughput sequence of :meth:`RateAdaptation.frames`,
    compressed to ``(transient_prefix, repeating_cycle)``.

    The steady-state dynamics are eventually periodic: the probe interval
    saturates at ``T0 · cap``, the current MCS is monotone non-decreasing,
    and within one trace the per-MCS values never change — so the machine
    state ``(current, interval, since_probe, backoff)`` must recur.  The
    first recurrence splits the emitted rates into a transient prefix and
    a cycle; frame ``i``'s rate is ``prefix[i]`` while ``i < len(prefix)``
    and ``cycle[(i - len(prefix)) % len(cycle)]`` after, reproducing the
    generator's output exactly for any horizon.

    The search steps one probe interval at a time.  Every interval starts
    at ``since_probe = 0`` and sends ``interval`` frames at the current
    rate before the probe gate is checked, so a state can first recur only
    at the start of an interval — or, when the gate stays closed (top MCS,
    or CDR under the ORI threshold), at the frame after the interval,
    where ``since_probe`` no longer changes behaviour.
    """
    mcs_set = X60_MCS_SET if mcs_set is None else mcs_set
    top = len(mcs_set) - 1
    throughputs = [float(v) for v in traces.throughput_mbps]
    # Whether the probe gate can open at each MCS — a higher MCS exists and
    # the CDR clears its ORI threshold; both are fixed within one trace.
    can_probe = [
        bool(mcs < top and traces.cdr[mcs] > cdr_ori_threshold(mcs, mcs_set))
        for mcs in range(len(throughputs))
    ]

    def backoff_state(failed_probes: int) -> int:
        # Once the backoff saturates the failure count no longer matters.
        backoff = min(2 ** failed_probes, probe_backoff_cap)
        return backoff if backoff < probe_backoff_cap else -1

    rates: list[float] = []
    seen: dict[tuple, int] = {}
    current = settled_mcs
    failed_probes = 0
    interval = probe_interval_min
    while len(rates) <= _STEADY_RUNS_MAX_FRAMES:
        state = (current, interval, backoff_state(failed_probes))
        start = seen.get(state)
        if start is not None:
            return rates[:start], rates[start:]
        seen[state] = len(rates)
        rates.extend([throughputs[current]] * interval)
        if not can_probe[current]:
            start = len(rates)
            rates.append(throughputs[current])
            return rates[:start], rates[start:]
        higher = current + 1
        rates.append(throughputs[higher])
        if throughputs[higher] > throughputs[current]:
            current = higher
            failed_probes = 0
            interval = probe_interval_min
        else:
            failed_probes += 1
            interval = probe_interval_min * min(2 ** failed_probes, probe_backoff_cap)
    raise RuntimeError("steady-state dynamics failed to recur")  # pragma: no cover


@dataclass
class RateAdaptation:
    """The §7 RA algorithm over recorded per-MCS traces.

    The trace-driven design mirrors the paper's evaluation: within one
    (state, beam pair) the per-MCS CDR/throughput values are stationary,
    so the algorithm's dynamics reduce to which MCS it transmits at each
    frame and how often it wastes frames probing.
    """

    frame_time_s: float
    mcs_set: MCSSet = field(default_factory=lambda: X60_MCS_SET)
    probe_interval_min: int = PROBE_INTERVAL_MIN_FRAMES
    probe_backoff_cap: int = PROBE_BACKOFF_CAP

    def repair(
        self, traces: McsTraces, start_mcs: int, initial_throughput_mbps: float = 0.0
    ) -> RAResult:
        """Probe downward from ``start_mcs`` per Algorithm 1's RA().

        The scan descends while the measured throughput keeps improving;
        when it drops below the best seen so far, RA settles at the
        previous (best) MCS if that MCS is working.  Each probed MCS costs
        one frame which still delivers data at that MCS's observed
        throughput (RA uses *data* frames — the reason its recovery
        throughput is "suboptimal but not necessarily 0", §5.2).  A failed
        repair (no working MCS anywhere) returns ``found_mcs=None``; the
        caller falls back to BA + a second RA round.
        """
        return repair_ladder(traces, start_mcs, initial_throughput_mbps).result(
            self.frame_time_s
        )

    def frames(
        self, traces: McsTraces, settled_mcs: int, num_frames: int
    ) -> Iterator[FrameOutcome]:
        """Simulate ``num_frames`` frames of steady-state operation.

        Upward probes fire every T frames; a probe transmits one frame at
        ``mcs+1``.  A failed probe (lower throughput than the settled MCS)
        doubles T up to the cap; a successful one moves the settled MCS up
        and resets T.
        """
        current = settled_mcs
        failed_probes = 0
        interval = self.probe_interval_min
        since_probe = 0
        for _ in range(num_frames):
            probe_now = (
                current < len(self.mcs_set) - 1
                and since_probe >= interval
                and traces.cdr[current] > cdr_ori_threshold(current, self.mcs_set)
            )
            if probe_now:
                higher = current + 1
                tput_higher = float(traces.throughput_mbps[higher])
                yield FrameOutcome(higher, tput_higher, probing=True)
                since_probe = 0
                if tput_higher > float(traces.throughput_mbps[current]):
                    current = higher
                    failed_probes = 0
                    interval = self.probe_interval_min
                else:
                    failed_probes += 1
                    interval = self.probe_interval_min * min(
                        2 ** failed_probes, self.probe_backoff_cap
                    )
            else:
                yield FrameOutcome(current, float(traces.throughput_mbps[current]), False)
                since_probe += 1
