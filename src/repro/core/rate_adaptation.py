"""Frame-based rate adaptation (§7, Algorithm 1's RA pieces).

This module is the one §7 RA machine; the §8 replay, the live loop, the
§5.2 ground truth and the probe-backoff ablation all run on it.

1. **Link repair** (:func:`repair_ladder`): starting from the MCS in use,
   probe downward one aggregated data frame per MCS while the throughput
   keeps improving, and settle on the best working MCS found along the
   way.  If nothing works, the caller falls back to BA followed by another
   scan.  :func:`first_working_descending` is the §5.2 ground truth's
   scan, which stops at the first working MCS.

2. **Upward probing** (:func:`steady_rate_runs`): once settled, probe the
   next-higher MCS whenever the CDR clears an opportunistic threshold
   (:func:`cdr_ori_threshold`, inspired by RRAA's ORI rule), with the
   adaptive probing interval of :func:`probe_interval`,
   ``T = T0 · min(2^k, 2^5)`` where ``k`` counts consecutive failed
   probes (inspired by MiRA) — §7's exact construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.constants import (
    PROBE_BACKOFF_CAP,
    PROBE_INTERVAL_MIN_FRAMES,
    X60_NUM_MCS,
)
from repro.phy.error_model import is_working, phy_rate_mbps
from repro.testbed.traces import McsTraces, StateMeasurement


def cdr_ori_threshold(mcs: int) -> float:
    """Opportunistic-rate-increase threshold for probing ``mcs + 1``.

    Probing the next MCS is worthwhile only if the goodput it could reach
    can beat the current one; assuming a near-perfect next-step CDR of 0.9,
    the current CDR must exceed ``0.9 · rate(mcs+1)⁻¹ · rate(mcs)``
    inverted — i.e. CDR_ORI = 0.9 · rate(mcs) / rate(mcs+1) is the break-
    even point (following the spirit of RRAA's P_ORI).
    """
    if mcs >= X60_NUM_MCS - 1:
        return float("inf")  # no higher MCS to probe
    return 0.9 * phy_rate_mbps(mcs) / phy_rate_mbps(mcs + 1)


def probe_interval(failed_probes: int, cap: int = PROBE_BACKOFF_CAP) -> int:
    """Frames between upward probes after ``failed_probes`` failures in a
    row: ``T = T0 · min(2^k, cap)``; a successful probe resets ``k``."""
    return PROBE_INTERVAL_MIN_FRAMES * min(2 ** failed_probes, cap)


@dataclass(frozen=True)
class RepairLadder:
    """One Algorithm 1 RA() repair round, recorded as its ladder.

    The scan descends from ``start_mcs`` while the measured throughput
    keeps improving; when a probe drops below the best seen so far, RA
    settles at the best *working* MCS probed (``found_mcs``), or fails with
    ``None`` — the caller then falls back to BA and a second scan.  Each
    probed MCS costs one frame, which still delivers data at that MCS's
    throughput (RA probes with *data* frames, the reason its recovery
    throughput is "suboptimal but not necessarily 0", §5.2).

    The ladder depends only on the traces and the starting MCS, never on
    the frame aggregation time, so it is computed once per (entry, pair)
    and priced per operating point by :meth:`search_bytes`.
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
        """Data delivered by the probe frames at one frame time, summed
        frame by frame in probe order."""
        total = 0.0
        for tput in self.probed_throughputs_mbps:
            total += tput * 1e6 / 8.0 * frame_time_s
        return total


def repair_ladder(
    traces: McsTraces, start_mcs: int, initial_throughput_mbps: float = 0.0
) -> RepairLadder:
    """Run Algorithm 1's RA() scan from ``start_mcs`` and record its ladder.

    ``initial_throughput_mbps`` is the best throughput already known: 0 for
    a fresh repair, which must probe one MCS below a still-working current
    MCS to see the downturn; the current throughput for
    ``RA(curr_mcs - 1, curr_tput)``, which stops at the first worse probe.
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
    probe_backoff_cap: int = PROBE_BACKOFF_CAP,
) -> tuple[list[float], list[float]]:
    """§7 upward probing after RA settles at ``settled_mcs``, as the
    per-frame throughputs ``(transient_prefix, repeating_cycle)``.

    The machine, frame by frame: a frame at the current MCS advances a
    probe counter; once the counter reaches the interval ``T`` and the
    current CDR clears :func:`cdr_ori_threshold`, the next frame is a probe
    at ``current + 1`` and resets the counter.  A probe whose throughput
    beats the current MCS's moves the link up and resets ``T`` to ``T0``;
    a failed one increments ``k`` in ``T = probe_interval(k, cap)``.  The
    paper's cap is ``2^5``; the probe-backoff ablation runs cap 1 (fixed
    ``T0``).

    The dynamics are eventually periodic: the interval saturates at
    ``T0 · cap``, the current MCS never goes down, and within one trace the
    per-MCS values never change, so the state ``(current, T)`` must recur.
    The first recurrence splits the emitted rates into a transient prefix
    and a cycle: frame ``i``'s rate is ``prefix[i]`` while
    ``i < len(prefix)`` and ``cycle[(i - len(prefix)) % len(cycle)]``
    after, for any horizon.

    The search steps one probe interval at a time.  Every interval starts
    with the counter at 0 and sends ``T`` frames at the current rate
    before the probe gate is checked, so a state can first recur only at
    the start of an interval — or, when the gate stays closed (top MCS, or
    CDR under the ORI threshold), at the frame after the interval, where
    the counter no longer changes behaviour.
    """
    throughputs = [float(v) for v in traces.throughput_mbps]
    # Whether the probe gate can open at each MCS: the CDR clears the ORI
    # threshold (infinite at the top MCS); both are fixed within one trace.
    can_probe = [
        bool(traces.cdr[mcs] > cdr_ori_threshold(mcs)) for mcs in range(len(throughputs))
    ]
    rates: list[float] = []
    seen: dict[tuple[int, int], int] = {}
    current = settled_mcs
    failed_probes = 0
    while len(rates) <= _STEADY_RUNS_MAX_FRAMES:
        interval = probe_interval(failed_probes, probe_backoff_cap)
        start = seen.get((current, interval))
        if start is not None:
            return rates[:start], rates[start:]
        seen[(current, interval)] = len(rates)
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
        else:
            failed_probes += 1
    raise RuntimeError("steady-state dynamics failed to recur")  # pragma: no cover
