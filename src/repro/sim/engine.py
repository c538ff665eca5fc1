"""The frame-level, trace-driven link simulator of §8.

One *flow* starts at the moment a link impairment hits (captured by a
dataset entry) and runs for a fixed duration.  The engine:

1. builds the Tx-side :class:`~repro.core.policies.Observation` from the
   entry — the feature deltas the ACKs carried, whether the ACK went
   missing entirely (the old pair delivers nothing), and whether the
   current MCS still works;
2. asks the policy for an action and charges the corresponding recovery
   procedure — RA probing frames (which still carry data), the BA sweep
   (control frames only: zero goodput), and the post-failure fallbacks of
   Algorithm 1 (failed RA → BA → RA; BA's repair lands on the new pair);
3. runs the remaining time in steady state at the settled MCS, including
   the §7 upward-probing tax.

All policies — including the oracles — use the same RA machinery and the
same probing behaviour; the oracles differ only in *which* action they
pick, exactly as the paper specifies ("all algorithms use the same
mechanism as LiBRA to probe higher rates periodically").

This module holds the replay's types and entry points; the replay itself
is :class:`repro.sim.batch.BatchFlowSimulator`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.ground_truth import Action
from repro.core.policies import LinkAdaptationPolicy
from repro.dataset.entry import DatasetEntry
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.trace import NULL_RECORDER, TraceRecorder
from repro.sim.timeline import Timeline


@dataclass(frozen=True)
class SimulationConfig:
    """The §8.1 protocol grid: BA overhead x frame aggregation time."""

    ba_overhead_s: float = 5e-3
    frame_time_s: float = 2e-3

    def __post_init__(self) -> None:
        if not (math.isfinite(self.ba_overhead_s) and self.ba_overhead_s >= 0):
            raise ValueError(
                f"ba_overhead_s must be a finite number >= 0, "
                f"got {self.ba_overhead_s!r}"
            )
        if not (math.isfinite(self.frame_time_s) and self.frame_time_s > 0):
            raise ValueError(
                f"frame_time_s must be a finite number > 0, "
                f"got {self.frame_time_s!r}"
            )


@dataclass
class FlowResult:
    """Outcome of one simulated flow (or one timeline segment)."""

    bytes_delivered: float
    recovery_delay_s: float
    action: Action
    settled_mcs: int | None
    link_died: bool = False

    @property
    def megabytes(self) -> float:
        return self.bytes_delivered / 1e6


def simulate_flow(
    policy: LinkAdaptationPolicy,
    entry: DatasetEntry,
    config: SimulationConfig,
    duration_s: float,
    recorder: TraceRecorder = NULL_RECORDER,
    metrics: MetricsRegistry = NULL_METRICS,
) -> FlowResult:
    """Simulate one flow that hits the entry's impairment at t = 0.

    A thin wrapper over a fresh
    :class:`~repro.sim.batch.BatchFlowSimulator`, the one implementation
    of the §8 replay.  ``recorder`` and ``metrics`` default to the shared
    no-ops, which cost two attribute checks; an enabled recorder receives
    one :class:`~repro.obs.events.FlowEvent` per call.  Callers replaying
    many flows at one config should share a simulator instead: it memoizes
    every entry's trajectories and action outcomes.
    """
    from repro.sim.batch import BatchFlowSimulator  # batch imports this module

    return BatchFlowSimulator(config).simulate(
        policy, entry, duration_s, recorder, metrics
    )


def simulate_timeline(
    policy: LinkAdaptationPolicy,
    timeline: Timeline,
    config: SimulationConfig,
    recorder: TraceRecorder = NULL_RECORDER,
    metrics: MetricsRegistry = NULL_METRICS,
    simulator=None,
) -> tuple[float, float, int]:
    """Run a policy over a multi-segment timeline (§8.3).

    Each impaired segment is one link break: the policy pays its recovery
    at the segment start and steady-states for the rest.  Clear segments
    deliver at the pre-impairment rate (all policies equal there, since
    every algorithm probes back up with the same §7 machinery).

    Impaired segments replay through ``simulator``, a
    :class:`repro.sim.batch.BatchFlowSimulator` built for the same config,
    or through a fresh one per call when none is given — the Fig. 12/13
    sweeps share one simulator per config across many timelines.

    Returns ``(total_bytes, mean_recovery_delay_s, num_breaks)``.
    """
    from repro.sim.batch import BatchFlowSimulator  # batch imports this module

    if simulator is None:
        simulator = BatchFlowSimulator(config)
    elif simulator.config != config:
        raise ValueError("simulator was built for a different SimulationConfig")
    total_bytes = 0.0
    total_delay = 0.0
    breaks = 0
    policy.reset()
    for segment in timeline.segments:
        if segment.entry is None:
            # Clear segment: steady state at the recovered link rate.
            total_bytes += segment.clear_rate_mbps * 1e6 / 8.0 * segment.duration_s
            continue
        result = simulator.simulate(
            policy, segment.entry, segment.duration_s, recorder, metrics
        )
        total_bytes += result.bytes_delivered
        total_delay += min(result.recovery_delay_s, segment.duration_s)
        breaks += 1
    mean_delay = total_delay / breaks if breaks else 0.0
    return total_bytes, mean_delay, breaks
