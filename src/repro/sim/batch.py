"""The §8 flow engine: vectorized replay over cached trajectories.

:class:`BatchFlowSimulator` is the one implementation of the §8 flow
replay; :func:`repro.sim.engine.simulate_flow`, the oracles,
:func:`repro.sim.engine.simulate_timeline`, the VR profiles and the
evaluation grid all run on it.  It:

* pulls the entry's point-independent trajectories (repair ladders,
  steady-rate prefix/cycle profiles, observation bits) from a
  :class:`~repro.sim.trajectory.TrajectoryCache`, an in-memory memo
  keyed by entry object and shared across operating points;
* converts a trajectory into per-point bytes with one NumPy elementwise
  multiply and a sequential ``cumsum`` — ``cumsum`` accumulates strictly
  left-to-right, the same order as a per-frame ``+=`` loop;
* memoizes the three action outcomes per (entry, duration) so oracles and
  policies share them instead of recomputing;
* accepts precomputed decisions (one ``decide_batch``/forest call for a
  whole entry list via :func:`batch_decisions`) while faulty or stateful
  policies keep the sequential per-observation path, preserving call
  order and therefore injected-fault randomness.

Its outputs are pinned by golden replay records (results, trace events,
metrics) in ``tests/sim/``; see docs/performance.md for the contract.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.ground_truth import Action
from repro.core.policies import (
    LinkAdaptationPolicy,
    Observation,
    PolicyDecision,
    decide_or_degrade,
)
from repro.dataset.entry import DatasetEntry
from repro.obs.events import FlowEvent, RepairStep
from repro.obs.metrics import NULL_METRICS, MetricsRegistry, get_metrics
from repro.obs.trace import NULL_RECORDER, TraceRecorder
from repro.sim.engine import FlowResult, SimulationConfig
from repro.sim.oracle import OracleData, OracleDelay
from repro.sim.trajectory import EntryTrajectories, TrajectoryCache


class BatchFlowSimulator:
    """Replay flows for one :class:`SimulationConfig` over cached trajectories.

    One simulator holds the per-point memos (steady-byte cumsums, search
    bytes, action outcomes); the :class:`TrajectoryCache` it wraps holds the
    point-independent state and may be shared across simulators — that is
    how the evaluation grid reuses one cache for all eight operating points.
    """

    def __init__(
        self,
        config: SimulationConfig,
        cache: Optional[TrajectoryCache] = None,
        metrics: MetricsRegistry = NULL_METRICS,
    ):
        self.config = config
        self.cache = TrajectoryCache() if cache is None else cache
        self.metrics = metrics
        self._observations: dict[EntryTrajectories, Observation] = {}
        self._search_bytes: dict[tuple[EntryTrajectories, str], float] = {}
        self._cumsums: dict[tuple[EntryTrajectories, str, int], np.ndarray] = {}
        self._outcomes: dict[tuple[EntryTrajectories, Action, float], FlowResult] = {}

    # -- point-independent lookups ------------------------------------------

    def trajectories(self, entry: DatasetEntry) -> EntryTrajectories:
        return self.cache.get(entry, self.metrics)

    def observation(self, entry: DatasetEntry) -> Observation:
        """What the transmitter sees right after the impairment, memoized.

        The ACK goes missing when the old pair's CDR at the current MCS is
        (near) zero — no codeword of the frame decodes, so no Block ACK
        returns and no fresh metrics arrive.
        """
        trajectories = self.trajectories(entry)
        observation = self._observations.get(trajectories)
        if observation is None:
            observation = Observation(
                features=None if trajectories.ack_missing else entry.features,
                ack_missing=trajectories.ack_missing,
                current_mcs=entry.initial_mcs,
                current_mcs_working=trajectories.working,
                ba_overhead_s=self.config.ba_overhead_s,
            )
            self._observations[trajectories] = observation
        return observation

    # -- per-point byte accounting ------------------------------------------

    def _steady_cumsum(
        self, trajectories: EntryTrajectories, pair: str, settled_mcs: int,
        num_frames: int,
    ) -> np.ndarray:
        """Cumulative steady-state bytes after frames 1..n.

        ``cumsum`` output is defined element-by-element as the running sum,
        so ``cum[k]`` equals a ``total += rate · 1e6 / 8 · FAT`` loop after
        ``k + 1`` frames; prefixes of a longer cumsum are stable, so
        growing the memoized array never changes earlier values.
        """
        key = (trajectories, pair, settled_mcs)
        cumsum = self._cumsums.get(key)
        if cumsum is None or cumsum.size < num_frames:
            grown = max(num_frames, 0 if cumsum is None else cumsum.size)
            rates = trajectories.profile(pair, settled_mcs).rates(grown)
            contributions = rates * 1e6 / 8.0 * self.config.frame_time_s
            cumsum = np.cumsum(contributions)
            self._cumsums[key] = cumsum
        return cumsum

    def _steady_bytes(
        self, trajectories: EntryTrajectories, pair: str, settled_mcs: int,
        duration_s: float,
    ) -> float:
        """Bytes over ``duration_s`` of steady state at ``settled_mcs``,
        probing tax included, plus a fractional tail frame at the settled
        rate."""
        frame_time_s = self.config.frame_time_s
        num_frames = max(0, int(duration_s / frame_time_s))
        total = 0.0
        if num_frames:
            cumsum = self._steady_cumsum(trajectories, pair, settled_mcs, num_frames)
            total = float(cumsum[num_frames - 1])
        remainder = duration_s - num_frames * frame_time_s
        if remainder > 0:
            total += (
                float(trajectories.traces(pair).throughput_mbps[settled_mcs])
                * 1e6 / 8.0 * remainder
            )
        return total

    def _ladder_search_bytes(self, trajectories: EntryTrajectories, pair: str) -> float:
        key = (trajectories, pair)
        value = self._search_bytes.get(key)
        if value is None:
            value = trajectories.ladder(pair).search_bytes(self.config.frame_time_s)
            self._search_bytes[key] = value
        return value

    def execute(
        self, entry: DatasetEntry, action: Action, duration_s: float
    ) -> FlowResult:
        """Charge ``action``'s recovery procedure and the steady state
        after it, memoized.

        Returns a fresh :class:`FlowResult` per call (the dataclass is
        mutable); the memoized outcome is shared by the oracles' candidate
        scans and every policy that executes the same action.
        """
        trajectories = self.trajectories(entry)
        key = (trajectories, action, duration_s)
        outcome = self._outcomes.get(key)
        if outcome is None:
            outcome = self._execute(trajectories, action, duration_s)
            self._outcomes[key] = outcome
        return FlowResult(
            outcome.bytes_delivered,
            outcome.recovery_delay_s,
            outcome.action,
            outcome.settled_mcs,
            outcome.link_died,
        )

    def _execute(
        self, trajectories: EntryTrajectories, action: Action, duration_s: float
    ) -> FlowResult:
        config = self.config
        entry = trajectories.entry
        elapsed = 0.0
        delivered = 0.0

        if action is Action.NA:
            delivered = self._steady_bytes(
                trajectories, "same", entry.initial_mcs, duration_s
            )
            return FlowResult(
                delivered, 0.0, action, entry.initial_mcs, trajectories.ack_missing
            )

        if action is Action.RA:
            ladder = trajectories.ladder_same
            elapsed += ladder.frames_spent * config.frame_time_s
            delivered += self._ladder_search_bytes(trajectories, "same")
            if ladder.found_mcs is not None:
                remaining = max(0.0, duration_s - elapsed)
                delivered += self._steady_bytes(
                    trajectories, "same", ladder.found_mcs, remaining
                )
                return FlowResult(delivered, elapsed, action, ladder.found_mcs)

        # BA first, or Algorithm 1's fallback after a failed RA: sweep
        # (zero goodput), then RA on the new best pair.
        elapsed += config.ba_overhead_s
        ladder = trajectories.ladder_best
        elapsed += ladder.frames_spent * config.frame_time_s
        delivered += self._ladder_search_bytes(trajectories, "best")
        if ladder.found_mcs is None:
            return FlowResult(delivered, min(elapsed, duration_s), action, None, True)
        remaining = max(0.0, duration_s - elapsed)
        delivered += self._steady_bytes(
            trajectories, "best", ladder.found_mcs, remaining
        )
        return FlowResult(delivered, elapsed, action, ladder.found_mcs)

    # -- oracle decisions from the memoized outcomes ------------------------

    def oracle_data_action(self, entry: DatasetEntry, duration_s: float) -> Action:
        """The bytes-maximising action over the shared outcome memo.

        NA is a candidate: when the impairment left the current MCS
        working, not adapting can be right (§7).  Ties prefer NA over RA
        over BA (cheaper mechanisms first); NA never masks a dead link.
        """
        na = self.execute(entry, Action.NA, duration_s)
        ra = self.execute(entry, Action.RA, duration_s)
        ba = self.execute(entry, Action.BA, duration_s)
        best_action, best = Action.NA, na
        for action, result in ((Action.RA, ra), (Action.BA, ba)):
            if result.bytes_delivered > best.bytes_delivered + 1e-9:
                best_action, best = action, result
        if best_action is Action.NA and best.link_died:
            return self._no_na_action(ra, ba)
        return best_action

    def oracle_delay_action(self, entry: DatasetEntry, duration_s: float) -> Action:
        """The delay-minimising action over the shared outcome memo.

        A working current MCS means zero recovery delay without adapting
        (NA); otherwise RA and BA compete, ties broken toward the higher
        byte count.
        """
        na = self.execute(entry, Action.NA, duration_s)
        if not na.link_died and na.bytes_delivered > 0.0:
            if self.observation(entry).current_mcs_working:
                return Action.NA
        ra = self.execute(entry, Action.RA, duration_s)
        ba = self.execute(entry, Action.BA, duration_s)
        if ra.recovery_delay_s < ba.recovery_delay_s:
            return Action.RA
        if ba.recovery_delay_s < ra.recovery_delay_s:
            return Action.BA
        return self._no_na_action(ra, ba)

    @staticmethod
    def _no_na_action(ra: FlowResult, ba: FlowResult) -> Action:
        return Action.RA if ra.bytes_delivered >= ba.bytes_delivered else Action.BA

    # -- flow simulation -----------------------------------------------------

    def simulate(
        self,
        policy: LinkAdaptationPolicy,
        entry: DatasetEntry,
        duration_s: float,
        recorder: TraceRecorder = NULL_RECORDER,
        metrics: MetricsRegistry = NULL_METRICS,
    ) -> FlowResult:
        """Simulate one flow that hits the entry's impairment at t = 0."""
        if duration_s <= 0:
            raise ValueError("flow duration must be positive")
        decision = self._decide_one(policy, entry, duration_s)
        return self.simulate_with_decision(
            policy, entry, decision, duration_s, recorder, metrics
        )

    def _decide_one(
        self, policy: LinkAdaptationPolicy, entry: DatasetEntry, duration_s: float
    ) -> PolicyDecision:
        """One policy decision: bind, decide, and on a policy error retry
        with the degraded (§7 missing-ACK) observation.

        Plain (non-subclassed) oracles take the memoized fast path over
        this simulator's outcomes.  Type checks are exact so an oracle
        subclass with different behaviour falls through to its own
        ``decide``.
        """
        bind = getattr(policy, "bind", None)
        if bind is not None:  # oracles are clairvoyant: hand them the entry
            bind(entry, duration_s)
        # An oracle constructed for a different config must decide at its
        # own config — the memoized outcomes are per-config.
        if type(policy) is OracleData and policy.config == self.config:
            return PolicyDecision(
                self.oracle_data_action(entry, duration_s), "clairvoyant"
            )
        if type(policy) is OracleDelay and policy.config == self.config:
            return PolicyDecision(
                self.oracle_delay_action(entry, duration_s), "clairvoyant"
            )
        # The error counter is process-wide, never the per-call registry,
        # which holds only the flow stream.
        return decide_or_degrade(
            policy, self.observation(entry), "sim.policy_decide_error"
        )

    def simulate_with_decision(
        self,
        policy: LinkAdaptationPolicy,
        entry: DatasetEntry,
        decision: PolicyDecision,
        duration_s: float,
        recorder: TraceRecorder = NULL_RECORDER,
        metrics: MetricsRegistry = NULL_METRICS,
    ) -> FlowResult:
        """The post-decision half of :meth:`simulate`.

        ``trace``, when recording, carries the repair ladder — which beam
        pair each RA round probed, the frames it spent, and where it
        settled.
        """
        if duration_s <= 0:
            raise ValueError("flow duration must be positive")
        observation = self.observation(entry)
        action = decision.action
        trace: Optional[FlowEvent] = None
        if recorder.enabled:
            trace = FlowEvent(
                policy=getattr(policy, "name", type(policy).__name__),
                decided_action=action.value,
                executed_action=action.value,
                ack_missing=observation.ack_missing,
                current_mcs=observation.current_mcs,
                current_mcs_working=observation.current_mcs_working,
                bytes_delivered=0.0,
                recovery_delay_s=0.0,
                duration_s=duration_s,
                decision_fallback=decision.fallback,
                decision_reason=decision.reason,
                features=None if observation.features is None
                else [float(v) for v in observation.features.to_array()],
                kind=entry.kind.value,
                room=entry.room,
                position=entry.position_label,
            )
        if action is Action.NA and not observation.current_mcs_working:
            # A policy that ignores a dead link would deliver nothing
            # forever; every real device falls back once the ACK timeout
            # fires.  Charge one frame of silence, then force the device's
            # default (RA).
            inner = self.execute(
                entry, Action.RA, max(duration_s - self.config.frame_time_s, 0.0)
            )
            result = FlowResult(
                inner.bytes_delivered,
                inner.recovery_delay_s + self.config.frame_time_s,
                Action.RA,
                inner.settled_mcs,
                inner.link_died,
            )
            if trace is not None:
                trace.forced_ra = True
                self._attach_repairs(trace, entry, Action.RA)
        else:
            result = self.execute(entry, action, duration_s)
            if trace is not None:
                self._attach_repairs(trace, entry, action)
        if trace is not None:
            trace.executed_action = result.action.value
            trace.bytes_delivered = result.bytes_delivered
            trace.recovery_delay_s = result.recovery_delay_s
            trace.settled_mcs = result.settled_mcs
            trace.link_died = result.link_died
            recorder.record(trace)
        if metrics.enabled:
            metrics.counter("sim.flows").inc()
            metrics.counter(f"sim.action.{result.action.value}").inc()
            metrics.histogram("sim.recovery_delay_s").observe(result.recovery_delay_s)
            metrics.histogram("sim.bytes_delivered").observe(result.bytes_delivered)
            if result.link_died:
                metrics.counter("sim.link_died").inc()
        return result

    def _attach_repairs(
        self, trace: FlowEvent, entry: DatasetEntry, executed: Action
    ) -> None:
        """Record the executed action's repair rounds on the event."""
        trajectories = self.trajectories(entry)

        def repair_step(pair: str) -> RepairStep:
            ladder = trajectories.ladder(pair)
            return RepairStep(
                pair=pair,
                start_mcs=entry.initial_mcs,
                frames_spent=ladder.frames_spent,
                found_mcs=ladder.found_mcs,
                bytes_during_search=self._ladder_search_bytes(trajectories, pair),
            )

        if executed is Action.RA:
            trace.repairs.append(repair_step("same"))
            if trajectories.ladder_same.found_mcs is None:
                trace.ba_invoked = True
                trace.repairs.append(repair_step("best"))
        elif executed is Action.BA:
            trace.ba_invoked = True
            trace.repairs.append(repair_step("best"))


def batch_decisions(
    policy: LinkAdaptationPolicy,
    simulator: BatchFlowSimulator,
    entries: list[DatasetEntry],
    duration_s: float,
) -> list[PolicyDecision]:
    """Every entry's decision for one policy, batching inference when safe.

    Dispatch, in order:

    * plain oracles — clairvoyant choices from the simulator's shared
      outcome memo (bound per entry, as in :meth:`BatchFlowSimulator.simulate`);
    * policies whose own class defines ``decide_batch`` — one batched call
      over the stacked observations (LiBRA's single forest predict).  The
      lookup goes through ``type(policy)``, never ``getattr`` on the
      instance, so a delegation wrapper (``FaultyPolicy.__getattr__``)
      cannot leak the wrapped policy's batch method around the injection
      layer;
    * everything else — the sequential bind/decide/degraded-retry path,
      one observation at a time in entry order, which keeps stateful fault
      plans on the same RNG draws as a per-flow loop.
    """
    decide_batch = getattr(type(policy), "decide_batch", None)
    if (
        type(policy) not in (OracleData, OracleDelay)
        and decide_batch is not None
        and getattr(policy, "bind", None) is None
    ):
        observations = [simulator.observation(entry) for entry in entries]
        try:
            decisions = decide_batch(policy, observations)
            if len(decisions) != len(entries):
                raise ValueError("decision count mismatch")
            return decisions
        except Exception:  # isolation boundary: fall back to per-entry decisions
            # Counted on the process-wide registry so a misbehaving batch
            # method is visible even though the run degrades gracefully.
            get_metrics().counter("sim.batch_decide_fallback").inc()
    return [simulator._decide_one(policy, entry, duration_s) for entry in entries]

