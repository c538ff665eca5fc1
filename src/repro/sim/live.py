"""Closed-loop LiBRA: Algorithm 1 running frame-by-frame on the live
emulated testbed.

Where :mod:`repro.sim.engine` replays recorded traces (the paper's §8
methodology), this module runs the *whole* loop of Algorithm 1 against the
channel simulator: every aggregated frame is transmitted at the current
(beam pair, MCS), the Block ACK carries the Rx's PHY metrics back (or goes
missing), windows of metrics feed the classifier every two frames, and the
chosen mechanism executes with real sweeps and real probing frames.

The scenario is a scripted sequence of link events — Rx motion, blockers
appearing/clearing, interferers switching on — so tests can assert
behaviour around each event ("LiBRA re-sweeps once after the rotation and
then stays quiet").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.constants import (
    DEAD_LINK_CDR,
    DECISION_PERIOD_FRAMES,
    X60_NUM_MCS,
)
from repro.core.ground_truth import Action
from repro.core.observation import (
    FrameFeedback,
    MetricWindow,
    WindowSnapshot,
    feedback_rejection,
)
from repro.core.metrics import feature_deltas
from repro.core.policies import LinkAdaptationPolicy, Observation, decide_or_degrade
from repro.core.rate_adaptation import (
    cdr_ori_threshold,
    first_working_descending,
    probe_interval,
    repair_ladder,
)
from repro.env.placement import RadioPose
from repro.mac.sls import SweepError, SweepRetryPolicy, sweep_with_retry
from repro.obs.events import FaultEvent
from repro.obs.trace import NULL_RECORDER, TraceRecorder
from repro.phy.blockage import HumanBlocker
from repro.phy.error_model import is_working, phy_rate_mbps
from repro.phy.interference import Interferer
from repro.testbed.traces import METRIC_AGE_KEY
from repro.testbed.x60 import X60Link

FRAME_TIME_S = 2e-3
"""Aggregated-frame duration (FAT) of every live session."""

SWEEP_RETRY = SweepRetryPolicy()
"""Bounded retry-with-backoff applied when beam training fails."""


@dataclass(frozen=True)
class LinkEvent:
    """A change to the link environment at ``at_s``.

    Fields left as ``None`` keep their current value; ``clear_blockers``
    and ``clear_interferer`` explicitly remove the respective impairment.
    """

    at_s: float
    rx: Optional[RadioPose] = None
    blockers: Optional[tuple[HumanBlocker, ...]] = None
    interferer: Optional[Interferer] = None
    clear_blockers: bool = False
    clear_interferer: bool = False


@dataclass
class SessionLog:
    """Everything a test or example needs about one live session."""

    frame_times_s: list = field(default_factory=list)
    mcs: list = field(default_factory=list)
    beam_pairs: list = field(default_factory=list)
    actions: list = field(default_factory=list)  # (time_s, Action)
    bytes_delivered: float = 0.0
    duration_s: float = 0.0
    sweeps: int = 0
    ra_repairs: int = 0
    # Hardened feedback path bookkeeping.
    missing_acks: int = 0
    """Frames whose Block ACK genuinely never arrived (all codewords lost)."""
    rejected_feedback: int = 0
    """ACKs that arrived but failed metric sanitization (treated as missing)."""
    stale_rejected: int = 0
    """Metric samples dropped by the staleness window."""
    fallback_decisions: int = 0
    """Decisions the policy produced by degrading to the §7 missing-ACK rule."""
    sweep_failures: int = 0
    """Individual sweep attempts that failed (retries may still succeed)."""

    @property
    def throughput_mbps(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.bytes_delivered * 8.0 / 1e6 / self.duration_s

    def actions_between(self, start_s: float, end_s: float) -> list:
        return [a for t, a in self.actions if start_s <= t < end_s]

    def beam_pair_at(self, time_s: float) -> tuple[int, int]:
        for t, pair in zip(reversed(self.frame_times_s), reversed(self.beam_pairs)):
            if t <= time_s:
                return pair
        return self.beam_pairs[0]


class LiveSession:
    """One Tx driving a link with a pluggable decision policy.

    Args:
        link: The emulated testbed link (fixed Tx).
        policy: Any :class:`LinkAdaptationPolicy`; LiBRA for the real
            thing, the heuristics or StaticPolicy for baselines.
        initial_rx: The Rx pose at t = 0.
        ba_overhead_s: Wall-clock cost of one sweep (§8.1 grid).
        seed: Drives measurement noise and sweep noise.
        metric_staleness_s: Optional staleness window for ACK-borne
            metrics: feedback measured more than this many seconds ago is
            dropped instead of classified on.  ``None`` disables the check.
        sweep_min_valid_snr_db: Optional validity floor for a sweep's best
            measured SNR.  ``None`` (default) accepts any result — a fully
            blocked link legitimately sweeps below 0 dB and an immediate
            retry cannot help — while the chaos paths pass
            :data:`~repro.mac.sls.SWEEP_MIN_VALID_SNR_DB`.  A failed
            sweep (a :class:`~repro.mac.sls.SweepError`, or a best SNR
            under the floor) is retried per :data:`SWEEP_RETRY`.

    Every session sends frames of :data:`FRAME_TIME_S` and decides every
    :data:`~repro.constants.DECISION_PERIOD_FRAMES` frames.
    """

    def __init__(
        self,
        link: X60Link,
        policy: LinkAdaptationPolicy,
        initial_rx: RadioPose,
        ba_overhead_s: float = 5e-3,
        seed: int = 0,
        metric_staleness_s: Optional[float] = None,
        sweep_min_valid_snr_db: Optional[float] = None,
    ):
        self.link = link
        self.policy = policy
        self.rx = initial_rx
        self.ba_overhead_s = ba_overhead_s
        self.rng = np.random.default_rng(seed)
        self.blockers: tuple[HumanBlocker, ...] = ()
        self.interferer: Optional[Interferer] = None
        self.sweep_min_valid_snr_db = sweep_min_valid_snr_db
        self._state = link.channel_state(initial_rx, rng=self.rng)
        try:
            tx_beam, rx_beam, _ = link.sector_sweep(self._state, initial_rx, self.rng)
        except SweepError:
            # The very first sweep failed (possible only on a faulty link):
            # start on the boresight pair and let the run loop's retrying
            # BA recover once frames start missing.
            tx_beam, rx_beam = 0, 0
        self.tx_beam, self.rx_beam = tx_beam, rx_beam
        self.mcs = self._best_live_mcs()
        self.window = MetricWindow(DECISION_PERIOD_FRAMES, max_age_s=metric_staleness_s)
        self.previous_snapshot: Optional[WindowSnapshot] = None
        # §7 upward probing state.
        self._since_probe = 0
        self._failed_probes = 0

    # -- channel plumbing ----------------------------------------------------

    def _retrace(self) -> None:
        self._state = self.link.channel_state(
            self.rx, self.blockers, self.interferer, self.rng,
            operating_pair=(self.tx_beam, self.rx_beam),
        )

    def apply_event(self, event: LinkEvent) -> None:
        if event.rx is not None:
            self.rx = event.rx
        if event.clear_blockers:
            self.blockers = ()
        elif event.blockers is not None:
            self.blockers = tuple(event.blockers)
        if event.clear_interferer:
            self.interferer = None
        elif event.interferer is not None:
            self.interferer = event.interferer
        self._retrace()

    # -- per-frame radio ------------------------------------------------------

    def _measure(self):
        return self.link.measure(
            self._state, self.rx, self.tx_beam, self.rx_beam, self.rng
        )

    def _frame_outcome(self, now_s: float = 0.0) -> tuple[float, Optional[FrameFeedback]]:
        """Send one AMPDU: returns (bytes delivered, feedback or None).

        ``now_s`` stamps the feedback with its *measurement* time: a fresh
        report was measured now, a replayed one (``metric_age_s`` in the
        measurement's ``extra``) carries its original, older timestamp so
        the staleness window can catch it.
        """
        measurement = self._measure()
        cdr = float(measurement.cdr[self.mcs])
        payload = phy_rate_mbps(self.mcs) * 1e6 / 8.0 * FRAME_TIME_S * cdr
        if cdr < DEAD_LINK_CDR:
            return payload, None  # whole frame lost: no Block ACK
        age_s = float(measurement.extra.get(METRIC_AGE_KEY, 0.0))
        feedback = FrameFeedback(
            snr_db=measurement.snr_db,
            noise_dbm=measurement.noise_dbm,
            tof_ns=measurement.tof_ns,
            pdp=measurement.pdp,
            cdr=cdr,
            timestamp_s=now_s - age_s,
        )
        return payload, feedback

    def _best_live_mcs(self) -> int:
        measurement = self._measure()
        best = measurement.best_mcs()
        return best if best is not None else 0

    def _current_mcs_working(self) -> bool:
        measurement = self._measure()
        return is_working(
            measurement.cdr[self.mcs], measurement.throughput_mbps[self.mcs]
        )

    # -- adaptation mechanisms -------------------------------------------------

    def _run_ba(
        self,
        log: SessionLog,
        recorder: TraceRecorder = NULL_RECORDER,
        clock: float = 0.0,
    ) -> float:
        """Beam training with bounded retry: returns its wall-clock cost.

        Each attempt is one full sweep (charged ``ba_overhead_s``); a
        :class:`SweepError` or a best SNR under the configured validity
        floor fails the attempt and backs off per :data:`SWEEP_RETRY`.  When
        every attempt fails the previous beam pair survives — a stale pair
        beats acting on a sweep that measured nothing.
        """

        def attempt() -> tuple[int, int]:
            tx_beam, rx_beam, snr = self.link.sector_sweep(
                self._state, self.rx, self.rng
            )
            floor = self.sweep_min_valid_snr_db
            if floor is not None and snr < floor:
                raise SweepError(
                    f"sweep best SNR {snr:.1f} dB under validity floor {floor:g} dB"
                )
            return tx_beam, rx_beam

        def on_failure(index: int, reason: str) -> None:
            log.sweep_failures += 1
            if recorder.enabled:
                recorder.record(FaultEvent(
                    origin="sweep", kind="sweep-failed", time_s=clock,
                    detail=f"attempt {index + 1}: {reason}",
                ))

        pair, attempts, elapsed = sweep_with_retry(
            attempt, SWEEP_RETRY, attempt_cost_s=self.ba_overhead_s,
            on_failure=on_failure,
        )
        log.sweeps += attempts
        if pair is not None:
            self.tx_beam, self.rx_beam = pair
        if recorder.enabled and attempts > 1:
            recorder.record(FaultEvent(
                origin="sweep", kind="sweep-retry-outcome", time_s=clock,
                detail=f"{attempts} attempts", recovered=pair is not None,
            ))
        self._retrace()  # interference calibration follows the new pair
        self.window.reset()
        self.previous_snapshot = None
        return elapsed

    def _run_ra(
        self,
        log: SessionLog,
        start_mcs: int,
        recorder: TraceRecorder = NULL_RECORDER,
        clock: float = 0.0,
    ) -> tuple[float, float]:
        """Algorithm 1's RA(): descend from ``start_mcs`` probing live
        frames; returns (bytes delivered during the search, time spent).

        The scan is the replay's :func:`repair_ladder` on one fresh
        measurement.  When it finds no working MCS, BA runs and then the
        §5.2 first-working scan (:func:`first_working_descending`) on the
        new pair, stopping at the first working MCS.  The trace-based
        replay differs here: its fallback runs a full :func:`repair_ladder`
        on the best pair.
        """
        log.ra_repairs += 1
        ladder = repair_ladder(self._measure(), start_mcs)
        delivered = ladder.search_bytes(FRAME_TIME_S)
        elapsed = 0.0
        for _ in range(ladder.frames_spent):
            elapsed += FRAME_TIME_S
        best = ladder.found_mcs
        if best is None:
            elapsed += self._run_ba(log, recorder, clock)
            measurement = self._measure()
            best, frames = first_working_descending(measurement, start_mcs)
            for mcs in range(start_mcs, start_mcs - frames, -1):
                elapsed += FRAME_TIME_S
                tput = float(measurement.throughput_mbps[mcs])
                delivered += tput * 1e6 / 8.0 * FRAME_TIME_S
        self.mcs = best if best is not None else 0
        self.window.reset()
        self.previous_snapshot = None
        return delivered, elapsed

    def _maybe_probe_up(self, feedback: FrameFeedback) -> None:
        """§7 upward probing with the adaptive interval."""
        self._since_probe += 1
        if (
            self.mcs >= X60_NUM_MCS - 1
            or self._since_probe < probe_interval(self._failed_probes)
        ):
            return
        if feedback.cdr <= cdr_ori_threshold(self.mcs):
            return
        self._since_probe = 0
        measurement = self._measure()
        higher = self.mcs + 1
        if measurement.throughput_mbps[higher] > measurement.throughput_mbps[self.mcs]:
            self.mcs = higher
            self._failed_probes = 0
        else:
            self._failed_probes += 1

    def _execute(
        self, action: Action, log: SessionLog, recorder: TraceRecorder, clock: float
    ) -> float:
        """Log and run one RA or BA at ``clock``; returns the clock after it.

        BA sweeps and then repairs from the current MCS (Algorithm 1 always
        follows BA with RA); RA repairs from one MCS lower.
        """
        log.actions.append((clock, action))
        if action is Action.BA:
            clock += self._run_ba(log, recorder, clock)
            delivered, spent = self._run_ra(log, self.mcs, recorder, clock)
        else:
            delivered, spent = self._run_ra(log, max(self.mcs - 1, 0), recorder, clock)
        log.bytes_delivered += delivered
        return clock + spent

    # -- the main loop -----------------------------------------------------------

    def run(
        self,
        duration_s: float,
        events: Sequence[LinkEvent] = (),
        recorder: TraceRecorder = NULL_RECORDER,
    ) -> SessionLog:
        """Run the session for ``duration_s`` with the scripted events.

        With a ``recorder``, the session emits ``fault`` trace events —
        natural missing ACKs, sanitizer rejections, stale-metric drops,
        fallback decisions, failed sweep attempts, and each recovery
        outcome — the raw material for ``repro inspect``'s
        injected-vs-natural failure breakdown.
        """
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        log = SessionLog(duration_s=duration_s)
        pending = sorted(events, key=lambda e: e.at_s)
        clock = 0.0
        self.policy.reset()
        while clock < duration_s:
            while pending and pending[0].at_s <= clock:
                self.apply_event(pending.pop(0))
            payload, feedback = self._frame_outcome(clock)
            log.bytes_delivered += payload
            log.frame_times_s.append(clock)
            log.mcs.append(self.mcs)
            log.beam_pairs.append((self.tx_beam, self.rx_beam))
            clock += FRAME_TIME_S

            fault_origin = ""
            if feedback is None:
                fault_origin = "natural"
                log.missing_acks += 1
                if recorder.enabled:
                    recorder.record(FaultEvent(
                        origin="natural", kind="ack-missing", time_s=clock,
                    ))
            else:
                rejection = feedback_rejection(feedback)
                if rejection is not None:
                    fault_origin = "sanitizer"
                    log.rejected_feedback += 1
                    if recorder.enabled:
                        recorder.record(FaultEvent(
                            origin="sanitizer", kind="metrics-rejected",
                            time_s=clock, detail=rejection,
                        ))
                    feedback = None  # untrusted metrics == no metrics

            if feedback is None:
                # Missing (or untrusted) Block ACK: Algorithm 1's rule.
                decision = self.policy.decide(Observation(
                    features=None,
                    ack_missing=True,
                    current_mcs=self.mcs,
                    current_mcs_working=False,
                    ba_overhead_s=self.ba_overhead_s,
                ))
                if decision.fallback:
                    log.fallback_decisions += 1
                action = decision.action
                if action is Action.NA:
                    action = Action.RA  # ACK timeout forces the COTS default
                clock = self._execute(action, log, recorder, clock)
                if recorder.enabled:
                    recorder.record(FaultEvent(
                        origin=fault_origin, kind="recovery", time_s=clock,
                        detail=f"{action.value} settled on MCS {self.mcs}",
                        recovered=self.mcs > 0,
                    ))
                continue

            self._maybe_probe_up(feedback)
            stale_before = self.window.stale_rejected
            snapshot = self.window.push(feedback, now_s=clock)
            if self.window.stale_rejected > stale_before:
                log.stale_rejected = self.window.stale_rejected
                if recorder.enabled:
                    recorder.record(FaultEvent(
                        origin="sanitizer", kind="stale-metrics", time_s=clock,
                        detail=(
                            f"{self.window.stale_rejected - stale_before}"
                            " sample(s) expired"
                        ),
                    ))
            if snapshot is None:
                continue
            if self.previous_snapshot is None:
                self.previous_snapshot = snapshot
                continue
            features = feature_deltas(
                self.previous_snapshot, snapshot, snapshot.cdr, self.mcs
            )
            self.previous_snapshot = snapshot
            observation = Observation(
                features=features,
                ack_missing=False,
                current_mcs=self.mcs,
                current_mcs_working=self._current_mcs_working(),
                ba_overhead_s=self.ba_overhead_s,
            )
            decision = decide_or_degrade(
                self.policy, observation, "live.policy_decide_error"
            )
            if decision.fallback:
                log.fallback_decisions += 1
                if recorder.enabled:
                    recorder.record(FaultEvent(
                        origin="policy", kind="fallback-decision",
                        time_s=clock, detail=decision.reason,
                    ))
            if decision.action is Action.NA:
                continue
            clock = self._execute(decision.action, log, recorder, clock)
            if decision.fallback and recorder.enabled:
                recorder.record(FaultEvent(
                    origin="policy", kind="recovery", time_s=clock,
                    detail=f"{decision.action.value} settled on MCS {self.mcs}",
                    recovered=self.mcs > 0,
                ))
        log.stale_rejected = self.window.stale_rejected
        return log
