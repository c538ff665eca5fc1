"""Satellite coverage for the §7 missing-ACK rule boundary.

The rule pivots on ``MISSING_ACK_MCS_THRESHOLD`` (6): below it BA always
wins (the dataset's 92 % statistic); at or above it the BA overhead breaks
the tie.  These tests pin the exact boundary — MCS 5 vs MCS 6 — through
both execution paths: the trace-driven engine and the closed-loop live
session.
"""

import pytest

from repro.constants import BA_OVERHEAD_THRESHOLD_S, MISSING_ACK_MCS_THRESHOLD
from repro.core.ground_truth import Action
from repro.core.libra import LiBRA, ThresholdClassifier
from repro.env.geometry import Point
from repro.env.placement import RadioPose
from repro.env.rooms import make_lobby
from repro.faults import AckLoss, FaultPlan, FaultyLink
from repro.sim.batch import BatchFlowSimulator
from repro.sim.engine import SimulationConfig, simulate_flow
from repro.sim.live import LiveSession
from repro.testbed.x60 import X60Link
from tests.conftest import make_entry

CHEAP = BA_OVERHEAD_THRESHOLD_S / 2
EXPENSIVE = BA_OVERHEAD_THRESHOLD_S * 25


def observation_at(entry, config):
    """What the transmitter sees at the impairment under ``config``."""
    return BatchFlowSimulator(config).observation(entry)


def dead_link_entry(initial_mcs: int):
    """Same-pair traces deliver nothing → the Block ACK goes missing."""
    return make_entry([0.0], [300, 450, 865, 1300], initial_mcs)


class TestEngineBoundary:
    def test_threshold_is_the_papers(self):
        assert MISSING_ACK_MCS_THRESHOLD == 6

    @pytest.mark.parametrize("ba_overhead_s", [CHEAP, EXPENSIVE])
    def test_below_threshold_always_ba(self, ba_overhead_s):
        entry = dead_link_entry(MISSING_ACK_MCS_THRESHOLD - 1)
        config = SimulationConfig(ba_overhead_s=ba_overhead_s)
        observation = observation_at(entry, config)
        assert observation.ack_missing
        decision = LiBRA(ThresholdClassifier()).decide(observation)
        assert decision.action is Action.BA

    def test_at_threshold_overhead_breaks_the_tie(self):
        entry = dead_link_entry(MISSING_ACK_MCS_THRESHOLD)
        policy = LiBRA(ThresholdClassifier())
        cheap = policy.decide(
            observation_at(entry, SimulationConfig(ba_overhead_s=CHEAP))
        )
        expensive = policy.decide(
            observation_at(entry, SimulationConfig(ba_overhead_s=EXPENSIVE))
        )
        assert cheap.action is Action.BA
        assert expensive.action is Action.RA

    def test_exact_overhead_threshold_counts_as_expensive(self):
        entry = dead_link_entry(MISSING_ACK_MCS_THRESHOLD)
        config = SimulationConfig(ba_overhead_s=BA_OVERHEAD_THRESHOLD_S)
        decision = LiBRA(ThresholdClassifier()).decide(
            observation_at(entry, config)
        )
        assert decision.action is Action.RA  # strict < : the boundary itself is RA

    @pytest.mark.parametrize(
        "initial_mcs, ba_overhead_s, expected",
        [
            (MISSING_ACK_MCS_THRESHOLD - 1, EXPENSIVE, Action.BA),
            (MISSING_ACK_MCS_THRESHOLD, EXPENSIVE, Action.RA),
            (MISSING_ACK_MCS_THRESHOLD, CHEAP, Action.BA),
        ],
    )
    def test_flow_executes_the_rule(self, initial_mcs, ba_overhead_s, expected):
        """End to end through simulate_flow: the executed action matches."""
        entry = dead_link_entry(initial_mcs)
        result = simulate_flow(
            LiBRA(ThresholdClassifier()),
            entry,
            SimulationConfig(ba_overhead_s=ba_overhead_s),
            duration_s=0.2,
        )
        assert result.action is expected
        assert result.settled_mcs is not None  # the best pair still works


def lossy_session(initial_mcs: int, ba_overhead_s: float) -> LiveSession:
    """A live session whose every Block ACK is injected away."""
    plan = FaultPlan(ack_loss=AckLoss(probability=1.0, burst_frames=1))
    room = make_lobby()
    link = FaultyLink(X60Link(room, RadioPose(Point(2.0, 6.0), 0.0)), plan)
    session = LiveSession(
        link,
        LiBRA(ThresholdClassifier()),
        RadioPose(Point(9.0, 6.0), 180.0),
        ba_overhead_s=ba_overhead_s,
        seed=0,
    )
    session.mcs = initial_mcs  # pin the rate the first decision sees
    return session


class TestLiveBoundary:
    @pytest.mark.parametrize("ba_overhead_s", [CHEAP, EXPENSIVE])
    def test_below_threshold_first_action_is_ba(self, ba_overhead_s):
        session = lossy_session(MISSING_ACK_MCS_THRESHOLD - 1, ba_overhead_s)
        log = session.run(0.1)
        assert log.missing_acks > 0
        assert log.actions[0][1] is Action.BA

    def test_at_threshold_expensive_sweep_first_action_is_ra(self):
        session = lossy_session(MISSING_ACK_MCS_THRESHOLD, EXPENSIVE)
        log = session.run(0.3)
        assert log.actions[0][1] is Action.RA

    def test_at_threshold_cheap_sweep_first_action_is_ba(self):
        session = lossy_session(MISSING_ACK_MCS_THRESHOLD, CHEAP)
        log = session.run(0.1)
        assert log.actions[0][1] is Action.BA
