"""Heuristic policy tests."""

import pytest

from repro.core.ground_truth import Action
from repro.core.metrics import FeatureVector
from repro.core.policies import (
    BAFirstPolicy,
    LinkAdaptationPolicy,
    Observation,
    PolicyDecision,
    RAFirstPolicy,
    StaticPolicy,
)
from repro.env.geometry import Point
from repro.env.placement import RadioPose
from repro.env.rooms import make_lobby
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.obs.trace import InMemoryTraceRecorder
from repro.sim.batch import BatchFlowSimulator
from repro.sim.engine import SimulationConfig
from repro.sim.live import LiveSession
from repro.testbed.x60 import X60Link
from tests.conftest import make_entry


def obs(ack_missing=False, working=True, mcs=6, ba_overhead=5e-3) -> Observation:
    features = None if ack_missing else FeatureVector(3.0, -2.0, 0.5, 0.9, 0.8, 0.7, mcs)
    return Observation(
        features=features,
        ack_missing=ack_missing,
        current_mcs=mcs,
        current_mcs_working=working,
        ba_overhead_s=ba_overhead,
    )


class TestRAFirst:
    def test_na_while_working(self):
        assert RAFirstPolicy().decide(obs()).action is Action.NA

    def test_ra_on_broken_mcs(self):
        assert RAFirstPolicy().decide(obs(working=False)).action is Action.RA

    def test_ra_on_missing_ack(self):
        assert RAFirstPolicy().decide(obs(ack_missing=True)).action is Action.RA

    def test_never_answers_ba(self):
        for o in (obs(), obs(working=False), obs(ack_missing=True, working=False)):
            assert RAFirstPolicy().decide(o).action is not Action.BA


class TestBAFirst:
    def test_na_while_working(self):
        assert BAFirstPolicy().decide(obs()).action is Action.NA

    def test_ba_on_broken_mcs(self):
        assert BAFirstPolicy().decide(obs(working=False)).action is Action.BA

    def test_ba_on_missing_ack(self):
        assert BAFirstPolicy().decide(obs(ack_missing=True)).action is Action.BA


class TestStatic:
    def test_always_na(self):
        policy = StaticPolicy()
        for o in (obs(), obs(working=False), obs(ack_missing=True)):
            assert policy.decide(o).action is Action.NA


class TestPolicyProtocol:
    def test_decisions_carry_reasons(self):
        decision = RAFirstPolicy().decide(obs(working=False))
        assert decision.reason

    def test_reset_is_safe_default(self):
        RAFirstPolicy().reset()  # must not raise

    def test_names_are_paper_labels(self):
        assert RAFirstPolicy().name == "RA First"
        assert BAFirstPolicy().name == "BA First"


class RaisingPolicy(LinkAdaptationPolicy):
    """Raises on every observation that still carries feedback."""

    name = "raising"

    def decide(self, observation: Observation) -> PolicyDecision:
        if not observation.ack_missing:
            raise RuntimeError("model artifact corrupted")
        return PolicyDecision(Action.BA, "missing ACK: sweep")


def replay_decision(policy) -> tuple[bool, str]:
    """The fallback flag and reason of one replayed flow's decision."""
    recorder = InMemoryTraceRecorder()
    entry = make_entry([300, 450, 865], [300, 450, 865, 1300], 2)
    BatchFlowSimulator(SimulationConfig()).simulate(policy, entry, 0.1, recorder)
    [event] = recorder.events
    return event.decision_fallback, event.decision_reason


def live_decision(policy) -> tuple[bool, str]:
    """The fallback flag and reason of a live session's first decision."""
    recorder = InMemoryTraceRecorder()
    link = X60Link(make_lobby(), RadioPose(Point(2.0, 6.0), 0.0))
    session = LiveSession(link, policy, RadioPose(Point(9.0, 6.0), 180.0), seed=0)
    log = session.run(0.02, recorder=recorder)
    fallbacks = [e for e in recorder.events if e.kind == "fallback-decision"]
    return log.fallback_decisions > 0, fallbacks[0].detail


@pytest.mark.parametrize(
    "run_decision,counter",
    [(replay_decision, "sim.policy_decide_error"),
     (live_decision, "live.policy_decide_error")],
    ids=["replay", "live"],
)
def test_policy_error_retries_degraded(run_decision, counter):
    """A policy that raises is counted and asked again on the degraded
    (§7 missing-ACK) observation; its answer is a fallback decision."""
    registry = MetricsRegistry()
    with use_metrics(registry):
        fallback, reason = run_decision(RaisingPolicy())
    assert fallback
    assert reason == (
        "policy error (RuntimeError: model artifact corrupted); "
        "retried degraded: missing ACK: sweep"
    )
    assert registry.counter(counter).value >= 1
