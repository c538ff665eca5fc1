"""Trace events and recorders: serialization round-trips, JSONL I/O."""

import json

import pytest

from repro.obs.events import (
    FlowEvent,
    RepairStep,
    SessionEvent,
    SpanEvent,
    TRACE_SCHEMA_VERSION,
    event_from_dict,
)
from repro.obs.trace import (
    InMemoryTraceRecorder,
    JsonlTraceRecorder,
    NULL_RECORDER,
    read_trace,
)


def make_flow_event(**overrides) -> FlowEvent:
    base = dict(
        policy="LiBRA",
        decided_action="RA",
        executed_action="RA",
        ack_missing=False,
        current_mcs=5,
        current_mcs_working=False,
        bytes_delivered=1.5e7,
        recovery_delay_s=0.008,
        duration_s=1.0,
        settled_mcs=3,
        decision_reason="forest",
        features=[1.0, 2.0, 0.0, 0.9, 0.8, 0.4, 5.0],
        repairs=[
            RepairStep("same", 5, 3, None, 1000.0),
            RepairStep("best", 5, 2, 3, 2000.0),
        ],
        ba_invoked=True,
        kind="blockage",
        room="lobby",
        position="p1",
    )
    base.update(overrides)
    return FlowEvent(**base)


class TestEventRoundTrips:
    def test_flow_event_json_round_trip(self):
        event = make_flow_event()
        payload = json.loads(json.dumps(event.to_dict()))
        assert payload["type"] == "flow"
        assert payload["v"] == TRACE_SCHEMA_VERSION
        assert event_from_dict(payload) == event

    def test_span_and_session_round_trip(self):
        for event in (SpanEvent("ml.forest.fit", 1.25, 3),
                      SessionEvent("sector-change", 2.5, 7, 4)):
            payload = json.loads(json.dumps(event.to_dict()))
            assert event_from_dict(payload) == event

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="unknown trace event type"):
            event_from_dict({"type": "mystery"})


class TestRecorders:
    def test_null_recorder_is_disabled(self):
        assert NULL_RECORDER.enabled is False
        NULL_RECORDER.record(make_flow_event())  # must not raise
        NULL_RECORDER.close()

    def test_in_memory_collects(self):
        recorder = InMemoryTraceRecorder()
        event = make_flow_event()
        recorder.record(event)
        assert recorder.events == [event]

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        events = [make_flow_event(), SpanEvent("sweep.run_point", 0.5)]
        with JsonlTraceRecorder(path) as recorder:
            for event in events:
                recorder.record(event)
        assert recorder.written == 2
        parsed = [event_from_dict(record) for record in read_trace(path)]
        assert parsed == events

    def test_jsonl_lazy_open(self, tmp_path):
        path = tmp_path / "never.jsonl"
        JsonlTraceRecorder(path).close()
        assert not path.exists()


class TestReadTrace:
    def test_malformed_line_reports_lineno(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "flow"}\nnot json\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            list(read_trace(path))

    def test_untyped_line_rejected(self, tmp_path):
        path = tmp_path / "untyped.jsonl"
        path.write_text('{"no_type": 1}\n')
        with pytest.raises(ValueError, match="not a typed event"):
            list(read_trace(path))

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        path.write_text('{"type": "span", "name": "a", "seconds": 1.0}\n\n')
        assert len(list(read_trace(path))) == 1


class TestEngineIntegration:
    """simulate_flow fills the trace exactly as the engine executed."""

    @pytest.fixture
    def tools(self):
        from tests.conftest import make_entry
        from repro.core.policies import BAFirstPolicy, RAFirstPolicy
        from repro.sim.engine import SimulationConfig, simulate_flow
        return make_entry, RAFirstPolicy, BAFirstPolicy, SimulationConfig, simulate_flow

    def test_one_event_per_flow_with_repair_ladder(self, tools):
        make_entry, RAFirstPolicy, BAFirstPolicy, SimulationConfig, simulate_flow = tools
        entry = make_entry([300, 450, 800, 0, 0], [300, 450, 800, 1200], 4)
        recorder = InMemoryTraceRecorder()
        config = SimulationConfig()
        ra = simulate_flow(RAFirstPolicy(), entry, config, 1.0, recorder)
        ba = simulate_flow(BAFirstPolicy(), entry, config, 1.0, recorder)
        assert len(recorder.events) == 2
        ra_event, ba_event = recorder.events
        assert ra_event.executed_action == "RA"
        assert [step.pair for step in ra_event.repairs] == ["same"]
        assert ra_event.bytes_delivered == ra.bytes_delivered
        assert ra_event.recovery_delay_s == ra.recovery_delay_s
        assert ba_event.ba_invoked
        assert [step.pair for step in ba_event.repairs] == ["best"]
        assert ba_event.settled_mcs == ba.settled_mcs

    def test_forced_ra_flag_on_dead_link_na(self, tools):
        make_entry, *_, SimulationConfig, simulate_flow = tools
        from repro.core.ground_truth import Action
        from repro.core.policies import LinkAdaptationPolicy, PolicyDecision

        class AlwaysNA(LinkAdaptationPolicy):
            name = "Always-NA"

            def decide(self, observation):
                return PolicyDecision(Action.NA, "stubborn")

        entry = make_entry([300, 450, 0, 0, 0, 0], [300, 450, 800], 5)
        recorder = InMemoryTraceRecorder()
        result = simulate_flow(AlwaysNA(), entry, SimulationConfig(), 1.0, recorder)
        event = recorder.events[0]
        assert result.action is Action.RA
        assert event.decided_action == "NA"
        assert event.executed_action == "RA"
        assert event.forced_ra
