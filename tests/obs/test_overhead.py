"""No-op instrumentation must not tax the simulator hot path.

The acceptance bar: with tracing disabled (the default arguments),
``simulate_flow`` pays two attribute checks for its instrumentation and
never builds a trace event.  The benchmark compares the disabled path
against the actively-recording path — the disabled path must never be
slower (modulo timer noise), which bounds its overhead by the cost of
real recording.
"""

import time

from repro.core.policies import RAFirstPolicy
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.trace import InMemoryTraceRecorder, NULL_RECORDER
from repro.sim.engine import SimulationConfig, simulate_flow
from tests.conftest import make_entry

FLOWS_PER_RUN = 150
REPEATS = 7
FLOW_DURATION_S = 0.05  # short steady state → overhead would be visible


def _best_run_seconds(recorder_factory, metrics_factory) -> float:
    entry = make_entry([300, 450, 800, 0, 0], [300, 450, 800, 1200], 4)
    config = SimulationConfig()
    policy = RAFirstPolicy()
    best = float("inf")
    for _ in range(REPEATS):
        recorder = recorder_factory()
        metrics = metrics_factory()
        start = time.perf_counter()
        for _ in range(FLOWS_PER_RUN):
            simulate_flow(policy, entry, config, FLOW_DURATION_S, recorder, metrics)
        best = min(best, time.perf_counter() - start)
    return best


class TestNoopOverhead:
    def test_disabled_path_not_slower_than_recording(self):
        noop = _best_run_seconds(lambda: NULL_RECORDER, lambda: NULL_METRICS)
        recording = _best_run_seconds(InMemoryTraceRecorder, MetricsRegistry)
        # Recording does strictly more work per flow (event construction,
        # list append, three histogram observations); the no-op path must
        # sit at or below it, give or take timer noise.
        assert noop <= recording * 1.25, (noop, recording)

    def test_default_arguments_are_the_shared_no_ops(self):
        import inspect

        signature = inspect.signature(simulate_flow)
        assert signature.parameters["recorder"].default is NULL_RECORDER
        assert signature.parameters["metrics"].default is NULL_METRICS

    def test_no_event_is_built_when_disabled(self, monkeypatch):
        entry = make_entry([300, 450, 800], [300, 450, 800], 2)

        def explode(*args, **kwargs):  # pragma: no cover - fails the test
            raise AssertionError("FlowEvent built on the disabled path")

        import repro.sim.batch as batch

        # Patched where the event is built: the flow engine.
        monkeypatch.setattr(batch, "FlowEvent", explode)
        result = simulate_flow(RAFirstPolicy(), entry, SimulationConfig(), 0.1)
        assert result.bytes_delivered >= 0.0
