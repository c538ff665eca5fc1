"""Golden replay tests: the byte-identity contract of the §8 flow engine.

``replay_goldens.json`` (next to this file) pins what the replay fixtures
below produced at the commit recorded in it: every ``FlowResult`` field
as a value, and the ``FlowEvent.to_dict()`` lists and metric snapshots
(wall-clock fields dropped) as SHA-256 digests.  Every replay entry point
— ``simulate_flow``, the batched ``batch_decisions`` +
``simulate_with_decision`` composition that ``EvaluationGrid.run_point``
and ``repro evaluate`` use, the oracles, ``EvaluationGrid.run``/``run_point``,
``simulate_timeline`` and ``profile_from_timeline`` — must reproduce them
bit for bit.

The goldens change only with an intended change of replay behaviour.
Regenerate them with::

    PYTHONPATH=src python -m tests.sim.test_batch_parity --write COMMIT
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.ground_truth import Action
from repro.core.libra import LiBRA, ThresholdClassifier
from repro.core.policies import BAFirstPolicy, RAFirstPolicy, StaticPolicy
from repro.dataset.entry import Dataset
from repro.faults import FaultPlan, FaultyPolicy
from repro.ml.forest import RandomForestClassifier
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import InMemoryTraceRecorder
from repro.sim.batch import BatchFlowSimulator, batch_decisions
from repro.sim.engine import SimulationConfig, simulate_flow, simulate_timeline
from repro.sim.oracle import OracleData, OracleDelay
from repro.sim.report import grid_report
from repro.sim.sweep import EvaluationGrid, OperatingPoint
from tests.conftest import make_entry

GOLDENS_PATH = Path(__file__).with_name("replay_goldens.json")

CFG = SimulationConfig(ba_overhead_s=5e-3, frame_time_s=2e-3)
SLOW_CFG = SimulationConfig(ba_overhead_s=250e-3, frame_time_s=10e-3)
CONFIGS = {"cheap": CFG, "slow": SLOW_CFG}
DURATIONS_S = (0.2, 0.313)
ORACLE_DURATION_S = 0.25
TIMELINE_SEED = 11
TIMELINE_COUNT = 3


def parity_entries() -> list:
    """Entries spanning the edge cases: working links, dead current MCS
    (missing ACK), failed same-pair repairs, and a fully dead link."""
    variants = [
        ([300, 450, 865, 0, 0], [300, 450, 865, 1300], 4, Action.BA),
        ([300, 450, 0, 0], [300, 450, 865], 3, Action.BA),
        ([300, 450, 865, 1300], [300, 450, 865, 1300], 3, Action.RA),
        ([300, 0, 0], [300, 450], 2, Action.BA),
        ([300, 450, 865], [300, 450, 865], 2, Action.RA),
        ([], [300, 450], 4, Action.BA),   # same-pair repair fails outright
        ([], [], 4, Action.BA),           # dead everywhere: link death
    ]
    return [
        make_entry(tput_same, tput_best, mcs, label)
        for tput_same, tput_best, mcs, label in variants
    ]


def tiny_forest() -> RandomForestClassifier:
    dataset = Dataset(parity_entries(), "tiny")
    model = RandomForestClassifier(n_estimators=4, max_depth=4, random_state=0)
    model.fit(dataset.feature_matrix(), dataset.labels())
    return model


def policy_factories():
    """(name, factory) pairs — factories so each run gets fresh state."""
    forest = tiny_forest()
    return [
        ("ra_first", RAFirstPolicy),
        ("ba_first", BAFirstPolicy),
        ("static", StaticPolicy),
        ("libra_threshold", lambda: LiBRA(ThresholdClassifier())),
        ("libra_forest", lambda: LiBRA(forest)),
        ("faulty", lambda: FaultyPolicy(RAFirstPolicy(), FaultPlan.full(seed=5))),
    ]


# -- records ---------------------------------------------------------------------


def digest(value) -> str:
    """SHA-256 of ``value``'s canonical JSON (floats in shortest repr)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def metrics_snapshot(metrics: MetricsRegistry) -> dict:
    """``metrics.snapshot()`` without wall-clock fields: span histograms
    keep only their counts and ``*_wall_s`` gauges are dropped."""
    snapshot = metrics.snapshot()
    for name in metrics.spans():
        snapshot["histograms"][name] = {"count": snapshot["histograms"][name]["count"]}
    snapshot["gauges"] = {
        name: value for name, value in snapshot["gauges"].items()
        if not name.endswith("_wall_s")
    }
    return snapshot


def flow_record(results, recorder, snapshot: dict) -> dict:
    return {
        "results": [
            [r.bytes_delivered, r.recovery_delay_s, r.action.value,
             r.settled_mcs, r.link_died]
            for r in results
        ],
        "events": len(recorder.events),
        "events_sha256": digest([e.to_dict() for e in recorder.events]),
        "metrics_sha256": digest(snapshot),
    }


def without_cache_counters(snapshot: dict) -> dict:
    """Drop the ``sim.traj_cache.*`` counters of a simulator built with the
    caller's registry; they are not part of the flow stream."""
    snapshot["counters"] = {
        name: value for name, value in snapshot["counters"].items()
        if not name.startswith("sim.traj_cache")
    }
    return snapshot


def run_flows(make_policy, entries, config, duration_s) -> dict:
    """One ``simulate_flow`` per entry, one policy instance throughout."""
    policy = make_policy()
    recorder, metrics = InMemoryTraceRecorder(), MetricsRegistry()
    results = [
        simulate_flow(policy, entry, config, duration_s, recorder, metrics)
        for entry in entries
    ]
    return flow_record(results, recorder, metrics_snapshot(metrics))


def run_batch(make_policy, entries, config, duration_s, simulator=None) -> dict:
    """All entries' decisions in one ``batch_decisions`` call, then one
    ``simulate_with_decision`` per entry: the grid's and the CLI's replay."""
    policy = make_policy()
    recorder, metrics = InMemoryTraceRecorder(), MetricsRegistry()
    if simulator is None:
        simulator = BatchFlowSimulator(config, metrics=metrics)
    decisions = batch_decisions(policy, simulator, entries, duration_s)
    results = [
        simulator.simulate_with_decision(
            policy, entry, decision, duration_s, recorder, metrics
        )
        for entry, decision in zip(entries, decisions)
    ]
    return flow_record(
        results, recorder, without_cache_counters(metrics_snapshot(metrics))
    )


def tiny_grid() -> EvaluationGrid:
    dataset = Dataset(parity_entries(), "tiny")
    return EvaluationGrid(dataset, dataset, n_estimators=4, max_depth=4)


GRID_POINTS = [
    OperatingPoint(5e-3, 2e-3, flow_duration_s=0.2),
    OperatingPoint(250e-3, 2e-3, flow_duration_s=0.2),
]


def grid_run_record(results) -> dict:
    return {
        "points": [
            {
                name: {
                    "byte_gaps_mb": [float(v) for v in result.byte_gaps_mb[name]],
                    "delay_gaps_ms": [float(v) for v in result.delay_gaps_ms[name]],
                }
                for name in result.byte_gaps_mb
            }
            for result in results
        ],
        "report_sha256": digest(grid_report(results)),
    }


def grid_run_point_record() -> dict:
    recorder, metrics = InMemoryTraceRecorder(), MetricsRegistry()
    grid = tiny_grid()
    grid.metrics = metrics
    grid.run_point(GRID_POINTS[0], recorder)
    return {
        "events": len(recorder.events),
        "events_sha256": digest([e.to_dict() for e in recorder.events]),
        "metrics_sha256": digest(metrics_snapshot(metrics)),
    }


def mixed_timelines(dataset) -> list:
    from repro.sim.timeline import ScenarioType, TimelineGenerator

    generator = TimelineGenerator(dataset, seed=TIMELINE_SEED)
    return generator.batch(ScenarioType.MIXED, TIMELINE_COUNT)


def timeline_record(make_policy, timelines, simulator=None) -> dict:
    recorder, metrics = InMemoryTraceRecorder(), MetricsRegistry()
    totals = [
        list(simulate_timeline(
            make_policy(), timeline, CFG, recorder, metrics, simulator=simulator
        ))
        for timeline in timelines
    ]
    return {
        "totals": totals,
        "events": len(recorder.events),
        "events_sha256": digest([e.to_dict() for e in recorder.events]),
        "metrics_sha256": digest(metrics_snapshot(metrics)),
    }


def vr_record(timelines, simulator=None) -> list:
    from repro.sim.vr import profile_from_timeline

    profiles = [
        profile_from_timeline(RAFirstPolicy(), timeline, CFG, simulator=simulator)
        for timeline in timelines
    ]
    return [
        {"times_s": list(p.times_s), "rates_mbps": list(p.rates_mbps)}
        for p in profiles
    ]


def flow_key(name: str, config_id: str, duration_s: float) -> str:
    return f"flows/{name}/{config_id}/{duration_s}"


def capture(timeline_dataset) -> dict:
    """Every fixture's record, through the public per-flow entry points."""
    entries = parity_entries()
    records = {}
    for config_id, config in CONFIGS.items():
        for duration_s in DURATIONS_S:
            for name, make_policy in policy_factories():
                records[flow_key(name, config_id, duration_s)] = run_flows(
                    make_policy, entries, config, duration_s
                )
    for oracle_cls in (OracleData, OracleDelay):
        records[f"oracles/{oracle_cls.__name__}"] = run_flows(
            lambda: oracle_cls(CFG, ORACLE_DURATION_S), entries, CFG,
            ORACLE_DURATION_S,
        )
    records["grid/run"] = grid_run_record(tiny_grid().run(GRID_POINTS))
    records["grid/run_point"] = grid_run_point_record()
    timelines = mixed_timelines(timeline_dataset)
    for name, make_policy in (("ra_first", RAFirstPolicy), ("ba_first", BAFirstPolicy)):
        records[f"timelines/{name}"] = timeline_record(make_policy, timelines)
    records["vr/ra_first"] = vr_record(timelines)
    return json.loads(json.dumps(records))


@pytest.fixture(scope="module")
def goldens() -> dict:
    return json.loads(GOLDENS_PATH.read_text())["records"]


# -- flows -----------------------------------------------------------------------


class TestFlowParity:
    @pytest.mark.parametrize("config_id", list(CONFIGS), ids=list(CONFIGS))
    @pytest.mark.parametrize("duration_s", DURATIONS_S)
    def test_all_policies_byte_identical(self, goldens, config_id, duration_s):
        entries = parity_entries()
        config = CONFIGS[config_id]
        for name, make_policy in policy_factories():
            want = goldens[flow_key(name, config_id, duration_s)]
            assert run_flows(make_policy, entries, config, duration_s) == want, name
            assert run_batch(make_policy, entries, config, duration_s) == want, name

    @pytest.mark.parametrize("oracle_cls", [OracleData, OracleDelay])
    def test_oracles_byte_identical(self, goldens, oracle_cls):
        entries = parity_entries()
        make_policy = lambda: oracle_cls(CFG, ORACLE_DURATION_S)  # noqa: E731
        want = goldens[f"oracles/{oracle_cls.__name__}"]
        assert run_flows(make_policy, entries, CFG, ORACLE_DURATION_S) == want
        assert run_batch(make_policy, entries, CFG, ORACLE_DURATION_S) == want

    def test_warm_cache_is_identical_to_cold(self):
        entries = parity_entries()
        simulator = BatchFlowSimulator(CFG)
        cold = run_batch(RAFirstPolicy, entries, CFG, 0.2, simulator)
        warm = run_batch(RAFirstPolicy, entries, CFG, 0.2, simulator)
        assert cold == warm

    def test_nonpositive_duration_rejected(self):
        simulator = BatchFlowSimulator(CFG)
        entry = parity_entries()[0]
        policy = RAFirstPolicy()
        decision = batch_decisions(policy, simulator, [entry], 0.2)[0]
        with pytest.raises(ValueError):
            simulator.simulate_with_decision(policy, entry, decision, 0.0)


# -- the evaluation grid ---------------------------------------------------------


class TestGridParity:
    def test_grid_run_matches_golden(self, goldens):
        results = tiny_grid().run(GRID_POINTS)
        assert [r.point for r in results] == GRID_POINTS
        assert grid_run_record(results) == goldens["grid/run"]

    def test_trace_streams_byte_identical(self, goldens):
        assert grid_run_point_record() == goldens["grid/run_point"]

    def test_match_fraction_and_report_shapes_under_batch(self):
        results = tiny_grid().run(GRID_POINTS)
        n = len(parity_entries())
        for result in results:
            for name in ("LiBRA", "BA First", "RA First"):
                assert result.byte_gaps_mb[name].shape == (n,)
                assert result.delay_gaps_ms[name].shape == (n,)
                assert 0.0 <= result.oracle_match_fraction(name) <= 1.0
        report = grid_report(results)
        assert "LiBRA" in report and "BA First" in report

    def test_checkpoint_resume_matches_uncheckpointed(self, tmp_path):
        from repro.checkpoint import CheckpointStore

        reference = tiny_grid().run(GRID_POINTS)
        tiny_grid().run(GRID_POINTS, checkpoint_dir=tmp_path)
        store = CheckpointStore(tmp_path)
        assert store.keys() == ["point-0000", "point-0001"]
        # Drop the point results: the resumed run rebuilds every trajectory
        # and replays everything.
        store.path("point-0000").unlink()
        store.path("point-0001").unlink()
        resumed = tiny_grid().run(
            GRID_POINTS, checkpoint_dir=tmp_path, resume=True
        )
        for got, want in zip(resumed, reference):
            for name in want.byte_gaps_mb:
                assert np.array_equal(got.byte_gaps_mb[name],
                                      want.byte_gaps_mb[name])
                assert np.array_equal(got.delay_gaps_ms[name],
                                      want.delay_gaps_ms[name])


# -- timelines and VR ------------------------------------------------------------


class TestTimelineAndVRParity:
    @pytest.fixture(scope="class")
    def timelines(self, main_dataset):
        return mixed_timelines(main_dataset)

    def test_simulate_timeline_with_simulator_is_identical(self, goldens, timelines):
        shared = BatchFlowSimulator(CFG)
        for name, make_policy in (("ra_first", RAFirstPolicy),
                                  ("ba_first", BAFirstPolicy)):
            want = goldens[f"timelines/{name}"]
            assert timeline_record(make_policy, timelines) == want
            assert timeline_record(make_policy, timelines, simulator=shared) == want

    def test_timeline_rejects_mismatched_simulator(self, timelines):
        simulator = BatchFlowSimulator(SLOW_CFG)
        with pytest.raises(ValueError, match="different SimulationConfig"):
            simulate_timeline(
                RAFirstPolicy(), timelines[0], CFG, simulator=simulator
            )

    def test_vr_profile_with_simulator_is_identical(self, goldens, timelines):
        want = goldens["vr/ra_first"]
        assert vr_record(timelines) == want
        assert vr_record(timelines, simulator=BatchFlowSimulator(CFG)) == want

    def test_impaired_entries_lists_the_breaks(self, timelines):
        for timeline in timelines:
            entries = timeline.impaired_entries()
            assert len(entries) == sum(
                1 for s in timeline.segments if s.entry is not None
            )


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] != "--write":
        sys.exit("usage: python -m tests.sim.test_batch_parity --write COMMIT")
    from repro.dataset.builder import build_main_dataset

    document = {
        "captured_at": sys.argv[2],
        "note": "Replay goldens for tests/sim/test_batch_parity.py; values "
                "are exact (shortest-repr floats), *_sha256 are digests of "
                "canonical JSON.",
        "records": capture(build_main_dataset()),
    }
    GOLDENS_PATH.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(document['records'])} records to {GOLDENS_PATH}")
