"""Checkpoint/resume tests: atomic stores, byte-identical resumed runs."""

import json

import numpy as np
import pytest

from repro.checkpoint import CheckpointStore
from repro.dataset.entry import Dataset
from repro.sim.sweep import EvaluationGrid, OperatingPoint
from tests.conftest import make_entry


class TestCheckpointStore:
    def test_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        payload = {"x": 0.1 + 0.2, "values": [1.5, float("-0.0")], "n": 3}
        store.save("unit", payload)
        assert store.load("unit") == payload
        # Floats survive exactly (shortest-repr round trip).
        assert store.load("unit")["x"] == 0.1 + 0.2

    def test_missing_key_is_none(self, tmp_path):
        assert CheckpointStore(tmp_path).load("nope") is None

    def test_corrupt_checkpoint_is_none(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.path("broken").write_text("{ not json")
        assert store.load("broken") is None

    def test_key_mismatch_is_none(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("original", {"a": 1})
        store.path("renamed").write_text(store.path("original").read_text())
        assert store.load("renamed") is None

    def test_version_mismatch_is_none(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("old", {"a": 1})
        envelope = json.loads(store.path("old").read_text())
        envelope["version"] = 999
        store.path("old").write_text(json.dumps(envelope))
        assert store.load("old") is None

    @pytest.mark.parametrize("bad", ["", "a/b", ".hidden"])
    def test_invalid_keys_rejected(self, bad, tmp_path):
        with pytest.raises(ValueError, match="invalid checkpoint key"):
            CheckpointStore(tmp_path).path(bad)

    def test_no_temp_files_left_behind(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("clean", {"a": 1})
        assert not list(tmp_path.glob("*.tmp"))

    def test_keys_listed_sorted(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("b", {})
        store.save("a", {})
        assert store.keys() == ["a", "b"]

    def test_creates_directory(self, tmp_path):
        nested = tmp_path / "deep" / "dir"
        CheckpointStore(nested).save("k", {})
        assert nested.is_dir()


def tiny_grid() -> EvaluationGrid:
    variants = [
        ([300, 450, 865, 0, 0], [300, 450, 865, 1300], 4),
        ([300, 450, 0, 0], [300, 450, 865], 3),
        ([300, 450, 865, 1300], [300, 450, 865, 1300], 3),
        ([300, 0, 0], [300, 450], 2),
    ]
    entries = [make_entry(*variant) for variant in variants for _ in range(2)]
    dataset = Dataset(entries, "tiny")
    return EvaluationGrid(dataset, dataset, n_estimators=4, max_depth=4)


POINTS = [
    OperatingPoint(5e-3, 2e-3, flow_duration_s=0.2),
    OperatingPoint(250e-3, 2e-3, flow_duration_s=0.2),
]


def assert_identical(results_a, results_b):
    assert len(results_a) == len(results_b)
    for a, b in zip(results_a, results_b):
        assert a.point == b.point
        for name in a.byte_gaps_mb:
            assert np.array_equal(a.byte_gaps_mb[name], b.byte_gaps_mb[name])
            assert np.array_equal(a.delay_gaps_ms[name], b.delay_gaps_ms[name])


class TestGridResume:
    def test_full_resume_is_byte_identical(self, tmp_path):
        reference = tiny_grid().run(POINTS)
        tiny_grid().run(POINTS, checkpoint_dir=tmp_path)
        resumed = tiny_grid().run(POINTS, checkpoint_dir=tmp_path, resume=True)
        assert_identical(reference, resumed)

    def test_kill_mid_grid_and_resume(self, tmp_path):
        """Losing the second point's checkpoint (≈ a kill mid-run) must
        recompute exactly what an uninterrupted run would have produced."""
        reference = tiny_grid().run(POINTS)
        store = CheckpointStore(tmp_path)
        tiny_grid().run(POINTS, checkpoint_dir=tmp_path)
        store.path("point-0001").unlink()
        resumed = tiny_grid().run(POINTS, checkpoint_dir=tmp_path, resume=True)
        assert_identical(reference, resumed)
        # Only point results are checkpointed; trajectories stay in memory.
        assert store.keys() == ["point-0000", "point-0001"]

    def test_mismatched_point_recomputes(self, tmp_path):
        tiny_grid().run(POINTS, checkpoint_dir=tmp_path)
        other = [
            OperatingPoint(1e-3, 2e-3, flow_duration_s=0.2),
            OperatingPoint(250e-3, 2e-3, flow_duration_s=0.2),
        ]
        reference = tiny_grid().run(other)
        resumed = tiny_grid().run(other, checkpoint_dir=tmp_path, resume=True)
        assert_identical(reference, resumed)

    def test_resume_skips_the_simulation(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        tiny_grid().run(POINTS, checkpoint_dir=tmp_path)
        metrics = MetricsRegistry()
        grid = tiny_grid()
        grid.metrics = metrics
        grid.run(POINTS, checkpoint_dir=tmp_path, resume=True)
        assert metrics.counter("sweep.points_resumed").value == len(POINTS)


class TestDatasetResume:
    @pytest.fixture
    def plans(self):
        from repro.env.placement import (
            DisplacementTrack,
            ImpairmentPosition,
            PlacementPlan,
            RadioPose,
        )
        from repro.env.geometry import Point
        from repro.env.rooms import make_lobby

        def plan():
            room = make_lobby()
            tx = RadioPose(Point(2.0, 6.0), 0.0)
            track = DisplacementTrack(
                room_name=room.name,
                tx=tx,
                initial_rx=RadioPose(Point(9.0, 6.0), 180.0),
                new_states=(RadioPose(Point(8.0, 5.0), 180.0),),
                label="t0",
            )
            position = ImpairmentPosition(
                room_name=room.name,
                tx=tx,
                rx=RadioPose(Point(7.0, 6.0), 180.0),
                label="p0",
            )
            return PlacementPlan(room, [track], [position])

        return [plan(), plan()]

    def test_resume_is_byte_identical(self, plans, tmp_path):
        from repro.dataset.builder import DatasetBuildConfig, build_dataset
        from repro.dataset.io import save_dataset

        config = DatasetBuildConfig(
            displacement_reps=1, blockage_reps=1, interference_reps=1
        )
        checkpoints = tmp_path / "ckpt"

        def saved_bytes(dataset):
            path = tmp_path / "out.jsonl"
            save_dataset(dataset, path)
            return path.read_bytes()

        reference = saved_bytes(build_dataset(plans, config, name="tiny"))
        build_dataset(plans, config, name="tiny", checkpoint_dir=checkpoints)
        # Kill after plan 0: plan 1's checkpoint never made it to disk.
        CheckpointStore(checkpoints).path("plan-001-lobby").unlink()
        resumed = build_dataset(
            plans, config, name="tiny", checkpoint_dir=checkpoints, resume=True
        )
        assert saved_bytes(resumed) == reference

    def test_config_change_invalidates_checkpoints(self, plans, tmp_path):
        from repro.dataset.builder import DatasetBuildConfig, build_dataset

        config = DatasetBuildConfig(
            displacement_reps=1, blockage_reps=1, interference_reps=1
        )
        build_dataset(plans, config, name="tiny", checkpoint_dir=tmp_path)
        reseeded = DatasetBuildConfig(
            displacement_reps=1, blockage_reps=1, interference_reps=1, seed=9
        )
        fresh = build_dataset(plans, reseeded, name="tiny")
        resumed = build_dataset(
            plans, reseeded, name="tiny", checkpoint_dir=tmp_path, resume=True
        )
        assert len(resumed) == len(fresh)
        assert np.array_equal(resumed.feature_matrix(), fresh.feature_matrix())
