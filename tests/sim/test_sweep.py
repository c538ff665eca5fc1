"""Evaluation-grid API tests."""

import numpy as np
import pytest

from repro.sim.sweep import (
    EvaluationGrid,
    OperatingPoint,
    default_alpha,
    paper_grid,
)


class TestOperatingPoint:
    def test_alpha_defaults_follow_the_paper(self):
        assert default_alpha(0.5e-3) == 0.7
        assert default_alpha(5e-3) == 0.7
        assert default_alpha(150e-3) == 0.5
        assert OperatingPoint(250e-3, 2e-3).resolved_alpha() == 0.5

    def test_explicit_alpha_wins(self):
        point = OperatingPoint(250e-3, 2e-3, alpha=0.9)
        assert point.resolved_alpha() == 0.9
        assert point.ground_truth_config().alpha == 0.9

    def test_config_passthrough(self):
        point = OperatingPoint(5e-3, 10e-3)
        sim = point.simulation_config()
        assert sim.ba_overhead_s == 5e-3
        assert sim.frame_time_s == 10e-3
        gt = point.ground_truth_config()
        assert gt.ba_overhead_s == 5e-3

    def test_paper_grid_shape(self):
        grid = paper_grid()
        assert len(grid) == 8
        assert len({(p.ba_overhead_s, p.frame_time_s) for p in grid}) == 8

    @pytest.mark.parametrize("flow_duration_s", [0.0, -1.0, float("nan"),
                                                 float("inf")])
    def test_invalid_flow_duration_rejected(self, flow_duration_s):
        with pytest.raises(ValueError, match="flow_duration_s"):
            OperatingPoint(5e-3, 2e-3, flow_duration_s=flow_duration_s)

    @pytest.mark.parametrize("alpha", [-0.1, 1.5, float("nan"), float("inf")])
    def test_invalid_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            OperatingPoint(5e-3, 2e-3, alpha=alpha)

    @pytest.mark.parametrize("ba_overhead_s", [-1e-3, float("nan")])
    def test_invalid_ba_overhead_rejected(self, ba_overhead_s):
        with pytest.raises(ValueError, match="ba_overhead_s"):
            OperatingPoint(ba_overhead_s, 2e-3)

    @pytest.mark.parametrize("frame_time_s", [0.0, -2e-3, float("nan")])
    def test_invalid_frame_time_rejected(self, frame_time_s):
        with pytest.raises(ValueError, match="frame_time_s"):
            OperatingPoint(5e-3, frame_time_s)

    def test_boundary_alphas_accepted(self):
        assert OperatingPoint(5e-3, 2e-3, alpha=0.0).resolved_alpha() == 0.0
        assert OperatingPoint(5e-3, 2e-3, alpha=1.0).resolved_alpha() == 1.0


class TestEvaluationGridTinyDataset:
    """Smoke the full §8.2 methodology on a hand-built 8-entry dataset —
    fast enough to run without the session-scoped campaign fixtures."""

    @pytest.fixture
    def tiny_grid(self):
        from repro.dataset.entry import Dataset
        from tests.conftest import make_entry

        variants = [
            ([300, 450, 865, 0, 0], [300, 450, 865, 1300], 4),
            ([300, 450, 0, 0], [300, 450, 865], 3),
            ([300, 450, 865, 1300], [300, 450, 865, 1300], 3),
            ([300, 0, 0], [300, 450], 2),
        ]
        entries = [make_entry(*variant) for variant in variants for _ in range(2)]
        dataset = Dataset(entries, "tiny")
        return EvaluationGrid(dataset, dataset, n_estimators=4, max_depth=4)

    def test_smoke_run(self, tiny_grid):
        result = tiny_grid.run_point(OperatingPoint(5e-3, 2e-3, flow_duration_s=0.2))
        n = len(tiny_grid.evaluation_dataset.without_na())
        assert n == 8
        for name in ("LiBRA", "BA First", "RA First"):
            assert result.byte_gaps_mb[name].shape == (n,)
            assert result.delay_gaps_ms[name].shape == (n,)
            assert np.isfinite(result.byte_gaps_mb[name]).all()
            assert 0.0 <= result.oracle_match_fraction(name) <= 1.0

    def test_metrics_instrumentation(self, tiny_grid):
        from repro.obs.metrics import MetricsRegistry

        tiny_grid.metrics = registry = MetricsRegistry()
        points = [
            OperatingPoint(5e-3, 2e-3, flow_duration_s=0.2),
            OperatingPoint(250e-3, 2e-3, flow_duration_s=0.2),
        ]
        tiny_grid.run(points)
        n = len(tiny_grid.evaluation_dataset.without_na())
        assert registry.histogram("sweep.run_point").count == len(points)
        assert registry.counter("sweep.points_done").value == len(points)
        assert registry.gauge("sweep.points_total").value == len(points)
        assert registry.gauge("sweep.last_point_wall_s").value > 0.0
        # 2 oracles + 3 policies per entry per point.
        assert registry.counter("sim.flows").value == 5 * n * len(points)
        assert registry.histogram("sweep.train_libra").count >= 1

    def test_equal_labels_share_one_forest(self, tiny_grid):
        from repro.obs.metrics import MetricsRegistry

        tiny_grid.metrics = registry = MetricsRegistry()
        # Both ground truths label the tiny dataset BA,BA,BA,BA,RA,RA,BA,BA.
        a = tiny_grid.libra_for(OperatingPoint(0.5e-3, 2e-3))
        b = tiny_grid.libra_for(OperatingPoint(5e-3, 10e-3))
        c = tiny_grid.libra_for(OperatingPoint(5e-3, 2e-3))
        assert tiny_grid.libra_for(OperatingPoint(0.5e-3, 2e-3)) is a
        assert a is b
        assert a is not c
        assert registry.histogram("sweep.train_libra").count == 2
        # One relabel per distinct (α, BA overhead, FAT), repeats included.
        assert registry.histogram("sweep.relabel").count == 3

    def test_recorder_receives_every_flow(self, tiny_grid):
        from repro.obs.trace import InMemoryTraceRecorder

        recorder = InMemoryTraceRecorder()
        tiny_grid.run_point(
            OperatingPoint(5e-3, 2e-3, flow_duration_s=0.2), recorder
        )
        n = len(tiny_grid.evaluation_dataset.without_na())
        assert len(recorder.events) == 5 * n
        policies = {event.policy for event in recorder.events}
        assert {"LiBRA", "BA First", "RA First",
                "Oracle-Data", "Oracle-Delay"} <= policies


class TestEvaluationGrid:
    @pytest.fixture(scope="class")
    def grid(self, main_dataset_with_na, testing_dataset):
        return EvaluationGrid(
            main_dataset_with_na, testing_dataset, n_estimators=30
        )

    def test_run_point_structure(self, grid):
        result = grid.run_point(OperatingPoint(5e-3, 2e-3))
        n = len(grid.evaluation_dataset.without_na())
        for name in ("LiBRA", "BA First", "RA First"):
            assert len(result.byte_gaps_mb[name]) == n
            assert len(result.delay_gaps_ms[name]) == n
            assert (result.byte_gaps_mb[name] >= -1e-6).all()
            assert (result.delay_gaps_ms[name] >= -1e-6).all()

    def test_paper_shape_at_cheap_sweep(self, grid):
        result = grid.run_point(OperatingPoint(5e-3, 2e-3))
        libra = result.oracle_match_fraction("LiBRA")
        ra = result.oracle_match_fraction("RA First")
        assert libra > ra
        assert libra > 0.7

    def test_models_cached_per_ground_truth(self, grid):
        a = grid.libra_for(OperatingPoint(5e-3, 2e-3))
        b = grid.libra_for(OperatingPoint(5e-3, 2e-3))
        c = grid.libra_for(OperatingPoint(250e-3, 2e-3))
        assert a is b
        assert a is not c

    def test_run_many_points(self, grid):
        points = [OperatingPoint(0.5e-3, 2e-3), OperatingPoint(250e-3, 2e-3)]
        results = grid.run(points)
        assert [r.point for r in results] == points
        # Delay: BA First's median gap explodes only at the slow sweep.
        assert results[1].median_delay_gap_ms("BA First") >= results[
            0
        ].median_delay_gap_ms("BA First")
