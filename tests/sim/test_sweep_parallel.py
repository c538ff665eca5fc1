"""Worker-count invariance of the evaluation grid.

Every operating point is a pure function of its parameters (LiBRA is
trained with a fixed ``random_state``), so ``EvaluationGrid.run`` must
return identical results — and persist identical checkpoints — at every
worker count.
"""

import pytest

from repro.checkpoint import CheckpointStore
from tests.sim.test_checkpoint import POINTS, assert_identical, tiny_grid


class TestSweepWorkers:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_results_match_sequential(self, workers):
        reference = tiny_grid().run(POINTS)
        parallel = tiny_grid().run(POINTS, workers=workers)
        assert_identical(reference, parallel)

    def test_checkpoints_saved_under_workers(self, tmp_path):
        tiny_grid().run(POINTS, checkpoint_dir=tmp_path, workers=2)
        # The parent saves the point results exactly as a sequential run
        # would; trajectories are never checkpointed.
        assert CheckpointStore(tmp_path).keys() == ["point-0000", "point-0001"]

    def test_checkpoint_bytes_worker_invariant(self, tmp_path):
        seq_dir, par_dir = tmp_path / "seq", tmp_path / "par"
        tiny_grid().run(POINTS, checkpoint_dir=seq_dir, workers=1)
        tiny_grid().run(POINTS, checkpoint_dir=par_dir, workers=2)
        for key in CheckpointStore(seq_dir).keys():
            seq = CheckpointStore(seq_dir).load(key)
            par = CheckpointStore(par_dir).load(key)
            assert par == seq

    def test_resume_composes_with_workers(self, tmp_path):
        reference = tiny_grid().run(POINTS)
        store = CheckpointStore(tmp_path)
        tiny_grid().run(POINTS, checkpoint_dir=tmp_path, workers=2)
        store.path("point-0000").unlink()
        resumed = tiny_grid().run(
            POINTS, checkpoint_dir=tmp_path, resume=True, workers=2
        )
        assert_identical(reference, resumed)

    def test_parent_metrics_capture_worker_spans(self):
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        grid = tiny_grid()
        grid.metrics = metrics
        grid.run(POINTS, workers=2)
        assert metrics.counter("sweep.points_done").value == len(POINTS)
        assert "sweep.run_point" in metrics.snapshot()["histograms"]
