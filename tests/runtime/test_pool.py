"""Deterministic sharder + seeded process-pool map."""

import numpy as np
import pytest

from repro.obs.events import SpanEvent
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import InMemoryTraceRecorder
from repro.runtime import (
    child_rng,
    parallel_map,
    shard_bounds,
    shard_items,
)


class TestShardBounds:
    def test_covers_range_contiguously(self):
        for n_items in range(0, 25):
            for n_shards in range(1, 8):
                bounds = shard_bounds(n_items, n_shards)
                flat = [i for lo, hi in bounds for i in range(lo, hi)]
                assert flat == list(range(n_items))

    def test_balanced_larger_first(self):
        bounds = shard_bounds(10, 3)
        sizes = [hi - lo for lo, hi in bounds]
        assert sizes == [4, 3, 3]

    def test_no_empty_shards(self):
        assert len(shard_bounds(2, 5)) == 2
        assert shard_bounds(0, 3) == []

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            shard_bounds(-1, 2)
        with pytest.raises(ValueError):
            shard_bounds(5, 0)

    def test_shard_items_round_trip(self):
        items = list("abcdefghij")
        shards = shard_items(items, 4)
        assert [x for shard in shards for x in shard] == items


class TestChildSeeds:
    def test_distinct_across_indices_and_masters(self):
        draws = {
            int(child_rng(master, index).integers(0, 1 << 62))
            for master in (0, 1)
            for index in range(20)
        }
        assert len(draws) == 40

    def test_child_rng_matches_seed_sequence(self):
        a = child_rng(3, 2).integers(0, 1 << 30, size=8)
        b = child_rng(3, 2).integers(0, 1 << 30, size=8)
        np.testing.assert_array_equal(a, b)
        c = child_rng(3, 1).integers(0, 1 << 30, size=8)
        assert not np.array_equal(a, c)


def _square_task(item, metrics, recorder):
    metrics.counter("task.calls").inc()
    recorder.record(SpanEvent("task.square", seconds=0.0, count=item))
    return item * item


class TestParallelMap:
    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            parallel_map(_square_task, [1], workers=0)

    def test_inline_preserves_order(self):
        assert parallel_map(_square_task, [3, 1, 2], workers=1) == [9, 1, 4]

    def test_empty_items(self):
        assert parallel_map(_square_task, [], workers=4) == []

    def test_pool_matches_inline(self):
        items = list(range(12))
        inline = parallel_map(_square_task, items, workers=1)
        pooled = parallel_map(_square_task, items, workers=3)
        assert pooled == inline

    def test_pool_merges_metrics(self):
        items = list(range(10))
        inline_metrics = MetricsRegistry()
        parallel_map(_square_task, items, workers=1, metrics=inline_metrics)
        pooled_metrics = MetricsRegistry()
        parallel_map(_square_task, items, workers=4, metrics=pooled_metrics)
        assert (
            pooled_metrics.counter("task.calls").value
            == inline_metrics.counter("task.calls").value
            == len(items)
        )

    def test_pool_replays_traces_in_submission_order(self):
        items = list(range(8))
        recorder = InMemoryTraceRecorder()
        parallel_map(_square_task, items, workers=3, recorder=recorder)
        assert [event.count for event in recorder.events] == items

    def test_null_sinks_skip_capture(self):
        """Default NULL sinks must not blow up in workers."""
        assert parallel_map(_square_task, [5, 6], workers=2) == [25, 36]
