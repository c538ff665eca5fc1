"""Trajectory-cache tests: the point-independent PHY skeletons.

The §8 replay rests on three point-independent skeletons that must be
*bitwise* faithful:

* :func:`repair_ladder` vs the hand-derived RA scan and its per-frame
  byte sum,
* :func:`steady_rate_runs` (prefix + cycle) vs the per-frame rates pinned
  in ``tests/core/ra_goldens.json``, which the deleted frame generator
  produced,
* :func:`label_from_inputs` vs the pinned labels and delays in
  ``tests/core/label_goldens.json``.

Plus the cache machinery itself: identity keying and hit/miss accounting.
"""

import pickle

import pytest

from repro.constants import PROBE_BACKOFF_CAP
from repro.core.ground_truth import GroundTruthConfig
from repro.core.rate_adaptation import repair_ladder, steady_rate_runs
from repro.obs.metrics import MetricsRegistry
from repro.sim.trajectory import TrajectoryCache
from tests.conftest import make_entry, make_traces
from tests.core import test_label_goldens as label_goldens
from tests.core import test_ra_goldens as ra_goldens
from tests.sim.test_checkpoint import POINTS, tiny_grid

TRACE_CASES = ra_goldens.TRACE_CASES


class TestSteadyRateRuns:
    @pytest.mark.parametrize(
        "name,traces,settled", TRACE_CASES, ids=[c[0] for c in TRACE_CASES]
    )
    @pytest.mark.parametrize("horizon", [0, 1, 7, 100, 1500])
    def test_matches_frame_generator(self, name, traces, settled, horizon):
        """The expansion matches the frame generator's pinned output."""
        pinned = ra_goldens.expand_runs(
            ra_goldens.load_goldens()[f"{name}/cap={PROBE_BACKOFF_CAP}"]
        )
        assert horizon <= len(pinned)
        prefix, cycle = steady_rate_runs(traces, settled)
        expanded = []
        for i in range(horizon):
            if i < len(prefix):
                expanded.append(prefix[i])
            else:
                expanded.append(cycle[(i - len(prefix)) % len(cycle)])
        assert expanded == pinned[:horizon]  # exact float equality, not approx

    @pytest.mark.parametrize(
        "name,lengths",
        [("rising", (178, 161)), ("cliff", (160, 161)), ("plateau", (160, 161)),
         ("top_mcs", (5, 1)), ("low_cdr", (5, 1)), ("mid_settle", (166, 161))],
    )
    def test_split_is_the_first_recurrence(self, name, lengths):
        # The cache stores the (prefix, cycle) split itself, so it is
        # pinned, not just its expansion.
        _, traces, settled = next(c for c in TRACE_CASES if c[0] == name)
        prefix, cycle = steady_rate_runs(traces, settled)
        assert (len(prefix), len(cycle)) == lengths

    def test_cycle_is_never_empty(self):
        for _, traces, settled in TRACE_CASES:
            _, cycle = steady_rate_runs(traces, settled)
            assert len(cycle) >= 1

    def test_gate_never_opens_is_constant(self):
        # Top MCS: no higher MCS exists, so every frame is the settled rate
        # (the prefix only covers the frames until the probe counter stops
        # mattering).
        traces = make_traces([100, 200, 300, 400, 500, 600, 700, 800, 900])
        prefix, cycle = steady_rate_runs(traces, 8)
        assert set(prefix) <= {900.0}
        assert set(cycle) == {900.0}


class TestRepairLadder:
    # (traces, start MCS, initial throughput) -> the hand-derived scan:
    # (found MCS, frames spent, probed throughputs in probe order).
    CASES = [
        (make_traces([300, 450, 865, 0, 0]), 4, 0.0, (2, 4, (0.0, 0.0, 865.0, 450.0))),
        (make_traces([300, 450, 0, 0]), 3, 0.0, (1, 4, (0.0, 0.0, 450.0, 300.0))),
        (make_traces([300, 450, 865, 1300]), 3, 0.0, (3, 2, (1300.0, 865.0))),
        (make_traces([300, 0, 0]), 2, 0.0, (0, 3, (0.0, 0.0, 300.0))),
        (make_traces([]), 4, 0.0, (None, 5, (0.0,) * 5)),  # failed repair
        (make_traces([300, 450, 865]), 2, 500.0, (2, 2, (865.0, 450.0))),  # known initial tput
    ]

    @pytest.mark.parametrize("frame_time_s", [0.5e-3, 2e-3, 10e-3])
    def test_result_matches_scalar_repair(self, frame_time_s):
        for traces, start, initial, (found, frames, probed) in self.CASES:
            ladder = repair_ladder(traces, start, initial)
            assert (ladder.found_mcs, ladder.frames_spent) == (found, frames)
            assert ladder.probed_throughputs_mbps == probed
            settled = 0.0 if found is None else float(traces.throughput_mbps[found])
            assert ladder.settled_throughput_mbps == settled
            # Bitwise: search bytes accumulate frame by frame in probe order.
            search_bytes = 0.0
            for tput in probed:
                search_bytes += tput * 1e6 / 8.0 * frame_time_s
            assert ladder.search_bytes(frame_time_s) == search_bytes

    def test_out_of_range_start_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            repair_ladder(make_traces([300]), 9)


class TestLabelFromInputs:
    @pytest.mark.parametrize("alpha", label_goldens.ALPHAS)
    @pytest.mark.parametrize("ba_overhead_s", label_goldens.BA_OVERHEADS_S)
    @pytest.mark.parametrize("frame_time_s", label_goldens.FRAME_TIMES_S)
    def test_matches_label_entry(self, alpha, ba_overhead_s, frame_time_s):
        """Labels and delays match the goldens, which the trace-walking
        ``label_entry`` path produced when they were captured."""
        config = GroundTruthConfig(
            alpha=alpha, ba_overhead_s=ba_overhead_s, frame_time_s=frame_time_s
        )
        key = label_goldens.point_key(alpha, ba_overhead_s, frame_time_s)
        assert label_goldens.label_records(config) == label_goldens.load_goldens()[key]


class TestTrajectoryCache:
    def test_hit_and_miss_accounting(self):
        metrics = MetricsRegistry()
        cache = TrajectoryCache()
        entry = make_entry([300, 450, 865], [300, 450, 865, 1300], 3)
        first = cache.get(entry, metrics)
        second = cache.get(entry, metrics)
        assert first is second
        assert cache.stats() == {"hits": 1, "misses": 1, "entries": 1}
        assert metrics.counter("sim.traj_cache.hits").value == 1
        assert metrics.counter("sim.traj_cache.misses").value == 1

    def test_keyed_by_entry_object(self):
        a = make_entry([300, 450, 865], [300, 450, 865, 1300], 3)
        b = make_entry([300, 450, 865], [300, 450, 865, 1300], 3)
        cache = TrajectoryCache()
        assert cache.get(a) is not cache.get(b)
        assert cache.get(a).entry is a
        assert cache.stats() == {"hits": 1, "misses": 2, "entries": 2}

    def test_pickled_cache_arrives_empty(self):
        cache = TrajectoryCache()
        cache.get(make_entry([300, 450, 865], [300, 450, 865, 1300], 3))
        assert pickle.loads(pickle.dumps(cache)).stats() == {
            "hits": 0, "misses": 0, "entries": 0
        }

    def test_grid_builds_each_entry_once_across_points(self):
        metrics = MetricsRegistry()
        grid = tiny_grid()
        grid.metrics = metrics
        grid.run(POINTS)
        entries = list(grid.evaluation_dataset.without_na())
        assert len(POINTS) > 1
        assert metrics.counter("sim.traj_cache.misses").value == len(entries)
        assert metrics.counter("sim.traj_cache.hits").value > 0
