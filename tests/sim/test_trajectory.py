"""Trajectory-cache tests: the point-independent PHY skeletons.

The §8 replay rests on three point-independent skeletons that must be
*bitwise* faithful:

* :func:`repair_ladder` (behind :meth:`RateAdaptation.repair`) vs the
  hand-derived RA scan,
* :func:`steady_rate_runs` (prefix + cycle) vs :meth:`RateAdaptation.frames`,
* :func:`label_from_inputs` vs the pinned labels and delays in
  ``tests/core/label_goldens.json``.

Plus the cache machinery itself: content-addressed fingerprints, exact
payload round trips, and hit/miss/loaded accounting.
"""

import numpy as np
import pytest

from repro.core.ground_truth import GroundTruthConfig
from repro.core.rate_adaptation import (
    RateAdaptation,
    repair_ladder,
    steady_rate_runs,
)
from repro.sim.trajectory import (
    TRAJECTORY_PAYLOAD_VERSION,
    EntryTrajectories,
    SteadyProfile,
    TrajectoryCache,
    entry_fingerprint,
)
from tests.conftest import make_entry, make_traces
from tests.core import test_label_goldens as label_goldens

# Trace shapes that exercise every steady-state regime: a rising ladder
# (probes succeed), a cliff (probes fail, backoff grows), a plateau
# (equal rates, probes fail), the top MCS (no probe target), and a CDR
# below the ORI threshold (the probe gate never opens).
TRACE_CASES = [
    ("rising", make_traces([300, 450, 865, 1300]), 0),
    ("cliff", make_traces([300, 450, 100]), 1),
    ("plateau", make_traces([300, 300, 300]), 0),
    ("top_mcs", make_traces([100, 200, 300, 400, 500, 600, 700, 800, 900]), 8),
    ("low_cdr", make_traces([300, 450, 865], cdr_value=0.3), 1),
    ("mid_settle", make_traces([300, 450, 865, 1300, 0, 0]), 2),
]


class TestSteadyRateRuns:
    @pytest.mark.parametrize(
        "name,traces,settled", TRACE_CASES, ids=[c[0] for c in TRACE_CASES]
    )
    @pytest.mark.parametrize("horizon", [0, 1, 7, 100, 1500])
    def test_matches_frame_generator(self, name, traces, settled, horizon):
        prefix, cycle = steady_rate_runs(traces, settled)
        ra = RateAdaptation(frame_time_s=2e-3)
        reference = [
            outcome.throughput_mbps
            for outcome in ra.frames(traces, settled, horizon)
        ]
        expanded = []
        for i in range(horizon):
            if i < len(prefix):
                expanded.append(prefix[i])
            else:
                expanded.append(cycle[(i - len(prefix)) % len(cycle)])
        assert expanded == reference  # exact float equality, not approx

    @pytest.mark.parametrize(
        "name,lengths",
        [("rising", (178, 161)), ("cliff", (160, 161)), ("plateau", (160, 161)),
         ("top_mcs", (5, 1)), ("low_cdr", (5, 1)), ("mid_settle", (166, 161))],
    )
    def test_split_is_the_first_recurrence(self, name, lengths):
        # Checkpoint payloads persist the (prefix, cycle) split itself, so
        # it is pinned, not just its expansion.
        _, traces, settled = next(c for c in TRACE_CASES if c[0] == name)
        prefix, cycle = steady_rate_runs(traces, settled)
        assert (len(prefix), len(cycle)) == lengths

    def test_cycle_is_never_empty(self):
        for _, traces, settled in TRACE_CASES:
            _, cycle = steady_rate_runs(traces, settled)
            assert len(cycle) >= 1

    def test_gate_never_opens_is_constant(self):
        # Top MCS: no higher MCS exists, so every frame is the settled rate
        # (the prefix only covers the frames until ``since_probe`` clamps).
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
        ra = RateAdaptation(frame_time_s=frame_time_s)
        for traces, start, initial, (found, frames, probed) in self.CASES:
            ladder = repair_ladder(traces, start, initial)
            assert (ladder.found_mcs, ladder.frames_spent) == (found, frames)
            assert ladder.probed_throughputs_mbps == probed
            # Bitwise: search bytes accumulate frame by frame in probe order.
            search_bytes = 0.0
            for tput in probed:
                search_bytes += tput * 1e6 / 8.0 * frame_time_s
            settled = 0.0 if found is None else float(traces.throughput_mbps[found])
            want = (found, frames, search_bytes, settled)
            for got in (ladder.result(frame_time_s), ra.repair(traces, start, initial)):
                assert (got.found_mcs, got.frames_spent, got.bytes_during_search,
                        got.settled_throughput_mbps) == want

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


class TestFingerprint:
    def test_stable_across_calls(self):
        entry = make_entry([300, 450, 865], [300, 450, 865, 1300], 3)
        assert entry_fingerprint(entry) == entry_fingerprint(entry)
        assert len(entry_fingerprint(entry)) == 64  # sha256 hex

    def test_identical_content_shares_a_fingerprint(self):
        a = make_entry([300, 450, 865], [300, 450, 865, 1300], 3)
        b = make_entry([300, 450, 865], [300, 450, 865, 1300], 3)
        assert entry_fingerprint(a) == entry_fingerprint(b)

    def test_trace_change_changes_fingerprint(self):
        a = make_entry([300, 450, 865], [300, 450, 865, 1300], 3)
        b = make_entry([300, 450, 866], [300, 450, 865, 1300], 3)
        assert entry_fingerprint(a) != entry_fingerprint(b)

    def test_initial_mcs_change_changes_fingerprint(self):
        a = make_entry([300, 450, 865], [300, 450, 865, 1300], 3)
        b = make_entry([300, 450, 865], [300, 450, 865, 1300], 2)
        assert entry_fingerprint(a) != entry_fingerprint(b)


class TestPayloadRoundTrip:
    def test_steady_profile_bitwise(self):
        for _, traces, settled in TRACE_CASES:
            profile = SteadyProfile.build(traces, settled)
            restored = SteadyProfile.from_payload(profile.to_payload())
            assert np.array_equal(profile.rates(500), restored.rates(500))

    def test_steady_profile_rejects_empty_cycle(self):
        with pytest.raises(ValueError):
            SteadyProfile.from_payload({"prefix": [], "cycle": []})

    def test_entry_trajectories_bitwise(self):
        entry = make_entry([300, 450, 865, 0, 0], [300, 450, 865, 1300], 4)
        fingerprint = entry_fingerprint(entry)
        built = EntryTrajectories.build(entry, fingerprint)
        # Touch a couple of profiles so the payload carries them.
        built.profile("same", built.ladder("same").found_mcs)
        built.profile("best", built.ladder("best").found_mcs)
        restored = EntryTrajectories.from_payload(
            entry, fingerprint, built.to_payload()
        )
        for pair in ("same", "best"):
            for frame_time_s in (0.5e-3, 2e-3, 10e-3):
                assert built.ladder(pair).result(frame_time_s) == restored.ladder(
                    pair
                ).result(frame_time_s)
            settled = built.ladder(pair).found_mcs
            assert np.array_equal(
                built.profile(pair, settled).rates(800),
                restored.profile(pair, settled).rates(800),
            )
        assert built.ack_missing == restored.ack_missing
        assert built.working == restored.working


class TestTrajectoryCache:
    def test_hit_and_miss_accounting(self):
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        cache = TrajectoryCache()
        entry = make_entry([300, 450, 865], [300, 450, 865, 1300], 3)
        first = cache.get(entry, metrics)
        second = cache.get(entry, metrics)
        assert first is second
        assert cache.stats() == {"hits": 1, "misses": 1, "loaded": 0, "entries": 1}
        assert metrics.counter("sim.traj_cache.hits").value == 1
        assert metrics.counter("sim.traj_cache.misses").value == 1

    def test_adopted_payload_counts_as_loaded(self):
        entry = make_entry([300, 450, 865], [300, 450, 865, 1300], 3)
        warm = TrajectoryCache()
        warm.get(entry)
        cold = TrajectoryCache()
        assert cold.adopt_payload(warm.to_payload()) == 1
        cold.get(entry)
        assert cold.stats()["loaded"] == 1
        assert cold.stats()["misses"] == 0

    def test_malformed_payload_rebuilds(self):
        entry = make_entry([300, 450, 865], [300, 450, 865, 1300], 3)
        cache = TrajectoryCache()
        payload = {
            "version": TRAJECTORY_PAYLOAD_VERSION,
            "entries": {entry_fingerprint(entry): {"garbage": True}},
        }
        assert cache.adopt_payload(payload) == 1
        trajectories = cache.get(entry)  # falls back to a rebuild
        assert trajectories.ladder("same").found_mcs is not None
        assert cache.stats()["misses"] == 1

    def test_version_mismatch_adopts_nothing(self):
        cache = TrajectoryCache()
        assert cache.adopt_payload({"version": 999, "entries": {"x": {}}}) == 0
        assert cache.adopt_payload("not a dict") == 0

    def test_merge_payload_unions_entries(self):
        entry_a = make_entry([300, 450, 865], [300, 450, 865, 1300], 3)
        entry_b = make_entry([300, 450, 0, 0], [300, 450, 865], 3)
        cache_a, cache_b = TrajectoryCache(), TrajectoryCache()
        cache_a.get(entry_a)
        cache_b.get(entry_b)
        merged = TrajectoryCache()
        assert merged.merge_payload(cache_a.to_payload()) == 1
        assert merged.merge_payload(cache_b.to_payload()) == 1
        fingerprints = set(merged.to_payload()["entries"])
        assert fingerprints == {
            entry_fingerprint(entry_a), entry_fingerprint(entry_b)
        }

    def test_merge_payload_unions_profiles_of_one_entry(self):
        entry = make_entry([300, 450, 865], [300, 450, 865, 1300], 3)
        a, b = TrajectoryCache(), TrajectoryCache()
        a.get(entry).profile("same", 2)
        b.get(entry).profile("best", 3)
        merged = TrajectoryCache()
        merged.merge_payload(a.to_payload())
        merged.merge_payload(b.to_payload())
        payload = merged.to_payload()["entries"][entry_fingerprint(entry)]
        assert set(payload["profiles"]) == {"same:2", "best:3"}
