"""Frame-based RA tests (§7's repair + adaptive probing)."""

import dataclasses

import pytest

from repro.core.ground_truth import Action
from repro.core.rate_adaptation import FrameOutcome, RAResult, RateAdaptation, cdr_ori_threshold
from repro.core.mcs import X60_MCS_SET
from repro.sim.batch import BatchFlowSimulator
from repro.sim.engine import SimulationConfig
from tests.conftest import make_entry, make_traces


@pytest.fixture
def ra() -> RateAdaptation:
    return RateAdaptation(frame_time_s=2e-3)


class TestCdrOriThreshold:
    def test_break_even_ratio(self):
        # CDR_ORI(m) = 0.9 * rate(m)/rate(m+1) — probing only pays when the
        # current goodput could be beaten by the next rung.
        assert cdr_ori_threshold(0) == pytest.approx(0.9 * 300.0 / 450.0)

    def test_top_mcs_never_probes(self):
        assert cdr_ori_threshold(8) == float("inf")

    def test_all_thresholds_below_one(self):
        for mcs in range(8):
            assert 0.0 < cdr_ori_threshold(mcs) < 1.0


class TestRepair:
    def test_current_mcs_still_working_costs_two_frames(self, ra):
        # Algorithm 1 starts from throughput 0, so it must probe one MCS
        # below the current one to observe the downturn before settling.
        traces = make_traces([300, 450, 865, 1300, 1730])
        result = ra.repair(traces, 4)
        assert result.found_mcs == 4
        assert result.frames_spent == 2

    def test_known_current_throughput_stops_immediately(self, ra):
        # RA(curr_mcs - 1, curr_tput): with the current throughput known,
        # the first worse probe ends the scan at once.
        traces = make_traces([300, 450, 865, 1300, 1730])
        result = ra.repair(traces, 3, initial_throughput_mbps=1730.0)
        assert result.found_mcs is None or result.frames_spent == 1
        assert result.frames_spent == 1

    def test_descends_until_throughput_turns(self, ra):
        # MCS 4, 3 dead; 2 works: probes 4, 3, 2 and then 1 (to see the
        # downturn), settling at 2.
        traces = make_traces([300, 450, 865])
        result = ra.repair(traces, 4)
        assert result.found_mcs == 2
        assert result.frames_spent == 4

    def test_failed_repair(self, ra):
        result = ra.repair(make_traces([]), 5)
        assert result.failed
        assert result.found_mcs is None
        assert result.settled_throughput_mbps == 0.0
        assert result.frames_spent == 6  # scanned 5..0

    def test_search_frames_carry_data(self, ra):
        traces = make_traces([300, 450, 865])
        result = ra.repair(traces, 2)
        # Frames at 865 and 450 Mbps: search traffic is data, not control.
        assert result.frames_spent == 2
        assert result.bytes_during_search == pytest.approx(
            (865e6 + 450e6) / 8.0 * 2e-3
        )

    def test_invalid_start_mcs_rejected(self, ra):
        with pytest.raises(ValueError):
            ra.repair(make_traces([300]), 9)


class TestUpwardProbing:
    def test_no_probe_when_cdr_below_threshold(self, ra):
        traces = make_traces([300, 450, 865], cdr_value=0.3)
        outcomes = list(ra.frames(traces, 1, 50))
        assert not any(o.probing for o in outcomes)

    def test_probes_fire_every_interval(self, ra):
        traces = make_traces([300, 450, 865], cdr_value=0.99)
        outcomes = list(ra.frames(traces, 0, 12))
        probe_indices = [i for i, o in enumerate(outcomes) if o.probing]
        assert probe_indices, "expected at least one probe"
        assert probe_indices[0] == ra.probe_interval_min

    def test_successful_probe_moves_up(self, ra):
        traces = make_traces([300, 450, 865], cdr_value=0.99)
        outcomes = list(ra.frames(traces, 0, 40))
        assert outcomes[-1].mcs == 2  # climbed to the top working MCS

    def test_failed_probes_back_off_exponentially(self, ra):
        # MCS 1 delivers nothing: probing it always fails; intervals grow
        # T0, 2*T0, 4*T0, ... capped at 32*T0.
        tput = [300.0, 0.0]
        traces = make_traces(tput, cdr_value=0.99)
        traces.cdr[1] = 0.0
        outcomes = list(ra.frames(traces, 0, 400))
        probe_indices = [i for i, o in enumerate(outcomes) if o.probing]
        gaps = [b - a for a, b in zip(probe_indices, probe_indices[1:])]
        assert gaps[0] < gaps[1] < gaps[2]  # backoff
        assert all(g <= ra.probe_interval_min * ra.probe_backoff_cap + 1 for g in gaps)

    def test_top_mcs_never_probes(self, ra):
        traces = make_traces([300] * 9, cdr_value=0.99)
        outcomes = list(ra.frames(traces, 8, 100))
        assert not any(o.probing for o in outcomes)


def steady_state_bytes(traces, mcs: int, duration_s: float) -> float:
    """Steady-state bytes at ``mcs`` on ``traces`` (2 ms frames), probing
    tax included: the bytes of an NA flow, which keeps transmitting on the
    unchanged pair."""
    entry = dataclasses.replace(make_entry([], [], mcs), traces_same_pair=traces)
    simulator = BatchFlowSimulator(SimulationConfig(frame_time_s=2e-3))
    return simulator.execute(entry, Action.NA, duration_s).bytes_delivered


class TestSteadyStateBytes:
    def test_matches_rate_times_time_without_probes(self):
        traces = make_traces([300, 450, 865], cdr_value=0.5)  # no probing
        delivered = steady_state_bytes(traces, 2, 1.0)
        assert delivered == pytest.approx(865e6 / 8.0, rel=1e-6)

    def test_fractional_tail_frame_counted(self):
        traces = make_traces([300], cdr_value=0.5)
        delivered = steady_state_bytes(traces, 0, 0.003)  # 1.5 frames
        assert delivered == pytest.approx(300e6 / 8.0 * 0.003, rel=1e-6)

    def test_probing_tax_is_small_but_nonzero(self):
        # MCS 1 dead → every probe wastes a frame; tax < 10 %.
        traces = make_traces([300.0, 0.0], cdr_value=0.99)
        traces.cdr[1] = 0.0
        delivered = steady_state_bytes(traces, 0, 1.0)
        ideal = 300e6 / 8.0
        assert 0.9 * ideal < delivered < ideal
