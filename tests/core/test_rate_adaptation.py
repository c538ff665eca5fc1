"""Frame-based RA tests (§7's repair + adaptive probing)."""

import dataclasses

import pytest

from repro.constants import PROBE_BACKOFF_CAP, PROBE_INTERVAL_MIN_FRAMES
from repro.core.ground_truth import Action
from repro.core.rate_adaptation import cdr_ori_threshold, probe_interval, repair_ladder
from repro.sim.batch import BatchFlowSimulator
from repro.sim.engine import SimulationConfig
from tests.conftest import make_entry, make_traces
from tests.core.test_ra_goldens import steady_rates


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


class TestProbeInterval:
    def test_doubles_per_failed_probe_up_to_the_cap(self):
        # T = T0 · min(2^k, 2^5) with T0 = 5 frames.
        assert [probe_interval(k) for k in range(8)] == [5, 10, 20, 40, 80, 160, 160, 160]

    def test_cap_one_is_a_fixed_interval(self):
        assert {probe_interval(k, cap=1) for k in range(8)} == {PROBE_INTERVAL_MIN_FRAMES}


class TestRepair:
    def test_current_mcs_still_working_costs_two_frames(self):
        # Algorithm 1 starts from throughput 0, so it must probe one MCS
        # below the current one to observe the downturn before settling.
        traces = make_traces([300, 450, 865, 1300, 1730])
        result = repair_ladder(traces, 4)
        assert result.found_mcs == 4
        assert result.frames_spent == 2

    def test_known_current_throughput_stops_immediately(self):
        # RA(curr_mcs - 1, curr_tput): with the current throughput known,
        # the first worse probe ends the scan at once.
        traces = make_traces([300, 450, 865, 1300, 1730])
        result = repair_ladder(traces, 3, initial_throughput_mbps=1730.0)
        assert result.found_mcs is None
        assert result.frames_spent == 1

    def test_descends_until_throughput_turns(self):
        # MCS 4, 3 dead; 2 works: probes 4, 3, 2 and then 1 (to see the
        # downturn), settling at 2.
        traces = make_traces([300, 450, 865])
        result = repair_ladder(traces, 4)
        assert result.found_mcs == 2
        assert result.frames_spent == 4

    def test_failed_repair(self):
        result = repair_ladder(make_traces([]), 5)
        assert result.failed
        assert result.found_mcs is None
        assert result.settled_throughput_mbps == 0.0
        assert result.frames_spent == 6  # scanned 5..0

    def test_search_frames_carry_data(self):
        traces = make_traces([300, 450, 865])
        result = repair_ladder(traces, 2)
        # Frames at 865 and 450 Mbps: search traffic is data, not control.
        assert result.frames_spent == 2
        assert result.search_bytes(2e-3) == pytest.approx(
            (865e6 + 450e6) / 8.0 * 2e-3
        )

    def test_invalid_start_mcs_rejected(self):
        with pytest.raises(ValueError):
            repair_ladder(make_traces([300]), 9)


class TestUpwardProbing:
    """The steady-state machine's per-frame rates; a probe shows up as a
    frame at the next MCS's rate."""

    def test_no_probe_when_cdr_below_threshold(self):
        traces = make_traces([300, 450, 865], cdr_value=0.3)
        assert set(steady_rates(traces, 1, 50)) == {450.0}

    def test_probes_fire_every_interval(self):
        traces = make_traces([300, 450, 865], cdr_value=0.99)
        rates = steady_rates(traces, 0, 12)
        probe_indices = [i for i, rate in enumerate(rates) if rate != 300.0]
        assert probe_indices, "expected at least one probe"
        assert probe_indices[0] == PROBE_INTERVAL_MIN_FRAMES

    def test_successful_probe_moves_up(self):
        traces = make_traces([300, 450, 865], cdr_value=0.99)
        rates = steady_rates(traces, 0, 40)
        assert rates[-1] == 865.0  # climbed to the top working MCS

    def test_failed_probes_back_off_exponentially(self):
        # MCS 1 delivers nothing: probing it always fails; intervals grow
        # T0, 2*T0, 4*T0, ... capped at 32*T0.
        tput = [300.0, 0.0]
        traces = make_traces(tput, cdr_value=0.99)
        traces.cdr[1] = 0.0
        rates = steady_rates(traces, 0, 400)
        probe_indices = [i for i, rate in enumerate(rates) if rate == 0.0]
        gaps = [b - a for a, b in zip(probe_indices, probe_indices[1:])]
        assert gaps[0] < gaps[1] < gaps[2]  # backoff
        assert all(g <= PROBE_INTERVAL_MIN_FRAMES * PROBE_BACKOFF_CAP + 1 for g in gaps)

    def test_top_mcs_never_probes(self):
        traces = make_traces([100, 200, 300, 400, 500, 600, 700, 800, 900], cdr_value=0.99)
        assert set(steady_rates(traces, 8, 100)) == {900.0}


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
