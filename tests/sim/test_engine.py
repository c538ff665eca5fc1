"""Simulation engine tests: exact byte/delay accounting on synthetic
entries, fallback semantics, and policy plumbing, through the public
engine API (``BatchFlowSimulator.observation``/``execute`` and
``simulate_flow``)."""

import numpy as np
import pytest

from repro.core.ground_truth import Action
from repro.core.policies import BAFirstPolicy, RAFirstPolicy, StaticPolicy
from repro.sim.batch import BatchFlowSimulator
from repro.sim.engine import FlowResult, SimulationConfig, simulate_flow
from tests.conftest import make_entry

CFG = SimulationConfig(ba_overhead_s=10e-3, frame_time_s=2e-3)


def observe(entry):
    return BatchFlowSimulator(CFG).observation(entry)


def execute(action, entry, duration_s):
    return BatchFlowSimulator(CFG).execute(entry, action, duration_s)


class TestObservation:
    def test_working_link_with_features(self):
        entry = make_entry([300, 450, 865], [300, 450, 865], 2)
        obs = observe(entry)
        assert not obs.ack_missing
        assert obs.current_mcs_working
        assert obs.features is entry.features
        assert obs.ba_overhead_s == 10e-3

    def test_dead_current_mcs_means_missing_ack(self):
        entry = make_entry([300, 450], [300, 450, 865, 1300], 3)
        obs = observe(entry)
        assert obs.ack_missing
        assert obs.features is None
        assert not obs.current_mcs_working


class TestExecuteAction:
    def test_ra_accounting_exact(self):
        # Start MCS 3; same-pair works at 2: probes 3 (dead), 2 (865),
        # 1 (450 < 865 → stop) = 3 frames; settles at 2.
        entry = make_entry([300, 450, 865], [300, 450, 865, 1300], 3)
        duration = 0.1
        result = execute(Action.RA, entry, duration)
        assert result.settled_mcs == 2
        assert result.recovery_delay_s == pytest.approx(3 * 2e-3)
        search_bytes = (0 + 865e6 + 450e6) / 8.0 * 2e-3
        steady_ceiling = 865e6 / 8.0 * (duration - 3 * 2e-3)
        # Upward probes toward the dead MCS 3 tax the steady state a little.
        assert search_bytes + 0.8 * steady_ceiling < result.bytes_delivered
        assert result.bytes_delivered <= search_bytes + steady_ceiling + 1.0

    def test_ba_accounting_exact(self):
        # BA: 10 ms sweep (silent) + probes 3 (1300), 2 (865 < 1300 → stop).
        entry = make_entry([300], [300, 450, 865, 1300], 3)
        duration = 0.1
        result = execute(Action.BA, entry, duration)
        assert result.settled_mcs == 3
        assert result.recovery_delay_s == pytest.approx(10e-3 + 2 * 2e-3)
        assert result.action is Action.BA

    def test_failed_ra_falls_back_to_ba(self):
        entry = make_entry([], [300, 450], 4)
        result = execute(Action.RA, entry, 0.5)
        # 5 failed frames + sweep + second repair on the best pair.
        assert result.settled_mcs == 1
        assert result.recovery_delay_s > 5 * 2e-3 + 10e-3
        assert not result.link_died

    def test_dead_everywhere_is_link_death(self):
        entry = make_entry([], [], 4)
        for action in (Action.RA, Action.BA):
            result = execute(action, entry, 0.5)
            assert result.link_died
            assert result.settled_mcs is None

    def test_na_keeps_current_mcs(self):
        entry = make_entry([300, 450, 865], [300, 450, 865], 2)
        result = execute(Action.NA, entry, 1.0)
        assert result.recovery_delay_s == 0.0
        assert result.bytes_delivered == pytest.approx(865e6 / 8.0, rel=0.05)


class TestSimulateFlow:
    def test_ra_first_uses_ra(self):
        entry = make_entry([300, 450], [300, 450, 865, 1300], 3)
        result = simulate_flow(RAFirstPolicy(), entry, CFG, 1.0)
        assert result.action is Action.RA

    def test_ba_first_uses_ba(self):
        entry = make_entry([300, 450], [300, 450, 865, 1300], 3)
        result = simulate_flow(BAFirstPolicy(), entry, CFG, 1.0)
        assert result.action is Action.BA

    def test_static_policy_forced_to_ra_on_dead_link(self):
        """NA on a dead link cannot stand: the ACK timeout forces the COTS
        default after one silent frame."""
        entry = make_entry([300, 450], [300, 450, 865], 3)  # MCS 3 dead
        result = simulate_flow(StaticPolicy(), entry, CFG, 1.0)
        assert result.action is Action.RA
        assert result.recovery_delay_s >= CFG.frame_time_s

    def test_zero_duration_rejected(self):
        entry = make_entry([300], [300], 0)
        with pytest.raises(ValueError):
            simulate_flow(RAFirstPolicy(), entry, CFG, 0.0)

    def test_ba_beats_ra_when_new_pair_better(self):
        entry = make_entry([300], [300, 450, 865, 1300, 1730], 4)
        ra = simulate_flow(RAFirstPolicy(), entry, CFG, 1.0)
        ba = simulate_flow(BAFirstPolicy(), entry, CFG, 1.0)
        assert ba.bytes_delivered > ra.bytes_delivered

    def test_ra_beats_ba_when_old_pair_fine(self):
        # MCS 3 broke but MCS 2 works on the old pair; the new pair is no
        # better, so the 250 ms sweep is pure waste.
        entry = make_entry([300, 450, 865], [300, 450, 865], 3)
        big_ba = SimulationConfig(ba_overhead_s=250e-3, frame_time_s=2e-3)
        ra = simulate_flow(RAFirstPolicy(), entry, big_ba, 1.0)
        ba = simulate_flow(BAFirstPolicy(), entry, big_ba, 1.0)
        assert ra.action is Action.RA and ba.action is Action.BA
        assert ra.bytes_delivered > ba.bytes_delivered
        assert ra.recovery_delay_s < ba.recovery_delay_s


class TestConfig:
    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig(ba_overhead_s=-1.0)
        with pytest.raises(ValueError):
            SimulationConfig(frame_time_s=0.0)

    @pytest.mark.parametrize(
        "ba_overhead_s,frame_time_s,field",
        [
            (float("nan"), 2e-3, "ba_overhead_s"),
            (float("inf"), 2e-3, "ba_overhead_s"),
            (5e-3, float("nan"), "frame_time_s"),
            (5e-3, float("inf"), "frame_time_s"),
            (float("inf"), float("inf"), "ba_overhead_s"),
        ],
    )
    def test_non_finite_config_rejected(self, ba_overhead_s, frame_time_s, field):
        with pytest.raises(ValueError, match=f"{field} must be a finite number"):
            SimulationConfig(ba_overhead_s, frame_time_s)

    def test_flow_result_megabytes(self):
        result = FlowResult(2_500_000.0, 0.0, Action.RA, 3)
        assert result.megabytes == 2.5
