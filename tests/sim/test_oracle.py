"""Oracle policy tests."""

import pytest

from repro.core.ground_truth import Action
from repro.core.policies import BAFirstPolicy, RAFirstPolicy
from repro.sim.batch import BatchFlowSimulator
from repro.sim.engine import SimulationConfig, simulate_flow
from repro.sim.oracle import OracleData, OracleDelay
from tests.conftest import make_entry

CFG = SimulationConfig(ba_overhead_s=10e-3, frame_time_s=2e-3)


def data_choice(entry, config, duration_s):
    """Oracle-Data's action and the outcome of executing it."""
    simulator = BatchFlowSimulator(config)
    action = simulator.oracle_data_action(entry, duration_s)
    return action, simulator.execute(entry, action, duration_s)


def delay_choice(entry, config, duration_s):
    """Oracle-Delay's action and the outcome of executing it."""
    simulator = BatchFlowSimulator(config)
    action = simulator.oracle_delay_action(entry, duration_s)
    return action, simulator.execute(entry, action, duration_s)


class TestChoices:
    def test_data_oracle_picks_ba_for_better_pair(self):
        entry = make_entry([300], [300, 450, 865, 1300, 1730], 4)
        action, result = data_choice(entry, CFG, 1.0)
        assert action is Action.BA
        assert result.settled_mcs == 4

    def test_data_oracle_picks_na_when_link_still_works(self):
        entry = make_entry([300, 450, 865], [300, 450, 865], 2)
        action, _ = data_choice(entry, CFG, 1.0)
        assert action is Action.NA  # nothing broke: don't adapt

    def test_data_oracle_never_na_on_dead_link(self):
        entry = make_entry([300, 450], [300, 450, 865], 3)  # MCS 3 dead
        action, result = data_choice(entry, CFG, 1.0)
        assert action in (Action.RA, Action.BA)
        assert not result.link_died

    def test_delay_oracle_prefers_fast_ra(self):
        entry = make_entry([300, 450], [300, 450, 865, 1300], 3)
        big = SimulationConfig(ba_overhead_s=250e-3, frame_time_s=2e-3)
        action, _ = delay_choice(entry, big, 1.0)
        assert action is Action.RA

    def test_delay_oracle_prefers_ba_when_ra_must_fail(self):
        entry = make_entry([], [300, 450, 865], 4)
        action, _ = delay_choice(entry, CFG, 1.0)
        assert action is Action.BA  # RA-first pays the failed scan first

    def test_delay_oracle_na_when_nothing_broke(self):
        entry = make_entry([300, 450, 865], [300, 450, 865], 2)
        action, result = delay_choice(entry, CFG, 1.0)
        assert action is Action.NA
        assert result.recovery_delay_s == 0.0

    def test_delay_tie_breaks_by_bytes(self):
        entry = make_entry([300, 450], [300, 450], 2)  # MCS 2 dead everywhere
        action, _ = delay_choice(
            entry, SimulationConfig(ba_overhead_s=0.0, frame_time_s=2e-3), 1.0
        )
        assert action in (Action.RA, Action.BA)


class TestOptimality:
    """The defining property: oracles are never beaten by the heuristics."""

    def test_oracle_data_dominates_on_real_entries(self, testing_dataset):
        oracle = OracleData(CFG, 1.0)
        for entry in testing_dataset.entries[:80]:
            best = simulate_flow(oracle, entry, CFG, 1.0)
            for policy in (RAFirstPolicy(), BAFirstPolicy()):
                other = simulate_flow(policy, entry, CFG, 1.0)
                assert best.bytes_delivered >= other.bytes_delivered - 1.0

    def test_oracle_delay_dominates_on_real_entries(self, testing_dataset):
        oracle = OracleDelay(CFG, 1.0)
        for entry in testing_dataset.entries[:80]:
            best = simulate_flow(oracle, entry, CFG, 1.0)
            for policy in (RAFirstPolicy(), BAFirstPolicy()):
                other = simulate_flow(policy, entry, CFG, 1.0)
                assert best.recovery_delay_s <= other.recovery_delay_s + 1e-9


class TestPolicyAdapter:
    def test_unbound_oracle_raises(self):
        from repro.core.policies import Observation

        oracle = OracleData(CFG, 1.0)
        with pytest.raises(RuntimeError):
            oracle.decide(
                Observation(None, True, 4, False, CFG.ba_overhead_s)
            )

    def test_simulate_flow_binds_automatically(self):
        entry = make_entry([300], [300, 450, 865], 2)
        oracle = OracleData(CFG, 1.0)
        result = simulate_flow(oracle, entry, CFG, 1.0)
        assert result.action in (Action.RA, Action.BA)

    def test_names(self):
        assert OracleData(CFG, 1.0).name == "Oracle-Data"
        assert OracleDelay(CFG, 1.0).name == "Oracle-Delay"
