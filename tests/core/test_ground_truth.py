"""Ground-truth labelling tests (§5.2)."""

import numpy as np
import pytest

from repro.core.ground_truth import (
    Action,
    GroundTruthConfig,
    label_entry,
    label_inputs,
    max_delay_s,
    recovery_delays_s,
    th_ba,
    th_ra,
    utility,
)
from repro.core.rate_adaptation import first_working_descending
from tests.conftest import make_traces


class TestConfig:
    def test_defaults_valid(self):
        config = GroundTruthConfig()
        assert config.alpha == 1.0

    def test_invalid_alpha_rejected(self):
        with pytest.raises(ValueError):
            GroundTruthConfig(alpha=1.5)

    def test_invalid_overheads_rejected(self):
        with pytest.raises(ValueError):
            GroundTruthConfig(frame_time_s=0.0)
        with pytest.raises(ValueError):
            GroundTruthConfig(ba_overhead_s=-1.0)
        with pytest.raises(ValueError):
            GroundTruthConfig(tie_margin=-0.1)

    def test_dmax_formula(self):
        config = GroundTruthConfig(ba_overhead_s=0.25, frame_time_s=0.002)
        assert max_delay_s(config) == pytest.approx(2 * 9 * 0.002 + 0.25)


class TestFirstWorking:
    def test_finds_current_mcs_when_it_works(self):
        traces = make_traces([300, 450, 865, 1300])
        mcs, frames = first_working_descending(traces, 3)
        assert mcs == 3 and frames == 1

    def test_descends_to_working(self):
        traces = make_traces([300, 450])  # MCS 2+ dead
        mcs, frames = first_working_descending(traces, 4)
        assert mcs == 1
        assert frames == 4  # probed 4, 3, 2, 1

    def test_full_failed_scan_cost(self):
        traces = make_traces([])
        mcs, frames = first_working_descending(traces, 5)
        assert mcs is None and frames == 6

    def test_working_requires_throughput_floor(self):
        # 100 Mbps < the 150 Mbps floor: not a working MCS even at CDR 1.
        traces = make_traces([100.0])
        assert first_working_descending(traces, 0) == (None, 1)


class TestThroughputDefinitions:
    def test_th_ra_caps_at_initial_mcs(self):
        traces = make_traces([300, 450, 865, 1300, 1730])
        assert th_ra(traces, 2) == 865.0
        assert th_ra(traces, 4) == 1730.0

    def test_th_ba_same_cap(self):
        traces = make_traces([300, 450, 865])
        assert th_ba(traces, 1) == 450.0

    def test_dead_pair_gives_zero(self):
        assert th_ra(make_traces([]), 5) == 0.0


class TestRecoveryDelays:
    config = GroundTruthConfig(ba_overhead_s=5e-3, frame_time_s=2e-3)

    def delays(self, same, best, initial_mcs):
        """``(RA-first, BA-first)`` delays of one entry."""
        return recovery_delays_s(label_inputs(same, best, initial_mcs), self.config)

    def test_ra_delay_simple(self):
        same = make_traces([300, 450, 865])
        best = make_traces([300, 450, 865, 1300])
        # start at 4: probe 4 (dead), 3 (dead), 2 (works) = 3 frames.
        delay, _ = self.delays(same, best, 4)
        assert delay == pytest.approx(3 * 2e-3)

    def test_ra_fallback_through_ba(self):
        same = make_traces([])  # RA fails entirely
        best = make_traces([300, 450])
        delay, _ = self.delays(same, best, 4)
        # 5 failed frames + BA + 4 more frames (4, 3, 2 dead... wait: best
        # works at 1): probes 4, 3, 2, 1 → 4 frames.
        assert delay == pytest.approx(5 * 2e-3 + 5e-3 + 4 * 2e-3)

    def test_ba_delay(self):
        best = make_traces([300, 450, 865])
        _, delay = self.delays(make_traces([]), best, 4)
        assert delay == pytest.approx(5e-3 + 3 * 2e-3)

    def test_dead_link_saturates_at_dmax(self):
        dead = make_traces([])
        assert self.delays(dead, dead, 8) == (
            max_delay_s(self.config), max_delay_s(self.config)
        )


class TestUtility:
    def test_alpha_one_is_normalised_throughput(self):
        config = GroundTruthConfig(alpha=1.0)
        assert utility(4750.0, 1.0, config) == pytest.approx(1.0)
        assert utility(0.0, 0.0, config) == 0.0

    def test_alpha_zero_is_delay_term(self):
        config = GroundTruthConfig(alpha=0.0)
        assert utility(4750.0, 0.0, config) == pytest.approx(1.0)
        assert utility(4750.0, max_delay_s(config), config) == pytest.approx(0.0)

    def test_delay_clamped_at_dmax(self):
        config = GroundTruthConfig(alpha=0.0)
        assert utility(0.0, 10 * max_delay_s(config), config) == 0.0

    def test_alpha_blends(self):
        config = GroundTruthConfig(alpha=0.5)
        value = utility(4750.0 / 2, max_delay_s(config) / 2, config)
        assert value == pytest.approx(0.5 * 0.5 + 0.5 * 0.5)


class TestLabelEntry:
    def test_ba_wins_when_new_pair_much_better(self):
        same = make_traces([300])
        best = make_traces([300, 450, 865, 1300, 1730])
        assert label_entry(same, best, 4) is Action.BA

    def test_ra_wins_ties(self):
        traces = make_traces([300, 450, 865])
        assert label_entry(traces, traces, 2) is Action.RA

    def test_tie_margin_absorbs_tiny_edges(self):
        same = make_traces([300, 450, 865])
        slightly_better = make_traces([300, 450, 870])  # +5 Mbps
        config = GroundTruthConfig(tie_margin=0.005)
        assert label_entry(same, slightly_better, 2, config) is Action.RA
        strict = GroundTruthConfig(tie_margin=0.0)
        assert label_entry(same, slightly_better, 2, strict) is Action.BA

    def test_alpha_flips_label_for_slow_ba(self):
        """With a huge BA overhead and α favouring delay, RA's fast repair
        beats BA's better throughput."""
        same = make_traces([300, 450])  # RA recovers quickly, low rate
        best = make_traces([300, 450, 865, 1300, 1730, 2600])
        throughput_config = GroundTruthConfig(alpha=1.0, ba_overhead_s=250e-3)
        delay_config = GroundTruthConfig(alpha=0.0, ba_overhead_s=250e-3)
        assert label_entry(same, best, 5, throughput_config) is Action.BA
        assert label_entry(same, best, 5, delay_config) is Action.RA
