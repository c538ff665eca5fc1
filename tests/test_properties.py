"""Cross-module property-based tests (hypothesis).

Invariants that must hold for *any* input, not just the crafted cases in
the per-module suites.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ground_truth import (
    Action,
    GroundTruthConfig,
    label_entry,
    label_inputs,
    max_delay_s,
    recovery_delays_s,
    utility,
)
from repro.core.rate_adaptation import repair_ladder
from repro.env.geometry import Point, Segment, mirror_point
from repro.env.rooms import make_lobby
from repro.phy.channel import LinkGeometry
from repro.phy.error_model import best_throughput_array, codeword_delivery_ratio_array
from repro.sim.batch import BatchFlowSimulator
from repro.sim.engine import SimulationConfig
from repro.sim.vr import BandwidthProfile
from repro.testbed.traces import McsTraces
from tests.conftest import make_entry, rays_up_to

# -- strategies --------------------------------------------------------------

snr = st.floats(min_value=-20.0, max_value=40.0, allow_nan=False)
mcs_index = st.integers(min_value=0, max_value=8)


@st.composite
def mcs_traces(draw):
    """Random per-MCS traces with a consistent CDR/throughput relation."""
    from repro.phy.error_model import phy_rate_mbps

    cdr = np.array([draw(st.floats(min_value=0.0, max_value=1.0)) for _ in range(9)])
    tput = np.array([phy_rate_mbps(m) * cdr[m] for m in range(9)])
    return McsTraces(cdr, tput)


@st.composite
def gt_configs(draw):
    return GroundTruthConfig(
        alpha=draw(st.floats(min_value=0.0, max_value=1.0)),
        ba_overhead_s=draw(st.sampled_from([0.5e-3, 5e-3, 150e-3, 250e-3])),
        frame_time_s=draw(st.sampled_from([2e-3, 10e-3])),
    )


# -- ground truth ------------------------------------------------------------


class TestGroundTruthProperties:
    @given(mcs_traces(), mcs_traces(), mcs_index, gt_configs())
    @settings(max_examples=60, deadline=None)
    def test_label_is_always_binary(self, same, best, mcs, config):
        assert label_entry(same, best, mcs, config) in (Action.RA, Action.BA)

    @given(mcs_traces(), mcs_traces(), mcs_index, gt_configs())
    @settings(max_examples=60, deadline=None)
    def test_delays_bounded_by_dmax(self, same, best, mcs, config):
        d_max = max_delay_s(config)
        delay_ra, delay_ba = recovery_delays_s(label_inputs(same, best, mcs), config)
        assert 0.0 <= delay_ba <= d_max + 1e-12
        assert 0.0 <= delay_ra <= d_max + 1e-12

    @given(
        st.floats(min_value=0.0, max_value=4750.0),
        st.floats(min_value=0.0, max_value=10.0),
        gt_configs(),
    )
    @settings(max_examples=60, deadline=None)
    def test_utility_in_unit_interval(self, tput, delay, config):
        assert 0.0 <= utility(tput, delay, config) <= 1.0 + 1e-12

    @given(mcs_traces(), mcs_index)
    @settings(max_examples=60, deadline=None)
    def test_ba_delay_grows_with_overhead(self, best, mcs):
        small = GroundTruthConfig(ba_overhead_s=0.5e-3)
        large = GroundTruthConfig(ba_overhead_s=250e-3)
        inputs = label_inputs(best, best, mcs)  # the BA delay reads only the best pair
        assert recovery_delays_s(inputs, small)[1] <= recovery_delays_s(inputs, large)[1]


# -- rate adaptation ---------------------------------------------------------


class TestRateAdaptationProperties:
    @given(mcs_traces(), mcs_index)
    @settings(max_examples=60, deadline=None)
    def test_repair_never_exceeds_full_scan(self, traces, start):
        result = repair_ladder(traces, start)
        assert 1 <= result.frames_spent <= start + 1

    @given(mcs_traces(), mcs_index)
    @settings(max_examples=60, deadline=None)
    def test_settled_mcs_is_working_and_capped(self, traces, start):
        result = repair_ladder(traces, start)
        if result.found_mcs is not None:
            assert 0 <= result.found_mcs <= start
            from repro.constants import (
                WORKING_MCS_MIN_CDR,
                WORKING_MCS_MIN_THROUGHPUT_MBPS,
            )

            assert traces.cdr[result.found_mcs] > WORKING_MCS_MIN_CDR
            assert (
                traces.throughput_mbps[result.found_mcs]
                > WORKING_MCS_MIN_THROUGHPUT_MBPS
            )

    @given(mcs_traces(), st.integers(min_value=0, max_value=8),
           st.floats(min_value=0.01, max_value=2.0))
    @settings(max_examples=40, deadline=None)
    def test_steady_state_bytes_bounded_by_best_rate(self, traces, mcs, duration):
        # An NA flow's bytes are the steady state on the unchanged pair.
        entry = dataclasses.replace(make_entry([], [], mcs), traces_same_pair=traces)
        simulator = BatchFlowSimulator(SimulationConfig(frame_time_s=2e-3))
        delivered = simulator.execute(entry, Action.NA, duration).bytes_delivered
        ceiling = float(traces.throughput_mbps.max()) * 1e6 / 8.0 * duration
        assert 0.0 <= delivered <= ceiling * 1.001 + 1.0


# -- PHY ----------------------------------------------------------------------


class TestPhyProperties:
    @given(snr, mcs_index)
    @settings(max_examples=100, deadline=None)
    def test_cdr_is_probability(self, value, mcs):
        assert 0.0 <= codeword_delivery_ratio_array(value)[mcs] <= 1.0

    @given(snr)
    @settings(max_examples=60, deadline=None)
    def test_best_throughput_monotone_in_snr(self, value):
        _, (low, high) = best_throughput_array([value, value + 3.0])
        assert high >= low - 1e-9

    @given(
        st.floats(min_value=1.0, max_value=18.0),
        st.floats(min_value=1.0, max_value=10.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_ray_count_and_losses_positive(self, x, y):
        room = make_lobby()
        geometry = LinkGeometry(room, Point(2.0, 6.0), Point(x, y))
        rays = rays_up_to(geometry, 1)
        assert rays, "lobby always has at least a LOS/reflection path"
        for ray in rays:
            assert ray.loss_db > 0
            assert ray.path_length_m > 0

    @given(
        st.floats(min_value=-40, max_value=40),
        st.floats(min_value=-40, max_value=40),
    )
    @settings(max_examples=40, deadline=None)
    def test_mirror_point_distance_symmetry(self, x, y):
        wall = Segment(Point(0, 0), Point(10, 0))
        p = Point(x, y)
        m = mirror_point(p, wall)
        probe = Point(3.7, 0.0)  # a point on the wall line
        assert probe.distance_to(p) == pytest.approx(probe.distance_to(m), rel=1e-6)


# -- VR ------------------------------------------------------------------------


class TestVrProperties:
    @given(
        st.lists(st.floats(min_value=10.0, max_value=4000.0), min_size=1, max_size=6),
        st.floats(min_value=0.01, max_value=20.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_cumulative_bytes_monotone(self, rates, t):
        times = tuple(float(i) for i in range(len(rates)))
        profile = BandwidthProfile(times, tuple(rates))
        assert profile.bytes_delivered_until(t) <= profile.bytes_delivered_until(
            t + 1.0
        )

    @given(
        st.lists(st.floats(min_value=10.0, max_value=4000.0), min_size=1, max_size=6),
        st.floats(min_value=1e3, max_value=1e9),
    )
    @settings(max_examples=40, deadline=None)
    def test_time_to_deliver_is_inverse(self, rates, target):
        times = tuple(float(i) for i in range(len(rates)))
        profile = BandwidthProfile(times, tuple(rates))
        t = profile.time_to_deliver(target)
        if t != float("inf"):
            assert profile.bytes_delivered_until(t) == pytest.approx(
                target, rel=1e-6
            )
