"""Cross-cutting edge-case and validation tests."""

import math

import numpy as np
import pytest

from repro.core.ground_truth import Action
from repro.dataset.builder import DatasetBuildConfig
from repro.dataset.entry import Dataset
from repro.env.geometry import Point, Segment
from repro.env.placement import RadioPose
from repro.env.rooms import Room
from repro.phy.channel import ChannelState, LinkGeometry
from repro.phy.tracing import trace_rays_cached
from repro.sim.engine import SimulationConfig, simulate_flow
from repro.core.policies import RAFirstPolicy
from repro.testbed.x60 import X60Link
from tests.conftest import make_entry, rays_up_to


class TestBuildConfigValidation:
    def test_zero_observation_window_rejected(self):
        with pytest.raises(ValueError):
            DatasetBuildConfig(observation_window_s=0.0).jitter_scale()

    def test_window_scaling_is_sqrt(self):
        config = DatasetBuildConfig(observation_window_s=0.25)
        assert config.jitter_scale() == pytest.approx(2.0)
        assert DatasetBuildConfig().jitter_scale() == pytest.approx(1.0)


class TestDegenerateGeometry:
    def test_colocated_tx_rx_does_not_crash(self):
        room = Room(
            "tiny",
            [Segment(Point(0, 0), Point(4, 0)), Segment(Point(4, 0), Point(4, 4)),
             Segment(Point(4, 4), Point(0, 4)), Segment(Point(0, 4), Point(0, 0))],
            [], width=4.0, length=4.0,
        )
        geometry = LinkGeometry(room, Point(2.0, 2.0), Point(2.0, 2.0001))
        rays = rays_up_to(geometry, 1)
        assert rays  # near-field clamp keeps the LOS finite
        assert all(math.isfinite(r.loss_db) for r in rays)

    def test_rx_in_a_wall_corner(self):
        room = Room(
            "tiny",
            [Segment(Point(0, 0), Point(4, 0)), Segment(Point(4, 0), Point(4, 4)),
             Segment(Point(4, 4), Point(0, 4)), Segment(Point(0, 4), Point(0, 0))],
            [], width=4.0, length=4.0,
        )
        geometry = LinkGeometry(room, Point(2.0, 2.0), Point(3.999, 3.999))
        rays = trace_rays_cached(geometry)
        assert any(r.order == 0 for r in rays)


class TestEmptyChannel:
    def test_measurement_of_dead_channel(self):
        """A channel with no rays must produce a coherent 'dead' record."""
        room = Room("void", [], [], width=1.0, length=1.0)
        link = X60Link(room, RadioPose(Point(0.1, 0.5), 0.0))
        rx = RadioPose(Point(0.9, 0.5), 180.0)
        state = ChannelState([], noise_dbm=-74.0)
        measurement = link.measure(state, rx, 0, 0)
        assert math.isinf(measurement.tof_ns)
        assert measurement.best_mcs() is None
        assert measurement.pdp.sum() == 0.0


class TestFlowEdgeCases:
    def test_tiny_flow_shorter_than_recovery(self):
        """A 4 ms flow cannot complete a multi-frame repair: bytes stay
        bounded and the delay report is still sane."""
        entry = make_entry([300, 450], [300, 450, 865], 3)
        config = SimulationConfig(ba_overhead_s=5e-3, frame_time_s=2e-3)
        result = simulate_flow(RAFirstPolicy(), entry, config, duration_s=4e-3)
        assert result.bytes_delivered >= 0.0
        assert result.bytes_delivered < 1e7

    def test_flow_on_completely_dead_entry(self):
        entry = make_entry([], [], 5)
        config = SimulationConfig()
        result = simulate_flow(RAFirstPolicy(), entry, config, 1.0)
        assert result.link_died
        assert result.bytes_delivered == 0.0

    def test_mcs_zero_entry(self):
        """An entry already at the bottom of the ladder still repairs."""
        entry = make_entry([300], [300], 0)
        config = SimulationConfig()
        result = simulate_flow(RAFirstPolicy(), entry, config, 1.0)
        assert result.settled_mcs == 0
        assert result.action is Action.NA or result.bytes_delivered > 0


class TestDatasetEdgeCases:
    def test_summary_of_empty_dataset(self):
        summary = Dataset().summary()
        assert summary["overall"]["total"] == 0
        assert summary["displacement"]["BA"] == 0

    def test_position_count_empty(self):
        assert Dataset().position_count() == 0
