"""Ray tracer tests: geometric correctness of the image method, blockage
accounting, and the vectorised beam-pair SNR machinery."""

import math

import numpy as np
import pytest

from repro.env.geometry import Point, Segment
from repro.env.rooms import Room, make_corridor
from repro.phy.antenna import sibeam_codebook
from repro.phy.channel import (
    ChannelState,
    LinkGeometry,
    per_ray_received_powers_dbm,
    received_power_dbm,
    snr_db,
    snr_matrix_db,
)
from repro.phy.propagation import path_loss_db
from repro.phy.tracing import trace_rays_cached
from tests.conftest import rays_up_to


def empty_room(length=20.0, width=10.0, loss=6.0) -> Room:
    walls = [
        Segment(Point(0, 0), Point(length, 0), loss, "south"),
        Segment(Point(length, 0), Point(length, width), loss, "east"),
        Segment(Point(length, width), Point(0, width), loss, "north"),
        Segment(Point(0, width), Point(0, 0), loss, "west"),
    ]
    return Room("test-room", walls, [], width=width, length=length)


@pytest.fixture
def geometry() -> LinkGeometry:
    return LinkGeometry(empty_room(), Point(2.0, 5.0), Point(12.0, 5.0))


class TestLosRay:
    def test_los_properties(self, geometry):
        rays = rays_up_to(geometry, 0)
        assert len(rays) == 1
        los = rays[0]
        assert los.order == 0
        assert los.path_length_m == pytest.approx(10.0)
        assert los.aod_deg == pytest.approx(0.0)
        assert abs(los.aoa_deg) == pytest.approx(180.0)
        assert los.loss_db == pytest.approx(path_loss_db(10.0))

    def test_delay_from_length(self, geometry):
        los = rays_up_to(geometry, 0)[0]
        assert los.delay_ns == pytest.approx(10.0 / 0.299792458, rel=1e-6)


class TestFirstOrderRays:
    def test_single_bounce_path_length_is_image_distance(self, geometry):
        rays = rays_up_to(geometry, 1)
        south = next(r for r in rays if r.via == ("south",))
        # Image method: path length equals distance from the mirrored Tx.
        image = Point(2.0, -5.0)
        assert south.path_length_m == pytest.approx(
            image.distance_to(Point(12.0, 5.0))
        )

    def test_reflection_loss_added(self, geometry):
        rays = rays_up_to(geometry, 1)
        south = next(r for r in rays if r.via == ("south",))
        assert south.loss_db == pytest.approx(
            path_loss_db(south.path_length_m) + 6.0
        )

    def test_angle_of_incidence_equals_reflection(self, geometry):
        rays = rays_up_to(geometry, 1)
        south = next(r for r in rays if r.via == ("south",))
        # Symmetric link: departure and arrival angles mirror each other.
        assert math.sin(math.radians(south.aod_deg)) == pytest.approx(
            math.sin(math.radians(180.0 - south.aoa_deg)), abs=1e-6
        )

    def test_four_walls_give_four_first_order_rays(self, geometry):
        rays = rays_up_to(geometry, 1)
        assert sum(1 for r in rays if r.order == 1) == 4


class TestSecondOrderRays:
    def test_second_order_rays_exist_and_are_longer(self, geometry):
        rays = trace_rays_cached(geometry)
        second = [r for r in rays if r.order == 2]
        first = [r for r in rays if r.order == 1]
        assert second
        assert min(r.path_length_m for r in second) > min(
            r.path_length_m for r in first
        )

    def test_rays_sorted_by_loss(self, geometry):
        rays = trace_rays_cached(geometry)
        losses = [r.loss_db for r in rays]
        assert losses == sorted(losses)


class TestBlockage:
    def test_blocker_attenuates_los_only(self, geometry):
        blocker = Segment(Point(7.0, 4.5), Point(7.0, 5.5), 20.0, "human")
        blocked = rays_up_to(geometry.with_blockers([blocker]), 1)
        clear = rays_up_to(geometry, 1)
        los_blocked = next(r for r in blocked if r.order == 0)
        los_clear = next(r for r in clear if r.order == 0)
        assert los_blocked.loss_db == pytest.approx(los_clear.loss_db + 20.0)
        # Side-wall reflections clear the blocker.
        south_blocked = next(r for r in blocked if r.via == ("south",))
        south_clear = next(r for r in clear if r.via == ("south",))
        assert south_blocked.loss_db == pytest.approx(south_clear.loss_db)

    def test_two_blockers_stack(self, geometry):
        blockers = [
            Segment(Point(5.0, 4.5), Point(5.0, 5.5), 20.0, "b1"),
            Segment(Point(9.0, 4.5), Point(9.0, 5.5), 15.0, "b2"),
        ]
        rays = rays_up_to(geometry.with_blockers(blockers), 0)
        clear = rays_up_to(geometry, 0)
        assert rays[0].loss_db == pytest.approx(clear[0].loss_db + 35.0)


class TestReceivedPower:
    @pytest.fixture
    def setup(self, geometry):
        codebook = sibeam_codebook()
        rays = trace_rays_cached(geometry)
        state = ChannelState(rays, noise_dbm=-74.0, geometry=geometry)
        return codebook, rays, state

    def test_aligned_beams_beat_misaligned(self, setup):
        codebook, rays, state = setup
        boresight = codebook.beam_closest_to(0.0)
        edge = codebook.beam_closest_to(60.0)
        aligned = received_power_dbm(rays, boresight, boresight, 0.0, 180.0, 10.0)
        misaligned = received_power_dbm(rays, edge, edge, 0.0, 180.0, 10.0)
        assert aligned > misaligned + 6.0

    def test_per_ray_powers_sum_to_total(self, setup):
        codebook, rays, state = setup
        beam = codebook.beam_closest_to(0.0)
        per_ray = per_ray_received_powers_dbm(rays, beam, beam, 0.0, 180.0, 10.0)
        total_mw = sum(10 ** (p / 10.0) for p in per_ray)
        total = received_power_dbm(rays, beam, beam, 0.0, 180.0, 10.0)
        assert total == pytest.approx(10 * math.log10(total_mw), abs=1e-9)

    def test_empty_channel_returns_floor(self):
        assert received_power_dbm(
            [], sibeam_codebook()[0], sibeam_codebook()[0], 0, 0, 10.0
        ) == pytest.approx(-300.0)

    def test_snr_matrix_matches_scalar_snr(self, setup):
        codebook, rays, state = setup
        matrix = snr_matrix_db(state, codebook, 0.0, 180.0, 10.0)
        assert matrix.shape == (25, 25)
        for ti, ri in [(0, 0), (12, 12), (5, 20)]:
            scalar = snr_db(state, codebook[ti], codebook[ri], 0.0, 180.0, 10.0)
            assert matrix[ti, ri] == pytest.approx(scalar, abs=1e-9)

    def test_best_pair_on_axis_for_facing_link(self, setup):
        codebook, rays, state = setup
        matrix = snr_matrix_db(state, codebook, 0.0, 180.0, 10.0)
        ti, ri = np.unravel_index(np.argmax(matrix), matrix.shape)
        # Tx faces +x, Rx faces -x, LOS is on both boresights: the winning
        # beams should steer near 0°.
        assert abs(codebook[ti].steering_deg) <= 10.0
        assert abs(codebook[ri].steering_deg) <= 10.0


class TestChannelState:
    def test_effective_noise_without_interference(self):
        state = ChannelState([], noise_dbm=-74.0)
        assert state.effective_noise_dbm() == -74.0


class TestCorridorWaveguiding:
    def test_corridor_has_rich_multipath(self):
        corridor = make_corridor(3.2)
        geometry = LinkGeometry(corridor, Point(0.5, 1.6), Point(15.0, 1.6))
        rays = trace_rays_cached(geometry)
        # LOS + side/end walls + double bounces: corridors waveguide.
        assert len(rays) >= 5
        assert any(r.order == 2 for r in rays)
