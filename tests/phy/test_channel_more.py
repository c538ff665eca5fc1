"""Deeper ray-tracer coverage: second-order identities, reflection
blockage, and the asymmetric-corridor structure the calibration relies on."""

import math

import numpy as np
import pytest

from repro.env.geometry import Point, Segment, mirror_point
from repro.env.rooms import Room, make_corridor
from repro.phy.channel import LinkGeometry
from repro.phy.propagation import path_loss_db
from repro.phy.tracing import trace_rays_cached
from tests.conftest import rays_up_to


def box(length=20.0, width=10.0, loss=6.0) -> Room:
    corners = [Point(0, 0), Point(length, 0), Point(length, width), Point(0, width)]
    walls = [
        Segment(corners[i], corners[(i + 1) % 4], loss, f"w{i}") for i in range(4)
    ]
    return Room("box", walls, [], width=width, length=length)


class TestSecondOrderIdentity:
    def test_double_image_path_length(self):
        """Second-order path length equals the distance from the doubly
        mirrored Tx — the nested image identity."""
        room = box()
        tx, rx = Point(3.0, 4.0), Point(15.0, 7.0)
        geometry = LinkGeometry(room, tx, rx)
        rays = trace_rays_cached(geometry)
        south = room.walls[0]
        north = room.walls[2]
        ray = next(
            (r for r in rays if r.via == (south.name, north.name)), None
        )
        assert ray is not None
        image = mirror_point(mirror_point(tx, south), north)
        assert ray.path_length_m == pytest.approx(image.distance_to(rx), rel=1e-9)

    def test_second_order_loss_includes_both_walls(self):
        room = box(loss=7.0)
        geometry = LinkGeometry(room, Point(3.0, 4.0), Point(15.0, 7.0))
        rays = trace_rays_cached(geometry)
        double = next(r for r in rays if r.order == 2)
        assert double.loss_db == pytest.approx(
            path_loss_db(double.path_length_m) + 14.0
        )


class TestBlockedReflections:
    def test_blocker_near_rx_hits_every_path(self):
        """A blocker hugging the Rx intersects the LOS *and* the wall
        bounces — the paper's near-Rx blocker position is the harshest."""
        room = box()
        tx, rx = Point(3.0, 5.0), Point(15.0, 5.0)
        blocker = Segment(Point(14.5, 0.5), Point(14.5, 9.5), 20.0, "crowd")
        clear = rays_up_to(LinkGeometry(room, tx, rx), 1)
        blocked = rays_up_to(LinkGeometry(room, tx, rx, (blocker,)), 1)
        clear_total = sum(10 ** (-r.loss_db / 10) for r in clear)
        blocked_total = sum(10 ** (-r.loss_db / 10) for r in blocked)
        # Every path crosses the crowd once: total power down 20 dB (100x).
        assert blocked_total == pytest.approx(clear_total / 100.0, rel=1e-6)
        assert all(
            b.loss_db == pytest.approx(c.loss_db + 20.0)
            for c, b in zip(
                sorted(clear, key=lambda r: r.via),
                sorted(blocked, key=lambda r: r.via),
            )
        )

    def test_mid_blocker_spares_side_bounces(self):
        """A torso mid-path kills the LOS but the wide wall bounces route
        around it — why BA via a reflection repairs blockage."""
        room = box()
        tx, rx = Point(3.0, 5.0), Point(15.0, 5.0)
        torso = Segment(Point(9.0, 4.75), Point(9.0, 5.25), 22.0, "torso")
        blocked = rays_up_to(LinkGeometry(room, tx, rx, (torso,)), 1)
        los = next(r for r in blocked if r.order == 0)
        side = next(r for r in blocked if r.order == 1)
        assert los.loss_db > path_loss_db(los.path_length_m) + 20.0
        assert side.loss_db == pytest.approx(path_loss_db(side.path_length_m) + 6.0)


class TestCorridorAsymmetry:
    def test_off_axis_lane_breaks_reflection_symmetry(self):
        """With the antennas off the corridor axis the two side-wall
        bounces differ in length — the structure that lets the optimal
        beam drift with distance (DESIGN.md §6.1)."""
        corridor = make_corridor(3.2)
        lane = 0.35 * corridor.width
        geometry = LinkGeometry(
            corridor, Point(0.5, lane), Point(15.0, lane)
        )
        rays = rays_up_to(geometry, 1)
        side_bounces = sorted(
            (r.path_length_m for r in rays if r.order == 1 and "side" in r.via[0])
        )
        assert len(side_bounces) == 2
        assert side_bounces[1] - side_bounces[0] > 0.01

    def test_waveguiding_narrows_angles_with_distance(self):
        """At long range the wall bounces arrive within a few degrees of
        the LOS — corridor waveguiding."""
        corridor = make_corridor(1.74)
        lane = 0.6
        tx = Point(0.5, lane)
        near = rays_up_to(LinkGeometry(corridor, tx, Point(4.0, lane)), 1)
        far = rays_up_to(LinkGeometry(corridor, tx, Point(22.0, lane)), 1)

        def max_bounce_angle(rays):
            return max(
                abs(r.aod_deg) for r in rays if r.order == 1 and "side" in r.via[0]
            )

        assert max_bounce_angle(far) < max_bounce_angle(near) / 2.0
