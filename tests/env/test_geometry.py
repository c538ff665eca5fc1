"""Geometry kernel tests: exact cases plus hypothesis invariants."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.env.geometry import (
    Point,
    Segment,
    deg,
    mirror_point,
    path_is_clear,
    rad,
    segment_intersection,
    segments_intersect,
)

finite = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


class TestPoint:
    def test_add_sub(self):
        assert Point(1, 2) + Point(3, 4) == Point(4, 6)
        assert Point(3, 4) - Point(1, 2) == Point(2, 2)

    def test_scalar_multiply_commutes(self):
        assert Point(1, 2) * 3 == 3 * Point(1, 2) == Point(3, 6)

    def test_dot_and_cross(self):
        assert Point(1, 0).dot(Point(0, 1)) == 0.0
        assert Point(1, 0).cross(Point(0, 1)) == 1.0
        assert Point(0, 1).cross(Point(1, 0)) == -1.0

    def test_norm_and_distance(self):
        assert Point(3, 4).norm() == 5.0
        assert Point(0, 0).distance_to(Point(3, 4)) == 5.0

    def test_angle_to_cardinal_directions(self):
        origin = Point(0, 0)
        assert origin.angle_to(Point(1, 0)) == pytest.approx(0.0)
        assert origin.angle_to(Point(0, 1)) == pytest.approx(math.pi / 2)
        assert origin.angle_to(Point(-1, 0)) == pytest.approx(math.pi)

    def test_normalized_unit_length(self):
        assert Point(5, 0).normalized() == Point(1, 0)
        with pytest.raises(ValueError):
            Point(0, 0).normalized()

    def test_rotation_quarter_turn(self):
        rotated = Point(1, 0).rotated(math.pi / 2)
        assert rotated.x == pytest.approx(0.0, abs=1e-12)
        assert rotated.y == pytest.approx(1.0)

    @given(finite, finite, st.floats(min_value=-math.pi, max_value=math.pi))
    def test_rotation_preserves_norm(self, x, y, angle):
        p = Point(x, y)
        assert p.rotated(angle).norm() == pytest.approx(p.norm(), abs=1e-9)


class TestSegment:
    def test_length_direction_normal(self):
        seg = Segment(Point(0, 0), Point(2, 0))
        assert seg.length() == 2.0
        assert seg.direction() == Point(1, 0)
        assert seg.normal() == Point(0, 1)

    def test_midpoint(self):
        assert Segment(Point(0, 0), Point(2, 4)).midpoint() == Point(1, 2)


class TestMirror:
    def test_mirror_across_x_axis(self):
        wall = Segment(Point(0, 0), Point(10, 0))
        assert mirror_point(Point(3, 4), wall) == Point(3, -4)

    def test_point_on_wall_is_fixed(self):
        wall = Segment(Point(0, 0), Point(10, 0))
        mirrored = mirror_point(Point(5, 0), wall)
        assert mirrored.distance_to(Point(5, 0)) < 1e-12

    @given(finite, finite)
    def test_mirror_is_involution(self, x, y):
        wall = Segment(Point(-3, -7), Point(11, 5))
        p = Point(x, y)
        twice = mirror_point(mirror_point(p, wall), wall)
        assert twice.distance_to(p) < 1e-6

    @given(finite, finite)
    def test_mirror_preserves_distance_to_wall_line(self, x, y):
        wall = Segment(Point(0, 0), Point(1, 1))
        p = Point(x, y)
        m = mirror_point(p, wall)
        # Both are equidistant from any point on the wall line.
        assert wall.a.distance_to(p) == pytest.approx(wall.a.distance_to(m), abs=1e-6)


class TestIntersection:
    def test_crossing_segments(self):
        hit = segment_intersection(Point(0, 0), Point(2, 2), Point(0, 2), Point(2, 0))
        assert hit is not None
        assert hit.distance_to(Point(1, 1)) < 1e-9

    def test_parallel_segments_miss(self):
        assert (
            segment_intersection(Point(0, 0), Point(1, 0), Point(0, 1), Point(1, 1))
            is None
        )

    def test_non_overlapping_lines_miss(self):
        assert (
            segment_intersection(Point(0, 0), Point(1, 0), Point(5, -1), Point(5, 1))
            is None
        )

    def test_touching_at_endpoint_counts(self):
        hit = segment_intersection(Point(0, 0), Point(1, 1), Point(1, 1), Point(2, 0))
        assert hit is not None

    def test_segments_intersect_wrapper(self):
        blocker = Segment(Point(1, -1), Point(1, 1))
        assert segments_intersect(Point(0, 0), Point(2, 0), blocker)
        assert not segments_intersect(Point(0, 0), Point(0.5, 0), blocker)


class TestPathIsClear:
    def test_clear_without_obstacles(self):
        assert path_is_clear(Point(0, 0), Point(10, 0), [])

    def test_blocked_by_crossing_segment(self):
        wall = Segment(Point(5, -1), Point(5, 1))
        assert not path_is_clear(Point(0, 0), Point(10, 0), [wall])

    def test_skip_list_ignores_segment(self):
        wall = Segment(Point(5, -1), Point(5, 1))
        assert path_is_clear(Point(0, 0), Point(10, 0), [wall], skip=(wall,))

    def test_endpoint_on_obstacle_does_not_block(self):
        # A reflection point lies exactly on its wall; that wall must not
        # count as blocking the sub-path that ends there.
        wall = Segment(Point(0, 1), Point(10, 1))
        assert path_is_clear(Point(0, 0), Point(5, 1), [wall])


class TestAngles:
    def test_deg_rad_round_trip(self):
        assert deg(rad(37.5)) == pytest.approx(37.5)
