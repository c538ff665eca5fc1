"""Minimal 2-D computational geometry for the indoor ray tracer.

The channel simulator works in the horizontal plane: rooms are polygons of
wall :class:`Segment` objects, antennas are :class:`Point` positions with an
orientation angle, and reflections are computed with the image method
(mirror the source across a wall, intersect the mirror ray with the wall).

Everything here is deliberately dependency-free and exact enough for a
link-level simulator; we are not building a CAD kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

_EPS = 1e-9


@dataclass(frozen=True)
class Point:
    """A point (or free vector) in the 2-D floor plane, metres."""

    x: float
    y: float

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def __mul__(self, scalar: float) -> "Point":
        return Point(self.x * scalar, self.y * scalar)

    __rmul__ = __mul__

    def dot(self, other: "Point") -> float:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Point") -> float:
        """Z-component of the 3-D cross product (signed area)."""
        return self.x * other.y - self.y * other.x

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def distance_to(self, other: "Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def angle_to(self, other: "Point") -> float:
        """Bearing from this point to ``other``, radians in (-pi, pi]."""
        return math.atan2(other.y - self.y, other.x - self.x)

    def normalized(self) -> "Point":
        n = self.norm()
        if n < _EPS:
            raise ValueError("cannot normalize a zero-length vector")
        return Point(self.x / n, self.y / n)

    def rotated(self, angle_rad: float) -> "Point":
        c, s = math.cos(angle_rad), math.sin(angle_rad)
        return Point(c * self.x - s * self.y, s * self.x + c * self.y)


@dataclass(frozen=True)
class Segment:
    """A wall (or blocker) segment between two endpoints.

    ``material_loss_db`` is the reflection loss applied to a ray bouncing off
    this segment; higher values model absorptive materials (drywall) and
    lower values reflective ones (metal, glass).
    """

    a: Point
    b: Point
    material_loss_db: float = 8.0
    name: str = ""

    def length(self) -> float:
        return self.a.distance_to(self.b)

    def direction(self) -> Point:
        return (self.b - self.a).normalized()

    def normal(self) -> Point:
        """Unit normal (left of the a→b direction)."""
        d = self.direction()
        return Point(-d.y, d.x)

    def midpoint(self) -> Point:
        return Point((self.a.x + self.b.x) / 2.0, (self.a.y + self.b.y) / 2.0)


def mirror_point(p: Point, wall: Segment) -> Point:
    """Reflect ``p`` across the infinite line through ``wall`` (image method)."""
    d = wall.direction()
    ap = p - wall.a
    # Decompose into components parallel and perpendicular to the wall.
    parallel = d * ap.dot(d)
    perpendicular = ap - parallel
    return wall.a + parallel - perpendicular


def segment_intersection(
    p1: Point, p2: Point, q1: Point, q2: Point
) -> Optional[Point]:
    """Intersection point of segments ``p1p2`` and ``q1q2`` or ``None``.

    Collinear overlaps return ``None`` (they do not matter for ray tracing:
    a ray sliding exactly along a wall carries no reflected energy).
    """
    r = p2 - p1
    s = q2 - q1
    denom = r.cross(s)
    if abs(denom) < _EPS:
        return None
    qp = q1 - p1
    t = qp.cross(s) / denom
    u = qp.cross(r) / denom
    if -_EPS <= t <= 1.0 + _EPS and -_EPS <= u <= 1.0 + _EPS:
        return p1 + r * t
    return None


def segments_intersect(p1: Point, p2: Point, seg: Segment) -> bool:
    """True when the open segment ``p1p2`` crosses ``seg``.

    Endpoints exactly on the segment count as intersections; the blockage
    model uses this to decide whether a ray passes through a blocker.
    """
    return segment_intersection(p1, p2, seg.a, seg.b) is not None


def path_is_clear(
    p1: Point, p2: Point, obstacles: Iterable[Segment], skip: tuple[Segment, ...] = ()
) -> bool:
    """True when no obstacle segment (other than those in ``skip``) blocks
    the straight path from ``p1`` to ``p2``.

    Intersections within a millimetre of either endpoint are ignored so that
    a reflection point lying *on* a wall does not count as being blocked by
    that same wall.
    """
    for seg in obstacles:
        if any(seg is s for s in skip):
            continue
        hit = segment_intersection(p1, p2, seg.a, seg.b)
        if hit is None:
            continue
        if hit.distance_to(p1) < 1e-3 or hit.distance_to(p2) < 1e-3:
            continue
        return False
    return True


def deg(rad: float) -> float:
    return math.degrees(rad)


def rad(degrees: float) -> float:
    return math.radians(degrees)
