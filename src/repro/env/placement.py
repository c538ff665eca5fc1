"""Tx/Rx placement and motion grids from Appendix A.2 of the LiBRA paper.

The dataset builder walks these plans to produce the measurement campaign:
for every *displacement track* it measures an initial state and a series of
new states (moved and/or rotated Rx); for every *impairment position* it
introduces human blockage (3 blocker spots) or hidden-terminal interference
(3 levels).

Coordinates follow the room convention of :mod:`repro.env.rooms`: the room
occupies ``[0, length] x [0, width]`` and the Tx sits near ``x = 0`` facing
+x (orientation 0 rad) unless stated otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.env.geometry import Point
from repro.env.rooms import (
    Room,
    make_building1_corridor,
    make_building2_open_area,
    make_conference_room,
    make_corridor,
    make_lab,
    make_lobby,
)

ROTATION_STEPS_DEG = tuple(
    d for d in range(-90, 91, 15) if d != 0
)  # ±15° .. ±90°, 12 orientations (§4.2)


@dataclass(frozen=True)
class RadioPose:
    """Position + boresight orientation of one antenna."""

    position: Point
    orientation_deg: float


@dataclass(frozen=True)
class DisplacementTrack:
    """One initial Rx state and the new states measured from it."""

    room_name: str
    tx: RadioPose
    initial_rx: RadioPose
    new_states: tuple[RadioPose, ...]
    label: str = ""


@dataclass(frozen=True)
class ImpairmentPosition:
    """A (Tx, Rx) placement where blockage / interference is introduced."""

    room_name: str
    tx: RadioPose
    rx: RadioPose
    label: str = ""


@dataclass
class PlacementPlan:
    """Everything the dataset builder needs for one room."""

    room: Room
    displacement_tracks: list[DisplacementTrack] = field(default_factory=list)
    impairment_positions: list[ImpairmentPosition] = field(default_factory=list)


def _facing(src: Point, dst: Point) -> float:
    """Orientation (deg) that points ``src``'s boresight at ``dst``."""
    return math.degrees(src.angle_to(dst))


def _rotations_at(pose: RadioPose) -> tuple[RadioPose, ...]:
    """The 12 rotated variants of ``pose`` (±15°..±90° in 15° steps)."""
    return tuple(
        RadioPose(pose.position, pose.orientation_deg + delta)
        for delta in ROTATION_STEPS_DEG
    )


def _linear_track(
    room_name: str,
    tx: RadioPose,
    start: Point,
    step: Point,
    count: int,
    label: str,
    face_tx: bool = True,
) -> DisplacementTrack:
    """A track whose Rx starts at ``start`` and takes ``count`` steps of
    ``step``; the Rx faces the Tx at the initial state and keeps that
    orientation while moving (matching the paper's fixed-orientation moves).
    """
    orientation = _facing(start, tx.position) if face_tx else 0.0
    initial = RadioPose(start, orientation)
    new_states = tuple(
        RadioPose(start + step * float(i), orientation) for i in range(1, count + 1)
    )
    return DisplacementTrack(room_name, tx, initial, new_states, label)


# ---------------------------------------------------------------------------
# Per-room plans (Appendix A.2.2)
# ---------------------------------------------------------------------------


def lobby_plan() -> PlacementPlan:
    """Lobby: Tx1 with backward/lateral/diagonal motion + rotations at two
    positions; a second Tx position with its own Rx grid (Fig. 14a)."""
    room = make_lobby()
    tx1 = RadioPose(Point(2.0, 6.0), 0.0)
    start = Point(6.0, 6.0)

    tracks = [
        _linear_track(room.name, tx1, start, Point(2.5, 0.0), 4, "backward"),
        _linear_track(room.name, tx1, start, Point(0.0, 1.4), 4, "lateral"),
        _linear_track(room.name, tx1, start, Point(2.0, 1.2), 4, "diagonal"),
    ]
    # Rotations at two positions (paper: positions 2 and 19).
    rot_a = RadioPose(Point(11.0, 6.0), _facing(Point(11.0, 6.0), tx1.position))
    rot_b = RadioPose(Point(10.0, 9.6), _facing(Point(10.0, 9.6), tx1.position))
    tracks.append(DisplacementTrack(room.name, tx1, rot_a, _rotations_at(rot_a), "rotation-a"))
    tracks.append(DisplacementTrack(room.name, tx1, rot_b, _rotations_at(rot_b), "rotation-b"))

    # Second Tx position with 9 Rx positions (paper: Tx2, 9 positions).
    tx2 = RadioPose(Point(2.0, 10.0), -15.0)
    tracks.append(
        _linear_track(room.name, tx2, Point(6.0, 8.5), Point(1.7, -0.5), 8, "tx2-sweep")
    )

    impairments = [
        ImpairmentPosition(room.name, tx1, RadioPose(Point(8.5, 6.0), 180.0), "lobby-near"),
        ImpairmentPosition(room.name, tx1, RadioPose(Point(12.0, 6.0), 180.0), "lobby-mid"),
        ImpairmentPosition(room.name, tx1, RadioPose(Point(16.0, 6.0), 180.0), "lobby-far"),
        ImpairmentPosition(room.name, tx2, RadioPose(Point(12.0, 8.0), 165.0), "lobby-tx2"),
    ]
    return PlacementPlan(room, tracks, impairments)


def lab_plan() -> PlacementPlan:
    """Lab: 10-position sweep down the centre aisle + rotations at 3 spots."""
    room = make_lab()
    tx = RadioPose(Point(0.8, 5.0), 0.0)
    start = Point(2.8, 5.0)
    tracks = [_linear_track(room.name, tx, start, Point(0.9, 0.0), 9, "aisle-sweep")]
    for i, x in enumerate((4.6, 7.3, 10.0)):
        pose = RadioPose(Point(x, 5.0), 180.0)
        tracks.append(
            DisplacementTrack(room.name, tx, pose, _rotations_at(pose), f"rotation-{i}")
        )
    impairments = [
        ImpairmentPosition(room.name, tx, RadioPose(Point(8.2, 5.0), 180.0), "lab-mid"),
    ]
    return PlacementPlan(room, tracks, impairments)


def conference_plan() -> PlacementPlan:
    """Conference room: positions around the table (Fig. 14c), some facing
    away from the Tx (NLOS via whiteboard), rotations at two positions."""
    room = make_conference_room()
    tx = RadioPose(Point(0.8, 3.4), 0.0)
    positions = [
        (Point(3.0, 1.5), None),  # None -> face the Tx
        (Point(5.2, 1.5), None),
        (Point(7.4, 1.5), None),
        (Point(9.2, 3.4), None),
        (Point(7.4, 5.3), 0.0),  # facing same direction as Tx: reflection only
        (Point(5.2, 5.3), 0.0),
        (Point(3.0, 5.3), 0.0),
        (Point(2.0, 4.6), 0.0),
        (Point(8.4, 2.4), None),
    ]
    initial = RadioPose(Point(3.0, 1.5), _facing(Point(3.0, 1.5), tx.position))
    new_states = []
    for pos, forced in positions[1:]:
        orient = forced if forced is not None else _facing(pos, tx.position)
        new_states.append(RadioPose(pos, orient))
    tracks = [DisplacementTrack(room.name, tx, initial, tuple(new_states), "table-circuit")]
    for i, (pos, _forced) in enumerate((positions[0], positions[4])):
        pose = RadioPose(pos, _facing(pos, tx.position) if i == 0 else 0.0)
        tracks.append(
            DisplacementTrack(room.name, tx, pose, _rotations_at(pose), f"rotation-{i}")
        )
    impairments = [
        ImpairmentPosition(room.name, tx, RadioPose(Point(5.2, 1.5), 180.0), "conf-side"),
        ImpairmentPosition(room.name, tx, RadioPose(Point(9.2, 3.4), 180.0), "conf-end"),
    ]
    return PlacementPlan(room, tracks, impairments)


def corridor_plans() -> list[PlacementPlan]:
    """Three corridors: a 17-position sweep in the narrow one; 10-position
    sweeps plus rotations at 5/10/15 m in the two wider ones (A.2.2)."""
    plans = []

    # Antennas are mounted off the corridor axis (as in any real
    # deployment): the asymmetric wall reflections make the optimal beam
    # drift with distance instead of staying pinned to the boresight pair.
    narrow = make_corridor(1.74)
    tx_n = RadioPose(Point(0.5, 0.6), 0.0)
    track = _linear_track(narrow.name, tx_n, Point(3.0, 0.6), Point(1.25, 0.0), 16, "sweep")
    impairments_n = [
        ImpairmentPosition(narrow.name, tx_n, RadioPose(Point(8.0, 0.6), 180.0), "narrow-8m"),
    ]
    plans.append(PlacementPlan(narrow, [track], impairments_n))

    for width, n_block in ((3.2, 2), (6.2, 2)):
        room = make_corridor(width)
        lane = 0.35 * width  # off-centre, see the narrow-corridor note
        tx = RadioPose(Point(0.5, lane), 0.0)
        tracks = [
            _linear_track(room.name, tx, Point(3.0, lane), Point(1.25, 0.0), 9, "sweep")
        ]
        for dist in (5.0, 10.0, 15.0):
            pose = RadioPose(Point(dist, lane), 180.0)
            tracks.append(
                DisplacementTrack(room.name, tx, pose, _rotations_at(pose), f"rot-{dist:g}m")
            )
        impairments = [
            ImpairmentPosition(
                room.name, tx, RadioPose(Point(4.0 + 5.0 * i, lane), 180.0),
                f"{room.name}-{i}",
            )
            for i in range(n_block)
        ]
        plans.append(PlacementPlan(room, tracks, impairments))
    return plans


def building1_plan() -> PlacementPlan:
    """Building 1: long 2.5 m old corridor, Rx at several distances (§6.2)."""
    room = make_building1_corridor()
    tx = RadioPose(Point(0.5, 0.9), 0.0)
    tracks = [
        _linear_track(room.name, tx, Point(3.0, 0.9), Point(1.4, 0.0), 15, "sweep"),
    ]
    for dist in (6.0, 12.0, 18.0):
        pose = RadioPose(Point(dist, 0.9), 180.0)
        tracks.append(
            DisplacementTrack(room.name, tx, pose, _rotations_at(pose), f"rot-{dist:g}m")
        )
    impairments = [
        ImpairmentPosition(room.name, tx, RadioPose(Point(9.0, 0.9), 180.0), "b1-9m"),
        ImpairmentPosition(room.name, tx, RadioPose(Point(16.0, 0.9), 180.0), "b1-16m"),
    ]
    return PlacementPlan(room, tracks, impairments)


def building2_plan() -> PlacementPlan:
    """Building 2: wide open area, larger than the main lobby (§6.2)."""
    room = make_building2_open_area()
    tx = RadioPose(Point(2.0, 9.0), 0.0)
    start = Point(6.0, 9.0)
    tracks = [
        _linear_track(room.name, tx, start, Point(2.2, 0.0), 5, "backward"),
        _linear_track(room.name, tx, start, Point(1.8, 1.6), 4, "diagonal"),
    ]
    rot = RadioPose(Point(14.0, 9.0), 180.0)
    tracks.append(DisplacementTrack(room.name, tx, rot, _rotations_at(rot), "rotation"))
    impairments = [
        ImpairmentPosition(room.name, tx, RadioPose(Point(10.0, 9.0), 180.0), "b2-mid"),
        ImpairmentPosition(room.name, tx, RadioPose(Point(18.0, 12.0), 200.0), "b2-far"),
    ]
    return PlacementPlan(room, tracks, impairments)


def main_building_plans() -> list[PlacementPlan]:
    """All plans for the main/training dataset (Table 1)."""
    return [lobby_plan(), lab_plan(), conference_plan()] + corridor_plans()


def testing_building_plans() -> list[PlacementPlan]:
    """All plans for the cross-building testing dataset (Table 2)."""
    return [building1_plan(), building2_plan()]
