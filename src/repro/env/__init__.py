"""Measurement environments: 2-D geometry, room models, and the Tx/Rx
placement grids from Appendix A.2 of the LiBRA paper."""

from repro.env.geometry import Point, Segment, mirror_point, segments_intersect
from repro.env.rooms import (
    Room,
    make_lobby,
    make_lab,
    make_conference_room,
    make_corridor,
    make_building1_corridor,
    make_building2_open_area,
)
from repro.env.placement import PlacementPlan

__all__ = [
    "Point",
    "Segment",
    "mirror_point",
    "segments_intersect",
    "Room",
    "make_lobby",
    "make_lab",
    "make_conference_room",
    "make_corridor",
    "make_building1_corridor",
    "make_building2_open_area",
    "PlacementPlan",
]
