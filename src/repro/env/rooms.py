"""Room models for every environment in the LiBRA measurement campaign.

Appendix A.2.1 of the paper describes six environments in the main campus
building — an open lobby, a lab (11.8 x 9.2 m), a conference room
(10.4 x 6.8 m), and three corridors of width 1.74 m / 3.2 m / 6.2 m — plus a
2.5 m corridor in Building 1 and a wide open area in Building 2 used for the
cross-building testing dataset.

A :class:`Room` is a set of wall segments with per-wall reflection losses
that encode the paper's qualitative material notes (glass + metal lobby
panels, metallic lab cabinets, conference-room whiteboard, older Building 1
with fewer reflective surfaces).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.env.geometry import Point, Segment

#: Reflection losses (dB) for the materials mentioned in Appendix A.2.1.
MATERIAL_LOSS_DB = {
    "metal": 2.0,
    "glass": 5.0,
    "whiteboard": 4.0,
    "drywall": 9.0,
    "brick": 12.0,
    "old_plaster": 16.0,
}


@dataclass
class Room:
    """A rectangular (or polygonal) indoor environment.

    Attributes:
        name: Human-readable identifier used in dataset provenance.
        walls: Reflecting wall segments.
        clutter: Non-wall reflectors inside the room (cabinets, desks).
            They both reflect and block rays.
        width/length: Bounding-box dimensions, metres (informational).
    """

    name: str
    walls: list[Segment]
    clutter: list[Segment] = field(default_factory=list)
    width: float = 0.0
    length: float = 0.0

    def reflectors(self) -> list[Segment]:
        """All segments a ray may bounce off."""
        return self.walls + self.clutter

    def obstacles(self) -> list[Segment]:
        """Segments that can block a ray (clutter only; walls bound the room)."""
        return self.clutter


def _rect_walls(
    length: float, width: float, loss_db: float, names: tuple[str, str, str, str]
) -> list[Segment]:
    """Axis-aligned rectangle with corners (0,0)..(length,width).

    The long axis is x; Tx conventionally sits near x=0 looking toward +x.
    """
    p00 = Point(0.0, 0.0)
    p10 = Point(length, 0.0)
    p11 = Point(length, width)
    p01 = Point(0.0, width)
    return [
        Segment(p00, p10, loss_db, names[0]),  # south wall
        Segment(p10, p11, loss_db, names[1]),  # east (far) wall
        Segment(p11, p01, loss_db, names[2]),  # north wall
        Segment(p01, p00, loss_db, names[3]),  # west (near) wall
    ]


def make_lobby() -> Room:
    """Open lobby: one side glass + metal panels, the other a wall (Fig. 14a).

    Modelled as a 20 x 12 m open space.  The south side mixes glass (upper)
    and metal (lower) — we use the metal loss since the antennas sit at
    1.4 m, below the glass line.  Two pillars add clutter.
    """
    length, width = 20.0, 12.0
    walls = [
        Segment(Point(0, 0), Point(length, 0), MATERIAL_LOSS_DB["metal"], "panel-side"),
        Segment(Point(length, 0), Point(length, width), MATERIAL_LOSS_DB["drywall"], "far"),
        Segment(Point(length, width), Point(0, width), MATERIAL_LOSS_DB["drywall"], "wall-side"),
        Segment(Point(0, width), Point(0, 0), MATERIAL_LOSS_DB["drywall"], "near"),
    ]
    # Pillars sit off the measurement tracks (which run near y = 6) so they
    # enrich the multipath without shadowing the main Tx-Rx line.
    pillars = [
        Segment(Point(7.0, 9.5), Point(7.0, 10.5), MATERIAL_LOSS_DB["brick"], "pillar-1"),
        Segment(Point(13.0, 1.5), Point(13.0, 2.5), MATERIAL_LOSS_DB["brick"], "pillar-2"),
    ]
    return Room("lobby", walls, pillars, width=width, length=length)


def make_lab() -> Room:
    """Lab: 11.8 x 9.2 m with rows of desks and metallic storage cabinets.

    The cabinets along the walls make the lab highly reflective; desk rows
    are modelled as partial-height clutter segments that block the LOS at
    antenna height only near them (the paper raised the Tx to 2.05 m to
    clear the furniture — we keep antennas clear of the desk rows by placing
    positions in the aisles, so the desk segments mostly act as reflectors).
    """
    length, width = 11.8, 9.2
    walls = _rect_walls(
        length, width, MATERIAL_LOSS_DB["metal"], ("cabinets-s", "far", "cabinets-n", "near")
    )
    desks = [
        Segment(Point(2.5, 2.0), Point(9.5, 2.0), MATERIAL_LOSS_DB["drywall"], "desk-row-1"),
        Segment(Point(2.5, 4.0), Point(9.5, 4.0), MATERIAL_LOSS_DB["drywall"], "desk-row-2"),
        Segment(Point(2.5, 6.0), Point(9.5, 6.0), MATERIAL_LOSS_DB["drywall"], "desk-row-3"),
    ]
    return Room("lab", walls, desks, width=width, length=length)


def make_conference_room() -> Room:
    """Conference room: 10.4 x 6.8 m, whiteboard wall, central table (Fig. 14c)."""
    length, width = 10.4, 6.8
    walls = [
        Segment(Point(0, 0), Point(length, 0), MATERIAL_LOSS_DB["drywall"], "south"),
        Segment(Point(length, 0), Point(length, width), MATERIAL_LOSS_DB["metal"], "cabinets"),
        Segment(Point(length, width), Point(0, width), MATERIAL_LOSS_DB["whiteboard"], "whiteboard"),
        Segment(Point(0, width), Point(0, 0), MATERIAL_LOSS_DB["drywall"], "west"),
    ]
    table = [
        Segment(Point(3.0, 2.6), Point(7.4, 2.6), MATERIAL_LOSS_DB["drywall"], "table-s"),
        Segment(Point(3.0, 4.2), Point(7.4, 4.2), MATERIAL_LOSS_DB["drywall"], "table-n"),
    ]
    return Room("conference", walls, table, width=width, length=length)


def make_corridor(width: float, length: float = 25.0, name: str | None = None) -> Room:
    """A corridor of the given width; the paper uses 1.74 m, 3.2 m and 6.2 m.

    Corridor side walls are strong reflectors (painted concrete/metal trim,
    loss close to glass) which produces the characteristic waveguiding:
    at long range the wall bounces arrive within a few degrees of the LOS
    and nearly as strong, so the best beam pair genuinely drifts with
    distance.
    """
    room_name = name or f"corridor-{width:g}m"
    walls = _rect_walls(
        length, width, MATERIAL_LOSS_DB["glass"], ("side-s", "far-end", "side-n", "near-end")
    )
    return Room(room_name, walls, [], width=width, length=length)


def make_building1_corridor() -> Room:
    """Building 1 (testing dataset): long 2.5 m corridor, old absorptive walls."""
    walls = _rect_walls(
        30.0, 2.5, MATERIAL_LOSS_DB["old_plaster"], ("side-s", "far-end", "side-n", "near-end")
    )
    return Room("building1-corridor", walls, [], width=2.5, length=30.0)


def make_building2_open_area() -> Room:
    """Building 2 (testing dataset): wide open area, larger than the lobby."""
    length, width = 30.0, 18.0
    walls = _rect_walls(
        length, width, MATERIAL_LOSS_DB["drywall"], ("south", "far", "north", "near")
    )
    return Room("building2-open", walls, [], width=width, length=length)
