"""Room model tests."""

import pytest

from repro.env.placement import main_building_plans
from repro.env.rooms import (
    MATERIAL_LOSS_DB,
    Room,
    make_building1_corridor,
    make_building2_open_area,
    make_conference_room,
    make_corridor,
    make_lab,
    make_lobby,
)


class TestRoomConstruction:
    def test_lobby_dimensions_and_clutter(self):
        lobby = make_lobby()
        assert lobby.name == "lobby"
        assert lobby.length > lobby.width
        assert len(lobby.walls) == 4
        assert len(lobby.clutter) == 2  # two pillars

    def test_lab_matches_paper_dimensions(self):
        lab = make_lab()
        assert lab.length == pytest.approx(11.8)
        assert lab.width == pytest.approx(9.2)
        assert len(lab.clutter) == 3  # desk rows

    def test_conference_room_has_whiteboard_wall(self):
        room = make_conference_room()
        assert room.length == pytest.approx(10.4)
        names = [w.name for w in room.walls]
        assert "whiteboard" in names

    @pytest.mark.parametrize("width", [1.74, 3.2, 6.2])
    def test_corridor_widths(self, width):
        corridor = make_corridor(width)
        assert corridor.width == pytest.approx(width)
        assert corridor.name == f"corridor-{width:g}m"

    def test_corridor_custom_name(self):
        assert make_corridor(2.0, name="hallway").name == "hallway"

    def test_building1_is_old_and_absorptive(self):
        b1 = make_building1_corridor()
        # "older building, walls of different material, fewer reflective
        # surfaces" — highest reflection loss of all rooms.
        assert all(
            w.material_loss_db == MATERIAL_LOSS_DB["old_plaster"] for w in b1.walls
        )

    def test_building2_is_larger_than_lobby(self):
        assert make_building2_open_area().length > make_lobby().length


class TestRoomQueries:
    def test_reflectors_include_clutter(self):
        lab = make_lab()
        assert len(lab.reflectors()) == len(lab.walls) + len(lab.clutter)

    def test_obstacles_are_clutter_only(self):
        lab = make_lab()
        assert lab.obstacles() == lab.clutter

    def test_walls_form_closed_rectangle(self):
        for room in (plan.room for plan in main_building_plans()):
            # Each wall's end is the next wall's start (closed loop).
            walls = room.walls
            for current, following in zip(walls, walls[1:] + walls[:1]):
                assert current.b.distance_to(following.a) < 1e-9, room.name
