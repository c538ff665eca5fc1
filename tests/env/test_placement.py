"""Placement plan tests: the Appendix A.2 measurement grids."""

from repro.env.placement import (
    ROTATION_STEPS_DEG,
    lobby_plan,
    main_building_plans,
    testing_building_plans as _testing_building_plans,
)


class TestRotationGrid:
    def test_twelve_orientations(self):
        assert len(ROTATION_STEPS_DEG) == 12

    def test_steps_of_fifteen_excluding_zero(self):
        assert 0 not in ROTATION_STEPS_DEG
        assert set(abs(d) for d in ROTATION_STEPS_DEG) == {15, 30, 45, 60, 75, 90}


class TestPlans:
    def test_main_building_has_one_plan_per_room(self):
        plans = main_building_plans()
        assert len(plans) == 6
        assert len({p.room.name for p in plans}) == 6

    def test_twelve_main_impairment_positions(self):
        # Table 1: 12 blockage/interference positions in the main building.
        plans = main_building_plans()
        assert sum(len(p.impairment_positions) for p in plans) == 12

    def test_four_testing_impairment_positions(self):
        # Table 2: 4 positions across buildings 1-2.
        plans = _testing_building_plans()
        assert sum(len(p.impairment_positions) for p in plans) == 4

    def test_rotation_tracks_share_position(self):
        plan = lobby_plan()
        rotation_tracks = [t for t in plan.displacement_tracks if "rotation" in t.label]
        assert rotation_tracks, "lobby must include rotation scenarios"
        for track in rotation_tracks:
            positions = {
                (s.position.x, s.position.y) for s in track.new_states
            }
            assert positions == {
                (track.initial_rx.position.x, track.initial_rx.position.y)
            }

    def test_linear_tracks_keep_orientation(self):
        plan = lobby_plan()
        backward = next(t for t in plan.displacement_tracks if t.label == "backward")
        orientations = {s.orientation_deg for s in backward.new_states}
        assert orientations == {backward.initial_rx.orientation_deg}

    def test_all_positions_inside_room(self):
        for plan in main_building_plans() + _testing_building_plans():
            room = plan.room
            poses = [plan_track.initial_rx for plan_track in plan.displacement_tracks]
            for track in plan.displacement_tracks:
                poses.extend(track.new_states)
            for pose in poses:
                assert -0.01 <= pose.position.x <= room.length + 0.01, room.name
                assert -0.01 <= pose.position.y <= room.width + 0.01, room.name
