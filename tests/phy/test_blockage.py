"""Human blockage model tests."""

import numpy as np
import pytest

from repro.constants import HUMAN_BLOCKAGE_LOSS_DB_RANGE
from repro.env.geometry import Point, segments_intersect
from repro.phy.blockage import (
    BLOCKER_PATH_FRACTIONS,
    HUMAN_TORSO_WIDTH_M,
    HumanBlocker,
    make_blocker,
    sample_body_loss_db,
)


class TestBlockerGeometry:
    def test_segment_width_is_torso(self):
        blocker = HumanBlocker(Point(5, 5), facing_deg=0.0, loss_db=20.0)
        assert blocker.as_segment().length() == pytest.approx(HUMAN_TORSO_WIDTH_M)

    def test_segment_perpendicular_to_facing(self):
        blocker = HumanBlocker(Point(5, 5), facing_deg=0.0, loss_db=20.0)
        seg = blocker.as_segment()
        # Facing +x → torso spans the y direction.
        assert seg.a.x == pytest.approx(seg.b.x)
        assert abs(seg.a.y - seg.b.y) == pytest.approx(HUMAN_TORSO_WIDTH_M)

    def test_segment_carries_loss(self):
        blocker = HumanBlocker(Point(0, 0), 0.0, 23.5)
        assert blocker.as_segment().material_loss_db == 23.5

    def test_blocker_on_path_intersects_it(self):
        tx, rx = Point(0, 0), Point(10, 0)
        blocker = make_blocker(tx, rx, 0.5, np.random.default_rng(0))
        assert segments_intersect(tx, rx, blocker.as_segment())


def paper_positions(tx: Point, rx: Point) -> list[Point]:
    """Where the dataset builder stands its §4.2 blockers (no jitter)."""
    rng = np.random.default_rng(0)
    return [
        make_blocker(tx, rx, fraction, rng).position
        for fraction in BLOCKER_PATH_FRACTIONS
    ]


class TestPlacement:
    def test_three_paper_positions(self):
        positions = paper_positions(Point(0, 0), Point(10, 0))
        assert len(positions) == len(BLOCKER_PATH_FRACTIONS) == 3
        assert positions[0].x == pytest.approx(1.5)   # near Tx
        assert positions[1].x == pytest.approx(5.0)   # middle
        assert positions[2].x == pytest.approx(8.5)   # near Rx

    def test_positions_on_the_line(self):
        tx, rx = Point(1, 2), Point(7, 8)
        for p in paper_positions(tx, rx):
            # Collinearity: cross product of (p - tx) and (rx - tx) is 0.
            assert (p - tx).cross(rx - tx) == pytest.approx(0.0, abs=1e-9)

    def test_lateral_jitter_moves_off_line(self):
        rng = np.random.default_rng(1)
        tx, rx = Point(0, 0), Point(10, 0)
        offsets = [
            abs(make_blocker(tx, rx, 0.5, rng, lateral_jitter_m=0.5).position.y)
            for _ in range(50)
        ]
        assert max(offsets) > 0.3  # some big misses
        assert min(offsets) < 0.1  # some dead-on hits

    def test_zero_jitter_is_exact(self):
        rng = np.random.default_rng(2)
        blocker = make_blocker(Point(0, 0), Point(10, 0), 0.5, rng)
        assert blocker.position.y == pytest.approx(0.0)


class TestBodyLoss:
    def test_loss_within_literature_range(self):
        rng = np.random.default_rng(3)
        low, high = HUMAN_BLOCKAGE_LOSS_DB_RANGE
        losses = [sample_body_loss_db(rng) for _ in range(200)]
        assert all(low <= loss <= high for loss in losses)
        assert max(losses) - min(losses) > 5.0  # actually varies
