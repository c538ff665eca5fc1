"""Human blockage at 60 GHz.

A standing human torso attenuates a 60 GHz ray by 15-30 dB (knife-edge
regime; diffraction around the body is weak at 5 mm wavelength).  We model a
blocker as a short :class:`~repro.env.geometry.Segment` perpendicular to the
LOS whose ``material_loss_db`` is the body loss; the ray tracer adds that
loss to every ray crossing the segment.

The paper places blockers at three spots per position: mid-path, near the
Tx, and near the Rx (§4.2).  Blocker placement matters: a body near the Tx
shadows a wide angular sector (many reflections die too), while a mid-path
body often leaves wall reflections clear — which is why BA almost always
wins under blockage (Table 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import HUMAN_BLOCKAGE_LOSS_DB_RANGE
from repro.env.geometry import Point, Segment

HUMAN_TORSO_WIDTH_M = 0.5

#: Fractions of the Tx→Rx path where blockers are placed (§4.2):
#: near Tx, middle, near Rx.
BLOCKER_PATH_FRACTIONS = (0.15, 0.5, 0.85)


@dataclass(frozen=True)
class HumanBlocker:
    """A human body standing at ``position``, oriented across ``facing_deg``.

    The blocking cross-section is a segment of torso width centred at the
    position and perpendicular to the Tx→Rx direction.
    """

    position: Point
    facing_deg: float
    loss_db: float
    label: str = "human"

    def as_segment(self) -> Segment:
        import math

        half = HUMAN_TORSO_WIDTH_M / 2.0
        # Perpendicular to the facing direction.
        perp = math.radians(self.facing_deg + 90.0)
        dx, dy = math.cos(perp) * half, math.sin(perp) * half
        a = Point(self.position.x - dx, self.position.y - dy)
        b = Point(self.position.x + dx, self.position.y + dy)
        return Segment(a, b, self.loss_db, self.label)


def sample_body_loss_db(rng: np.random.Generator) -> float:
    """Draw a body loss from the literature range (15-30 dB)."""
    low, high = HUMAN_BLOCKAGE_LOSS_DB_RANGE
    return float(rng.uniform(low, high))


def make_blocker(
    tx: Point,
    rx: Point,
    path_fraction: float,
    rng: np.random.Generator,
    lateral_jitter_m: float = 0.0,
) -> HumanBlocker:
    """A blocker standing at ``path_fraction`` of the way from Tx to Rx,
    facing along the path (so its torso crosses it).

    ``lateral_jitter_m`` shifts the body sideways by a zero-mean Gaussian
    offset, producing *partial* blockage when the torso only grazes the
    LOS: the paper notes its blockage dataset includes partial blocks
    (SNR drops spanning 1-15 dB, §6.1.2), which is where the few RA wins
    under blockage come from.
    """
    import math

    position = Point(
        tx.x + (rx.x - tx.x) * path_fraction,
        tx.y + (rx.y - tx.y) * path_fraction,
    )
    facing = math.degrees(tx.angle_to(rx))
    if lateral_jitter_m > 0.0:
        offset = float(rng.normal(0.0, lateral_jitter_m))
        perp = math.radians(facing + 90.0)
        position = Point(
            position.x + math.cos(perp) * offset,
            position.y + math.sin(perp) * offset,
        )
    return HumanBlocker(position, facing, sample_body_loss_db(rng))
