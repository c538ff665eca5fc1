"""Large-scale propagation at 60 GHz: free-space loss, oxygen absorption,
and reflection losses.

At 60 GHz the free-space path loss at 1 m is already ~68 dB and atmospheric
oxygen adds ~15 dB/km, which is why mmWave links need the array gains the
codebook provides.  Indoors, both effects follow textbook formulas; the
interesting physics (sparsity, blockage sensitivity) comes from geometry.
"""

from __future__ import annotations

import math

from repro.constants import (
    CARRIER_FREQUENCY_HZ,
    OXYGEN_ABSORPTION_DB_PER_KM,
    SPEED_OF_LIGHT_M_S,
)


def free_space_path_loss_db(
    distance_m: float, frequency_hz: float = CARRIER_FREQUENCY_HZ
) -> float:
    """Friis free-space path loss.

    Distances below 10 cm are clamped to avoid the near-field singularity;
    no measurement position in the campaign is that close.
    """
    d = max(distance_m, 0.1)
    wavelength = SPEED_OF_LIGHT_M_S / frequency_hz
    return 20.0 * math.log10(4.0 * math.pi * d / wavelength)


def oxygen_absorption_db(distance_m: float) -> float:
    """Atmospheric O2 absorption along a path of ``distance_m`` metres."""
    return OXYGEN_ABSORPTION_DB_PER_KM * distance_m / 1000.0


def path_loss_db(distance_m: float) -> float:
    """Total large-scale loss of a clear path (FSPL + oxygen)."""
    return free_space_path_loss_db(distance_m) + oxygen_absorption_db(distance_m)
