"""Hidden-terminal interference (§4.2).

The paper creates three interference levels with a Talon router acting as a
hidden terminal, calibrated by the throughput drop of the X60 link:
~80 % (high), ~50 % (medium), ~20 % (low).

Interference at 60 GHz is *directional*: the interfering energy reaching
the victim Rx depends on the Rx beam's gain toward the interferer's angle
of arrival.  This matters structurally — it is why BA still wins a third of
the interference cases in Table 1 (a different Rx beam can null the
interferer while keeping the signal), while the other two thirds are best
served by RA because the geometry of the *wanted* link is untouched.

An :class:`InterferenceField` carries the rays from the interferer to the
victim Rx plus the interferer's effective radiated power; the SNR machinery
in :mod:`repro.phy.channel` folds the per-beam interference power into the
SINR.  The EIRP is calibrated per level so that the interference seen by a
quasi-omni Rx raises the noise floor by :data:`NOISE_RISE_DB`, which lands
the post-RA throughput drops near the paper's 20/50/80 % targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.constants import INTERFERENCE_DROP_LEVELS
from repro.env.geometry import Point
from repro.phy.antenna import Beam, quasi_omni_gain_dbi

#: Noise-floor rise (dB, at quasi-omni reception) per interference level.
#: Calibrated against the X60 MCS ladder (~2.5 dB per step) so the post-RA
#: throughput drop approximates the paper's targets; verified by
#: tests/phy/test_interference.py.
NOISE_RISE_DB = {
    "low": 4.0,
    "medium": 9.0,
    "high": 16.0,
}

INTERFERENCE_LEVELS = tuple(NOISE_RISE_DB)


def noise_rise_db_for_level(level: str) -> float:
    """Noise-floor rise (at quasi-omni reception) for the given level."""
    try:
        return NOISE_RISE_DB[level]
    except KeyError:
        raise ValueError(
            f"unknown interference level {level!r}; expected one of {INTERFERENCE_LEVELS}"
        ) from None


def target_throughput_drop(level: str) -> float:
    """The paper's calibration target for the given level (fraction)."""
    return INTERFERENCE_DROP_LEVELS[level]


@dataclass(frozen=True)
class Interferer:
    """A hidden terminal at a fixed position radiating at a given level."""

    position: Point
    level: str

    def __post_init__(self) -> None:
        if self.level not in NOISE_RISE_DB:
            raise ValueError(f"unknown interference level {self.level!r}")


@dataclass(frozen=True)
class InterferenceField:
    """Interference as seen at the victim Rx.

    Attributes:
        rays: Propagation paths interferer → victim Rx (same Ray type the
            wanted channel uses; only ``aoa_deg`` and ``loss_db`` matter).
        eirp_dbm: Interferer effective radiated power after calibration.
    """

    rays: tuple
    eirp_dbm: float

    def power_dbm(self, rx_beam: Beam, rx_orientation_deg: float) -> float:
        """Interference power collected by ``rx_beam``."""
        if not self.rays:
            return -300.0
        import numpy as np

        aoa = np.array([ray.aoa_deg - rx_orientation_deg for ray in self.rays])
        loss = np.array([ray.loss_db for ray in self.rays])
        gains = rx_beam.gain_dbi_array(aoa)
        total_mw = float(np.sum(10.0 ** ((self.eirp_dbm + gains - loss) / 10.0)))
        if total_mw <= 0.0:
            return -300.0
        return 10.0 * math.log10(total_mw)

    def omni_power_dbm(self) -> float:
        """Interference power at a quasi-omni Rx (calibration reference)."""
        total_mw = 0.0
        for ray in self.rays:
            total_mw += 10.0 ** ((self.eirp_dbm + quasi_omni_gain_dbi() - ray.loss_db) / 10.0)
        if total_mw <= 0.0:
            return -300.0
        return 10.0 * math.log10(total_mw)


def required_sinr_for_drop_db(clear_snr_db: float, drop_fraction: float) -> float:
    """The SINR at which the link's best throughput falls to
    ``(1 - drop_fraction)`` of its clear-channel value.

    Scans downward in 0.1 dB steps using the error model's MCS ladder —
    discrete, like the real calibration ("tried different sectors to
    create 3 levels", §4.2).
    """
    import numpy as np

    from repro.phy.error_model import best_throughput_array

    if not 0.0 <= drop_fraction < 1.0:
        raise ValueError("drop_fraction must be in [0, 1)")
    base_tput = float(best_throughput_array(clear_snr_db)[1])
    if base_tput <= 0.0:
        return clear_snr_db  # dead link: nothing to calibrate against
    target = (1.0 - drop_fraction) * base_tput
    # Build the step sequence of a downward scan (repeated ``-= 0.1``
    # accumulates float round-off, so generating it any other way would
    # change the calibration at the last ulp), then evaluate the whole
    # ladder with one error-model call.
    sinr = clear_snr_db
    steps = []
    while sinr > -20.0:
        steps.append(sinr)
        sinr -= 0.1
    if not steps:
        return sinr
    _, tputs = best_throughput_array(np.array(steps))
    below = np.nonzero(tputs <= target)[0]
    if below.size:
        return steps[int(below[0])]
    return sinr


def calibrate_field_for_drop(
    rays: Sequence,
    level: str,
    noise_floor_dbm: float,
    clear_snr_db: float,
    rx_beam: Beam,
    rx_orientation_deg: float,
) -> InterferenceField:
    """Set the interferer EIRP so the victim's throughput *at its operating
    beam pair* drops by the level's target fraction (the paper's actual
    calibration, §4.2).

    The required interference power at the operating Rx beam is
    ``I = S / 10^(SINR*/10) − N``; when the target drop needs no
    interference at all (already below), a negligible floor is used.
    """
    if not rays:
        raise ValueError("interferer has no path to the victim Rx")
    target_sinr = required_sinr_for_drop_db(clear_snr_db, target_throughput_drop(level))
    signal_mw = 10.0 ** ((clear_snr_db + noise_floor_dbm) / 10.0)
    noise_mw = 10.0 ** (noise_floor_dbm / 10.0)
    interference_mw = signal_mw / 10.0 ** (target_sinr / 10.0) - noise_mw
    if interference_mw <= 0.0:
        interference_mw = noise_mw * 1e-3
    target_dbm = 10.0 * math.log10(interference_mw)
    probe = InterferenceField(tuple(rays), 0.0)
    base_dbm = probe.power_dbm(rx_beam, rx_orientation_deg)
    return InterferenceField(tuple(rays), target_dbm - base_dbm)


def calibrate_field(
    rays: Sequence, level: str, noise_floor_dbm: float
) -> InterferenceField:
    """Set the interferer EIRP so quasi-omni interference sits exactly
    ``NOISE_RISE_DB[level]`` above the noise floor.

    With the rise R (dB), the required interference power is
    ``noise * (10^(R/10) - 1)`` so that noise+interference = noise + R dB.
    """
    if not rays:
        raise ValueError("interferer has no path to the victim Rx")
    rise_db = noise_rise_db_for_level(level)
    noise_mw = 10.0 ** (noise_floor_dbm / 10.0)
    target_mw = noise_mw * (10.0 ** (rise_db / 10.0) - 1.0)
    target_dbm = 10.0 * math.log10(target_mw)
    # Power at EIRP = 0 dBm, then shift.
    probe = InterferenceField(tuple(rays), 0.0)
    base_dbm = probe.omni_power_dbm()
    return InterferenceField(tuple(rays), target_dbm - base_dbm)
