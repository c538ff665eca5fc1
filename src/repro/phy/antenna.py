"""SiBeam-style phased-array codebook with imperfect beam patterns.

The X60 array exposes 25 steerable patterns spaced ~5° apart spanning
-60°..60° in azimuth, each with a 25-35° 3 dB main lobe and *large side
lobes* (paper §4.1).  Imperfect side lobes are load-bearing for this
reproduction: they are why a reflected path through a side lobe can beat the
LOS path (paper §3, Fig. 3c) and why COTS sector selection flaps.

Gains are azimuth-only (the measurement campaign is planar) and expressed in
dBi.  Side-lobe structure is deterministic per beam index (seeded hashing),
so the same codebook is reproduced on every run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.constants import (
    X60_BEAM_MAX_ANGLE_DEG,
    X60_BEAM_MIN_ANGLE_DEG,
    X60_BEAMWIDTH_3DB_DEG,
    X60_NUM_BEAMS,
)

MAIN_LOBE_PEAK_GAIN_DBI = 15.0
"""Peak gain of a 12-element array pattern (~10*log10(12)+4 dB element gain)."""

SIDE_LOBE_FLOOR_DBI = -12.0
"""Gain far outside every lobe (back/side leakage)."""

QUASI_OMNI_GAIN_DBI = 2.0
"""Gain of the quasi-omni (pseudo-omnidirectional) reception pattern."""


def quasi_omni_gain_dbi() -> float:
    """Gain of the quasi-omni pattern used during sector sweeps (flat)."""
    return QUASI_OMNI_GAIN_DBI


def _wrap_deg(angle: float) -> float:
    """Wrap an angle in degrees to (-180, 180]."""
    wrapped = math.fmod(angle + 180.0, 360.0)
    if wrapped <= 0.0:
        wrapped += 360.0
    return wrapped - 180.0


@dataclass(frozen=True)
class SideLobe:
    """One secondary lobe: offset from the steering angle, relative level."""

    offset_deg: float
    level_db: float  # relative to main-lobe peak (negative)
    width_deg: float


@dataclass(frozen=True)
class Beam:
    """A single codebook entry.

    The gain pattern is a sum (in linear power) of a Gaussian main lobe at
    ``steering_deg`` plus a few Gaussian side lobes, over an isotropic
    floor, modulated by an angular *ripple* term.  The ripple models the
    fine structure of real quantised-phase patterns; it is what lets a
    slightly different beam genuinely win as reflection angles drift with
    distance — the paper's "imperfect beam patterns … may result in an
    indirect path via a reflection to perform better than the direct
    path" (§3).
    """

    index: int
    steering_deg: float
    beamwidth_deg: float
    side_lobes: tuple[SideLobe, ...]
    peak_gain_dbi: float = MAIN_LOBE_PEAK_GAIN_DBI
    ripple_amp_db: float = 0.0
    ripple_period_deg: float = 24.0
    ripple_phase_rad: float = 0.0

    def _lobe_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-lobe (centers, widths, linear peaks), main lobe first.

        Cached on the (frozen) beam so repeated pattern evaluations pay the
        Python-level lobe bookkeeping once.
        """
        cached = getattr(self, "_lobe_cols", None)
        if cached is None:
            centers = [self.steering_deg] + [
                self.steering_deg + lobe.offset_deg for lobe in self.side_lobes
            ]
            widths = [self.beamwidth_deg] + [l.width_deg for l in self.side_lobes]
            peaks_db = [self.peak_gain_dbi] + [
                self.peak_gain_dbi + l.level_db for l in self.side_lobes
            ]
            cached = (
                np.array(centers),
                np.array(widths),
                10.0 ** (np.array(peaks_db) / 10.0),
            )
            object.__setattr__(self, "_lobe_cols", cached)
        return cached

    def gain_dbi_array(self, angles_deg: np.ndarray) -> np.ndarray:
        """Directivity gain toward each of ``angles_deg`` (relative to array
        boresight), in dBi.

        All lobes are evaluated in one (lobes, angles) broadcast, then
        accumulated main lobe first, side lobes after, over the floor.
        The values are *not* bit-identical to this beam's row of
        :meth:`Codebook.gain_matrix_dbi`: the two evaluations round
        differently in the last ulp for about 2 % of (beam, angle) samples.
        """
        angles = np.atleast_1d(np.asarray(angles_deg, dtype=float))
        centers, widths, peaks_lin = self._lobe_columns()
        delta = np.mod(angles[None, :] - centers[:, None] + 180.0, 360.0) - 180.0
        exponent = -math.log(2.0) * (2.0 * delta / widths[:, None]) ** 2
        lobe_powers = peaks_lin[:, None] * np.exp(exponent)
        total = np.full(angles.shape, 10.0 ** (SIDE_LOBE_FLOOR_DBI / 10.0))
        for row in lobe_powers:
            total += row
        gains = 10.0 * np.log10(total)
        if self.ripple_amp_db != 0.0:
            gains = gains + self.ripple_amp_db * np.sin(
                2.0 * np.pi * angles / self.ripple_period_deg + self.ripple_phase_rad
            )
        return gains


class Codebook:
    """An ordered collection of beams plus the quasi-omni pattern."""

    def __init__(self, beams: list[Beam]):
        if not beams:
            raise ValueError("codebook must contain at least one beam")
        self.beams = beams
        self._patterns: tuple[np.ndarray, ...] | None = None

    def __len__(self) -> int:
        return len(self.beams)

    def __getitem__(self, index: int) -> Beam:
        return self.beams[index]

    def __iter__(self):
        return iter(self.beams)

    def _pattern_arrays(self) -> tuple[np.ndarray, ...]:
        """Columnar view of every beam's lobes, built once per codebook.

        Beams have differing side-lobe counts; short rows are padded with
        zero-power lobes (linear peak 0.0) so the padded slots contribute
        exactly nothing to the accumulated pattern.
        """
        if self._patterns is None:
            n_lobes = 1 + max(len(b.side_lobes) for b in self.beams)
            shape = (len(self.beams), n_lobes)
            centers = np.zeros(shape)
            widths = np.ones(shape)
            peaks_lin = np.zeros(shape)
            for i, beam in enumerate(self.beams):
                centers[i, 0] = beam.steering_deg
                widths[i, 0] = beam.beamwidth_deg
                peaks_lin[i, 0] = 10.0 ** (beam.peak_gain_dbi / 10.0)
                for j, lobe in enumerate(beam.side_lobes, start=1):
                    centers[i, j] = beam.steering_deg + lobe.offset_deg
                    widths[i, j] = lobe.width_deg
                    peaks_lin[i, j] = 10.0 ** ((beam.peak_gain_dbi + lobe.level_db) / 10.0)
            ripple_amp = np.array([b.ripple_amp_db for b in self.beams])
            ripple_period = np.array([b.ripple_period_deg for b in self.beams])
            ripple_phase = np.array([b.ripple_phase_rad for b in self.beams])
            self._patterns = (
                centers, widths, peaks_lin, ripple_amp, ripple_period, ripple_phase
            )
        return self._patterns

    def gain_matrix_dbi(self, angles_deg: np.ndarray) -> np.ndarray:
        """Gain of every beam toward every angle: shape (n_beams, n_angles).

        This is the workhorse of the vectorised sector sweep: one call per
        antenna covers all 25 beams x all rays.  Computed columnar over the
        precomputed lobe arrays — one broadcast per lobe slot, accumulated
        in the same order as :meth:`Beam.gain_dbi_array`.  The rows still
        match that per-beam path only to rounding: about 2 % of (beam,
        angle) values differ in the last ulp (a few 1e-15 dB).  Making
        them agree changes output bytes, so it waits for a deliberate
        regeneration of every artifact (ROADMAP.md).
        """
        angles = np.atleast_1d(np.asarray(angles_deg, dtype=float))
        centers, widths, peaks_lin, ripple_amp, ripple_period, ripple_phase = (
            self._pattern_arrays()
        )
        # One (beams, slots, angles) broadcast evaluates every lobe at once;
        # the sum runs slot by slot, in the per-beam path's lobe order.
        delta = (
            np.mod(angles[None, None, :] - centers[:, :, None] + 180.0, 360.0) - 180.0
        )
        exponent = -math.log(2.0) * (2.0 * delta / widths[:, :, None]) ** 2
        lobe_powers = peaks_lin[:, :, None] * np.exp(exponent)
        total = np.full(
            (len(self.beams), angles.size), 10.0 ** (SIDE_LOBE_FLOOR_DBI / 10.0)
        )
        for slot in range(lobe_powers.shape[1]):
            total += lobe_powers[:, slot, :]
        gains = 10.0 * np.log10(total)
        gains = gains + ripple_amp[:, None] * np.sin(
            2.0 * np.pi * angles[None, :] / ripple_period[:, None]
            + ripple_phase[:, None]
        )
        return gains

    def beam_closest_to(self, angle_deg: float) -> Beam:
        """The beam whose steering angle is nearest ``angle_deg``."""
        return min(self.beams, key=lambda b: abs(_wrap_deg(b.steering_deg - angle_deg)))

    def steering_angles(self) -> list[float]:
        return [b.steering_deg for b in self.beams]


def _side_lobes_for_beam(index: int, rng: np.random.Generator) -> tuple[SideLobe, ...]:
    """Two or three deterministic side lobes per beam.

    Levels sit 6-14 dB below the main lobe — deliberately *large*, matching
    the paper's observation about COTS and SiBeam patterns.
    """
    count = int(rng.integers(2, 4))
    lobes = []
    for _ in range(count):
        side = 1.0 if rng.random() < 0.5 else -1.0
        offset = side * float(rng.uniform(45.0, 130.0))
        level = -float(rng.uniform(6.0, 14.0))
        width = float(rng.uniform(15.0, 30.0))
        lobes.append(SideLobe(offset, level, width))
    return tuple(lobes)


@lru_cache(maxsize=4)
def sibeam_codebook(
    num_beams: int = X60_NUM_BEAMS, seed: int = 60
) -> Codebook:
    """Build the reference 25-beam codebook.

    Steering angles are evenly spaced over [-60°, 60°]; beamwidths vary
    25°-35° across the codebook (wider toward the edges, as on real arrays).
    """
    rng = np.random.default_rng(seed)
    if num_beams < 2:
        raise ValueError("need at least two beams")
    angles = np.linspace(X60_BEAM_MIN_ANGLE_DEG, X60_BEAM_MAX_ANGLE_DEG, num_beams)
    beams = []
    for i, steering in enumerate(angles):
        edge_fraction = abs(steering) / X60_BEAM_MAX_ANGLE_DEG
        beamwidth = X60_BEAMWIDTH_3DB_DEG - 5.0 + 10.0 * edge_fraction  # 25°..35°
        # Real codebook entries differ by a dB or two in realised peak
        # gain (phase-quantisation and element-coupling effects).  This
        # imperfection matters: it is why the truly best pair can change
        # with distance even under pure backward motion (§3, Fig. 3c).
        peak = MAIN_LOBE_PEAK_GAIN_DBI + float(rng.uniform(-1.5, 1.5))
        beams.append(
            Beam(
                index=i,
                steering_deg=float(steering),
                beamwidth_deg=float(beamwidth),
                side_lobes=_side_lobes_for_beam(i, rng),
                peak_gain_dbi=peak,
                ripple_amp_db=float(rng.uniform(0.8, 2.0)),
                # Integer cycle counts keep the pattern 360°-periodic.
                ripple_period_deg=360.0 / float(rng.integers(11, 27)),
                ripple_phase_rad=float(rng.uniform(0.0, 2.0 * math.pi)),
            )
        )
    return Codebook(beams)
