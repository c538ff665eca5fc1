"""Geometric 60 GHz indoor channel: rays, channel state, beam-pair SNR.

The channel between a Tx pose and an Rx position is a *sparse* set of rays —
the LOS path plus first- and second-order wall/clutter reflections — which
is exactly the regime the paper leans on ("owing to the sparsity of 60 GHz
channels", §6.1).  :mod:`repro.phy.tracing` finds them with the image
method.  Each ray carries:

* angle of departure (AoD) at the Tx and angle of arrival (AoA) at the Rx,
  both in the global frame — beam gains are applied later relative to each
  antenna's orientation;
* path length → propagation delay (ToF) and free-space + oxygen loss;
* accumulated reflection loss;
* blockage loss if the ray crosses a human blocker.

Received power for a (Tx beam, Rx beam) pair is the incoherent sum of
per-ray powers weighted by both beam gains.  Incoherent combining is the
right abstraction here: we model 1 s averages of a 2 GHz-wide channel whose
taps are resolvable, not instantaneous fading.
"""

from __future__ import annotations

import math

import numpy as np
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.constants import SPEED_OF_LIGHT_M_S
from repro.env.geometry import Point, Segment
from repro.env.rooms import Room
from repro.phy.antenna import Beam, Codebook


@dataclass(frozen=True)
class Ray:
    """One propagation path between Tx and Rx."""

    aod_deg: float
    aoa_deg: float
    path_length_m: float
    loss_db: float
    order: int  # 0 = LOS, 1 = single bounce, 2 = double bounce
    via: tuple[str, ...] = ()

    @property
    def delay_s(self) -> float:
        return self.path_length_m / SPEED_OF_LIGHT_M_S

    @property
    def delay_ns(self) -> float:
        # Cached: rays are shared via the trace cache, and the PDP builder
        # touches every ray's delay once per measured state.
        cached = self.__dict__.get("_delay_ns")
        if cached is None:
            cached = self.delay_s * 1e9
            object.__setattr__(self, "_delay_ns", cached)
        return cached


@dataclass(frozen=True)
class LinkGeometry:
    """Everything needed to trace the channel for one link instant."""

    room: Room
    tx_position: Point
    rx_position: Point
    blockers: tuple[Segment, ...] = ()

    def with_blockers(self, blockers: Sequence[Segment]) -> "LinkGeometry":
        return LinkGeometry(self.room, self.tx_position, self.rx_position, tuple(blockers))


@dataclass
class ChannelState:
    """The traced channel: rays plus the noise conditions at the Rx.

    ``interference`` (an :class:`~repro.phy.interference.InterferenceField`)
    is directional: its contribution depends on the Rx beam, so the total
    noise is computed per beam pair in :func:`snr_db`.
    """

    rays: list[Ray]
    noise_dbm: float
    interference: Optional[object] = None  # InterferenceField (avoids cycle)
    geometry: Optional[LinkGeometry] = None
    extra_fields: dict = field(default_factory=dict)

    def effective_noise_dbm(
        self, rx_beam: Optional[Beam] = None, rx_orientation_deg: float = 0.0
    ) -> float:
        """Noise + interference power as seen by ``rx_beam``.

        Without a beam, interference is evaluated at quasi-omni gain (the
        view a sector sweep's quasi-omni listener gets).
        """
        if self.interference is None:
            return self.noise_dbm
        if rx_beam is None:
            interference_dbm = self.interference.omni_power_dbm()
        else:
            interference_dbm = self.interference.power_dbm(rx_beam, rx_orientation_deg)
        total_mw = 10.0 ** (self.noise_dbm / 10.0) + 10.0 ** (interference_dbm / 10.0)
        return 10.0 * math.log10(total_mw)


# ---------------------------------------------------------------------------
# Received power / SNR for beam pairs
# ---------------------------------------------------------------------------


def received_power_dbm(
    rays: Sequence[Ray],
    tx_beam: Beam,
    rx_beam: Beam,
    tx_orientation_deg: float,
    rx_orientation_deg: float,
    tx_power_dbm: float,
) -> float:
    """Incoherent sum of per-ray received powers for one beam pair.

    Beam gains are evaluated at the ray's AoD/AoA *relative to each array's
    boresight orientation* — one vectorized pattern evaluation per antenna
    covers every ray.
    """
    if not rays:
        return -300.0
    powers = _per_ray_powers_array(
        rays, tx_beam, rx_beam, tx_orientation_deg, rx_orientation_deg, tx_power_dbm
    )
    total_mw = float(np.sum(10.0 ** (powers / 10.0)))
    if total_mw <= 0.0:
        return -300.0
    return 10.0 * math.log10(total_mw)


def _per_ray_powers_array(
    rays: Sequence[Ray],
    tx_beam: Beam,
    rx_beam: Beam,
    tx_orientation_deg: float,
    rx_orientation_deg: float,
    tx_power_dbm: float,
) -> np.ndarray:
    aod = np.array([r.aod_deg - tx_orientation_deg for r in rays])
    aoa = np.array([r.aoa_deg - rx_orientation_deg for r in rays])
    loss = np.array([r.loss_db for r in rays])
    return (
        tx_power_dbm
        + tx_beam.gain_dbi_array(aod)
        + rx_beam.gain_dbi_array(aoa)
        - loss
    )


def per_ray_received_powers_dbm(
    rays: Sequence[Ray],
    tx_beam: Beam,
    rx_beam: Beam,
    tx_orientation_deg: float,
    rx_orientation_deg: float,
    tx_power_dbm: float,
) -> list[float]:
    """Per-ray received power (for PDP construction), same order as ``rays``."""
    if not rays:
        return []
    powers = _per_ray_powers_array(
        rays, tx_beam, rx_beam, tx_orientation_deg, rx_orientation_deg, tx_power_dbm
    )
    return [float(p) for p in powers]


def snr_db(
    state: ChannelState,
    tx_beam: Beam,
    rx_beam: Beam,
    tx_orientation_deg: float,
    rx_orientation_deg: float,
    tx_power_dbm: float,
) -> float:
    """SINR of one beam pair under the channel state's noise + interference."""
    rx_power = received_power_dbm(
        state.rays, tx_beam, rx_beam, tx_orientation_deg, rx_orientation_deg, tx_power_dbm
    )
    return rx_power - state.effective_noise_dbm(rx_beam, rx_orientation_deg)


def snr_matrix_db(
    state: ChannelState,
    codebook: Codebook,
    tx_orientation_deg: float,
    rx_orientation_deg: float,
    tx_power_dbm: float,
) -> np.ndarray:
    """SINR of *every* beam pair at once: shape (n_tx_beams, n_rx_beams).

    Vectorised over rays: the received power of pair (i, j) is
    ``sum_r gtx[i,r] * grx[j,r] * a[r]`` — a single matrix product — and
    per-Rx-beam interference enters as a column-wise noise term.
    """
    n = len(codebook)
    if not state.rays:
        return np.full((n, n), -300.0)
    aod = np.array([r.aod_deg - tx_orientation_deg for r in state.rays])
    aoa = np.array([r.aoa_deg - rx_orientation_deg for r in state.rays])
    loss = np.array([r.loss_db for r in state.rays])
    amp = 10.0 ** ((tx_power_dbm - loss) / 10.0)
    # One pattern evaluation over the concatenated AoD/AoA angles covers
    # both antennas (elementwise, so identical to two separate calls).
    gm = codebook.gain_matrix_dbi(np.concatenate([aod, aoa]))
    gtx_dbi = gm[:, : aod.size]  # (n, R)
    grx_dbi = gm[:, aod.size:]  # (n, R)
    # Stash the per-(beam, ray) gain rows: a subsequent measure() of any
    # beam pair on this state reuses them instead of re-evaluating the
    # patterns.  The rows are NOT bit-identical to Beam.gain_dbi_array
    # (they differ in the last ulp for some angles), so measuring a swept
    # state can differ from measuring it unswept; the fix, measuring from
    # one per-state gain table, changes bytes (ROADMAP.md).  measure()'s
    # link-budget memo therefore depends on the gain source: it holds the
    # tuple written here by reference, and writing a new one makes every
    # budget computed from the old source (or from none) stale.
    state.extra_fields["_pair_gains"] = (
        tx_orientation_deg, rx_orientation_deg, gtx_dbi, grx_dbi, loss
    )
    gtx = 10.0 ** (gtx_dbi / 10.0)
    grx = 10.0 ** (grx_dbi / 10.0)
    signal_mw = (gtx * amp) @ grx.T  # (n_tx, n_rx)

    noise_mw = 10.0 ** (state.noise_dbm / 10.0)
    if state.interference is not None:
        irays = state.interference.rays
        iamp = 10.0 ** (
            (state.interference.eirp_dbm - np.array([r.loss_db for r in irays])) / 10.0
        )
        iaoa = np.array([r.aoa_deg - rx_orientation_deg for r in irays])
        girx = 10.0 ** (codebook.gain_matrix_dbi(iaoa) / 10.0)  # (n, RI)
        interference_mw = girx @ iamp  # per-Rx-beam, shape (n,)
        noise_per_rx = noise_mw + interference_mw
    else:
        noise_per_rx = np.full(n, noise_mw)

    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(np.maximum(signal_mw / noise_per_rx[None, :], 1e-30))

