"""The emulated X60 link: channel tracing, sector sweeps, trace capture.

This module glues the PHY substrate together into the measurement
operations of §5.1:

* :meth:`X60Link.channel_state` — trace the channel for an Rx pose under
  optional blockage/interference;
* :meth:`X60Link.sector_sweep` — the naive O(N²) exhaustive sweep over all
  625 beam pairs the paper uses to emulate BA;
* :meth:`X60Link.measure` — capture the full per-state record (SNR, noise,
  ToF, PDP, per-MCS CDR & throughput) for one beam pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.constants import X60_NUM_MCS
from repro.env.geometry import Segment
from repro.env.placement import RadioPose
from repro.env.rooms import Room
from repro.phy.antenna import Codebook, sibeam_codebook
from repro.phy.blockage import HumanBlocker
from repro.phy.channel import (
    ChannelState,
    LinkGeometry,
    per_ray_received_powers_dbm,
    snr_db as channel_snr_db,
)
from repro.phy.error_model import (
    codeword_delivery_ratio_array,
    phy_rates_mbps,
)
from repro.phy.tracing import trace_rays_cached
from repro.phy.interference import Interferer, calibrate_field, calibrate_field_for_drop
from repro.phy.noise import NoiseModel
from repro.phy.pdp import power_delay_profile
from repro.testbed.traces import StateMeasurement

TX_POWER_DBM = 4.0
"""Per-chain transmit power; with ~15 dBi on both arrays the link budget
supports MCS 8 to ~6 m LOS and walks down the ladder toward MCS 2-3 near
30 m — matching the X60 papers' reported operating range and giving the
initial-MCS feature the 2-8 spread of the paper's Fig. 9."""

TOF_MIN_SNR_DB = 0.0
"""Below this SNR the ToF measurement fails and X60 reports infinity (§6.1)."""

SNR_JITTER_STD_DB = 0.5
"""Std-dev of the 1 s-average SNR reading around the true SINR."""

SLS_SNR_NOISE_STD_DB = 1.25
"""Std-dev of one sector-sweep frame's SNR estimate (short control frames
give noisier readings than 1 s data traces)."""

TRACE_TPUT_NOISE_STD = 0.0
"""Multiplicative (lognormal) noise on 1 s throughput/CDR traces.
Defaults to 0: a 1 s trace averages ~10^6 codewords, so the paper's
ground-truth throughputs are effectively noiseless expectations."""

PDP_BIN_NOISE_STD = 0.1
"""Per-bin multiplicative noise of the reported power delay profile."""


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class _LinkBudget:
    """The rng-free half of one :meth:`X60Link.measure` record.

    ``codebook`` and ``gains`` are the inputs the memo key does not carry,
    held by reference so a stale entry can be recognised.  The arrays are
    read-only; every measurement derives fresh arrays from them.
    """

    codebook: Codebook
    gains: Optional[tuple]
    true_snr_db: float
    effective_noise_dbm: float
    tof_ns: float
    pdp: np.ndarray
    cdr: np.ndarray
    throughput_mbps: np.ndarray


@dataclass
class X60Link:
    """One Tx-Rx X60 link inside a room.

    The Tx pose is fixed for the lifetime of the link (matching the
    measurement campaign); the Rx pose, blockers, and interferer vary per
    measured state.
    """

    room: Room
    tx: RadioPose
    codebook: Codebook = field(default_factory=sibeam_codebook)
    tx_power_dbm: float = TX_POWER_DBM
    noise_model: NoiseModel = field(default_factory=NoiseModel)
    snr_jitter_std_db: float = SNR_JITTER_STD_DB
    """Std-dev of the reported (averaged) SNR reading.  Scales like
    1/sqrt(window): §7's 40 ms observation windows give ~5x the jitter of
    the 1 s traces used for training."""
    pdp_bin_noise_std: float = PDP_BIN_NOISE_STD
    """Per-bin multiplicative noise of the reported PDP; also scales with
    the averaging window."""

    def channel_state(
        self,
        rx: RadioPose,
        blockers: Sequence[HumanBlocker] = (),
        interferer: Optional[Interferer] = None,
        rng: Optional[np.random.Generator] = None,
        operating_pair: Optional[tuple[int, int]] = None,
    ) -> ChannelState:
        """Trace the channel for an Rx pose under the given impairments.

        With an ``operating_pair``, interference is calibrated the way the
        paper did it — by the throughput drop the victim link observes at
        its current beam pair (§4.2); without one, a quasi-omni noise-rise
        calibration is used.
        """
        rng = rng or np.random.default_rng(0)
        blocker_segments: tuple[Segment, ...] = tuple(b.as_segment() for b in blockers)
        geometry = LinkGeometry(self.room, self.tx.position, rx.position, blocker_segments)
        # Memoized by (room, Tx pose, Rx pose, blockers): repeated states —
        # the clear/impaired halves of a capture, blockage reps, the SLS —
        # reuse one traced channel instead of re-running the image method.
        rays = trace_rays_cached(geometry)
        noise_dbm = self.noise_model.true_floor_dbm(rng)
        interference_field = None
        if interferer is not None:
            interferer_geometry = LinkGeometry(
                self.room, interferer.position, rx.position, blocker_segments
            )
            interferer_rays = trace_rays_cached(interferer_geometry)
            if interferer_rays and operating_pair is not None:
                clean = ChannelState(rays, noise_dbm, None, geometry)
                tx_beam, rx_beam = operating_pair
                clear_snr = channel_snr_db(
                    clean,
                    self.codebook[tx_beam],
                    self.codebook[rx_beam],
                    self.tx.orientation_deg,
                    rx.orientation_deg,
                    self.tx_power_dbm,
                )
                interference_field = calibrate_field_for_drop(
                    interferer_rays,
                    interferer.level,
                    noise_dbm,
                    clear_snr,
                    self.codebook[rx_beam],
                    rx.orientation_deg,
                )
            elif interferer_rays:
                interference_field = calibrate_field(
                    interferer_rays, interferer.level, noise_dbm
                )
        return ChannelState(rays, noise_dbm, interference_field, geometry)

    def sector_sweep(
        self,
        state: ChannelState,
        rx: RadioPose,
        rng: Optional[np.random.Generator] = None,
        snr_noise_std_db: float = SLS_SNR_NOISE_STD_DB,
    ) -> tuple[int, int, float]:
        """Exhaustive O(N²) SLS over all beam pairs; returns the best pair.

        This emulates the BA procedure of the dataset collection (§5.1):
        the pair with the highest *measured* SNR wins.  Two fidelity
        details matter for the RA/BA balance the paper reports:

        * SSW-style SNR estimates come from preamble correlation, which is
          robust to co-channel interference — the sweep ranks pairs by
          *signal* SNR, so an active interferer does not steer the sweep
          toward interference-dodging pairs (the geometry of the wanted
          link is unchanged, so the sweep mostly re-selects the same pair
          and RA ends up the better repair, Table 1).
        * Sweep frames are short, so per-pair estimates carry ~1 dB of
          noise; with an ``rng`` the sweep reproduces that.

        The returned SNR is the true *signal* SNR of the chosen pair.
        """
        from repro.phy.channel import snr_matrix_db

        signal_state = (
            state
            if state.interference is None
            else ChannelState(state.rays, state.noise_dbm, None, state.geometry)
        )
        matrix = snr_matrix_db(
            signal_state, self.codebook, self.tx.orientation_deg,
            rx.orientation_deg, self.tx_power_dbm,
        )
        if signal_state is not state and "_pair_gains" in signal_state.extra_fields:
            # Propagate the cached gain rows to the real (interfered) state
            # so measure() can reuse them there too.
            state.extra_fields["_pair_gains"] = signal_state.extra_fields["_pair_gains"]
        if rng is not None and snr_noise_std_db > 0.0:
            measured = matrix + rng.normal(0.0, snr_noise_std_db, matrix.shape)
        else:
            measured = matrix
        flat = int(np.argmax(measured))
        ti, ri = divmod(flat, measured.shape[1])
        return ti, ri, float(matrix[ti, ri])

    def snr_for_pair(
        self, state: ChannelState, rx: RadioPose, tx_beam: int, rx_beam: int
    ) -> float:
        """True SINR of one beam pair (no measurement jitter)."""
        return channel_snr_db(
            state,
            self.codebook[tx_beam],
            self.codebook[rx_beam],
            self.tx.orientation_deg,
            rx.orientation_deg,
            self.tx_power_dbm,
        )

    def _per_ray_powers(
        self,
        state: ChannelState,
        rx: RadioPose,
        tx_beam: int,
        rx_beam: int,
        gains: Optional[tuple],
    ) -> np.ndarray:
        """Per-ray received powers (dBm) for one beam pair.

        ``gains`` is the gain source: the per-(beam, ray) rows a sector
        sweep cached on the state at the same orientations, or ``None``
        for a direct evaluation.  The two are *not* bit-identical: the cached
        rows differ from :meth:`~repro.phy.antenna.Beam.gain_dbi_array` in
        the last ulp for some angles, so :meth:`measure` on a state that
        was swept first can return a different true SNR, PDP and CDR than
        on the same state unswept.  That is why the link-budget memo holds
        its gain source and recomputes when the source changes.  Measuring
        from one per-state gain table fixes this but changes output bytes,
        so it waits for a deliberate regeneration (ROADMAP.md).
        """
        if gains is not None:
            _txo, _rxo, gtx_dbi, grx_dbi, loss = gains
            return self.tx_power_dbm + gtx_dbi[tx_beam] + grx_dbi[rx_beam] - loss
        return np.array(
            per_ray_received_powers_dbm(
                state.rays,
                self.codebook[tx_beam],
                self.codebook[rx_beam],
                self.tx.orientation_deg,
                rx.orientation_deg,
                self.tx_power_dbm,
            )
        )

    def _link_budget(
        self, state: ChannelState, rx: RadioPose, tx_beam: int, rx_beam: int
    ) -> _LinkBudget:
        """The rng-free half of :meth:`measure`, memoised on the state.

        The memo lives in ``state.extra_fields["_link_budgets"]``, keyed by
        everything the budget reads apart from the state itself: both
        orientations, the beam pair and the Tx power.  The codebook and the
        gain source are held by reference in the entry, and an entry whose
        codebook or gain source is not the current one is recomputed, so a
        measurement after a sweep reads the swept rows exactly as an
        unmemoised one would.
        """
        gains = state.extra_fields.get("_pair_gains")
        if gains is not None and not (
            gains[0] == self.tx.orientation_deg and gains[1] == rx.orientation_deg
        ):
            gains = None  # swept at other orientations: evaluate directly
        memo = state.extra_fields.setdefault("_link_budgets", {})
        key = (self.tx.orientation_deg, rx.orientation_deg, tx_beam, rx_beam,
               self.tx_power_dbm)
        budget = memo.get(key)
        if (
            budget is not None
            and budget.codebook is self.codebook
            and budget.gains is gains
        ):
            return budget
        per_ray_powers = self._per_ray_powers(state, rx, tx_beam, rx_beam, gains)
        total_mw = float(np.sum(10.0 ** (per_ray_powers / 10.0)))
        rx_power_dbm = 10.0 * math.log10(total_mw) if total_mw > 0.0 else -300.0
        effective_noise = state.effective_noise_dbm(
            self.codebook[rx_beam], rx.orientation_deg
        )
        true_snr = rx_power_dbm - effective_noise
        if true_snr < TOF_MIN_SNR_DB or not state.rays:
            tof_ns = math.inf
        else:
            dominant = int(np.argmax(per_ray_powers))
            tof_ns = state.rays[dominant].delay_ns
        # One vectorized call over all MCSs replaces 2 x 9 scalar waterfall
        # evaluations (same values to floating-point round-off).
        cdr = codeword_delivery_ratio_array(true_snr)
        budget = _LinkBudget(
            codebook=self.codebook,
            gains=gains,
            true_snr_db=true_snr,
            effective_noise_dbm=effective_noise,
            tof_ns=tof_ns,
            pdp=_read_only(power_delay_profile(state.rays, per_ray_powers)),
            cdr=_read_only(cdr),
            throughput_mbps=_read_only(phy_rates_mbps() * cdr),
        )
        memo[key] = budget
        return budget

    def measure(
        self,
        state: ChannelState,
        rx: RadioPose,
        tx_beam: int,
        rx_beam: int,
        rng: Optional[np.random.Generator] = None,
    ) -> StateMeasurement:
        """Capture the full §5.1 record for one state and beam pair.

        The record is a noiseless link budget plus a noisy readout.  The
        budget (true SNR, effective noise, noiseless PDP, ToF, per-MCS CDR
        and throughput) depends only on the state, the orientations, the
        beam pair, the Tx power, the codebook and the gain source, so it
        is memoised on the state (:meth:`_link_budget`).  The readout draws
        the SNR jitter, the reported noise, the PDP bin noise and the
        throughput factors from ``rng`` on every call, in that order, and
        builds fresh arrays, so callers may mutate the record.
        """
        rng = rng or np.random.default_rng(0)
        budget = self._link_budget(state, rx, tx_beam, rx_beam)
        jitter_db = float(rng.normal(0.0, self.snr_jitter_std_db))
        reported_snr = budget.true_snr_db + jitter_db
        reported_noise = self.noise_model.reported_level_dbm(
            budget.effective_noise_dbm, rng
        )
        # Hardware PDPs are noisy estimates; per-bin multiplicative noise
        # keeps the multipath metrics informative-but-imperfect (their Gini
        # importances trail SNR/MCS in Table 3).
        pdp = budget.pdp * np.clip(
            rng.normal(1.0, self.pdp_bin_noise_std, budget.pdp.shape), 0.0, None
        )
        total = pdp.sum()
        if total > 0.0:
            pdp = pdp / total
        # 1 s traces are measurements, not expectations: apply run-to-run noise.
        factors = np.exp(rng.normal(0.0, TRACE_TPUT_NOISE_STD, X60_NUM_MCS))
        tput = budget.throughput_mbps * factors
        cdr = np.clip(budget.cdr * factors, 0.0, 1.0)

        return StateMeasurement(
            room_name=self.room.name,
            tx_beam=tx_beam,
            rx_beam=rx_beam,
            snr_db=reported_snr,
            true_snr_db=budget.true_snr_db,
            noise_dbm=reported_noise,
            tof_ns=budget.tof_ns,
            pdp=pdp,
            cdr=cdr,
            throughput_mbps=tput,
        )
