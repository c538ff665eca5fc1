"""Firmware-heuristic COTS device model (§3).

COTS 802.11ad devices (Talon AD7200 router, Acer laptop, ROG phone) all
behave the same way at the MAC: if an AMPDU's Block ACK goes missing they
perform RA; if no working MCS is found they trigger BA — a Tx-only sector
sweep with quasi-omni reception, ranked by noisy per-sector SNR estimates.

Two firmware temperaments reproduce Figs. 1-3:

* the **phone** is trigger-happy — a single missing Block ACK sends it to
  a fresh sweep; combined with noisy sector estimates it flaps through
  many sectors (>100 sweeps / 6 sectors per minute in the paper's Fig. 1a);
* the **AP/laptop** are conservative — they RA first and only sweep after
  a failed repair, so the sector timeline is more stable but still not
  locked (Fig. 1b).

Transient channel fades — short deep dips of the per-frame SNR — are what
make *any* adaptation trigger in a static scene; the whole point of §3 is
that the right response to a transient is nothing at all, and the
heuristics cannot tell transients from real impairments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.constants import AD_MCS_SNR_THRESHOLDS_DB, AD_MCS_TABLE
from repro.env.geometry import Point
from repro.obs.events import SessionEvent
from repro.env.placement import RadioPose
from repro.env.rooms import Room, make_corridor, make_lobby
from repro.phy.blockage import HumanBlocker
from repro.phy.channel import ChannelState, snr_matrix_db
from repro.phy.error_model import codeword_delivery_ratio_array
from repro.testbed.x60 import X60Link

FRAME_TIME_S = 2e-3
"""One AMPDU per step (802.11ad max aggregation)."""

SWEEP_TIME_S = 1.5e-3
"""Tx-only SLS duration for a ~32-sector codebook."""

FAILED_SECTOR_ID = 255
"""What the firmware logs when the sweep fails to lock on any sector."""


@dataclass(frozen=True)
class DeviceProfile:
    """Firmware temperament knobs."""

    name: str
    missing_acks_before_ba: int = 3
    """Consecutive missing Block ACKs that send the device straight to BA
    (1 = phone-style trigger-happiness)."""

    sweep_noise_std_db: float = 2.0
    """Per-sector SNR estimation noise during the quasi-omni sweep."""

    mcs_backoff_per_loss: int = 2
    """MCS levels dropped per lost AMPDU during RA."""


PHONE_PROFILE = DeviceProfile("phone", missing_acks_before_ba=1, sweep_noise_std_db=6.0)
AP_PROFILE = DeviceProfile("ap", missing_acks_before_ba=3, sweep_noise_std_db=4.0)


@dataclass(frozen=True)
class FadeModel:
    """Per-frame SNR variation around the geometric mean.

    ``fade_probability`` is the chance a frame lands in a deep transient
    fade of depth drawn uniformly from ``fade_depth_db``.  Transients
    capture people moving far from the LOS, micro-reflections, AGC
    hiccups — everything the controlled 1 s averages smooth away.
    """

    jitter_std_db: float = 1.0
    fade_probability: float = 0.02
    fade_depth_db: tuple[float, float] = (8.0, 20.0)

    def sample(self, rng: np.random.Generator) -> float:
        offset = float(rng.normal(0.0, self.jitter_std_db))
        if rng.random() < self.fade_probability:
            offset -= float(rng.uniform(*self.fade_depth_db))
        return offset


@dataclass
class SessionLog:
    """What §3's figures plot: the Tx sector timeline and the throughput.

    ``events`` is the structured counterpart of the raw timeline — one
    :class:`~repro.obs.events.SessionEvent` per MAC-visible incident
    (sector change, failed sweep), so session traces can ride the same
    JSONL pipeline the flow simulator uses.
    """

    times_s: list = field(default_factory=list)
    sectors: list = field(default_factory=list)
    ba_count: int = 0
    bytes_delivered: float = 0.0
    duration_s: float = 0.0
    events: list[SessionEvent] = field(default_factory=list)

    @property
    def throughput_mbps(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.bytes_delivered * 8.0 / 1e6 / self.duration_s

    def distinct_sectors(self) -> int:
        return len(set(self.sectors))

    def sector_switches(self) -> int:
        return sum(
            1 for a, b in zip(self.sectors, self.sectors[1:]) if a != b
        )


class CotsDevice:
    """A COTS transmitter driving a live emulated channel.

    ``ba_enabled=False`` pins the device to ``locked_sector`` — the §3
    baseline where the authors disabled BA in the LEDE firmware and set
    the best sector manually.
    """

    def __init__(
        self,
        link: X60Link,
        profile: DeviceProfile = AP_PROFILE,
        ba_enabled: bool = True,
        locked_sector: Optional[int] = None,
        fade_model: FadeModel = FadeModel(),
        seed: int = 0,
    ):
        self.link = link
        self.profile = profile
        self.ba_enabled = ba_enabled
        self.fade_model = fade_model
        self.rng = np.random.default_rng(seed)
        self.sector = locked_sector if locked_sector is not None else 0
        self.rx_beam = len(link.codebook) // 2  # clients receive quasi-omni-ish
        self.mcs_index = len(AD_MCS_TABLE) - 1
        self._missing_acks = 0

    # -- channel helpers -----------------------------------------------------

    def _sector_snrs(self, state: ChannelState, rx: RadioPose) -> np.ndarray:
        """True per-Tx-sector SNR with the Rx in its current beam."""
        matrix = snr_matrix_db(
            state, self.link.codebook, self.link.tx.orientation_deg,
            rx.orientation_deg, self.link.tx_power_dbm,
        )
        return matrix[:, self.rx_beam]

    def _frame_snr(self, state: ChannelState, rx: RadioPose) -> float:
        base = self.link.snr_for_pair(state, rx, self.sector, self.rx_beam)
        return base + self.fade_model.sample(self.rng)

    # -- MAC behaviour ---------------------------------------------------------

    def _ampdu_delivered_fraction(self, snr_db: float) -> float:
        """Fraction of the AMPDU's MPDUs that decode at the current MCS."""
        cdr = codeword_delivery_ratio_array(snr_db, AD_MCS_SNR_THRESHOLDS_DB)
        return float(cdr[self.mcs_index])

    def _rate_adapt(self, snr_db: float) -> bool:
        """Drop the MCS; True when a working MCS remains."""
        self.mcs_index = max(0, self.mcs_index - self.profile.mcs_backoff_per_loss)
        return snr_db >= AD_MCS_SNR_THRESHOLDS_DB[self.mcs_index] - 1.0

    def _beam_adapt(self, state: ChannelState, rx: RadioPose) -> None:
        """Tx-only SLS with noisy per-sector estimates (quasi-omni Rx)."""
        true_snrs = self._sector_snrs(state, rx)
        measured = true_snrs + self.rng.normal(
            0.0, self.profile.sweep_noise_std_db, len(true_snrs)
        )
        best = int(np.argmax(measured))
        if measured[best] < 0.0:
            # Nothing decodes during the sweep: firmware logs sector 255
            # and keeps the old sector until the next attempt.
            self.sector = FAILED_SECTOR_ID
            return
        self.sector = best
        # Restart the rate at what the (noisy) sweep estimate supports —
        # the firmware picks the initial MCS from the sweep's SNR reading.
        estimate = measured[best]
        supported = 0
        for i, threshold in enumerate(AD_MCS_SNR_THRESHOLDS_DB):
            if threshold <= estimate:
                supported = i
        self.mcs_index = supported

    def step(self, state: ChannelState, rx: RadioPose) -> tuple[float, float]:
        """One AMPDU: returns (bytes_delivered, time_spent_s)."""
        if self.sector == FAILED_SECTOR_ID:
            # Locked out: retry the sweep.
            if self.ba_enabled:
                self._beam_adapt(state, rx)
            return 0.0, SWEEP_TIME_S
        snr = self._frame_snr(state, rx)
        delivered_fraction = self._ampdu_delivered_fraction(snr)
        ack = delivered_fraction > 0.01 or self.rng.random() < delivered_fraction
        rate = AD_MCS_TABLE[self.mcs_index][3]
        payload = rate * 1e6 / 8.0 * FRAME_TIME_S * delivered_fraction
        if ack and delivered_fraction > 0.5:
            self._missing_acks = 0
            # Probe back up eagerly (COTS firmwares recover rate fast).
            if (
                self.mcs_index < len(AD_MCS_TABLE) - 1
                and self.rng.random() < 0.5
                and snr >= AD_MCS_SNR_THRESHOLDS_DB[self.mcs_index + 1]
            ):
                self.mcs_index += 1
            return payload, FRAME_TIME_S
        # Missing Block ACK.
        self._missing_acks += 1
        if self.ba_enabled and self._missing_acks >= self.profile.missing_acks_before_ba:
            self._missing_acks = 0
            self._beam_adapt(state, rx)
            return payload, FRAME_TIME_S + SWEEP_TIME_S
        if not self._rate_adapt(snr) and self.ba_enabled:
            self._missing_acks = 0
            self._beam_adapt(state, rx)
            return payload, FRAME_TIME_S + SWEEP_TIME_S
        return payload, FRAME_TIME_S


def _run_session(
    room: Room,
    tx: RadioPose,
    rx_at: Callable[[float], RadioPose],
    duration_s: float,
    profile: DeviceProfile,
    ba_enabled: bool,
    locked_sector: Optional[int],
    blockers_at: Callable[[float], list[HumanBlocker]] = lambda _t: [],
    seed: int = 0,
    channel_update_s: float = 0.25,
) -> SessionLog:
    """Drive a device through a scenario, re-tracing the channel as the
    geometry changes."""
    link = X60Link(room, tx)
    device = CotsDevice(
        link, profile, ba_enabled=ba_enabled, locked_sector=locked_sector, seed=seed
    )
    log = SessionLog(duration_s=duration_s)
    clock = 0.0
    state: Optional[ChannelState] = None
    last_trace = -1.0
    rng = np.random.default_rng(seed + 1)
    while clock < duration_s:
        if state is None or clock - last_trace >= channel_update_s:
            rx = rx_at(clock)
            state = link.channel_state(rx, blockers=blockers_at(clock), rng=rng)
            last_trace = clock
        ba_before = device.sector
        payload, spent = device.step(state, rx)
        if device.sector != ba_before:
            log.ba_count += 1
            log.events.append(
                SessionEvent(
                    event="sweep-failed" if device.sector == FAILED_SECTOR_ID
                    else "sector-change",
                    time_s=clock,
                    sector=device.sector,
                    mcs=device.mcs_index,
                )
            )
        log.times_s.append(clock)
        log.sectors.append(device.sector)
        log.bytes_delivered += payload
        clock += spent
    return log


def _best_locked_sector(room: Room, tx: RadioPose, rx: RadioPose) -> int:
    """The manual baseline: try every Tx sector, keep the best (§3)."""
    link = X60Link(room, tx)
    state = link.channel_state(rx)
    device = CotsDevice(link, ba_enabled=False)
    snrs = device._sector_snrs(state, rx)
    return int(np.argmax(snrs))


def run_static_session(
    distance_m: float = 9.0,
    duration_s: float = 60.0,
    profile: DeviceProfile = AP_PROFILE,
    ba_enabled: bool = True,
    seed: int = 0,
) -> SessionLog:
    """Fig. 1: static client facing the AP in a corridor."""
    room = make_corridor(3.2)
    tx = RadioPose(Point(0.5, 1.6), 0.0)
    rx = RadioPose(Point(0.5 + distance_m, 1.6), 180.0)
    locked = None if ba_enabled else _best_locked_sector(room, tx, rx)
    return _run_session(
        room, tx, lambda _t: rx, duration_s, profile, ba_enabled, locked, seed=seed
    )


def run_blockage_session(
    duration_s: float = 55.0,
    profile: DeviceProfile = AP_PROFILE,
    ba_enabled: bool = True,
    seed: int = 0,
) -> SessionLog:
    """Fig. 2: lobby session with a human standing on the LOS throughout."""
    room = make_lobby()
    tx = RadioPose(Point(2.0, 6.0), 0.0)
    rx = RadioPose(Point(12.0, 6.0), 180.0)
    blocker = HumanBlocker(Point(7.0, 6.0), 0.0, 22.0)
    locked = None
    if not ba_enabled:
        link = X60Link(room, tx)
        state = link.channel_state(rx, blockers=[blocker])
        device = CotsDevice(link, ba_enabled=False)
        locked = int(np.argmax(device._sector_snrs(state, rx)))
    return _run_session(
        room, tx, lambda _t: rx, duration_s, profile, ba_enabled, locked,
        blockers_at=lambda _t: [blocker], seed=seed,
    )


def run_mobility_session(
    duration_s: float = 20.0,
    speed_m_s: float = 1.0,
    profile: DeviceProfile = AP_PROFILE,
    ba_enabled: bool = True,
    seed: int = 0,
) -> SessionLog:
    """Fig. 3: client walks away from the AP while facing it.

    Nobody walks a perfect radial: a lateral drift (~0.4 m/s) makes
    the AP-to-client bearing change a few degrees over the walk, which is
    what lets re-sweeping genuinely pay off under mobility while hurting
    in the static scenes.
    """
    room = make_lobby()
    tx = RadioPose(Point(2.0, 6.0), 0.0)

    def rx_at(t: float) -> RadioPose:
        x = min(4.0 + speed_m_s * t, room.length - 1.0)
        y = min(6.0 + 0.4 * speed_m_s * t, room.width - 1.0)
        return RadioPose(Point(x, y), 180.0)

    locked = None
    if not ba_enabled:
        # Lock on the sector that is best where the walk starts — the only
        # information available before the motion begins.
        locked = _best_locked_sector(room, tx, rx_at(0.0))
    return _run_session(
        room, tx, rx_at, duration_s, profile, ba_enabled, locked, seed=seed
    )
