"""Physical and protocol constants shared across the LiBRA reproduction.

Numbers come from three sources:

* the LiBRA paper itself (CoNEXT 2020), e.g. the evaluation's
  BA-overhead / frame-aggregation-time grid;
* the X60 testbed paper (Saha et al., *Computer Communications* 2019) for the
  PHY rate table and phased-array geometry;
* the IEEE 802.11ad standard for the COTS single-carrier MCS table used by
  the motivation study and the VR evaluation.
"""

from __future__ import annotations

# --------------------------------------------------------------------------
# Universal physical constants
# --------------------------------------------------------------------------

SPEED_OF_LIGHT_M_S = 299_792_458.0
"""Propagation speed used for time-of-flight computations (m/s)."""

CARRIER_FREQUENCY_HZ = 60.48e9
"""802.11ad channel 2 centre frequency (Hz)."""

CHANNEL_BANDWIDTH_HZ = 2.0e9
"""X60 and 802.11ad both use ~2 GHz wide channels."""

import math as _math

THERMAL_NOISE_DBM = -174.0 + 10.0 * _math.log10(CHANNEL_BANDWIDTH_HZ)  # ≈ -80.99 dBm
"""Thermal noise floor over the 2 GHz channel: -174 dBm/Hz + 10*log10(2e9)."""

NOISE_FIGURE_DB = 7.0
"""Receiver noise figure typical of 60 GHz front ends."""

OXYGEN_ABSORPTION_DB_PER_KM = 15.0
"""Atmospheric oxygen absorption around 60 GHz (dB/km); tiny indoors but
included for fidelity."""

# --------------------------------------------------------------------------
# X60 testbed (the SDR platform used to collect the paper's dataset)
# --------------------------------------------------------------------------

X60_NUM_BEAMS = 25
"""SiBeam codebook size: 25 steerable patterns spanning -60°..60°."""

X60_BEAM_MIN_ANGLE_DEG = -60.0
X60_BEAM_MAX_ANGLE_DEG = 60.0

X60_BEAMWIDTH_3DB_DEG = 30.0
"""3 dB beamwidth of each pattern (paper: 25°-35°; we use the midpoint)."""

X60_NUM_MCS = 9
"""The X60 PHY reference implementation supports 9 single-carrier MCSs."""

# (mcs index, modulation, code rate, PHY rate in Mbps, codeword payload bytes)
# PHY rates span 300 Mbps .. 4.75 Gbps per the X60/LiBRA papers; codeword
# sizes span 180-1080 bytes across MCSs (paper §6.1, "Error/Delivery Rate").
X60_MCS_TABLE = (
    (0, "BPSK", 0.50, 300.0, 180),
    (1, "BPSK", 0.75, 450.0, 270),
    (2, "QPSK", 0.50, 865.0, 360),
    (3, "QPSK", 0.75, 1300.0, 540),
    (4, "16QAM", 0.50, 1730.0, 720),
    (5, "16QAM", 0.75, 2600.0, 810),
    (6, "16QAM", 0.875, 3030.0, 900),
    (7, "64QAM", 0.75, 3900.0, 990),
    (8, "64QAM", 0.875, 4750.0, 1080),
)

# Minimum SNR (dB) at which each X60 MCS starts decoding reliably.  These
# follow the usual ~2-3 dB/step SC ladder measured on X60-class hardware;
# the error model turns them into a smooth codeword-error curve.
X60_MCS_SNR_THRESHOLDS_DB = (2.0, 4.0, 6.5, 9.0, 12.0, 15.0, 17.0, 19.5, 22.0)

# --------------------------------------------------------------------------
# 802.11ad (COTS devices in §3 and the VR study in §8.4)
# --------------------------------------------------------------------------

# (mcs index, modulation, code rate, PHY rate Mbps)
AD_MCS_TABLE = (
    (1, "BPSK", 0.50, 385.0),
    (2, "BPSK", 0.50, 770.0),
    (3, "BPSK", 0.625, 962.5),
    (4, "BPSK", 0.75, 1155.0),
    (5, "BPSK", 0.8125, 1251.25),
    (6, "QPSK", 0.50, 1540.0),
    (7, "QPSK", 0.625, 1925.0),
    (8, "QPSK", 0.75, 2310.0),
    (9, "QPSK", 0.8125, 2502.5),
    (10, "16QAM", 0.50, 3080.0),
    (11, "16QAM", 0.625, 3850.0),
    (12, "16QAM", 0.75, 4620.0),
)

AD_MCS_SNR_THRESHOLDS_DB = (1.0, 3.0, 4.5, 5.5, 6.5, 7.5, 9.5, 11.0, 12.5, 15.0, 17.5, 19.5)
"""Decode thresholds for the 12 SC MCSs (textbook 802.11ad link budgets)."""

AD_COTS_PEAK_THROUGHPUT_MBPS = 2400.0
"""What COTS 802.11ad devices actually achieve right in front of the AP
(§8.4 cites 2.4 Gbps); used to scale X60 traces for the VR study."""

# --------------------------------------------------------------------------
# LiBRA protocol parameters (paper §5.2, §7, §8.1)
# --------------------------------------------------------------------------

WORKING_MCS_MIN_CDR = 0.10
"""A working MCS must deliver >10 % of its codewords (§5.2)."""

DEAD_LINK_CDR = 1e-3
"""Below this CDR the current MCS delivers (near) nothing: no codeword of
the frame decodes, so no Block ACK returns — the missing-ACK trigger and
the NA link-died verdict both use this threshold."""

WORKING_MCS_MIN_THROUGHPUT_MBPS = 150.0
"""...and >150 Mbps (50 % of the lowest X60 PHY rate) (§5.2)."""

BA_OVERHEADS_S = (0.5e-3, 5e-3, 150e-3, 250e-3)
"""The four BA-overhead operating points evaluated in §8.1."""

FRAME_AGGREGATION_TIMES_S = (2e-3, 10e-3)
"""FAT values: 2 ms (802.11ad max) and 10 ms (802.11ac max, X60)."""

ALPHA_FOR_LOW_BA_OVERHEAD = 0.7
"""Utility weight α used with BA overheads of 0.5/5 ms (§8.1)."""

ALPHA_FOR_HIGH_BA_OVERHEAD = 0.5
"""Utility weight α used with BA overheads of 150/250 ms (§8.1)."""

BA_OVERHEAD_THRESHOLD_S = 10e-3
"""Missing-ACK rule (§7): with MCS ≥ 6, trigger BA first only when the BA
overhead is 'low (up to a few ms)'."""

MISSING_ACK_MCS_THRESHOLD = 6
"""Missing-ACK rule (§7): below this MCS, BA is right 92 % of the time."""

PROBE_INTERVAL_MIN_FRAMES = 5
"""T0 — the minimum probing interval of the RA algorithm (§7): 5 frames."""

PROBE_BACKOFF_CAP = 32
"""The 2^5 cap of the adaptive probe interval T = T0 · min(2^k, 2^5) (§7);
:func:`repro.core.rate_adaptation.probe_interval` applies it."""

DECISION_PERIOD_FRAMES = 2
"""LiBRA makes decisions every 2 frames using two 20 ms windows (§7)."""

# --------------------------------------------------------------------------
# Dataset collection (paper §4.2, §5.1)
# --------------------------------------------------------------------------

INTERFERENCE_DROP_LEVELS = {"high": 0.80, "medium": 0.50, "low": 0.20}
"""Interferer calibration: throughput drop targets for the 3 levels (§4.2)."""

HUMAN_BLOCKAGE_LOSS_DB_RANGE = (15.0, 30.0)
"""Knife-edge attenuation of a human torso at 60 GHz (literature: 15-30 dB)."""

# --------------------------------------------------------------------------
# VR application study (§8.4)
# --------------------------------------------------------------------------

VR_FPS = 60
VR_MEAN_RATE_MBPS = 1200.0
"""8K VR demand: no more than 1.2 Gbps (§8.4)."""

VR_SCENE_DURATION_S = 30.0
