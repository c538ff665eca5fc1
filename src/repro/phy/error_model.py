"""SNR → codeword error model for the X60 single-carrier PHY.

Each X60 MCS has an SNR threshold (see :data:`repro.constants.
X60_MCS_SNR_THRESHOLDS_DB`); the codeword error rate follows a logistic
waterfall around that threshold, which is the standard shape of an
LDPC-coded SC link.  The codeword delivery ratio (CDR) — the fraction of
successful codewords in a 10 ms frame — is the complement, and is the PHY
statistic the paper uses as its SFER analogue (§6.1).  The expected MAC
throughput is the PHY rate scaled by the CDR: X60's TDMA framing has
negligible per-frame overhead at this granularity (CRC blocks are included
in the codeword payload budget).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.constants import (
    WORKING_MCS_MIN_CDR,
    WORKING_MCS_MIN_THROUGHPUT_MBPS,
    X60_MCS_SNR_THRESHOLDS_DB,
    X60_MCS_TABLE,
)

_PHY_RATES_MBPS = np.array([row[3] for row in X60_MCS_TABLE], dtype=float)

WATERFALL_STEEPNESS_PER_DB = 4.0
"""Logistic steepness: the CER goes ~0.98→0.02 over ±1 dB around threshold.
LDPC waterfalls are sharp; the practical consequence (paper Fig. 8) is that
observed CDR is close to binary — ~0 below threshold, ~1 above — which is
exactly why CDR alone cannot pick the right adaptation mechanism."""


def phy_rate_mbps(mcs: int) -> float:
    """PHY data rate of an X60 MCS."""
    return X60_MCS_TABLE[mcs][3]


def phy_rates_mbps() -> np.ndarray:
    """PHY data rate of every X60 MCS, shape ``(n_mcs,)`` (read-only view)."""
    return _PHY_RATES_MBPS


def is_working(cdr, throughput_mbps):
    """The paper's working-MCS predicate (§5.2): CDR > 10 % AND
    throughput > 150 Mbps.  Takes scalars or arrays."""
    return (cdr > WORKING_MCS_MIN_CDR) & (
        throughput_mbps > WORKING_MCS_MIN_THROUGHPUT_MBPS
    )


def codeword_delivery_ratio_array(
    snr_db,
    thresholds_db: Sequence[float] = X60_MCS_SNR_THRESHOLDS_DB,
) -> np.ndarray:
    """Per-MCS CDR for any array of SNRs: shape ``snr.shape + (n_mcs,)``.

    The CDR is 1 − CER, with the CER a logistic waterfall: 0.5 exactly at
    each threshold, identically 0.0 / 1.0 beyond ±40 steepness units.
    ``thresholds_db`` selects the ladder (X60 by default, 802.11ad for the
    COTS devices).
    """
    snr = np.asarray(snr_db, dtype=float)
    thresholds = np.asarray(thresholds_db, dtype=float)
    x = WATERFALL_STEEPNESS_PER_DB * (snr[..., None] - thresholds)
    # Clip before exp only to avoid overflow warnings; the where() masks
    # give the exact 0/1 saturation.
    inner = 1.0 / (1.0 + np.exp(np.clip(x, -40.0, 40.0)))
    return 1.0 - np.where(x > 40.0, 0.0, np.where(x < -40.0, 1.0, inner))


def best_throughput_array(snr_db) -> tuple[np.ndarray, np.ndarray]:
    """The working X60 MCS with the highest expected throughput, per SNR.

    Returns ``(mcs, throughput_mbps)`` arrays of ``snr.shape``; dead links
    carry ``mcs = -1`` and throughput 0.0.  Ties resolve to the lowest MCS.
    The best-throughput MCS can differ from the highest working one: just
    past a waterfall, a lower MCS at CDR≈1 can beat a higher at CDR≈0.4.
    """
    cdr = codeword_delivery_ratio_array(snr_db)
    tput = _PHY_RATES_MBPS * cdr
    masked = np.where(is_working(cdr, tput), tput, -1.0)
    best_mcs = np.argmax(masked, axis=-1)
    best_tput = np.take_along_axis(masked, best_mcs[..., None], axis=-1)[..., 0]
    dead = best_tput <= 0.0
    return (
        np.where(dead, -1, best_mcs),
        np.where(dead, 0.0, best_tput),
    )
