"""SNR → codeword error model for the X60 single-carrier PHY.

Each X60 MCS has an SNR threshold (see :data:`repro.constants.
X60_MCS_SNR_THRESHOLDS_DB`); the codeword error rate follows a logistic
waterfall around that threshold, which is the standard shape of an
LDPC-coded SC link.  The codeword delivery ratio (CDR) — the fraction of
successful codewords in a 10 ms frame — is the complement, and is the PHY
statistic the paper uses as its SFER analogue (§6.1).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

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


def codeword_error_rate(
    snr_db: float,
    mcs: int,
    thresholds_db: Sequence[float] = X60_MCS_SNR_THRESHOLDS_DB,
) -> float:
    """Probability that one codeword at ``mcs`` fails at the given SNR."""
    if not 0 <= mcs < len(thresholds_db):
        raise ValueError(f"mcs {mcs} out of range 0..{len(thresholds_db) - 1}")
    x = WATERFALL_STEEPNESS_PER_DB * (snr_db - thresholds_db[mcs])
    # Logistic CER: 0.5 exactly at threshold, →0 above, →1 below.
    if x > 40.0:
        return 0.0
    if x < -40.0:
        return 1.0
    return 1.0 / (1.0 + math.exp(x))


def codeword_delivery_ratio(
    snr_db: float,
    mcs: int,
    thresholds_db: Sequence[float] = X60_MCS_SNR_THRESHOLDS_DB,
) -> float:
    """Expected fraction of codewords delivered at ``mcs`` (1 - CER)."""
    return 1.0 - codeword_error_rate(snr_db, mcs, thresholds_db)


def phy_rate_mbps(mcs: int) -> float:
    """PHY data rate of an X60 MCS."""
    return X60_MCS_TABLE[mcs][3]


def throughput_mbps(snr_db: float, mcs: int) -> float:
    """Expected MAC throughput: PHY rate scaled by delivery ratio.

    X60's TDMA framing has negligible per-frame overhead at this
    granularity (CRC blocks are included in the codeword payload budget).
    """
    return phy_rate_mbps(mcs) * codeword_delivery_ratio(snr_db, mcs)


def is_working(cdr: float, throughput_mbps: float) -> bool:
    """The paper's working-MCS predicate (§5.2): CDR > 10 % AND
    throughput > 150 Mbps."""
    return cdr > WORKING_MCS_MIN_CDR and (
        throughput_mbps > WORKING_MCS_MIN_THROUGHPUT_MBPS
    )


def is_working_mcs(snr_db: float, mcs: int) -> bool:
    """:func:`is_working` on the expected CDR and throughput at ``snr_db``."""
    cdr = codeword_delivery_ratio(snr_db, mcs)
    return is_working(cdr, phy_rate_mbps(mcs) * cdr)


# ---------------------------------------------------------------------------
# Vectorized (batch) API — same values as the scalar functions above, one
# array call over any SNR shape x all (or a subset of) MCS indices.
# ---------------------------------------------------------------------------


def phy_rates_mbps() -> np.ndarray:
    """PHY data rate of every X60 MCS, shape ``(n_mcs,)`` (read-only view)."""
    return _PHY_RATES_MBPS


def codeword_error_rate_array(
    snr_db,
    thresholds_db: Sequence[float] = X60_MCS_SNR_THRESHOLDS_DB,
) -> np.ndarray:
    """Per-MCS CER for any array of SNRs: shape ``snr.shape + (n_mcs,)``.

    Matches :func:`codeword_error_rate` exactly at the saturation cutoffs
    (identically 0.0 / 1.0 beyond ±40 steepness units) and to floating-point
    round-off inside the waterfall.
    """
    snr = np.asarray(snr_db, dtype=float)
    thresholds = np.asarray(thresholds_db, dtype=float)
    x = WATERFALL_STEEPNESS_PER_DB * (snr[..., None] - thresholds)
    # Clip before exp only to avoid overflow warnings; the where() masks
    # reproduce the scalar function's exact 0/1 saturation.
    inner = 1.0 / (1.0 + np.exp(np.clip(x, -40.0, 40.0)))
    return np.where(x > 40.0, 0.0, np.where(x < -40.0, 1.0, inner))


def codeword_delivery_ratio_array(
    snr_db,
    thresholds_db: Sequence[float] = X60_MCS_SNR_THRESHOLDS_DB,
) -> np.ndarray:
    """Per-MCS CDR (1 − CER) for any array of SNRs: ``snr.shape + (n_mcs,)``."""
    return 1.0 - codeword_error_rate_array(snr_db, thresholds_db)


def best_throughput_array(
    snr_db, max_mcs: Optional[int] = None
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`best_throughput_mcs` over an SNR array.

    Returns ``(mcs, throughput_mbps)`` arrays of ``snr.shape``; dead links
    carry ``mcs = -1`` and throughput 0.0.  Ties resolve to the lowest MCS,
    matching the scalar scan's strict-improvement rule.
    """
    snr = np.asarray(snr_db, dtype=float)
    top = len(X60_MCS_TABLE) - 1 if max_mcs is None else max_mcs
    cdr = codeword_delivery_ratio_array(snr)[..., : top + 1]
    tput = _PHY_RATES_MBPS[: top + 1] * cdr
    working = (cdr > WORKING_MCS_MIN_CDR) & (tput > WORKING_MCS_MIN_THROUGHPUT_MBPS)
    masked = np.where(working, tput, -1.0)
    best_mcs = np.argmax(masked, axis=-1)
    best_tput = np.take_along_axis(masked, best_mcs[..., None], axis=-1)[..., 0]
    dead = best_tput <= 0.0
    return (
        np.where(dead, -1, best_mcs),
        np.where(dead, 0.0, best_tput),
    )


def best_throughput_mcs(
    snr_db: float, max_mcs: Optional[int] = None
) -> tuple[Optional[int], float]:
    """The MCS (≤ ``max_mcs``) with the highest expected throughput.

    Returns ``(mcs, throughput_mbps)``; ``(None, 0.0)`` when no MCS works.
    Note the best-throughput MCS can differ from the highest working one:
    just past a waterfall, a lower MCS at CDR≈1 can beat a higher at CDR≈0.4.
    """
    top = len(X60_MCS_TABLE) - 1 if max_mcs is None else max_mcs
    best_mcs: Optional[int] = None
    best_tput = 0.0
    for mcs in range(top + 1):
        if not is_working_mcs(snr_db, mcs):
            continue
        tput = throughput_mbps(snr_db, mcs)
        if tput > best_tput:
            best_mcs, best_tput = mcs, tput
    return best_mcs, best_tput
