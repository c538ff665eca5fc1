"""MCS table tests: the X60 and 802.11ad ladders in :mod:`repro.constants`."""

import numpy as np

from repro.constants import (
    AD_MCS_SNR_THRESHOLDS_DB,
    AD_MCS_TABLE,
    X60_MCS_SNR_THRESHOLDS_DB,
    X60_MCS_TABLE,
)
from repro.phy.error_model import phy_rate_mbps, phy_rates_mbps

INDEX, MODULATION, CODE_RATE, RATE_MBPS = range(4)


def highest_below_snr(snr_db: float, margin_db: float = 0.0):
    """The highest X60 MCS whose threshold clears ``snr_db - margin``, or
    ``None`` — the direct SNR→MCS mapping older 60 GHz RA work proposed."""
    count = int(np.searchsorted(X60_MCS_SNR_THRESHOLDS_DB, snr_db - margin_db, "right"))
    return count - 1 if count else None


class TestX60Set:
    def test_nine_mcs_spanning_paper_rates(self):
        assert len(X60_MCS_TABLE) == 9
        assert phy_rate_mbps(0) == 300.0
        assert phy_rates_mbps().max() == X60_MCS_TABLE[-1][RATE_MBPS] == 4750.0

    def test_indices_contiguous_from_zero(self):
        assert [row[INDEX] for row in X60_MCS_TABLE] == list(range(9))

    def test_thresholds_increase_with_rate(self):
        assert len(X60_MCS_SNR_THRESHOLDS_DB) == len(X60_MCS_TABLE)
        assert list(X60_MCS_SNR_THRESHOLDS_DB) == sorted(X60_MCS_SNR_THRESHOLDS_DB)

    def test_codeword_sizes_span_paper_range(self):
        sizes = [row[4] for row in X60_MCS_TABLE]
        assert min(sizes) == 180 and max(sizes) == 1080


class TestAdSet:
    def test_twelve_sc_mcs(self):
        assert len(AD_MCS_TABLE) == len(AD_MCS_SNR_THRESHOLDS_DB) == 12
        assert AD_MCS_TABLE[0][INDEX] == 1
        assert AD_MCS_TABLE[-1][RATE_MBPS] == 4620.0

    def test_rates_match_standard_extremes(self):
        assert AD_MCS_TABLE[0][RATE_MBPS] == 385.0


class TestMCSSetApi:
    def test_by_index(self):
        assert X60_MCS_TABLE[4][MODULATION] == "16QAM"
        assert 99 not in {row[INDEX] for row in X60_MCS_TABLE}

    def test_rate_lookup(self):
        assert phy_rate_mbps(3) == 1300.0

    def test_rate_bps(self):
        assert phy_rate_mbps(0) * 1e6 == 300e6

    def test_highest_below_snr(self):
        # 16 dB clears MCS5's 15 dB but not MCS6's 17 dB.
        assert highest_below_snr(16.0) == 5
        assert highest_below_snr(100.0) == 8
        assert highest_below_snr(-5.0) is None

    def test_highest_below_snr_with_margin(self):
        assert highest_below_snr(16.0, margin_db=3.0) == 4

    def test_empty_set_rejected(self):
        """The ladders are constants, so the checks a set constructor made
        (non-empty, ordered by rate) are made on the tables themselves."""
        assert X60_MCS_TABLE and AD_MCS_TABLE

    def test_unordered_set_rejected(self):
        for table in (X60_MCS_TABLE, AD_MCS_TABLE):
            rates = [row[RATE_MBPS] for row in table]
            assert rates == sorted(rates)
        assert list(AD_MCS_SNR_THRESHOLDS_DB) == sorted(AD_MCS_SNR_THRESHOLDS_DB)
