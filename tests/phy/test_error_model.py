"""SNR → CDR error-model tests."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.constants import (
    WORKING_MCS_MIN_THROUGHPUT_MBPS,
    X60_MCS_SNR_THRESHOLDS_DB,
    X60_MCS_TABLE,
    X60_NUM_MCS,
)
from repro.phy.error_model import (
    best_throughput_array,
    codeword_delivery_ratio_array,
    is_working,
    phy_rate_mbps,
    phy_rates_mbps,
)

snr_values = st.floats(min_value=-20.0, max_value=40.0, allow_nan=False)
mcs_values = st.integers(min_value=0, max_value=X60_NUM_MCS - 1)


def cer(snr_db) -> np.ndarray:
    return 1.0 - codeword_delivery_ratio_array(snr_db)


def throughput(snr_db) -> np.ndarray:
    return phy_rates_mbps() * codeword_delivery_ratio_array(snr_db)


class TestCodewordErrorRate:
    def test_half_at_threshold(self):
        for mcs in range(X60_NUM_MCS):
            assert cer(X60_MCS_SNR_THRESHOLDS_DB[mcs])[mcs] == pytest.approx(0.5)

    def test_saturates_far_from_threshold(self):
        assert cer(40.0)[0] == pytest.approx(0.0, abs=1e-6)
        assert cer(-20.0)[8] == pytest.approx(1.0, abs=1e-6)

    @given(snr_values, mcs_values)
    def test_cer_cdr_complementary(self, snr, mcs):
        cdr = codeword_delivery_ratio_array(snr)
        assert cer(snr)[mcs] + cdr[mcs] == pytest.approx(1.0)

    @given(mcs_values)
    def test_cer_monotone_decreasing_in_snr(self, mcs):
        values = cer(np.arange(-10, 35, 2))[:, mcs]
        assert all(a >= b for a, b in zip(values, values[1:]))

    @given(snr_values)
    def test_cer_monotone_increasing_in_mcs(self, snr):
        values = cer(snr)
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_invalid_mcs_rejected(self):
        """The model has one column per X60 MCS and no other."""
        assert codeword_delivery_ratio_array(10.0).shape == (X60_NUM_MCS,)
        with pytest.raises(IndexError):
            codeword_delivery_ratio_array(10.0)[X60_NUM_MCS]


class TestThroughput:
    def test_phy_rates_match_table(self):
        for row in X60_MCS_TABLE:
            assert phy_rate_mbps(row[0]) == row[3]

    def test_throughput_at_high_snr_is_phy_rate(self):
        assert throughput(40.0)[8] == pytest.approx(4750.0)

    def test_throughput_at_low_snr_is_zero(self):
        assert throughput(-10.0)[8] == pytest.approx(0.0, abs=1e-3)


class TestWorkingMcs:
    def test_working_needs_throughput_and_cdr(self):
        # Just above MCS0 threshold: CDR fine but 300 Mbps * CDR must
        # clear 150 Mbps.
        for snr, expected in ((X60_MCS_SNR_THRESHOLDS_DB[0] + 2.0, True),
                              (X60_MCS_SNR_THRESHOLDS_DB[0] - 3.0, False)):
            cdr = codeword_delivery_ratio_array(snr)
            assert is_working(cdr[0], phy_rate_mbps(0) * cdr[0]) == expected

    @given(snr_values)
    def test_best_throughput_at_least_highest_working(self, snr):
        mcs, tput = best_throughput_array(snr)
        if mcs == -1:
            assert tput == 0.0
        else:
            cdr = codeword_delivery_ratio_array(snr)
            working = np.flatnonzero(is_working(cdr, throughput(snr)))
            assert tput >= throughput(snr)[working.max()] - 1e-9
            assert tput > WORKING_MCS_MIN_THROUGHPUT_MBPS

    def test_best_throughput_can_undercut_highest_working(self):
        """Right at a waterfall, a lower MCS at CDR≈1 can beat a higher
        MCS at partial CDR."""
        # At MCS 6's threshold (CDR 0.5): 3030*0.5 = 1515 < 2600 at MCS 5.
        snr = X60_MCS_SNR_THRESHOLDS_DB[6]
        mcs, _ = best_throughput_array(snr)
        assert mcs == 5
