"""Vectorised error-model paths vs their scalar references.

The PR contract: every batched CDR/throughput value agrees with the
scalar function to ≤1e-9 over the full SNR × MCS grid, including the
exact 0.0/1.0 saturation plateaus of the logistic waterfall.
"""

import numpy as np
import pytest

from repro.constants import X60_MCS_TABLE
from repro.phy.error_model import (
    best_throughput_array,
    best_throughput_mcs,
    codeword_delivery_ratio,
    codeword_delivery_ratio_array,
    codeword_error_rate,
    codeword_error_rate_array,
    phy_rate_mbps,
    phy_rates_mbps,
    throughput_mbps,
)

N_MCS = len(X60_MCS_TABLE)
# Dense grid spanning both saturation plateaus, the waterfalls, and the
# exact MCS thresholds (integers land on every 0.5 dB threshold).
SNR_GRID = np.round(np.arange(-30.0, 40.0, 0.125), 6)


class TestScalarBatchParity:
    def test_cer_full_grid(self):
        batch = codeword_error_rate_array(SNR_GRID)
        assert batch.shape == (len(SNR_GRID), N_MCS)
        for i, snr in enumerate(SNR_GRID):
            for mcs in range(N_MCS):
                assert abs(batch[i, mcs] - codeword_error_rate(snr, mcs)) <= 1e-9

    def test_cdr_full_grid(self):
        batch = codeword_delivery_ratio_array(SNR_GRID)
        for i, snr in enumerate(SNR_GRID):
            for mcs in range(N_MCS):
                assert (
                    abs(batch[i, mcs] - codeword_delivery_ratio(snr, mcs)) <= 1e-9
                )

    def test_throughput_full_grid(self):
        batch = phy_rates_mbps() * codeword_delivery_ratio_array(SNR_GRID)
        for i, snr in enumerate(SNR_GRID):
            for mcs in range(N_MCS):
                assert abs(batch[i, mcs] - throughput_mbps(snr, mcs)) <= 1e-9

    def test_saturation_is_exact(self):
        """Far from threshold the batch path must be identically 0/1."""
        cer = codeword_error_rate_array(np.array([-100.0, 100.0]))
        assert (cer[0] == 1.0).all()
        assert (cer[1] == 0.0).all()

    def test_phy_rates_match_scalar(self):
        rates = phy_rates_mbps()
        assert rates.shape == (N_MCS,)
        for mcs in range(N_MCS):
            assert rates[mcs] == phy_rate_mbps(mcs)


class TestBestThroughputParity:
    @pytest.mark.parametrize("max_mcs", [None, 0, 4, N_MCS - 1])
    def test_matches_scalar_scan(self, max_mcs):
        mcs_arr, tput_arr = best_throughput_array(SNR_GRID, max_mcs)
        assert mcs_arr.shape == SNR_GRID.shape
        for i, snr in enumerate(SNR_GRID):
            ref_mcs, ref_tput = best_throughput_mcs(float(snr), max_mcs)
            expected = -1 if ref_mcs is None else ref_mcs
            assert int(mcs_arr[i]) == expected, f"snr={snr}"
            assert abs(float(tput_arr[i]) - ref_tput) <= 1e-9

    def test_dead_link_shape(self):
        mcs_arr, tput_arr = best_throughput_array(np.array([-50.0]))
        assert int(mcs_arr[0]) == -1
        assert float(tput_arr[0]) == 0.0

    def test_2d_input_broadcast(self):
        grid = SNR_GRID[: 2 * (len(SNR_GRID) // 2)].reshape(2, -1)
        mcs_2d, tput_2d = best_throughput_array(grid)
        mcs_1d, tput_1d = best_throughput_array(grid.ravel())
        np.testing.assert_array_equal(mcs_2d.ravel(), mcs_1d)
        np.testing.assert_array_equal(tput_2d.ravel(), tput_1d)
