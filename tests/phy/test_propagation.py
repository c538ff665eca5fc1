"""Propagation model tests."""

import pytest
from hypothesis import given, strategies as st

from repro.constants import SPEED_OF_LIGHT_M_S
from repro.phy.channel import Ray
from repro.phy.propagation import (
    free_space_path_loss_db,
    oxygen_absorption_db,
    path_loss_db,
)


class TestFreeSpacePathLoss:
    def test_one_metre_reference_value(self):
        # FSPL(1 m, 60.48 GHz) = 20 log10(4π/λ) ≈ 68 dB.
        assert free_space_path_loss_db(1.0) == pytest.approx(68.1, abs=0.3)

    def test_inverse_square_law_in_db(self):
        # Doubling distance adds 6.02 dB.
        assert free_space_path_loss_db(20.0) - free_space_path_loss_db(
            10.0
        ) == pytest.approx(6.02, abs=0.01)

    def test_near_field_clamp(self):
        assert free_space_path_loss_db(0.0) == free_space_path_loss_db(0.1)

    @given(st.floats(min_value=0.2, max_value=100.0))
    def test_monotone_in_distance(self, d):
        assert free_space_path_loss_db(d * 1.5) > free_space_path_loss_db(d)

    def test_lower_frequency_means_lower_loss(self):
        assert free_space_path_loss_db(10.0, 5.0e9) < free_space_path_loss_db(
            10.0, 60.48e9
        )


class TestOxygenAbsorption:
    def test_indoor_scale_is_small(self):
        # 30 m indoor path: less than half a dB.
        assert oxygen_absorption_db(30.0) < 0.5

    def test_per_km_value(self):
        assert oxygen_absorption_db(1000.0) == pytest.approx(15.0)

    def test_total_path_loss_combines(self):
        d = 25.0
        assert path_loss_db(d) == pytest.approx(
            free_space_path_loss_db(d) + oxygen_absorption_db(d)
        )


def ray(path_length_m: float) -> Ray:
    return Ray(0.0, 180.0, path_length_m, 0.0, order=0)


class TestTimeOfFlight:
    def test_speed_of_light(self):
        assert ray(SPEED_OF_LIGHT_M_S).delay_s == pytest.approx(1.0)

    def test_nanoseconds_at_typical_range(self):
        # 3 m ≈ 10 ns.
        assert ray(3.0).delay_ns == pytest.approx(10.0, abs=0.1)

    @given(st.floats(min_value=0.0, max_value=1000.0))
    def test_linear_in_distance(self, d):
        assert ray(2 * d).delay_ns == pytest.approx(2 * ray(d).delay_ns)
