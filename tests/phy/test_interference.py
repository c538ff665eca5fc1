"""Interference model tests: calibration, directionality, levels."""

import math

import numpy as np
import pytest

from repro.constants import INTERFERENCE_DROP_LEVELS
from repro.env.geometry import Point
from repro.env.placement import RadioPose
from repro.env.rooms import make_lobby
from repro.phy.antenna import sibeam_codebook
from repro.phy.channel import Ray
from repro.phy.error_model import best_throughput_array
from repro.phy.interference import (
    Interferer,
    InterferenceField,
    calibrate_field,
    calibrate_field_for_drop,
    noise_rise_db_for_level,
    required_sinr_for_drop_db,
    target_throughput_drop,
)
from repro.testbed.x60 import X60Link


def single_ray(aoa_deg: float = 0.0, loss_db: float = 80.0) -> Ray:
    return Ray(aod_deg=0.0, aoa_deg=aoa_deg, path_length_m=5.0, loss_db=loss_db, order=0)


class TestLevels:
    def test_three_levels_with_increasing_rise(self):
        rises = [noise_rise_db_for_level(k) for k in ("low", "medium", "high")]
        assert rises == sorted(rises)
        assert rises[0] > 0

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            noise_rise_db_for_level("extreme")
        with pytest.raises(ValueError):
            Interferer(Point(0, 0), "extreme")

    def test_targets_match_paper(self):
        assert target_throughput_drop("high") == 0.80
        assert target_throughput_drop("medium") == 0.50
        assert target_throughput_drop("low") == 0.20


class TestQuasiOmniCalibration:
    def test_rise_is_exact_at_omni(self):
        noise = -74.0
        for level in INTERFERENCE_DROP_LEVELS:
            field = calibrate_field([single_ray()], level, noise)
            interference_mw = 10 ** (field.omni_power_dbm() / 10.0)
            noise_mw = 10 ** (noise / 10.0)
            total_db = 10 * math.log10(noise_mw + interference_mw)
            assert total_db - noise == pytest.approx(
                noise_rise_db_for_level(level), abs=1e-9
            )

    def test_empty_rays_rejected(self):
        with pytest.raises(ValueError):
            calibrate_field([], "low", -74.0)
        with pytest.raises(ValueError):
            calibrate_field_for_drop([], "low", -74.0, 20.0, sibeam_codebook()[0], 0.0)


class TestDirectionality:
    def test_beam_pointing_at_interferer_collects_more(self):
        field = InterferenceField((single_ray(aoa_deg=0.0),), eirp_dbm=10.0)
        codebook = sibeam_codebook()
        toward = codebook.beam_closest_to(0.0)
        away = codebook.beam_closest_to(60.0)
        assert field.power_dbm(toward, 0.0) > field.power_dbm(away, 0.0) + 6.0

    def test_rx_orientation_shifts_the_view(self):
        field = InterferenceField((single_ray(aoa_deg=30.0),), eirp_dbm=10.0)
        beam = sibeam_codebook().beam_closest_to(0.0)
        # Rotating the Rx by 30° brings the interferer onto boresight.
        assert field.power_dbm(beam, 30.0) > field.power_dbm(beam, 0.0)


class TestDropCalibration:
    def test_required_sinr_reduces_throughput_to_target(self):
        clear = 25.0
        for level, drop in INTERFERENCE_DROP_LEVELS.items():
            sinr = required_sinr_for_drop_db(clear, drop)
            _, (base, degraded) = best_throughput_array([clear, sinr])
            assert degraded <= (1.0 - drop) * base + 1e-9
            # Not grossly over-degraded (the ladder is discrete; allow one
            # MCS step of slack).
            assert degraded >= (1.0 - drop) * base * 0.45

    def test_invalid_drop_rejected(self):
        with pytest.raises(ValueError):
            required_sinr_for_drop_db(20.0, 1.0)

    def test_end_to_end_drop_at_operating_pair(self):
        """The full §4.2 calibration: the victim's throughput at its
        operating pair drops by roughly the target fraction."""
        room = make_lobby()
        tx = RadioPose(Point(2.0, 6.0), 0.0)
        rx = RadioPose(Point(10.0, 6.0), 180.0)
        link = X60Link(room, tx)
        rng = np.random.default_rng(0)
        clear = link.channel_state(rx, rng=rng)
        t, r, _ = link.sector_sweep(clear, rx)
        base = link.measure(clear, rx, t, r, rng).best_throughput()
        for level, target in INTERFERENCE_DROP_LEVELS.items():
            interferer = Interferer(Point(14.0, 7.0), level)
            state = link.channel_state(
                rx, interferer=interferer, rng=rng, operating_pair=(t, r)
            )
            degraded = link.measure(state, rx, t, r, rng).best_throughput()
            drop = 1.0 - degraded / base
            assert drop == pytest.approx(target, abs=0.12), level
