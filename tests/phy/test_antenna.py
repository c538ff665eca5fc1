"""Phased-array codebook tests."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.constants import X60_NUM_BEAMS
from repro.phy.antenna import (
    MAIN_LOBE_PEAK_GAIN_DBI,
    SIDE_LOBE_FLOOR_DBI,
    Beam,
    Codebook,
    quasi_omni_gain_dbi,
    sibeam_codebook,
)


@pytest.fixture(scope="module")
def codebook() -> Codebook:
    return sibeam_codebook()


class TestCodebookStructure:
    def test_twenty_five_beams(self, codebook):
        assert len(codebook) == X60_NUM_BEAMS

    def test_steering_angles_span_pm_60(self, codebook):
        angles = codebook.steering_angles()
        assert angles[0] == pytest.approx(-60.0)
        assert angles[-1] == pytest.approx(60.0)
        assert angles == sorted(angles)

    def test_beam_spacing_about_five_degrees(self, codebook):
        angles = codebook.steering_angles()
        spacings = np.diff(angles)
        assert np.allclose(spacings, 5.0)

    def test_beamwidths_in_paper_range(self, codebook):
        for beam in codebook:
            assert 24.0 <= beam.beamwidth_deg <= 36.0

    def test_deterministic_construction(self):
        a = sibeam_codebook()
        b = sibeam_codebook()
        assert a is b or a.steering_angles() == b.steering_angles()

    def test_every_beam_has_large_side_lobes(self, codebook):
        # The paper stresses large side lobes; each beam should exceed the
        # floor by >5 dB somewhere far from its main lobe.
        angles = np.linspace(-180, 180, 721)
        for beam in codebook:
            gains = beam.gain_dbi_array(angles)
            far = np.abs((angles - beam.steering_deg + 180) % 360 - 180) > 40
            assert gains[far].max() > SIDE_LOBE_FLOOR_DBI + 5.0


def gain(beam: Beam, angle_deg: float) -> float:
    """One angle's gain through the array pattern."""
    return float(beam.gain_dbi_array(angle_deg)[0])


def _clean_beam() -> Beam:
    """An idealised beam (no ripple, nominal peak) to test the lobe model."""
    return Beam(index=0, steering_deg=0.0, beamwidth_deg=30.0, side_lobes=())


class TestBeamGain:
    def test_peak_at_steering_angle(self, codebook):
        # Realised peaks carry per-beam gain variation (±1.5 dB) and
        # pattern ripple (±2 dB) around the nominal array gain.
        for beam in list(codebook)[::6]:
            at_peak = gain(beam, beam.steering_deg)
            assert at_peak == pytest.approx(MAIN_LOBE_PEAK_GAIN_DBI, abs=4.0)

    def test_clean_beam_peak_is_nominal(self):
        beam = _clean_beam()
        assert gain(beam, 0.0) == pytest.approx(MAIN_LOBE_PEAK_GAIN_DBI, abs=0.1)

    def test_three_db_point_at_half_beamwidth(self):
        beam = _clean_beam()
        peak = gain(beam, 0.0)
        edge = gain(beam, beam.beamwidth_deg / 2.0)
        assert peak - edge == pytest.approx(3.0, abs=0.3)

    def test_gain_never_below_floor_minus_ripple(self, codebook):
        angles = np.linspace(-180, 180, 361)
        for beam in list(codebook)[::6]:
            floor = SIDE_LOBE_FLOOR_DBI - beam.ripple_amp_db - 1e-9
            assert (beam.gain_dbi_array(angles) >= floor).all()

    def test_vectorised_matches_scalar(self, codebook):
        # One call over many angles equals one-angle calls: each angle's
        # gain depends on nothing else in the array.
        beam = codebook[7]
        angles = np.linspace(-170, 170, 37)
        vector = beam.gain_dbi_array(angles)
        scalar = np.array([gain(beam, float(a)) for a in angles])
        assert np.allclose(vector, scalar, atol=1e-9)

    @given(st.floats(min_value=-720, max_value=720, allow_nan=False))
    def test_gain_is_360_periodic(self, angle):
        beam = sibeam_codebook()[12]
        assert gain(beam, angle) == pytest.approx(gain(beam, angle + 360.0), abs=1e-6)

    def test_gain_matrix_shape_and_consistency(self, codebook):
        angles = np.array([-30.0, 0.0, 45.0])
        matrix = codebook.gain_matrix_dbi(angles)
        assert matrix.shape == (len(codebook), 3)
        assert matrix[12, 1] == pytest.approx(gain(codebook[12], 0.0), abs=1e-9)


class TestSelection:
    def test_beam_closest_to(self, codebook):
        assert codebook.beam_closest_to(0.0).steering_deg == pytest.approx(0.0)
        assert codebook.beam_closest_to(100.0).steering_deg == pytest.approx(60.0)
        assert codebook.beam_closest_to(-100.0).steering_deg == pytest.approx(-60.0)

    def test_quasi_omni_gain_is_low(self):
        assert quasi_omni_gain_dbi() < MAIN_LOBE_PEAK_GAIN_DBI - 10


class TestValidation:
    def test_empty_codebook_rejected(self):
        with pytest.raises(ValueError):
            Codebook([])

    def test_single_beam_codebook_rejected(self):
        with pytest.raises(ValueError):
            sibeam_codebook(num_beams=1, seed=1)
