"""60 GHz PHY substrate: phased-array codebook, geometric channel model,
blockage and interference, PDP/CSI computation, and the SNR→CDR error model.

This package stands in for the X60 SDR hardware the paper measured with;
see DESIGN.md §2 for the substitution rationale.
"""

from repro.phy.antenna import Beam, Codebook, sibeam_codebook, quasi_omni_gain_dbi
from repro.phy.propagation import free_space_path_loss_db, oxygen_absorption_db
from repro.phy.channel import Ray, ChannelState, LinkGeometry
from repro.phy.tracing import trace_rays_cached
from repro.phy.blockage import HumanBlocker
from repro.phy.interference import (
    Interferer,
    InterferenceField,
    calibrate_field,
    noise_rise_db_for_level,
)
from repro.phy.noise import noise_floor_dbm, NoiseModel
from repro.phy.pdp import power_delay_profile, fft_pdp, pearson_similarity

__all__ = [
    "Beam",
    "Codebook",
    "sibeam_codebook",
    "quasi_omni_gain_dbi",
    "free_space_path_loss_db",
    "oxygen_absorption_db",
    "Ray",
    "ChannelState",
    "trace_rays_cached",
    "LinkGeometry",
    "HumanBlocker",
    "Interferer",
    "InterferenceField",
    "calibrate_field",
    "noise_rise_db_for_level",
    "noise_floor_dbm",
    "NoiseModel",
    "power_delay_profile",
    "fft_pdp",
    "pearson_similarity",
]
