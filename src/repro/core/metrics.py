"""The seven PHY-layer features of §6.1.

Each dataset entry describes the *change* of the link between an initial
state (before the impairment) and the current state (after it), always
measured on the beam pair that was best at the initial state — that is the
only view the transmitter has before deciding which adaptation mechanism to
trigger:

========================  ==================================================
feature                   definition (paper §6.1)
========================  ==================================================
``snr_diff_db``           SNR(initial) − SNR(current), 1 s averages
``tof_diff_ns``           ToF(initial) − ToF(current); negative under
                          backward motion; sentinel when either is infinite
``noise_diff_db``         NoiseLevel(current) − NoiseLevel(initial)
``pdp_similarity``        Pearson correlation of aligned PDPs
``csi_similarity``        Pearson correlation of FFT-PDPs (CSI estimate)
``cdr``                   codeword delivery ratio at the initial best MCS,
                          measured at the current state
``initial_mcs``           the highest-throughput working MCS at the
                          initial state
========================  ==================================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.phy.pdp import csi_similarity, pdp_similarity
from repro.testbed.traces import StateMeasurement

FEATURE_NAMES = (
    "snr_diff_db",
    "tof_diff_ns",
    "noise_diff_db",
    "pdp_similarity",
    "csi_similarity",
    "cdr",
    "initial_mcs",
)

TOF_DIFF_CLIP_NS = 20.0
"""ToF differences are clipped to the ±20 ns range the paper plots."""

TOF_INF_SENTINEL_NS = 25.0
"""Encodes 'X60 reported infinity' — outside the clip range so tree-based
models can branch on it (paper: infinite ToF ⇒ BA is always needed)."""


@dataclass(frozen=True)
class FeatureVector:
    """One entry's feature values, in :data:`FEATURE_NAMES` order."""

    snr_diff_db: float
    tof_diff_ns: float
    noise_diff_db: float
    pdp_similarity: float
    csi_similarity: float
    cdr: float
    initial_mcs: int

    def to_array(self) -> np.ndarray:
        return np.array(
            [
                self.snr_diff_db,
                self.tof_diff_ns,
                self.noise_diff_db,
                self.pdp_similarity,
                self.csi_similarity,
                self.cdr,
                float(self.initial_mcs),
            ]
        )

    @classmethod
    def from_array(cls, values: np.ndarray) -> "FeatureVector":
        if len(values) != len(FEATURE_NAMES):
            raise ValueError(f"expected {len(FEATURE_NAMES)} features, got {len(values)}")
        return cls(
            snr_diff_db=float(values[0]),
            tof_diff_ns=float(values[1]),
            noise_diff_db=float(values[2]),
            pdp_similarity=float(values[3]),
            csi_similarity=float(values[4]),
            cdr=float(values[5]),
            initial_mcs=int(round(values[6])),
        )


def tof_difference_ns(initial_tof_ns: float, current_tof_ns: float) -> float:
    """ToF(initial) − ToF(current) with the paper's infinity handling.

    Backward motion makes the current ToF larger, so the difference goes
    negative (matching Fig. 5's reading).  Any infinite reading collapses
    to the sentinel: the measurement failed, which itself signals a broken
    beam (§6.1: "when the ToF difference is 0 or infinity, BA is always
    needed").
    """
    if math.isinf(initial_tof_ns) or math.isinf(current_tof_ns):
        return TOF_INF_SENTINEL_NS
    diff = initial_tof_ns - current_tof_ns
    return min(TOF_DIFF_CLIP_NS, max(-TOF_DIFF_CLIP_NS, diff))


def compute_features(
    initial: StateMeasurement, current_same_pair: StateMeasurement
) -> FeatureVector:
    """Build the feature vector from two measurements on the same beam pair.

    Raises ``ValueError`` when the two measurements are not on the same
    beam pair or the initial state has no working MCS (a dead initial link
    cannot produce a meaningful entry — the paper's initial states are by
    construction working links).
    """
    if (initial.tx_beam, initial.rx_beam) != (
        current_same_pair.tx_beam,
        current_same_pair.rx_beam,
    ):
        raise ValueError("feature extraction requires measurements on the same beam pair")
    initial_mcs = initial.best_mcs()
    if initial_mcs is None:
        raise ValueError("initial state has no working MCS")
    return feature_deltas(
        initial, current_same_pair, float(current_same_pair.cdr[initial_mcs]), initial_mcs
    )


def feature_deltas(before, after, cdr: float, mcs: int) -> FeatureVector:
    """The §6.1 feature deltas between two views of one beam pair.

    ``before`` and ``after`` are anything with ``snr_db``, ``tof_ns``,
    ``noise_dbm`` and ``pdp``: the campaign's :class:`StateMeasurement`
    pair (initial state, current state) or the live loop's two consecutive
    :class:`~repro.core.observation.WindowSnapshot` windows, where the
    previous window plays the initial state.  ``cdr`` and ``mcs`` are the
    reported CDR and MCS: in the campaign, the current CDR at the initial
    best MCS and that MCS; live, the window's CDR and the MCS in use.
    """
    return FeatureVector(
        snr_diff_db=before.snr_db - after.snr_db,
        tof_diff_ns=tof_difference_ns(before.tof_ns, after.tof_ns),
        noise_diff_db=after.noise_dbm - before.noise_dbm,
        pdp_similarity=pdp_similarity(before.pdp, after.pdp),
        csi_similarity=csi_similarity(before.pdp, after.pdp),
        cdr=cdr,
        initial_mcs=mcs,
    )
