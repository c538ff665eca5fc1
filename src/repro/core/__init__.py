"""The paper's contribution: PHY-metric features, ground-truth labelling,
the RA/BA algorithms, and the LiBRA controller (Algorithm 1)."""

from repro.core.metrics import FeatureVector, FEATURE_NAMES, compute_features
from repro.core.ground_truth import (
    GroundTruthConfig,
    Action,
    th_ra,
    th_ba,
    recovery_delays_s,
    utility,
    max_delay_s,
    label_entry,
)
from repro.core.policies import (
    LinkAdaptationPolicy,
    RAFirstPolicy,
    BAFirstPolicy,
    PolicyDecision,
)
from repro.core.libra import LiBRA
from repro.core.observation import (
    FrameFeedback,
    MetricWindow,
    WindowSnapshot,
)

__all__ = [
    "FeatureVector",
    "FEATURE_NAMES",
    "compute_features",
    "GroundTruthConfig",
    "Action",
    "th_ra",
    "th_ba",
    "recovery_delays_s",
    "utility",
    "max_delay_s",
    "label_entry",
    "LinkAdaptationPolicy",
    "RAFirstPolicy",
    "BAFirstPolicy",
    "PolicyDecision",
    "LiBRA",
    "FrameFeedback",
    "MetricWindow",
    "WindowSnapshot",
]
