"""LiBRA reproduction: learning-based link adaptation for 60 GHz WLANs.

A full reimplementation of the system described in "LiBRA: Learning-Based
Link Adaptation Leveraging PHY Layer Information in 60 GHz WLANs"
(CoNEXT 2020), including the substrates the paper's evaluation depends on:
a geometric 60 GHz indoor channel simulator, an X60 testbed emulator, the
measurement-campaign dataset pipeline, a from-scratch ML stack, and the
trace-based evaluation harness.

Quickstart::

    from repro import build_main_dataset, RandomForestClassifier, LiBRA

    dataset = build_main_dataset()
    model = RandomForestClassifier(n_estimators=60, random_state=0)
    model.fit(dataset.feature_matrix(), dataset.labels())
    policy = LiBRA(model)

See ``examples/`` for end-to-end scenarios and ``benchmarks/`` for the
per-figure/table reproduction harness.
"""

from repro.core import (
    Action,
    BAFirstPolicy,
    FeatureVector,
    GroundTruthConfig,
    LiBRA,
    LinkAdaptationPolicy,
    RAFirstPolicy,
    compute_features,
    utility,
)
from repro.dataset import (
    Dataset,
    DatasetBuildConfig,
    DatasetEntry,
    ImpairmentKind,
    build_dataset,
    build_main_dataset,
    build_testing_dataset,
    load_dataset,
    save_dataset,
)
from repro.ml import (
    DecisionTreeClassifier,
    DenseNetworkClassifier,
    RandomForestClassifier,
    SVMClassifier,
    cross_validate,
    repeated_cross_validate,
)
from repro.sim import (
    OracleData,
    OracleDelay,
    ScenarioType,
    SimulationConfig,
    TimelineGenerator,
    simulate_flow,
    simulate_timeline,
)
from repro.testbed import X60Link

__version__ = "1.0.0"

__all__ = [
    "Action",
    "BAFirstPolicy",
    "FeatureVector",
    "GroundTruthConfig",
    "LiBRA",
    "LinkAdaptationPolicy",
    "RAFirstPolicy",
    "compute_features",
    "utility",
    "Dataset",
    "DatasetBuildConfig",
    "DatasetEntry",
    "ImpairmentKind",
    "build_dataset",
    "build_main_dataset",
    "build_testing_dataset",
    "load_dataset",
    "save_dataset",
    "DecisionTreeClassifier",
    "DenseNetworkClassifier",
    "RandomForestClassifier",
    "SVMClassifier",
    "cross_validate",
    "repeated_cross_validate",
    "OracleData",
    "OracleDelay",
    "ScenarioType",
    "SimulationConfig",
    "TimelineGenerator",
    "simulate_flow",
    "simulate_timeline",
    "X60Link",
]
