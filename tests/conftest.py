"""Shared fixtures.

The datasets take a couple of seconds to build, so they are session-scoped
and shared by every test that needs realistic entries.  Tests that mutate
entries must copy them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dataset.builder import (
    DatasetBuildConfig,
    build_main_dataset,
    build_testing_dataset,
)
from repro.dataset.entry import Dataset, DatasetEntry, ImpairmentKind
from repro.core.ground_truth import Action
from repro.core.metrics import FeatureVector
from repro.ml.forest import RandomForestClassifier
from repro.phy.tracing import trace_rays_cached
from repro.testbed.traces import McsTraces


@pytest.fixture(scope="session")
def main_dataset() -> Dataset:
    return build_main_dataset()


@pytest.fixture(scope="session")
def testing_dataset() -> Dataset:
    return build_testing_dataset()


@pytest.fixture(scope="session")
def main_dataset_with_na() -> Dataset:
    return build_main_dataset(DatasetBuildConfig(include_na=True))


@pytest.fixture(scope="session")
def trained_forest(main_dataset) -> RandomForestClassifier:
    model = RandomForestClassifier(n_estimators=40, max_depth=12, random_state=0)
    model.fit(main_dataset.feature_matrix(), main_dataset.labels())
    return model


def rays_up_to(geometry, order: int) -> list:
    """The traced rays with at most ``order`` bounces, strongest first.

    The tracer lists LOS, first-order and second-order rays in that order
    and sorts them stably by loss, so this equals a shallower trace.
    """
    return [ray for ray in trace_rays_cached(geometry) if ray.order <= order]


def make_traces(throughputs, cdr_value: float = 1.0) -> McsTraces:
    """Synthetic per-MCS traces; ``throughputs`` may be shorter than 9 (the
    tail is zero-filled) and ``cdr_value`` applies to all non-zero MCSs."""
    tput = np.zeros(9)
    tput[: len(throughputs)] = throughputs
    cdr = np.where(tput > 0, cdr_value, 0.0)
    return McsTraces(cdr, tput)


def make_entry(
    tput_same,
    tput_best,
    initial_mcs: int,
    label: Action = Action.BA,
    kind: ImpairmentKind = ImpairmentKind.DISPLACEMENT,
    features: FeatureVector | None = None,
) -> DatasetEntry:
    """A synthetic entry with controllable traces for engine arithmetic."""
    if features is None:
        features = FeatureVector(5.0, 0.0, 0.0, 0.9, 0.8, 0.5, initial_mcs)
    return DatasetEntry(
        kind=kind,
        room="synthetic",
        position_label="p0",
        rep=0,
        features=features,
        label=label,
        initial_mcs=initial_mcs,
        initial_throughput_mbps=float(np.max(tput_same)) if len(tput_same) else 0.0,
        traces_same_pair=make_traces(tput_same),
        traces_best_pair=make_traces(tput_best),
    )
