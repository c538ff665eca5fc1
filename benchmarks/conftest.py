"""Shared fixtures for the per-table/per-figure reproduction benchmarks.

Each benchmark regenerates one table or figure of the paper: it runs the
experiment (timed by pytest-benchmark), writes the rows/series the paper
plots into ``benchmarks/results/<id>.txt``, and asserts the paper's
qualitative claims.  EXPERIMENTS.md indexes the result files.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core.libra import LiBRA
from repro.core.policies import BAFirstPolicy, RAFirstPolicy
from repro.dataset.builder import (
    DatasetBuildConfig,
    build_main_dataset,
    build_testing_dataset,
)
from repro.ml.forest import RandomForestClassifier
from repro.sim.sweep import EvaluationGrid, OperatingPoint

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def record(results_dir):
    """Write one experiment's text artifact; returns the path."""

    def _record(name: str, lines) -> Path:
        path = results_dir / f"{name}.txt"
        if isinstance(lines, str):
            text = lines
        else:
            text = "\n".join(lines)
        path.write_text(text + "\n")
        return path

    return _record


@pytest.fixture(scope="session")
def main_dataset():
    return build_main_dataset()


@pytest.fixture(scope="session")
def testing_dataset():
    return build_testing_dataset()


@pytest.fixture(scope="session")
def main_dataset_with_na():
    return build_main_dataset(DatasetBuildConfig(include_na=True))


@pytest.fixture(scope="session")
def testing_dataset_with_na():
    return build_testing_dataset(DatasetBuildConfig(include_na=True, seed=1))


@pytest.fixture(scope="session")
def two_class_forest(main_dataset):
    model = RandomForestClassifier(n_estimators=60, max_depth=14, random_state=0)
    model.fit(main_dataset.feature_matrix(), main_dataset.labels())
    return model


@pytest.fixture(scope="session")
def three_class_forest(main_dataset_with_na):
    model = RandomForestClassifier(n_estimators=60, max_depth=14, random_state=0)
    model.fit(
        main_dataset_with_na.feature_matrix(), main_dataset_with_na.labels()
    )
    return model


@pytest.fixture(scope="session")
def libra_policy(three_class_forest):
    return LiBRA(three_class_forest)


@pytest.fixture(scope="session")
def make_libra(main_dataset_with_na, testing_dataset):
    """Per-protocol-config LiBRA policies (cached by the grid).

    The ground-truth labels depend on (α, BA overhead, FAT), so the paper
    effectively trains one model per operating point (§8.1 assigns α = 0.7
    to the 0.5/5 ms sweeps and α = 0.5 to the 150/250 ms ones).  NA
    entries keep their NA label under any config.
    """
    grid = EvaluationGrid(main_dataset_with_na, testing_dataset)

    def _make(ba_overhead_s: float, frame_time_s: float) -> LiBRA:
        return grid.libra_for(OperatingPoint(ba_overhead_s, frame_time_s))

    return _make


@pytest.fixture()
def heuristics():
    return {"BA First": BAFirstPolicy(), "RA First": RAFirstPolicy()}
