"""Dataset records.

A :class:`DatasetEntry` corresponds to one row of the paper's dataset: the
PHY-metric deltas between an initial and a new state, the initial MCS, the
ground-truth label — plus, beyond what the paper's public CSV carries, the
per-MCS throughput/CDR traces for both candidate beam pairs.  Keeping the
traces lets every §8 experiment *relabel* the ground truth under different
(α, BA overhead, FAT) settings without re-running the testbed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

import numpy as np

from repro.core.ground_truth import (
    Action,
    GroundTruthConfig,
    label_entry,
)
from repro.core.metrics import FEATURE_NAMES, FeatureVector
from repro.testbed.traces import McsTraces


class ImpairmentKind(enum.Enum):
    """The scenario families of Table 1 (plus NA for §7's 3-class model)."""

    DISPLACEMENT = "displacement"
    BLOCKAGE = "blockage"
    INTERFERENCE = "interference"
    NONE = "na"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class DatasetEntry:
    """One labelled measurement pair."""

    kind: ImpairmentKind
    room: str
    position_label: str  # physical Rx position key (Table 1 counts these)
    rep: int
    features: FeatureVector
    label: Action
    initial_mcs: int
    initial_throughput_mbps: float
    traces_same_pair: McsTraces
    traces_best_pair: McsTraces
    detail: str = ""  # orientation / blocker spot / interference level

    def relabel(self, config: GroundTruthConfig) -> Action:
        """Ground-truth winner under a different protocol configuration.

        NA entries stay NA: the link did not degrade, so no adaptation is
        the right call regardless of overhead parameters.
        """
        if self.kind is ImpairmentKind.NONE:
            return Action.NA
        return label_entry(
            self.traces_same_pair, self.traces_best_pair, self.initial_mcs, config
        )


@dataclass
class Dataset:
    """An ordered collection of entries with Table-1-style accounting."""

    entries: list[DatasetEntry] = field(default_factory=list)
    name: str = "dataset"

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[DatasetEntry]:
        return iter(self.entries)

    def __getitem__(self, index: int) -> DatasetEntry:
        return self.entries[index]

    def append(self, entry: DatasetEntry) -> None:
        self.entries.append(entry)

    def extend(self, entries: list[DatasetEntry]) -> None:
        self.entries.extend(entries)

    # -- selection ---------------------------------------------------------

    def filter(self, predicate: Callable[[DatasetEntry], bool]) -> "Dataset":
        return Dataset([e for e in self.entries if predicate(e)], self.name)

    def of_kind(self, kind: ImpairmentKind) -> "Dataset":
        return self.filter(lambda e: e.kind is kind)

    def without_na(self) -> "Dataset":
        return self.filter(lambda e: e.kind is not ImpairmentKind.NONE)

    # -- ML views ----------------------------------------------------------

    def feature_matrix(self) -> np.ndarray:
        """Shape (n_entries, 7) in :data:`FEATURE_NAMES` order."""
        if not self.entries:
            return np.empty((0, len(FEATURE_NAMES)))
        return np.stack([e.features.to_array() for e in self.entries])

    def labels(self, config: Optional[GroundTruthConfig] = None) -> np.ndarray:
        """Label strings ('RA'/'BA'/'NA'), optionally relabelled."""
        if config is None:
            return np.array([e.label.value for e in self.entries])
        return np.array([e.relabel(config).value for e in self.entries])

    # -- Table 1 / Table 2 accounting ---------------------------------------

    def count_label(self, action: Action) -> int:
        return sum(1 for e in self.entries if e.label is action)

    def position_count(self, kind: Optional[ImpairmentKind] = None) -> int:
        """Distinct (room, position-label) pairs — the paper's 'Positions'."""
        pool = self.entries if kind is None else self.of_kind(kind).entries
        return len({(e.room, e.position_label) for e in pool})

    def summary(self) -> dict:
        """Table 1/2-shaped summary: per-kind totals, BA/RA split, positions."""
        rows = {}
        for kind in (
            ImpairmentKind.DISPLACEMENT,
            ImpairmentKind.BLOCKAGE,
            ImpairmentKind.INTERFERENCE,
        ):
            subset = self.of_kind(kind)
            rows[kind.value] = {
                "total": len(subset),
                "BA": subset.count_label(Action.BA),
                "RA": subset.count_label(Action.RA),
                "positions": subset.position_count(),
            }
        labelled = self.without_na()
        rows["overall"] = {
            "total": len(labelled),
            "BA": labelled.count_label(Action.BA),
            "RA": labelled.count_label(Action.RA),
            "positions": labelled.position_count(),
        }
        return rows

    def rooms(self) -> list[str]:
        seen: dict[str, None] = {}
        for entry in self.entries:
            seen.setdefault(entry.room, None)
        return list(seen)
