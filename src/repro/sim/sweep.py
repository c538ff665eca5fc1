"""The §8 evaluation grid as a reusable API.

The benchmarks hard-code the paper's operating points; downstream users
typically want their own (a different sweep cost, a different FAT, their
own α).  :class:`EvaluationGrid` packages the whole §8.2 methodology —
per-operating-point ground-truth relabelling, per-point LiBRA training,
oracle references, byte and delay gap collection — behind one call.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from repro.checkpoint import CheckpointStore
from repro.constants import (
    ALPHA_FOR_HIGH_BA_OVERHEAD,
    ALPHA_FOR_LOW_BA_OVERHEAD,
)
from repro.core.ground_truth import (
    Action,
    GroundTruthConfig,
    LabelInputs,
    label_from_inputs,
    label_inputs,
)
from repro.core.libra import LiBRA
from repro.core.policies import BAFirstPolicy, LinkAdaptationPolicy, RAFirstPolicy
from repro.dataset.entry import Dataset, ImpairmentKind
from repro.ml.forest import RandomForestClassifier
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.trace import NULL_RECORDER, TraceRecorder
from repro.runtime import parallel_map
from repro.sim.batch import BatchFlowSimulator, batch_decisions
from repro.sim.engine import SimulationConfig
from repro.sim.oracle import OracleData, OracleDelay
from repro.sim.trajectory import TrajectoryCache

LOW_OVERHEAD_CUTOFF_S = 10e-3
"""§8.1's α assignment boundary: sweeps up to a few ms count as cheap."""


def default_alpha(ba_overhead_s: float) -> float:
    """The paper's α per overhead regime (0.7 cheap / 0.5 expensive)."""
    if ba_overhead_s <= LOW_OVERHEAD_CUTOFF_S:
        return ALPHA_FOR_LOW_BA_OVERHEAD
    return ALPHA_FOR_HIGH_BA_OVERHEAD


@dataclass(frozen=True)
class OperatingPoint:
    """One protocol configuration of the §8.1 grid."""

    ba_overhead_s: float
    frame_time_s: float
    flow_duration_s: float = 1.0
    alpha: Optional[float] = None  # None → the paper's per-regime default

    def __post_init__(self) -> None:
        # SimulationConfig checks the overhead and frame time; catch the two
        # mistakes it cannot: a non-positive (or NaN) flow duration that
        # simulate_flow would only reject point by point deep inside run(),
        # and an out-of-range α that would silently skew every relabel.
        self.simulation_config()
        if not (math.isfinite(self.flow_duration_s) and self.flow_duration_s > 0):
            raise ValueError(
                f"flow_duration_s must be a finite number > 0, "
                f"got {self.flow_duration_s!r}"
            )
        if self.alpha is not None and not (
            math.isfinite(self.alpha) and 0.0 <= self.alpha <= 1.0
        ):
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha!r}")

    def resolved_alpha(self) -> float:
        return self.alpha if self.alpha is not None else default_alpha(
            self.ba_overhead_s
        )

    def simulation_config(self) -> SimulationConfig:
        return SimulationConfig(self.ba_overhead_s, self.frame_time_s)

    def ground_truth_config(self) -> GroundTruthConfig:
        return GroundTruthConfig(
            alpha=self.resolved_alpha(),
            ba_overhead_s=self.ba_overhead_s,
            frame_time_s=self.frame_time_s,
        )


@dataclass
class PointResult:
    """Per-policy gap arrays at one operating point."""

    point: OperatingPoint
    byte_gaps_mb: dict[str, np.ndarray]
    delay_gaps_ms: dict[str, np.ndarray]

    def oracle_match_fraction(self, policy: str, tolerance_mb: float = 1.0) -> float:
        gaps = self.byte_gaps_mb[policy]
        return float(np.mean(gaps <= tolerance_mb))

    def median_delay_gap_ms(self, policy: str) -> float:
        return float(np.median(self.delay_gaps_ms[policy]))


@dataclass
class EvaluationGrid:
    """Run the §8.2 methodology over arbitrary operating points.

    Args:
        training_dataset: Labelled (and NA-augmented) campaign used to
            train LiBRA; labels are recomputed per operating point.
        evaluation_dataset: The impairments to replay (the paper uses the
            cross-building testing dataset).
        n_estimators / max_depth / random_state: Forest parameters for the
            per-point LiBRA models.
        metrics: Optional registry; each point contributes a
            ``sweep.run_point`` span, a ``sweep.train_libra`` span per
            fresh model, and per-point progress counters/gauges.

    Every point replays through one
    :class:`repro.sim.batch.BatchFlowSimulator`, the same engine
    ``simulate_flow`` runs on; golden replay records in ``tests/sim/``
    pin its :class:`PointResult` arrays, trace events and metrics.  All
    points share the grid's in-memory
    :class:`~repro.sim.trajectory.TrajectoryCache`, so each evaluation
    entry's trajectories are built once per grid.
    """

    training_dataset: Dataset
    evaluation_dataset: Dataset
    n_estimators: int = 60
    max_depth: int = 14
    random_state: int = 0
    metrics: MetricsRegistry = NULL_METRICS
    trajectory_cache: TrajectoryCache = field(
        default_factory=TrajectoryCache, init=False, repr=False
    )
    _label_cache: dict = field(default_factory=dict, init=False, repr=False)
    _model_cache: dict = field(default_factory=dict, init=False, repr=False)
    _train_features: Optional[np.ndarray] = field(
        default=None, init=False, repr=False
    )
    _train_label_inputs: Optional[list[Optional[LabelInputs]]] = field(
        default=None, init=False, repr=False
    )

    def _training_features(self) -> np.ndarray:
        if self._train_features is None:
            self._train_features = self.training_dataset.feature_matrix()
        return self._train_features

    def _training_labels(self, config: GroundTruthConfig) -> np.ndarray:
        """``training_dataset.labels(config)``, without re-walking traces.

        The descending-MCS scans behind each label are point-independent;
        they are extracted once (:func:`repro.core.ground_truth.label_inputs`)
        and each operating point pays only the O(1)-per-entry utility
        arithmetic — same floats, same labels, same trained forest.
        """
        if self._train_label_inputs is None:
            with self.metrics.span("sweep.label_scan"):
                self._train_label_inputs = [
                    None if entry.kind is ImpairmentKind.NONE
                    else label_inputs(
                        entry.traces_same_pair,
                        entry.traces_best_pair,
                        entry.initial_mcs,
                    )
                    for entry in self.training_dataset.entries
                ]
        with self.metrics.span("sweep.relabel"):
            return np.array(
                [
                    Action.NA.value if inputs is None
                    else label_from_inputs(inputs, config).value
                    for inputs in self._train_label_inputs
                ]
            )

    def libra_for(self, point: OperatingPoint) -> LiBRA:
        """A LiBRA trained on this point's relabelled ground truth.

        The training set is relabelled once per (α, BA overhead, FAT), and
        forests are cached by the relabelled labels: a forest is a pure
        function of the features, the labels and the grid's parameters, so
        two points whose ground truth agrees on every entry share one.
        """
        config = point.ground_truth_config()
        key = (config.alpha, config.ba_overhead_s, config.frame_time_s)
        labels = self._label_cache.get(key)
        if labels is None:
            labels = self._label_cache[key] = self._training_labels(config)
        label_key = tuple(labels.tolist())
        if label_key not in self._model_cache:
            with self.metrics.span("sweep.train_libra"):
                model = RandomForestClassifier(
                    n_estimators=self.n_estimators,
                    max_depth=self.max_depth,
                    random_state=self.random_state,
                )
                model.fit(self._training_features(), labels)
                self._model_cache[label_key] = LiBRA(model)
        return self._model_cache[label_key]

    def policies_for(self, point: OperatingPoint) -> dict[str, LinkAdaptationPolicy]:
        return {
            "LiBRA": self.libra_for(point),
            "BA First": BAFirstPolicy(),
            "RA First": RAFirstPolicy(),
        }

    def run_point(
        self, point: OperatingPoint, recorder: TraceRecorder = NULL_RECORDER
    ) -> PointResult:
        """Replay every evaluation impairment at one operating point.

        ``recorder`` receives every policy flow's decision event (oracle
        flows included — they carry their own policy names), entry by
        entry.  Decisions are computed policy-major (so LiBRA's forest sees
        one stacked predict per point) but flows are *emitted* entry-major:
        per entry, Oracle-Data, Oracle-Delay, then each policy.
        """
        metrics = self.metrics
        with metrics.span("sweep.run_point") as span:
            config = point.simulation_config()
            duration = point.flow_duration_s
            policies = self.policies_for(point)
            data_oracle = OracleData(config, duration)
            delay_oracle = OracleDelay(config, duration)
            simulator = BatchFlowSimulator(config, self.trajectory_cache, metrics)
            entries = list(self.evaluation_dataset.without_na())
            with metrics.span("sweep.batch_decide"):
                decisions = {
                    name: batch_decisions(policy, simulator, entries, duration)
                    for name, policy in policies.items()
                }
            byte_gaps = {name: [] for name in policies}
            delay_gaps = {name: [] for name in policies}
            for index, entry in enumerate(entries):
                best_bytes = simulator.simulate(
                    data_oracle, entry, duration, recorder, metrics
                )
                best_delay = simulator.simulate(
                    delay_oracle, entry, duration, recorder, metrics
                )
                for name, policy in policies.items():
                    result = simulator.simulate_with_decision(
                        policy, entry, decisions[name][index],
                        duration, recorder, metrics,
                    )
                    byte_gaps[name].append(
                        (best_bytes.bytes_delivered - result.bytes_delivered) / 1e6
                    )
                    delay_gaps[name].append(
                        (result.recovery_delay_s - best_delay.recovery_delay_s) * 1e3
                    )
        if metrics.enabled:
            stats = self.trajectory_cache.stats()
            metrics.gauge("sweep.traj_cache_entries").set(stats["entries"])
            metrics.counter("sweep.points_done").inc()
            metrics.gauge("sweep.last_point_wall_s").set(span.elapsed_s)
        return PointResult(
            point,
            {k: np.array(v) for k, v in byte_gaps.items()},
            {k: np.array(v) for k, v in delay_gaps.items()},
        )

    def run(
        self,
        points: list[OperatingPoint],
        recorder: TraceRecorder = NULL_RECORDER,
        checkpoint_dir: Optional[str | Path] = None,
        resume: bool = False,
        workers: int = 1,
    ) -> list[PointResult]:
        """All points, in order.

        With a ``checkpoint_dir``, each completed point is persisted
        atomically; with ``resume`` additionally set, points whose
        checkpoint matches the requested operating point are loaded
        instead of recomputed.  Results round-trip through JSON exactly
        (shortest-repr floats), so a killed-and-resumed run produces the
        same numbers as an uninterrupted one.

        ``workers > 1`` fans non-resumed points out to a process pool
        via :func:`repro.runtime.parallel_map`; each point is already a
        pure function of its operating point (model training uses a
        fixed ``random_state``), so results — and, with checkpointing,
        the persisted bytes — are identical at every worker count.
        Checkpoints are saved by the parent, in point order.

        Only point results are checkpointed (keys ``point-NNNN``).  The
        trajectory cache lives in memory: trajectories are pure functions
        of their entry, so a resumed run or a worker process that rebuilds
        them replays the same bytes.
        """
        store = None if checkpoint_dir is None else CheckpointStore(checkpoint_dir)
        if self.metrics.enabled:
            self.metrics.gauge("sweep.points_total").set(len(points))
        by_index: dict[int, PointResult] = {}
        pending: list[tuple[int, OperatingPoint]] = []
        for index, point in enumerate(points):
            if store is not None and resume:
                payload = store.load(f"point-{index:04d}")
                if payload is not None and payload.get("point") == _point_to_dict(point):
                    by_index[index] = _point_result_from_dict(point, payload)
                    if self.metrics.enabled:
                        self.metrics.counter("sweep.points_resumed").inc()
                    continue
            pending.append((index, point))
        if workers <= 1:
            computed = [
                self.run_point(point, recorder) for _, point in pending
            ]
        else:
            task = functools.partial(_run_point_task, grid=self)
            computed = parallel_map(
                task, pending, workers=workers, metrics=self.metrics,
                recorder=recorder,
            )
        for (index, _), result in zip(pending, computed):
            if store is not None:
                store.save(f"point-{index:04d}", _point_result_to_dict(result))
            by_index[index] = result
        return [by_index[index] for index in range(len(points))]


def _run_point_task(
    item: tuple[int, OperatingPoint], metrics: MetricsRegistry, recorder: TraceRecorder,
    *, grid: EvaluationGrid,
) -> PointResult:
    """Runtime task: one operating point in a worker process.

    ``dataclasses.replace`` rebuilds the grid around the worker's own
    registry (and a fresh model cache and trajectory cache) without
    mutating the parent's.
    """
    _, point = item
    return dataclasses.replace(grid, metrics=metrics).run_point(point, recorder)


def _point_to_dict(point: OperatingPoint) -> dict:
    return {
        "ba_overhead_s": point.ba_overhead_s,
        "frame_time_s": point.frame_time_s,
        "flow_duration_s": point.flow_duration_s,
        "alpha": point.alpha,
    }


def _point_result_to_dict(result: PointResult) -> dict:
    return {
        "point": _point_to_dict(result.point),
        "byte_gaps_mb": {k: list(map(float, v)) for k, v in result.byte_gaps_mb.items()},
        "delay_gaps_ms": {k: list(map(float, v)) for k, v in result.delay_gaps_ms.items()},
    }


def _point_result_from_dict(point: OperatingPoint, payload: dict) -> PointResult:
    return PointResult(
        point,
        {k: np.array(v, dtype=float) for k, v in payload["byte_gaps_mb"].items()},
        {k: np.array(v, dtype=float) for k, v in payload["delay_gaps_ms"].items()},
    )


def paper_grid(flow_duration_s: float = 1.0) -> list[OperatingPoint]:
    """The paper's 4 x 2 operating-point grid (§8.1)."""
    from repro.constants import BA_OVERHEADS_S, FRAME_AGGREGATION_TIMES_S

    return [
        OperatingPoint(overhead, fat, flow_duration_s)
        for overhead in BA_OVERHEADS_S
        for fat in FRAME_AGGREGATION_TIMES_S
    ]
