"""The four benchmark workloads, each a closed loop with one caller.

A workload has a set-up step that builds its inputs from the workload
seed, and an iteration that does the measured work on them and returns an
:class:`Outcome`: how many units of work it did (the throughput unit), a
digest of its outputs (checked against the pinned goldens), the wall time
of each ``LiBRA.decide`` and, for ``live``, the session log's counts.
Set-ups and iterations are deterministic: the same seed does the same
work in the same order every time.

* ``campaign`` — build the main campaign with NA augmentation and the
  testing campaign from cold PHY caches (unit: dataset entry);
* ``grid`` — a fresh batched §8 :class:`~repro.sim.sweep.EvaluationGrid`
  over the paper's 16 operating points, training its own forests
  (unit: operating point);
* ``replay`` — the Fig. 10/11 per-flow ``simulate_flow`` loop over the
  same 16 points with a forest trained in set-up (unit: flow);
* ``live`` — a scripted closed-loop :class:`~repro.sim.live.LiveSession`
  in the lobby driven by LiBRA (unit: frame).

One iteration of each takes one to two seconds on a 2-core VM, so a run
of 20 s times a dozen or more of them.
``SCALES["smoke"]`` shrinks every workload for the benchmark's
self-tests.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from repro.core.libra import LiBRA
from repro.core.policies import (
    BAFirstPolicy,
    LinkAdaptationPolicy,
    Observation,
    PolicyDecision,
    RAFirstPolicy,
)
from repro.dataset import builder
from repro.dataset.builder import DatasetBuildConfig
from repro.dataset.entry import Dataset
from repro.env.geometry import Point
from repro.env.placement import RadioPose
from repro.env.rooms import make_lobby
from repro.ml.forest import RandomForestClassifier
from repro.obs.metrics import get_metrics
from repro.phy import tracing
from repro.phy.blockage import HumanBlocker
from repro.sim import engine
from repro.sim.live import LinkEvent, LiveSession
from repro.sim.oracle import OracleData, OracleDelay
from repro.sim.sweep import EvaluationGrid, paper_grid
from repro.testbed.x60 import X60Link

CAMPAIGN_SEED = 0
"""The campaigns ``grid``, ``replay`` and ``live`` train and replay on.

Forest size and the replayed entries follow the campaign (up to 17 %
more tree nodes at some campaign seeds), so a seeded campaign would make
those workloads' cost depend on the seed rather than on the code.  Their
seed seeds the forests and the live session instead."""


@dataclass(frozen=True)
class Scale:
    """Input sizes and set-up repetitions of every workload (part of the
    config fingerprint)."""

    displacement_reps: int = 2
    blockage_reps: int = 2
    interference_reps: int = 3
    n_estimators: int = 60
    max_depth: int = 14
    flow_durations_s: tuple = (0.4, 1.0)
    points_per_duration: int = 8
    grid_n_estimators: int = 8
    grid_entry_stride: int = 2
    replay_entry_stride: int = 8
    live_duration_s: float = 1.0
    setups: int = 3

    def build_config(self, seed: int, include_na: bool = False) -> DatasetBuildConfig:
        return DatasetBuildConfig(
            displacement_reps=self.displacement_reps,
            blockage_reps=self.blockage_reps,
            interference_reps=self.interference_reps,
            include_na=include_na,
            seed=seed,
        )

    def points(self) -> list:
        return [
            point
            for duration in self.flow_durations_s
            for point in paper_grid(duration)[: self.points_per_duration]
        ]

    def forest(self, seed: int) -> RandomForestClassifier:
        return RandomForestClassifier(
            n_estimators=self.n_estimators, max_depth=self.max_depth,
            random_state=seed,
        )


SCALES = {
    # The grid's forests and replayed entries, the replay's entries and the
    # live session's length are cut down from the paper's so that one
    # iteration takes one to two seconds and a run repeats it a dozen times
    # or more: the median of so many is steady.
    "full": Scale(),
    "smoke": Scale(
        displacement_reps=1, blockage_reps=1, interference_reps=1,
        n_estimators=4, max_depth=6, flow_durations_s=(0.4,),
        points_per_duration=2, grid_n_estimators=2, replay_entry_stride=4,
        live_duration_s=0.3, setups=1,
    ),
}


@dataclass
class Outcome:
    """What one iteration did: work units, output digest, the wall time of
    each ``LiBRA.decide`` call, and the live session's log counts."""

    units: int
    digest: str
    decide_s: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)


class Digest:
    """SHA-256 over a canonical byte stream of arrays, numbers and strings."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def text(self, *values) -> "Digest":
        for value in values:
            self._hash.update(str(value).encode() + b"\0")
        return self

    def array(self, values, dtype) -> "Digest":
        array = np.ascontiguousarray(np.asarray(values, dtype=dtype))
        self.text(array.shape)
        self._hash.update(array.tobytes())
        return self

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


class OutputError(Exception):
    """An iteration produced output that breaks a workload invariant."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise OutputError(message)


def _campaigns(scale: Scale, seed: int):
    """The main campaign with NA augmentation and the testing campaign,
    built from cold PHY caches as a fresh ``repro dataset`` would."""
    metrics = get_metrics()
    tracing.clear_caches()
    main = builder.build_main_dataset(
        scale.build_config(seed, include_na=True), metrics=metrics
    )
    testing = builder.build_testing_dataset(
        scale.build_config(seed + 1), metrics=metrics
    )
    return main, testing


def _trained_libra(scale: Scale, seed: int, main) -> LiBRA:
    model = scale.forest(seed)
    model.fit(main.feature_matrix(), main.labels())
    return LiBRA(model)


def _digest_gaps(digest: Digest, point, byte_gaps: dict, delay_gaps: dict) -> None:
    digest.text(point.ba_overhead_s, point.frame_time_s, point.flow_duration_s)
    for name in sorted(byte_gaps):
        for values in (byte_gaps[name], delay_gaps[name]):
            values = np.asarray(values, dtype=float)
            _require(bool(np.isfinite(values).all()), f"non-finite gap for {name}")
            digest.text(name).array(values, np.float64)


# -- campaign ------------------------------------------------------------------


def campaign_setup(scale: Scale, seed: int) -> dict:
    """Warm the interpreter with one cold build of the testing campaign, so
    lazy module state is in place before the timed builds."""
    tracing.clear_caches()
    builder.build_testing_dataset(scale.build_config(seed + 1))
    return {}


def campaign_iteration(scale: Scale, seed: int, inputs: dict) -> Outcome:
    main, testing = _campaigns(scale, seed)
    digest = Digest()
    entries = 0
    for dataset in (main, testing):
        _require(len(dataset) > 0, f"empty {dataset.name} campaign")
        labels = dataset.labels()
        _require(
            set(labels.tolist()) <= {"BA", "RA", "NA"}, f"bad labels in {dataset.name}"
        )
        digest.text(dataset.name, len(dataset))
        digest.array(dataset.feature_matrix(), np.float64)
        digest.text(*labels.tolist())
        for entry in dataset:
            digest.text(
                entry.kind.value, entry.room, entry.position_label, entry.rep,
                entry.detail, entry.initial_mcs,
            )
        entries += len(dataset)
    return Outcome(entries, digest.hexdigest())


# -- grid ------------------------------------------------------------------------


def grid_setup(scale: Scale, seed: int) -> dict:
    main, testing = _campaigns(scale, CAMPAIGN_SEED)
    evaluation = Dataset(testing.entries[:: scale.grid_entry_stride], testing.name)
    return {"main": main, "testing": evaluation}


def grid_iteration(scale: Scale, seed: int, inputs: dict) -> Outcome:
    grid = EvaluationGrid(
        inputs["main"], inputs["testing"], n_estimators=scale.grid_n_estimators,
        max_depth=scale.max_depth, random_state=seed, metrics=get_metrics(),
    )
    points = scale.points()
    digest = Digest()
    for result in grid.run(points):
        _digest_gaps(digest, result.point, result.byte_gaps_mb, result.delay_gaps_ms)
    return Outcome(len(points), digest.hexdigest())


# -- replay ----------------------------------------------------------------------


def replay_setup(scale: Scale, seed: int) -> dict:
    main, testing = _campaigns(scale, CAMPAIGN_SEED)
    return {
        "entries": testing.without_na().entries[:: scale.replay_entry_stride],
        "libra": _trained_libra(scale, seed, main),
    }


def replay_iteration(scale: Scale, seed: int, inputs: dict) -> Outcome:
    """Fig. 10/11's loop: per point, each policy's byte gap to Oracle-Data
    and recovery-delay gap to Oracle-Delay, one ``simulate_flow`` per flow."""
    entries = inputs["entries"]
    libra = TimedPolicy(inputs["libra"])
    policies = {"BA First": BAFirstPolicy(), "RA First": RAFirstPolicy(), "LiBRA": libra}
    digest = Digest()
    flows = 0
    for point in scale.points():
        config = point.simulation_config()
        duration = point.flow_duration_s
        data_oracle = OracleData(config, duration)
        delay_oracle = OracleDelay(config, duration)
        byte_gaps = {name: [] for name in policies}
        delay_gaps = {name: [] for name in policies}
        for entry in entries:
            best = engine.simulate_flow(data_oracle, entry, config, duration)
            fastest = engine.simulate_flow(delay_oracle, entry, config, duration)
            for name, policy in policies.items():
                result = engine.simulate_flow(policy, entry, config, duration)
                byte_gaps[name].append(
                    (best.bytes_delivered - result.bytes_delivered) / 1e6
                )
                delay_gaps[name].append(
                    (result.recovery_delay_s - fastest.recovery_delay_s) * 1e3
                )
            flows += 2 + len(policies)
        _digest_gaps(digest, point, byte_gaps, delay_gaps)
    return Outcome(flows, digest.hexdigest(), libra.latencies_s)


# -- live ------------------------------------------------------------------------


def _live_script(duration_s: float) -> list[LinkEvent]:
    """``examples/live_session.py``'s script, spread over ``duration_s``
    (the example's 6 s puts its events at 1.5, 3.0 and 4.5 s): blockage,
    clear, 60° spin."""
    blocker = HumanBlocker(Point(5.5, 6.0), 0.0, 25.0)
    return [
        LinkEvent(at_s=duration_s / 4, blockers=(blocker,)),
        LinkEvent(at_s=duration_s / 2, clear_blockers=True),
        LinkEvent(at_s=duration_s * 3 / 4, rx=RadioPose(Point(9.0, 6.0), 240.0)),
    ]


class TimedPolicy(LinkAdaptationPolicy):
    """Forwards to a policy and records the wall time of each ``decide``."""

    def __init__(self, inner: LinkAdaptationPolicy):
        self.inner = inner
        self.name = inner.name
        self.latencies_s: list[float] = []

    def reset(self) -> None:
        self.inner.reset()

    def decide(self, observation: Observation) -> PolicyDecision:
        start = time.perf_counter()
        decision = self.inner.decide(observation)
        self.latencies_s.append(time.perf_counter() - start)
        return decision


def live_setup(scale: Scale, seed: int) -> dict:
    tracing.clear_caches()
    main = builder.build_main_dataset(
        scale.build_config(CAMPAIGN_SEED, include_na=True)
    )
    return {"libra": _trained_libra(scale, seed, main)}


def live_iteration(scale: Scale, seed: int, inputs: dict) -> Outcome:
    tracing.clear_caches()  # every session traces its rays cold
    link = X60Link(make_lobby(), RadioPose(Point(2.0, 6.0), 0.0))
    policy = TimedPolicy(inputs["libra"])
    session = LiveSession(
        link, policy, RadioPose(Point(9.0, 6.0), 180.0),
        ba_overhead_s=5e-3, seed=seed,
    )
    log = session.run(scale.live_duration_s, _live_script(scale.live_duration_s))
    frames = len(log.frame_times_s)
    _require(frames > 0, "live session sent no frames")
    _require(
        len(log.mcs) == frames == len(log.beam_pairs), "ragged session log"
    )
    digest = (
        Digest()
        .array(log.mcs, np.int64)
        .array(log.beam_pairs, np.int64)
        .array([at_s for at_s, _ in log.actions], np.float64)
        .text(*(action.value for _, action in log.actions))
        .array([log.bytes_delivered], np.float64)
    )
    counts = {
        "frames": frames, "sweeps": log.sweeps, "sweep_failures": log.sweep_failures,
        "ra_repairs": log.ra_repairs, "missing_acks": log.missing_acks,
    }
    return Outcome(frames, digest.hexdigest(), policy.latencies_s, counts)


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str
    setup: Callable[[Scale, int], dict]
    iteration: Callable[[Scale, int, dict], Outcome]


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("campaign", "entries", campaign_setup, campaign_iteration),
        Workload("grid", "points", grid_setup, grid_iteration),
        Workload("replay", "flows", replay_setup, replay_iteration),
        Workload("live", "frames", live_setup, live_iteration),
    )
}


def config_fingerprint(workload: str, scale: str) -> str:
    """Short hash of everything that sizes a workload's inputs."""
    payload = repr((workload, scale, sorted(asdict(SCALES[scale]).items())))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]
