"""The measurement campaign: turn placement plans into a labelled dataset.

For every displacement track the builder measures the initial state (SLS →
best pair → traces) and each new state twice (two independent 1 s trace
repetitions, matching the paper's repeated traces per state); for every
impairment position it introduces the three §4.2 blocker spots or the three
interference levels.  Each measurement yields one entry whose features are
computed on the *initial* best beam pair and whose label comes from the
§5.2 ground truth.

The interferer's placement controls the RA/BA balance under interference
(see :mod:`repro.phy.interference`): most interferers land near the Tx-Rx
axis as seen from the Rx (a hidden terminal in the same aisle/corridor), so
no alternative Rx beam can dodge them and RA wins; a minority sit far
off-axis where a beam switch pays off.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from repro.checkpoint import CheckpointStore
from repro.constants import INTERFERENCE_DROP_LEVELS
from repro.core.ground_truth import Action, GroundTruthConfig, label_entry
from repro.core.metrics import compute_features
from repro.dataset.entry import Dataset, DatasetEntry, ImpairmentKind
from repro.env.geometry import Point
from repro.env.placement import (
    DisplacementTrack,
    ImpairmentPosition,
    PlacementPlan,
    RadioPose,
    main_building_plans,
    testing_building_plans,
)
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.phy.blockage import BLOCKER_PATH_FRACTIONS, make_blocker
from repro.phy.interference import Interferer
from repro.phy.noise import NoiseModel
from repro.phy.tracing import MAX_REFLECTION_ORDER
from repro.runtime import child_rng, parallel_map
from repro.testbed.x60 import PDP_BIN_NOISE_STD, SNR_JITTER_STD_DB, X60Link

NEAR_AXIS_PROBABILITY = 0.5
"""Fraction of interferers placed near the Tx-Rx axis (RA-favouring): a
hidden terminal in the same aisle cannot be dodged by switching Rx beams,
so lowering the MCS is the right repair — this drives the paper's 67 %
RA share under interference (Table 1)."""


@dataclass
class DatasetBuildConfig:
    """Knobs of the measurement campaign."""

    displacement_reps: int = 2
    blockage_reps: int = 2
    interference_reps: int = 3
    include_na: bool = False
    ground_truth: GroundTruthConfig = field(default_factory=GroundTruthConfig)
    seed: int = 0
    observation_window_s: float = 1.0
    """Averaging window behind each reported metric.  Shorter windows make
    the *reported* metrics noisier (σ ∝ 1/sqrt(window)) while the ground
    truth stays based on the stable traces — §7's 40 ms experiment."""

    def jitter_scale(self) -> float:
        import math

        if self.observation_window_s <= 0:
            raise ValueError("observation window must be positive")
        return math.sqrt(1.0 / self.observation_window_s)


def _make_link(plan: PlacementPlan, tx: RadioPose, config: DatasetBuildConfig) -> X60Link:
    """An X60 link whose reported-metric jitter matches the configured
    observation window."""
    scale = config.jitter_scale()
    return X60Link(
        plan.room,
        tx,
        snr_jitter_std_db=SNR_JITTER_STD_DB * scale,
        pdp_bin_noise_std=min(PDP_BIN_NOISE_STD * scale, 0.9),
        noise_model=NoiseModel(jitter_std_db=1.5 * scale),
    )


def _clamp_into_room(point: Point, room, margin: float = 0.3) -> Point:
    """Pull a point inside the room's bounding box (interferer placement)."""
    x = min(max(point.x, margin), room.length - margin)
    y = min(max(point.y, margin), room.width - margin)
    return Point(x, y)


def _entry_from_measurements(
    kind: ImpairmentKind,
    room_name: str,
    position_label: str,
    rep: int,
    initial,
    new_same,
    new_best,
    config: DatasetBuildConfig,
    detail: str = "",
) -> DatasetEntry | None:
    """Assemble one entry; ``None`` when the initial state has no working MCS."""
    initial_mcs = initial.best_mcs()
    if initial_mcs is None:
        return None
    features = compute_features(initial, new_same)
    label = label_entry(new_same, new_best, initial_mcs, config.ground_truth)
    return DatasetEntry(
        kind=kind,
        room=room_name,
        position_label=position_label,
        rep=rep,
        features=features,
        label=label,
        initial_mcs=initial_mcs,
        initial_throughput_mbps=initial.best_throughput(),
        traces_same_pair=new_same.mcs_traces(),
        traces_best_pair=new_best.mcs_traces(),
        detail=detail,
    )


def _na_entry(
    link: X60Link,
    rx: RadioPose,
    room_name: str,
    position_label: str,
    rep: int,
    rng: np.random.Generator,
    blockers=(),
    interferer=None,
    detail: str = "",
) -> DatasetEntry | None:
    """A No-Adaptation entry: two consecutive 1 s traces at the *same* state
    with its own best beam pair (§7's dataset augmentation)."""
    state_a = link.channel_state(rx, blockers, interferer, rng)
    tx_beam, rx_beam, _ = link.sector_sweep(state_a, rx, rng)
    first = link.measure(state_a, rx, tx_beam, rx_beam, rng)
    if first.best_mcs() is None:
        return None
    state_b = link.channel_state(rx, blockers, interferer, rng)
    if "_pair_gains" in state_a.extra_fields:
        # Same geometry, hence the same rays: the second capture can reuse
        # the gain rows the first capture's sweep cached.
        state_b.extra_fields["_pair_gains"] = state_a.extra_fields["_pair_gains"]
    second = link.measure(state_b, rx, tx_beam, rx_beam, rng)
    features = compute_features(first, second)
    return DatasetEntry(
        kind=ImpairmentKind.NONE,
        room=room_name,
        position_label=position_label,
        rep=rep,
        features=features,
        label=Action.NA,
        initial_mcs=first.best_mcs(),
        initial_throughput_mbps=first.best_throughput(),
        traces_same_pair=second.mcs_traces(),
        traces_best_pair=second.mcs_traces(),
        detail=detail,
    )


def _build_displacement(
    plan: PlacementPlan, track: DisplacementTrack, config: DatasetBuildConfig,
    rng: np.random.Generator, dataset: Dataset,
) -> None:
    link = _make_link(plan, track.tx, config)
    initial_state = link.channel_state(track.initial_rx, rng=rng)
    tx_beam, rx_beam, _ = link.sector_sweep(initial_state, track.initial_rx, rng)
    initial = link.measure(initial_state, track.initial_rx, tx_beam, rx_beam, rng)
    if initial.best_mcs() is None:
        return
    for state_index, new_rx in enumerate(track.new_states):
        label = f"{new_rx.position.x:.2f},{new_rx.position.y:.2f}"
        detail = f"{track.label}/{state_index}@{new_rx.orientation_deg:g}deg"
        # One channel trace and one SLS per state (§5.1): the trace
        # repetitions are back-to-back 1 s captures of the same physical
        # state, differing only in reported-metric jitter.
        state = link.channel_state(new_rx, rng=rng)
        best_tx, best_rx, _ = link.sector_sweep(state, new_rx, rng)
        for rep in range(config.displacement_reps):
            new_same = link.measure(state, new_rx, tx_beam, rx_beam, rng)
            if (best_tx, best_rx) == (tx_beam, rx_beam):
                new_best = new_same  # the sweep kept the pair: one shared trace
            else:
                new_best = link.measure(state, new_rx, best_tx, best_rx, rng)
            entry = _entry_from_measurements(
                ImpairmentKind.DISPLACEMENT, plan.room.name, label, rep,
                initial, new_same, new_best, config, detail,
            )
            if entry is not None:
                dataset.append(entry)
        if config.include_na:
            na = _na_entry(link, new_rx, plan.room.name, label, 0, rng, detail=detail)
            if na is not None:
                dataset.append(na)


def _build_blockage(
    plan: PlacementPlan, position: ImpairmentPosition, config: DatasetBuildConfig,
    rng: np.random.Generator, dataset: Dataset,
) -> None:
    link = _make_link(plan, position.tx, config)
    clear_state = link.channel_state(position.rx, rng=rng)
    tx_beam, rx_beam, _ = link.sector_sweep(clear_state, position.rx, rng)
    initial = link.measure(clear_state, position.rx, tx_beam, rx_beam, rng)
    if initial.best_mcs() is None:
        return
    for fraction in BLOCKER_PATH_FRACTIONS:
        detail = f"blocker-{fraction:g}"
        for rep in range(config.blockage_reps):
            # Each rep is a different person standing roughly there (their
            # own body loss and exact spot), so each rep is its own state
            # with its own SLS — unlike displacement's shared-sweep reps.
            blocker = make_blocker(
                position.tx.position, position.rx.position, fraction, rng,
                lateral_jitter_m=0.15,
            )
            state = link.channel_state(position.rx, blockers=[blocker], rng=rng)
            new_same = link.measure(state, position.rx, tx_beam, rx_beam, rng)
            best_tx, best_rx, _ = link.sector_sweep(state, position.rx, rng)
            if (best_tx, best_rx) == (tx_beam, rx_beam):
                new_best = new_same
            else:
                new_best = link.measure(state, position.rx, best_tx, best_rx, rng)
            entry = _entry_from_measurements(
                ImpairmentKind.BLOCKAGE, plan.room.name, position.label, rep,
                initial, new_same, new_best, config, detail,
            )
            if entry is not None:
                dataset.append(entry)
        if config.include_na:
            blocker = make_blocker(
                position.tx.position, position.rx.position, fraction, rng,
                lateral_jitter_m=0.15,
            )
            na = _na_entry(
                link, position.rx, plan.room.name, position.label, 0, rng,
                blockers=[blocker], detail=detail,
            )
            if na is not None:
                dataset.append(na)


def _place_interferer(
    position: ImpairmentPosition, plan: PlacementPlan, rng: np.random.Generator
) -> Point:
    """Draw an interferer position relative to the victim Rx.

    With probability :data:`NEAR_AXIS_PROBABILITY` the interferer sits
    within ±15° of the Rx→Tx direction (same aisle — undodgeable);
    otherwise 25°-100° off-axis (a beam switch can attenuate it).
    """
    rx, tx = position.rx.position, position.tx.position
    axis_deg = math.degrees(rx.angle_to(tx))
    if rng.random() < NEAR_AXIS_PROBABILITY:
        offset = float(rng.uniform(-8.0, 8.0))
    else:
        offset = float(rng.choice([-1.0, 1.0]) * rng.uniform(25.0, 100.0))
    distance = float(rng.uniform(2.0, 6.0))
    angle = math.radians(axis_deg + offset)
    raw = Point(rx.x + distance * math.cos(angle), rx.y + distance * math.sin(angle))
    return _clamp_into_room(raw, plan.room)


def _build_interference(
    plan: PlacementPlan, position: ImpairmentPosition, config: DatasetBuildConfig,
    rng: np.random.Generator, dataset: Dataset,
) -> None:
    link = _make_link(plan, position.tx, config)
    clear_state = link.channel_state(position.rx, rng=rng)
    tx_beam, rx_beam, _ = link.sector_sweep(clear_state, position.rx, rng)
    initial = link.measure(clear_state, position.rx, tx_beam, rx_beam, rng)
    if initial.best_mcs() is None:
        return
    for level in INTERFERENCE_DROP_LEVELS:
        detail = f"intf-{level}"
        for rep in range(config.interference_reps):
            interferer = Interferer(_place_interferer(position, plan, rng), level)
            state = link.channel_state(
                position.rx, interferer=interferer, rng=rng,
                operating_pair=(tx_beam, rx_beam),
            )
            new_same = link.measure(state, position.rx, tx_beam, rx_beam, rng)
            best_tx, best_rx, _ = link.sector_sweep(state, position.rx, rng)
            if (best_tx, best_rx) == (tx_beam, rx_beam):
                new_best = new_same
            else:
                new_best = link.measure(state, position.rx, best_tx, best_rx, rng)
            entry = _entry_from_measurements(
                ImpairmentKind.INTERFERENCE, plan.room.name, position.label, rep,
                initial, new_same, new_best, config, detail,
            )
            if entry is not None:
                dataset.append(entry)
        if config.include_na:
            interferer = Interferer(_place_interferer(position, plan, rng), level)
            na = _na_entry(
                link, position.rx, plan.room.name, position.label, 0, rng,
                interferer=interferer, detail=detail,
            )
            if na is not None:
                dataset.append(na)


def _build_plan(
    item: tuple[int, PlacementPlan],
    metrics: MetricsRegistry,
    recorder,
    *,
    config: DatasetBuildConfig,
) -> list[DatasetEntry]:
    """Runtime task: measure one placement plan on its own RNG stream.

    The stream is a pure function of ``(config.seed, plan_index)`` and
    the builder's stream domain — never of the worker or shard that runs
    the plan — so the entries are identical whether plans run inline, in
    a pool, or resume from a checkpoint.
    """
    index, plan = item
    rng = child_rng(config.seed, index, domain=_PLAN_STREAM_DOMAIN)
    dataset = Dataset(name=plan.room.name)
    with metrics.span("dataset.plan"):
        for track in plan.displacement_tracks:
            with metrics.span("dataset.displacement"):
                _build_displacement(plan, track, config, rng, dataset)
        for position in plan.impairment_positions:
            with metrics.span("dataset.blockage"):
                _build_blockage(plan, position, config, rng, dataset)
            with metrics.span("dataset.interference"):
                _build_interference(plan, position, config, rng, dataset)
    return dataset.entries


_PLAN_STREAM_DOMAIN = 8
"""The builder's :func:`repro.runtime.child_rng` stream domain.  Part of
the campaign definition: changing it redraws every plan's randomness, so
it is baked into the checkpoint fingerprint below."""


def _config_fingerprint(config: DatasetBuildConfig, name: str) -> dict:
    """What a checkpoint must match to be reusable: every knob that changes
    the campaign's entries or its RNG stream."""
    gt = config.ground_truth
    return {
        "name": name,
        "rng": f"per-plan/{_PLAN_STREAM_DOMAIN}",
        "seed": config.seed,
        "displacement_reps": config.displacement_reps,
        "blockage_reps": config.blockage_reps,
        "interference_reps": config.interference_reps,
        "include_na": config.include_na,
        "max_reflection_order": MAX_REFLECTION_ORDER,
        "observation_window_s": config.observation_window_s,
        "alpha": gt.alpha,
        "ba_overhead_s": gt.ba_overhead_s,
        "frame_time_s": gt.frame_time_s,
        "tie_margin": gt.tie_margin,
    }


def build_dataset(
    plans: list[PlacementPlan],
    config: DatasetBuildConfig | None = None,
    name: str = "dataset",
    metrics: MetricsRegistry = NULL_METRICS,
    checkpoint_dir: Optional[str | Path] = None,
    resume: bool = False,
    workers: int = 1,
) -> Dataset:
    """Run the full measurement campaign over the given plans.

    ``metrics`` (optional) records one span per scenario build —
    ``dataset.displacement`` / ``dataset.blockage`` /
    ``dataset.interference`` — plus per-room entry counters, so slow
    campaigns show where the time went.

    Every plan draws from its own ``SeedSequence((seed, plan_index))``
    stream, so the campaign is byte-identical at every ``workers`` value
    (``workers > 1`` fans plans out to a process pool via
    :func:`repro.runtime.parallel_map`) and a resumed run measures
    exactly what an uninterrupted one would.

    With a ``checkpoint_dir``, each completed placement plan is persisted
    atomically; with ``resume`` additionally set, plans whose checkpoint
    matches the build configuration are loaded instead of re-measured —
    the resumed dataset is byte-identical when saved.
    """
    from repro.dataset.io import entry_from_dict, entry_to_dict

    config = config or DatasetBuildConfig()
    dataset = Dataset(name=name)
    store = None if checkpoint_dir is None else CheckpointStore(checkpoint_dir)
    fingerprint = _config_fingerprint(config, name)
    keys = [f"plan-{index:03d}-{plan.room.name}" for index, plan in enumerate(plans)]
    plan_entries: dict[int, list[DatasetEntry]] = {}
    pending: list[tuple[int, PlacementPlan]] = []
    for index, plan in enumerate(plans):
        if store is not None and resume:
            payload = store.load(keys[index])
            if payload is not None and payload.get("config") == fingerprint:
                plan_entries[index] = [
                    entry_from_dict(record, context=f"checkpoint {keys[index]}")
                    for record in payload.get("entries", [])
                ]
                if metrics.enabled:
                    metrics.counter("dataset.plans_resumed").inc()
                continue
        pending.append((index, plan))
    task = functools.partial(_build_plan, config=config)
    results = parallel_map(task, pending, workers=workers, metrics=metrics)
    for (index, plan), entries in zip(pending, results):
        plan_entries[index] = entries
        if store is not None:
            store.save(keys[index], {
                "config": fingerprint,
                "entries": [entry_to_dict(entry) for entry in entries],
            })
        if metrics.enabled:
            metrics.counter(f"dataset.entries.{plan.room.name}").inc(len(entries))
    for index in range(len(plans)):
        for entry in plan_entries[index]:
            dataset.append(entry)
    if metrics.enabled:
        metrics.counter("dataset.entries").inc(len(dataset))
    return dataset


def build_main_dataset(
    config: DatasetBuildConfig | None = None,
    metrics: MetricsRegistry = NULL_METRICS,
    checkpoint_dir: Optional[str | Path] = None,
    resume: bool = False,
    workers: int = 1,
) -> Dataset:
    """The main/training dataset (Table 1): six main-building environments."""
    return build_dataset(
        main_building_plans(), config, name="main", metrics=metrics,
        checkpoint_dir=checkpoint_dir, resume=resume, workers=workers,
    )


def build_testing_dataset(
    config: DatasetBuildConfig | None = None,
    metrics: MetricsRegistry = NULL_METRICS,
    checkpoint_dir: Optional[str | Path] = None,
    resume: bool = False,
    workers: int = 1,
) -> Dataset:
    """The cross-building testing dataset (Table 2): buildings 1 and 2."""
    config = config or DatasetBuildConfig(seed=1)
    return build_dataset(
        testing_building_plans(), config, name="testing", metrics=metrics,
        checkpoint_dir=checkpoint_dir, resume=resume, workers=workers,
    )
