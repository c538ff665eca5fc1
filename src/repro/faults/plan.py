"""Seeded, composable fault injection for the feedback path.

LiBRA's premise is deciding correctly *under impairment* — but an
impairment can hit the feedback channel itself: Block ACKs vanish in
bursts, piggybacked metrics arrive corrupted or stale, sector sweeps fail
or return garbage, and the classifier (a deployed model artifact) can
error or emit nonsense.  A :class:`FaultPlan` bundles one injector per
fault class behind a single seeded RNG, so a chaos run is reproducible:
the same seed injects the same faults at the same points.

The plan never touches the simulator directly — the wrappers in
:mod:`repro.faults.wrappers` apply it around an unmodified link / policy /
classifier, and the hardened consumers (:mod:`repro.core.observation`,
:mod:`repro.core.libra`, :mod:`repro.sim.live`) are expected to survive
everything a full plan throws at them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class FaultRecord:
    """One injection occurrence (what fired, where, and how)."""

    injector: str
    target: str
    detail: str = ""


@dataclass
class FaultLog:
    """Append-only record of everything a plan injected."""

    records: list[FaultRecord] = field(default_factory=list)

    def add(self, injector: str, target: str, detail: str = "") -> FaultRecord:
        record = FaultRecord(injector, target, detail)
        self.records.append(record)
        return record

    def count(self, injector: Optional[str] = None) -> int:
        if injector is None:
            return len(self.records)
        return sum(1 for r in self.records if r.injector == injector)

    def counts(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for record in self.records:
            totals[record.injector] = totals.get(record.injector, 0) + 1
        return totals


def _validate_probability(value: float, name: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be a probability in [0, 1], got {value!r}")


@dataclass
class AckLoss:
    """ACK-loss bursts beyond the channel's natural no-ACK behaviour.

    Each feedback opportunity fires with ``probability``; once fired, the
    next ``burst_frames - 1`` opportunities are dropped too (correlated
    loss — the §3 regime where COTS firmware triggers BA spuriously).
    """

    probability: float = 0.02
    burst_frames: int = 3
    _remaining: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        _validate_probability(self.probability, "probability")
        if self.burst_frames < 1:
            raise ValueError("a burst must span at least one frame")

    def fires(self, rng: np.random.Generator) -> bool:
        if self._remaining > 0:
            self._remaining -= 1
            return True
        if rng.random() < self.probability:
            self._remaining = self.burst_frames - 1
            return True
        return False


CORRUPTION_MODES = ("nan-snr", "inf-noise", "wild-cdr", "negative-tof", "nan-pdp")
"""The corruption taxonomy: each mode breaks one metric in one way the
sanitizer must catch (non-finite values or physically impossible ranges)."""


@dataclass
class MetricCorruption:
    """Corrupt one piggybacked metric per fired feedback."""

    probability: float = 0.05
    modes: tuple[str, ...] = CORRUPTION_MODES

    def __post_init__(self) -> None:
        _validate_probability(self.probability, "probability")
        unknown = set(self.modes) - set(CORRUPTION_MODES)
        if not self.modes or unknown:
            raise ValueError(f"unknown corruption modes {sorted(unknown)}")

    def fires(self, rng: np.random.Generator) -> Optional[str]:
        """The corruption mode to apply, or ``None``."""
        if rng.random() >= self.probability:
            return None
        return str(self.modes[int(rng.integers(len(self.modes)))])


@dataclass
class StaleReplay:
    """Replay an old metric report instead of the fresh one.

    Models a feedback queue hiccup: the Tx receives a report measured
    ``min_age_frames``+ frames ago.  The replayed report keeps its original
    measurement age, so staleness-aware consumers can detect and drop it.
    """

    probability: float = 0.05
    min_age_frames: int = 8
    history_frames: int = 64

    def __post_init__(self) -> None:
        _validate_probability(self.probability, "probability")
        if self.min_age_frames < 1 or self.history_frames < self.min_age_frames:
            raise ValueError("need history at least as deep as the minimum age")

    def fires(self, rng: np.random.Generator) -> bool:
        return rng.random() < self.probability


@dataclass
class SweepFailure:
    """Break a sector sweep: total failure or a partial (garbage) result.

    ``"fail"`` raises :class:`repro.mac.sls.SweepError` (no sector decoded
    anything — the consumer must retry with backoff); ``"partial"``
    silently returns a random beam pair (the sweep completed but on
    corrupted measurements — undetectable, pure chaos)."""

    probability: float = 0.1
    partial_fraction: float = 0.3

    def __post_init__(self) -> None:
        _validate_probability(self.probability, "probability")
        _validate_probability(self.partial_fraction, "partial_fraction")

    def fires(self, rng: np.random.Generator) -> Optional[str]:
        if rng.random() >= self.probability:
            return None
        return "partial" if rng.random() < self.partial_fraction else "fail"


@dataclass
class ClassifierFault:
    """Make the deployed model raise or return a nonsense label."""

    probability: float = 0.1
    raise_fraction: float = 0.5
    garbage_label: str = "corrupted-label"

    def __post_init__(self) -> None:
        _validate_probability(self.probability, "probability")
        _validate_probability(self.raise_fraction, "raise_fraction")

    def fires(self, rng: np.random.Generator) -> Optional[str]:
        if rng.random() >= self.probability:
            return None
        return "raise" if rng.random() < self.raise_fraction else "garbage"


@dataclass
class FaultPlan:
    """One seeded bundle of injectors plus the log of what fired.

    Any injector left ``None`` is disabled; :meth:`full` enables the whole
    taxonomy at defaults tuned so a few-second session sees every fault
    class at least once.  All injectors share ``rng`` — a plan is a single
    reproducible chaos schedule, not independent noise sources.
    """

    seed: int = 0
    ack_loss: Optional[AckLoss] = None
    metric_corruption: Optional[MetricCorruption] = None
    stale_replay: Optional[StaleReplay] = None
    sweep_failure: Optional[SweepFailure] = None
    classifier_fault: Optional[ClassifierFault] = None
    log: FaultLog = field(default_factory=FaultLog)
    rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.rng = np.random.default_rng(self.seed)

    @classmethod
    def full(cls, seed: int = 0) -> "FaultPlan":
        """Every injector enabled — the acceptance-criterion chaos plan."""
        return cls(
            seed=seed,
            ack_loss=AckLoss(probability=0.03, burst_frames=4),
            metric_corruption=MetricCorruption(probability=0.08),
            # Deep enough that replays exceed a 0.2 s staleness window
            # (ages are in measure calls x the frame time).
            stale_replay=StaleReplay(
                probability=0.06, min_age_frames=150, history_frames=400
            ),
            sweep_failure=SweepFailure(probability=0.25, partial_fraction=0.3),
            classifier_fault=ClassifierFault(probability=0.15),
        )

    def active_injectors(self) -> list[str]:
        names = []
        for name in ("ack_loss", "metric_corruption", "stale_replay",
                     "sweep_failure", "classifier_fault"):
            if getattr(self, name) is not None:
                names.append(name)
        return names
