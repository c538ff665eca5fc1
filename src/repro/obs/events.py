"""Structured trace events: what one decision actually did.

Each event is a frozen-shape dataclass that serialises to one JSON object
(one line of a ``.jsonl`` trace).  Every dict carries a ``type`` field so
mixed traces — flow decisions interleaved with span timings and COTS
session events — stay self-describing; :func:`event_from_dict` rebuilds
the typed object from a parsed line.

The schema is documented in ``docs/observability.md``; bump
:data:`TRACE_SCHEMA_VERSION` when a field changes meaning.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional

TRACE_SCHEMA_VERSION = 1


@dataclass
class RepairStep:
    """One RA repair round (one rung of Algorithm 1's ladder).

    ``pair`` says which beam pair the round probed: ``"same"`` (the old,
    impaired pair) or ``"best"`` (the post-BA pair).
    """

    pair: str
    start_mcs: int
    frames_spent: int
    found_mcs: Optional[int]
    bytes_during_search: float

    @property
    def failed(self) -> bool:
        return self.found_mcs is None


@dataclass
class FlowEvent:
    """One simulated flow: observation → verdict → repair chain → outcome."""

    policy: str
    decided_action: str
    executed_action: str
    ack_missing: bool
    current_mcs: int
    current_mcs_working: bool
    bytes_delivered: float
    recovery_delay_s: float
    duration_s: float
    settled_mcs: Optional[int] = None
    link_died: bool = False
    forced_ra: bool = False
    """The ACK-timeout override: the policy said NA on a dead link and the
    device's default (RA) was charged instead."""
    ba_invoked: bool = False
    decision_fallback: bool = False
    """The policy degraded to the §7 missing-ACK rule (rejected features,
    a model error, or a decide() exception caught by the engine)."""
    decision_reason: str = ""
    features: Optional[list[float]] = None
    repairs: list[RepairStep] = field(default_factory=list)
    kind: str = ""
    room: str = ""
    position: str = ""

    def to_dict(self) -> dict:
        record = asdict(self)
        record["type"] = "flow"
        record["v"] = TRACE_SCHEMA_VERSION
        return record


@dataclass
class SpanEvent:
    """One completed timing span (seconds on the monotonic clock)."""

    name: str
    seconds: float
    count: int = 1

    def to_dict(self) -> dict:
        record = asdict(self)
        record["type"] = "span"
        record["v"] = TRACE_SCHEMA_VERSION
        return record


@dataclass
class SessionEvent:
    """One COTS-session MAC event (§3 motivation runs)."""

    event: str
    """``"ba"``, ``"sector-change"``, or ``"sweep-failed"``."""
    time_s: float
    sector: int
    mcs: int

    def to_dict(self) -> dict:
        record = asdict(self)
        record["type"] = "session"
        record["v"] = TRACE_SCHEMA_VERSION
        return record


@dataclass
class FaultEvent:
    """One feedback-path fault or its recovery.

    ``origin`` says who raised it: ``"injected"`` (a :mod:`repro.faults`
    injector fired), ``"natural"`` (the channel itself, e.g. an all-lost
    frame), ``"sanitizer"`` (metric validation rejected the feedback),
    ``"policy"`` (the classifier errored and the missing-ACK rule took
    over), or ``"sweep"`` (beam training failed an attempt).  ``kind`` is
    the fault taxonomy slug (see ``docs/robustness.md``); ``recovered``
    marks recovery-outcome events.  ``time_s`` is ``-1.0`` when the
    emitter has no session clock (plan-level injectors).
    """

    origin: str
    kind: str
    time_s: float = -1.0
    detail: str = ""
    recovered: bool = False

    def to_dict(self) -> dict:
        record = asdict(self)
        record["type"] = "fault"
        record["v"] = TRACE_SCHEMA_VERSION
        return record


@dataclass
class CacheEvent:
    """One cache's effectiveness snapshot at the end of a stage.

    ``cache`` names the cache (``"trajectory"``); ``hits``/``misses``
    count lookups served from memory vs built, ``entries`` is the live
    size when the snapshot was taken.  ``loaded`` is always 0: no cache
    is persisted any more, and the field stays so v1 traces still parse.
    """

    cache: str
    hits: int
    misses: int
    loaded: int = 0
    entries: int = 0

    def to_dict(self) -> dict:
        record = asdict(self)
        record["type"] = "cache"
        record["v"] = TRACE_SCHEMA_VERSION
        return record


_EVENT_TYPES = {
    "flow": FlowEvent,
    "span": SpanEvent,
    "session": SessionEvent,
    "fault": FaultEvent,
    "cache": CacheEvent,
}


def event_from_dict(record: dict):
    """Rebuild the typed event from one parsed trace line.

    Raises ``ValueError`` on an unknown ``type`` so corrupted traces fail
    loudly instead of half-parsing.
    """
    kind = record.get("type")
    cls = _EVENT_TYPES.get(kind)
    if cls is None:
        raise ValueError(f"unknown trace event type {kind!r}")
    payload = {k: v for k, v in record.items() if k not in ("type", "v")}
    if cls is FlowEvent:
        payload["repairs"] = [RepairStep(**step) for step in payload.get("repairs", [])]
    return cls(**payload)
