"""Sliding observation windows for the Tx-side metric pipeline (§7).

LiBRA makes a decision every two frames by comparing the metrics averaged
over the *current* observation window against the *previous* window
(Algorithm 1's ``updateMetrics(frameID, frameID-1)`` /
``classifyBaRaNa(metrics, prev_metrics)``).  This module turns per-frame
ACK feedback into those windowed snapshots; the live loop turns two
consecutive snapshots into the classifier's
:class:`~repro.core.metrics.FeatureVector` with
:func:`~repro.core.metrics.feature_deltas`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class FrameFeedback:
    """What one Block ACK carries back to the transmitter.

    ``timestamp_s`` is when the Rx *measured* the metrics (session clock);
    ``nan`` means unknown.  A healthy feedback path stamps each frame as it
    arrives, so receipt time ≈ measurement time — a large gap means the
    metrics are stale (a replayed or delayed report) and the staleness
    window in :class:`MetricWindow` refuses to classify on them.
    """

    snr_db: float
    noise_dbm: float
    tof_ns: float
    pdp: np.ndarray
    cdr: float
    timestamp_s: float = math.nan


@dataclass
class WindowSnapshot:
    """Averages of one completed observation window."""

    snr_db: float
    noise_dbm: float
    tof_ns: float
    pdp: np.ndarray
    cdr: float
    frames: int


@dataclass
class MetricWindow:
    """Accumulates per-frame feedback into fixed-length window snapshots.

    ``frames_per_window`` follows the §7 design: 2 frames in X60 (20 ms
    windows), 2 frames in 802.11ad (4 ms) — the constant is frames, the
    wall-clock follows the FAT.

    ``max_age_s`` (optional) is the staleness window: when :meth:`push` is
    given the current session clock, samples whose measurement timestamp is
    older than this are *expired* — rejected on entry or evicted from the
    buffer — instead of being averaged into a snapshot the classifier then
    acts on.  ``stale_rejected`` counts the discarded samples.
    """

    frames_per_window: int = 2
    max_age_s: Optional[float] = None
    stale_rejected: int = field(default=0, repr=False)
    _snr: list = field(default_factory=list, repr=False)
    _noise: list = field(default_factory=list, repr=False)
    _tof: list = field(default_factory=list, repr=False)
    _pdp: list = field(default_factory=list, repr=False)
    _cdr: list = field(default_factory=list, repr=False)
    _times: list = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if self.frames_per_window < 1:
            raise ValueError("a window needs at least one frame")
        if self.max_age_s is not None and self.max_age_s <= 0:
            raise ValueError("staleness window must be positive")

    def _is_stale(self, timestamp_s: float, now_s: float) -> bool:
        # nan timestamps (age unknown) never expire: staleness is an
        # opt-in check, not a reason to drop healthy legacy feedback.
        return (
            self.max_age_s is not None
            and math.isfinite(timestamp_s)
            and now_s - timestamp_s > self.max_age_s
        )

    def _evict_stale(self, now_s: float) -> None:
        while self._times and self._is_stale(self._times[0], now_s):
            for samples in (self._snr, self._noise, self._tof, self._pdp,
                            self._cdr, self._times):
                samples.pop(0)
            self.stale_rejected += 1

    def push(
        self, feedback: FrameFeedback, now_s: Optional[float] = None
    ) -> Optional[WindowSnapshot]:
        """Add one frame's feedback; returns a snapshot when the window
        completes (and resets for the next window).

        With ``now_s`` (the session clock) and a configured ``max_age_s``,
        stale feedback is dropped and already-buffered samples that aged
        out are evicted, so a window never mixes fresh and expired metrics.
        """
        if now_s is not None:
            if self._is_stale(feedback.timestamp_s, now_s):
                self.stale_rejected += 1
                return None
            self._evict_stale(now_s)
        self._snr.append(feedback.snr_db)
        self._noise.append(feedback.noise_dbm)
        self._tof.append(feedback.tof_ns)
        self._pdp.append(feedback.pdp)
        self._cdr.append(feedback.cdr)
        self._times.append(feedback.timestamp_s)
        if len(self._snr) < self.frames_per_window:
            return None
        finite_tofs = [t for t in self._tof if not math.isinf(t)]
        snapshot = WindowSnapshot(
            snr_db=float(np.mean(self._snr)),
            noise_dbm=float(np.mean(self._noise)),
            tof_ns=float(np.mean(finite_tofs)) if finite_tofs else math.inf,
            pdp=np.mean(np.stack(self._pdp), axis=0),
            cdr=float(np.mean(self._cdr)),
            frames=len(self._snr),
        )
        self.reset()
        return snapshot

    def reset(self) -> None:
        self._snr.clear()
        self._noise.clear()
        self._tof.clear()
        self._pdp.clear()
        self._cdr.clear()
        self._times.clear()


# ---------------------------------------------------------------------------
# Metric sanitization (the hardened feedback path)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricRanges:
    """Physically plausible bounds for ACK-borne metrics.

    Anything outside these cannot be a real Rx measurement — it is a
    corrupted report (bit errors in the piggyback field, a firmware bug,
    an injected fault) and must not reach the classifier.  Bounds are
    deliberately loose: they reject the impossible, not the unusual.
    """

    snr_db: tuple[float, float] = (-30.0, 90.0)
    noise_dbm: tuple[float, float] = (-150.0, -20.0)
    cdr: tuple[float, float] = (0.0, 1.0)


DEFAULT_METRIC_RANGES = MetricRanges()


def feedback_rejection(
    feedback: FrameFeedback, ranges: MetricRanges = DEFAULT_METRIC_RANGES
) -> Optional[str]:
    """Why this feedback must be rejected, or ``None`` when it is clean.

    Rejected feedback is treated exactly like a missing Block ACK (§7's
    rule): no fresh metrics arrived that can be trusted.  Checks, in
    order: finite SNR/noise/CDR within :class:`MetricRanges`; a ToF that
    is non-negative and not NaN (``inf`` is the legitimate §6.1 sentinel
    for an unmeasurable ToF); a PDP that is non-empty, finite, and
    non-negative.
    """
    if not math.isfinite(feedback.snr_db):
        return f"non-finite SNR {feedback.snr_db!r}"
    lo, hi = ranges.snr_db
    if not lo <= feedback.snr_db <= hi:
        return f"SNR {feedback.snr_db:.1f} dB outside [{lo:g}, {hi:g}]"
    if not math.isfinite(feedback.noise_dbm):
        return f"non-finite noise level {feedback.noise_dbm!r}"
    lo, hi = ranges.noise_dbm
    if not lo <= feedback.noise_dbm <= hi:
        return f"noise {feedback.noise_dbm:.1f} dBm outside [{lo:g}, {hi:g}]"
    if not math.isfinite(feedback.cdr):
        return f"non-finite CDR {feedback.cdr!r}"
    lo, hi = ranges.cdr
    if not lo <= feedback.cdr <= hi:
        return f"CDR {feedback.cdr:.3f} outside [{lo:g}, {hi:g}]"
    if math.isnan(feedback.tof_ns) or feedback.tof_ns < 0.0:
        return f"invalid ToF {feedback.tof_ns!r} (NaN or negative)"
    pdp = np.asarray(feedback.pdp)
    if pdp.size == 0:
        return "empty PDP"
    if not np.isfinite(pdp).all():
        return "PDP contains non-finite bins"
    if (pdp < 0.0).any():
        return "PDP contains negative power bins"
    return None

