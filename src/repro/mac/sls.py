"""Sector-sweep failure and bounded retry.

A sector sweep whose best pair decodes nothing is a *failed* sweep, not a
beam decision.  Fault injectors and links raise :class:`SweepError` for
it; the live session re-sweeps through :func:`sweep_with_retry` under a
:class:`SweepRetryPolicy` instead of acting on garbage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, TypeVar

SWEEP_MIN_VALID_SNR_DB = 0.0
"""Below this best-pair SNR no SSW frame decodes: the sweep found nothing.
Control-PHY frames need roughly 0 dB; a sweep whose best measured pair sits
under that is a *failed* sweep, not a usable beam decision."""


class SweepError(RuntimeError):
    """A sector sweep failed outright (no sector produced usable feedback).

    Raised by fault injectors (:mod:`repro.faults`) and by any link
    implementation that detects an unusable sweep; consumers retry via
    :func:`sweep_with_retry` instead of silently acting on garbage."""


T = TypeVar("T")


@dataclass(frozen=True)
class SweepRetryPolicy:
    """Bounded retry with exponential backoff for failed beam training.

    A failed SLS used to be accepted silently (the stale pair survived with
    no second attempt).  Under this policy the consumer re-sweeps up to
    ``max_attempts`` times, waiting ``base_delay_s * backoff_factor**k``
    between attempt ``k`` and ``k+1`` — the bounded-backoff shape COTS
    firmware uses for failed beacon sweeps.
    """

    max_attempts: int = 3
    base_delay_s: float = 1e-3
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("retry policy needs at least one attempt")
        if self.base_delay_s < 0 or self.backoff_factor < 1.0:
            raise ValueError("invalid backoff parameters")

    def delay_after(self, attempt: int) -> float:
        """Backoff delay charged after failed attempt ``attempt`` (0-based)."""
        return self.base_delay_s * self.backoff_factor**attempt


def sweep_with_retry(
    attempt: Callable[[], T],
    retry: SweepRetryPolicy = SweepRetryPolicy(),
    attempt_cost_s: float = 0.0,
    on_failure: Optional[Callable[[int, str], None]] = None,
) -> tuple[Optional[T], int, float]:
    """Run ``attempt`` until it succeeds or the retry budget is spent.

    ``attempt`` either returns a result or raises :class:`SweepError`.
    Returns ``(result_or_None, attempts_made, total_time_s)`` where the
    total time charges ``attempt_cost_s`` per attempt plus the backoff
    delays between attempts.  ``on_failure(attempt_index, reason)`` fires
    once per failed attempt (for fault/recovery event emission).
    """
    elapsed = 0.0
    for index in range(retry.max_attempts):
        elapsed += attempt_cost_s
        try:
            return attempt(), index + 1, elapsed
        except SweepError as error:
            if on_failure is not None:
                on_failure(index, str(error))
            if index + 1 < retry.max_attempts:
                elapsed += retry.delay_after(index)
    return None, retry.max_attempts, elapsed

