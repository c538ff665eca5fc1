"""Per-entry trajectory cache: the point-independent half of a §8 replay.

Replaying one dataset entry at one operating point decomposes into

* quantities that depend only on the *entry* — the observation bits the
  transmitter sees (missing-ACK, working-MCS), the RA repair ladders on
  both beam pairs, and the steady-state per-frame rate sequence at each
  settled MCS (a transient prefix plus a repeating cycle, see
  :func:`repro.core.rate_adaptation.steady_rate_runs`);
* and per-point float work — multiplying those trajectories by the frame
  time and the BA overhead.

The §8 grid replays every entry at 8 operating points, and several
times *within* one point — the oracles execute all three actions.
:class:`TrajectoryCache` computes the entry half once per entry object
and keeps it in memory for the life of the run.  Nothing is persisted:
building every testing-campaign entry's ladders takes milliseconds, and
trajectories are pure functions of their entry, so a rebuilt trajectory
replays the same bytes as the one it replaces.
"""

from __future__ import annotations

import numpy as np

from repro.constants import DEAD_LINK_CDR
from repro.core.rate_adaptation import RepairLadder, repair_ladder, steady_rate_runs
from repro.dataset.entry import DatasetEntry
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.phy.error_model import is_working
from repro.testbed.traces import McsTraces


class SteadyProfile:
    """Steady-state per-frame rates as (transient prefix, repeating cycle)."""

    __slots__ = ("prefix", "cycle")

    def __init__(self, traces: McsTraces, settled_mcs: int):
        prefix, cycle = steady_rate_runs(traces, settled_mcs)
        self.prefix = np.asarray(prefix, dtype=np.float64)
        self.cycle = np.asarray(cycle, dtype=np.float64)

    def rates(self, num_frames: int) -> np.ndarray:
        """The first ``num_frames`` per-frame throughputs (Mbps)."""
        if num_frames <= self.prefix.size:
            return self.prefix[:num_frames]
        tail = num_frames - self.prefix.size
        reps = -(-tail // self.cycle.size)  # ceil division
        return np.concatenate([self.prefix, np.tile(self.cycle, reps)])[:num_frames]


class EntryTrajectories:
    """Everything point-independent about one entry's replay.

    Steady profiles are built lazily per (pair, settled MCS): which MCSs a
    replay actually settles at depends on the ladders, and most entries
    only ever need one or two.
    """

    __slots__ = (
        "entry", "ack_missing", "working", "ladder_same", "ladder_best",
        "_profiles",
    )

    def __init__(self, entry: DatasetEntry):
        cdr_now = float(entry.traces_same_pair.cdr[entry.initial_mcs])
        tput_now = float(entry.traces_same_pair.throughput_mbps[entry.initial_mcs])
        self.entry = entry
        self.ack_missing = cdr_now < DEAD_LINK_CDR
        self.working = is_working(cdr_now, tput_now)
        self.ladder_same = repair_ladder(entry.traces_same_pair, entry.initial_mcs)
        self.ladder_best = repair_ladder(entry.traces_best_pair, entry.initial_mcs)
        self._profiles: dict[tuple[str, int], SteadyProfile] = {}

    def traces(self, pair: str) -> McsTraces:
        return self.entry.traces_same_pair if pair == "same" else self.entry.traces_best_pair

    def ladder(self, pair: str) -> RepairLadder:
        return self.ladder_same if pair == "same" else self.ladder_best

    def profile(self, pair: str, settled_mcs: int) -> SteadyProfile:
        key = (pair, settled_mcs)
        profile = self._profiles.get(key)
        if profile is None:
            profile = SteadyProfile(self.traces(pair), settled_mcs)
            self._profiles[key] = profile
        return profile


class TrajectoryCache:
    """In-memory store of :class:`EntryTrajectories`, keyed by entry object.

    One cache serves a whole evaluation run: the grid shares it across all
    operating points (``hits`` count the cross-point reuse).  Keys are
    ``id(entry)``; each cached :class:`EntryTrajectories` holds its entry,
    so an id cannot be reused while the cache lives.  Content-equal but
    distinct entry objects each build their own (identical) trajectories.
    """

    def __init__(self) -> None:
        self._live: dict[int, EntryTrajectories] = {}
        self.hits = 0
        self.misses = 0

    def __reduce__(self):
        # An id key means nothing in another process: a cache that is
        # pickled (say, with a grid shipped to a worker) arrives empty.
        return (TrajectoryCache, ())

    def get(
        self, entry: DatasetEntry, metrics: MetricsRegistry = NULL_METRICS
    ) -> EntryTrajectories:
        trajectories = self._live.get(id(entry))
        if trajectories is not None:
            self.hits += 1
            if metrics.enabled:
                metrics.counter("sim.traj_cache.hits").inc()
            return trajectories
        trajectories = EntryTrajectories(entry)
        self._live[id(entry)] = trajectories
        self.misses += 1
        if metrics.enabled:
            metrics.counter("sim.traj_cache.misses").inc()
        return trajectories

    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses, "entries": len(self._live)}
