"""Per-entry trajectory cache: the point-independent half of a §8 replay.

Replaying one dataset entry at one operating point decomposes into

* quantities that depend only on the *entry* — the observation bits the
  transmitter sees (current CDR/throughput, missing-ACK, working-MCS),
  the RA repair ladders on both beam pairs, and the steady-state
  per-frame rate sequence at each settled MCS (a transient prefix plus a
  repeating cycle, see :func:`repro.core.rate_adaptation.steady_rate_runs`);
* and per-point float work — multiplying those trajectories by the frame
  time and the BA overhead.

The §8 grid replays every entry at 8 operating points, and several
times *within* one point — the oracles execute all three actions.
:class:`TrajectoryCache` computes the entry half once, keyed by a content
fingerprint of the entry, and can round-trip through :mod:`repro.checkpoint`
so a repeated ``repro evaluate`` skips the recompute entirely.  Cache payloads persist floats through JSON's
shortest-repr encoding, so a trajectory loaded from disk reproduces the
same bytes as a freshly built one.
"""

from __future__ import annotations

import hashlib
from typing import Optional

import numpy as np

from repro.constants import DEAD_LINK_CDR
from repro.core.rate_adaptation import RepairLadder, repair_ladder, steady_rate_runs
from repro.dataset.entry import DatasetEntry
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.phy.error_model import is_working
from repro.testbed.traces import McsTraces

TRAJECTORY_PAYLOAD_VERSION = 1
"""Bump when the persisted payload shape changes; stale payloads are
silently rebuilt, never half-parsed."""


def entry_fingerprint(entry: DatasetEntry) -> str:
    """Content hash identifying an entry's replay-relevant state.

    Covers everything the engine and the policies read: both per-MCS trace
    arrays, the initial operating point of the link, the feature vector,
    and the provenance fields.  Two entries with equal fingerprints replay
    identically at every operating point.
    """
    digest = hashlib.sha256()
    digest.update(
        repr(
            (
                entry.kind.value,
                entry.room,
                entry.position_label,
                entry.rep,
                entry.detail,
                entry.initial_mcs,
                entry.initial_throughput_mbps,
            )
        ).encode()
    )
    for traces in (entry.traces_same_pair, entry.traces_best_pair):
        digest.update(np.ascontiguousarray(traces.cdr, dtype=np.float64).tobytes())
        digest.update(
            np.ascontiguousarray(traces.throughput_mbps, dtype=np.float64).tobytes()
        )
    digest.update(
        np.ascontiguousarray(entry.features.to_array(), dtype=np.float64).tobytes()
    )
    return digest.hexdigest()


class SteadyProfile:
    """Steady-state per-frame rates as (transient prefix, repeating cycle)."""

    __slots__ = ("prefix", "cycle")

    def __init__(self, prefix: np.ndarray, cycle: np.ndarray):
        self.prefix = prefix
        self.cycle = cycle

    @classmethod
    def build(cls, traces: McsTraces, settled_mcs: int) -> "SteadyProfile":
        prefix, cycle = steady_rate_runs(traces, settled_mcs)
        return cls(np.asarray(prefix, dtype=np.float64),
                   np.asarray(cycle, dtype=np.float64))

    def rates(self, num_frames: int) -> np.ndarray:
        """The first ``num_frames`` per-frame throughputs (Mbps)."""
        if num_frames <= self.prefix.size:
            return self.prefix[:num_frames]
        tail = num_frames - self.prefix.size
        reps = -(-tail // self.cycle.size)  # ceil division
        return np.concatenate([self.prefix, np.tile(self.cycle, reps)])[:num_frames]

    def to_payload(self) -> dict:
        return {"prefix": _rle_encode(self.prefix), "cycle": _rle_encode(self.cycle)}

    @classmethod
    def from_payload(cls, payload: dict) -> "SteadyProfile":
        profile = cls(_rle_decode(payload["prefix"]), _rle_decode(payload["cycle"]))
        if profile.cycle.size == 0:
            raise ValueError("steady profile payload has an empty cycle")
        return profile


def _rle_encode(values: np.ndarray) -> list:
    """Run-length encode a float array as ``[[value, count], …]``.

    Steady-rate sequences are long runs of a handful of distinct rates, so
    RLE keeps the JSON payload tiny without touching the float values.
    """
    runs: list = []
    for value in values.tolist():
        if runs and runs[-1][0] == value:
            runs[-1][1] += 1
        else:
            runs.append([value, 1])
    return runs


def _rle_decode(runs: list) -> np.ndarray:
    if not runs:
        return np.empty(0, dtype=np.float64)
    values = np.array([run[0] for run in runs], dtype=np.float64)
    counts = np.array([run[1] for run in runs], dtype=np.int64)
    return np.repeat(values, counts)


class EntryTrajectories:
    """Everything point-independent about one entry's replay.

    Steady profiles are built lazily per (pair, settled MCS): which MCSs a
    replay actually settles at depends on the ladders, and most entries
    only ever need one or two.
    """

    __slots__ = (
        "fingerprint", "entry", "cdr_now", "tput_now", "ack_missing",
        "working", "ladder_same", "ladder_best", "_profiles",
    )

    def __init__(
        self,
        fingerprint: str,
        entry: DatasetEntry,
        cdr_now: float,
        tput_now: float,
        ladder_same: RepairLadder,
        ladder_best: RepairLadder,
        profiles: Optional[dict] = None,
    ):
        self.fingerprint = fingerprint
        self.entry = entry
        self.cdr_now = cdr_now
        self.tput_now = tput_now
        self.ack_missing = cdr_now < DEAD_LINK_CDR
        self.working = is_working(cdr_now, tput_now)
        self.ladder_same = ladder_same
        self.ladder_best = ladder_best
        self._profiles: dict[tuple[str, int], SteadyProfile] = profiles or {}

    @classmethod
    def build(cls, entry: DatasetEntry, fingerprint: str) -> "EntryTrajectories":
        return cls(
            fingerprint,
            entry,
            float(entry.traces_same_pair.cdr[entry.initial_mcs]),
            float(entry.traces_same_pair.throughput_mbps[entry.initial_mcs]),
            repair_ladder(entry.traces_same_pair, entry.initial_mcs),
            repair_ladder(entry.traces_best_pair, entry.initial_mcs),
        )

    def traces(self, pair: str) -> McsTraces:
        return self.entry.traces_same_pair if pair == "same" else self.entry.traces_best_pair

    def ladder(self, pair: str) -> RepairLadder:
        return self.ladder_same if pair == "same" else self.ladder_best

    def profile(self, pair: str, settled_mcs: int) -> SteadyProfile:
        key = (pair, settled_mcs)
        profile = self._profiles.get(key)
        if profile is None:
            profile = SteadyProfile.build(self.traces(pair), settled_mcs)
            self._profiles[key] = profile
        return profile

    def to_payload(self) -> dict:
        return {
            "cdr_now": self.cdr_now,
            "tput_now": self.tput_now,
            "ladders": {
                pair: _ladder_to_payload(self.ladder(pair))
                for pair in ("same", "best")
            },
            "profiles": {
                f"{pair}:{mcs}": profile.to_payload()
                for (pair, mcs), profile in self._profiles.items()
            },
        }

    @classmethod
    def from_payload(
        cls, entry: DatasetEntry, fingerprint: str, payload: dict
    ) -> "EntryTrajectories":
        profiles = {}
        for key, encoded in payload.get("profiles", {}).items():
            pair, _, mcs = key.partition(":")
            profiles[(pair, int(mcs))] = SteadyProfile.from_payload(encoded)
        return cls(
            fingerprint,
            entry,
            float(payload["cdr_now"]),
            float(payload["tput_now"]),
            _ladder_from_payload(payload["ladders"]["same"]),
            _ladder_from_payload(payload["ladders"]["best"]),
            profiles,
        )


def _ladder_to_payload(ladder: RepairLadder) -> dict:
    return {
        "start_mcs": ladder.start_mcs,
        "found_mcs": ladder.found_mcs,
        "frames_spent": ladder.frames_spent,
        "probed": list(ladder.probed_throughputs_mbps),
        "settled": ladder.settled_throughput_mbps,
    }


def _ladder_from_payload(payload: dict) -> RepairLadder:
    return RepairLadder(
        int(payload["start_mcs"]),
        None if payload["found_mcs"] is None else int(payload["found_mcs"]),
        int(payload["frames_spent"]),
        tuple(float(v) for v in payload["probed"]),
        float(payload["settled"]),
    )


class TrajectoryCache:
    """Fingerprint-keyed store of :class:`EntryTrajectories`.

    One cache serves a whole evaluation run: the grid shares it across all
    operating points (``hits`` count the cross-point reuse), and payloads
    adopted from a checkpoint rehydrate lazily — a loaded trajectory is
    only reattached to its entry when that entry actually comes up, so
    stale checkpoint content never poisons a run (unmatched fingerprints
    simply rebuild and count as misses).
    """

    def __init__(self) -> None:
        self._live: dict[str, EntryTrajectories] = {}
        self._pending: dict[str, dict] = {}
        self.hits = 0
        self.misses = 0
        self.loaded = 0

    def __len__(self) -> int:
        return len(self._live)

    def get(
        self, entry: DatasetEntry, metrics: MetricsRegistry = NULL_METRICS
    ) -> EntryTrajectories:
        fingerprint = entry_fingerprint(entry)
        trajectories = self._live.get(fingerprint)
        if trajectories is not None:
            self.hits += 1
            if metrics.enabled:
                metrics.counter("sim.traj_cache.hits").inc()
            return trajectories
        payload = self._pending.pop(fingerprint, None)
        if payload is not None:
            try:
                trajectories = EntryTrajectories.from_payload(
                    entry, fingerprint, payload
                )
            except (KeyError, TypeError, ValueError):
                trajectories = None  # malformed payload: rebuild below
            else:
                self.loaded += 1
                if metrics.enabled:
                    metrics.counter("sim.traj_cache.loaded").inc()
        if trajectories is None:
            trajectories = EntryTrajectories.build(entry, fingerprint)
            self.misses += 1
            if metrics.enabled:
                metrics.counter("sim.traj_cache.misses").inc()
        self._live[fingerprint] = trajectories
        return trajectories

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "loaded": self.loaded,
            "entries": len(self._live),
        }

    def to_payload(self) -> dict:
        """A JSON-safe dump for :class:`repro.checkpoint.CheckpointStore`.

        Includes payloads adopted from an earlier checkpoint but not yet
        (re)used, so saving after a partial run is never lossy.
        """
        entries = dict(self._pending)
        entries.update(
            {fp: traj.to_payload() for fp, traj in self._live.items()}
        )
        return {"version": TRAJECTORY_PAYLOAD_VERSION, "entries": entries}

    def adopt_payload(self, payload: dict) -> int:
        """Stage a checkpoint payload for lazy rehydration.

        Returns the number of staged trajectories; a version-mismatched or
        malformed payload stages nothing (the cache just rebuilds).
        """
        entries = self._validated_entries(payload)
        if entries is None:
            return 0
        staged = 0
        for fingerprint, encoded in entries.items():
            if fingerprint not in self._live and isinstance(encoded, dict):
                self._pending[fingerprint] = encoded
                staged += 1
        return staged

    def merge_payload(self, payload: dict) -> int:
        """Union another cache's payload in (first writer wins per profile).

        Used by the parent of a multi-worker grid run to fold each
        worker's trajectories back, in point order: trajectories are pure
        functions of the entry, so overlapping content is identical and
        the union equals what one shared in-process cache would hold.
        """
        entries = self._validated_entries(payload)
        if entries is None:
            return 0
        merged = 0
        for fingerprint, encoded in entries.items():
            if not isinstance(encoded, dict):
                continue
            live = self._live.get(fingerprint)
            if live is not None:
                for key, profile in encoded.get("profiles", {}).items():
                    pair, _, mcs = key.partition(":")
                    slot = (pair, int(mcs))
                    if slot not in live._profiles:
                        try:
                            live._profiles[slot] = SteadyProfile.from_payload(
                                profile
                            )
                        except (KeyError, TypeError, ValueError):
                            continue
            else:
                existing = self._pending.get(fingerprint)
                if existing is None:
                    self._pending[fingerprint] = encoded
                else:
                    profiles = existing.setdefault("profiles", {})
                    for key, profile in encoded.get("profiles", {}).items():
                        profiles.setdefault(key, profile)
            merged += 1
        return merged

    @staticmethod
    def _validated_entries(payload: dict) -> Optional[dict]:
        if not isinstance(payload, dict):
            return None
        if payload.get("version") != TRAJECTORY_PAYLOAD_VERSION:
            return None
        entries = payload.get("entries")
        return entries if isinstance(entries, dict) else None
