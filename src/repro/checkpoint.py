"""Atomic JSON checkpoints for resumable long runs.

A grid sweep or a dataset campaign can run for hours; a crash (or a
deliberate kill) used to mean starting over.  :class:`CheckpointStore`
persists one JSON document per completed unit of work — an operating
point, a placement plan — with atomic writes (temp file + ``os.replace``),
so a checkpoint on disk is always complete: a kill mid-write leaves the
previous state intact, never a half-written file.

Resume semantics are the caller's: :meth:`load` returns the payload (or
``None`` for missing/corrupt), and the caller decides whether it matches
the work it is about to redo (see ``EvaluationGrid.run`` and
``build_dataset``).  Payloads round-trip Python floats through JSON's
shortest-repr encoding, so resumed numeric results are byte-identical to
freshly computed ones.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Optional

CHECKPOINT_VERSION = 1
"""Bump when the envelope (not the caller payload) changes shape."""

_SUFFIX = ".ckpt.json"


class CheckpointStore:
    """One directory of atomically-written JSON checkpoints, one per key."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def path(self, key: str) -> Path:
        if not key or "/" in key or key.startswith("."):
            raise ValueError(f"invalid checkpoint key {key!r}")
        return self.directory / f"{key}{_SUFFIX}"

    def save(self, key: str, payload: dict) -> Path:
        """Atomically persist ``payload`` under ``key``."""
        target = self.path(key)
        envelope = {"version": CHECKPOINT_VERSION, "key": key, "payload": payload}
        temporary = target.with_suffix(target.suffix + ".tmp")
        with temporary.open("w") as handle:
            json.dump(envelope, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temporary, target)
        return target

    def load(self, key: str) -> Optional[dict]:
        """The payload saved under ``key``; ``None`` when absent or unusable.

        A corrupt or mismatched checkpoint is treated as absent — the unit
        of work simply reruns — rather than poisoning the resumed run.
        """
        target = self.path(key)
        try:
            with target.open() as handle:
                envelope = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(envelope, dict):
            return None
        if envelope.get("version") != CHECKPOINT_VERSION or envelope.get("key") != key:
            return None
        payload = envelope.get("payload")
        return payload if isinstance(payload, dict) else None

    def keys(self) -> list[str]:
        """Keys with a (possibly unusable) checkpoint on disk, sorted."""
        return sorted(
            p.name[: -len(_SUFFIX)]
            for p in self.directory.glob(f"*{_SUFFIX}")
        )
