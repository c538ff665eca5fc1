"""Deterministic work sharding and per-item seed derivation.

Sharding is contiguous and balanced: ``n_items`` split into ``n_shards``
ranges whose sizes differ by at most one, with the larger shards first.
Contiguity preserves item order inside each shard, which is what lets the
pool merge results back in global item order.

Seeds derive from ``numpy``'s ``SeedSequence((master_seed, index))``: the
stream an item sees is a pure function of the master seed and the item's
global index — never of the worker that happens to execute it, the shard
layout, or the worker count.  That is the foundation of the runtime's
"byte-identical at every worker count" contract.
"""

from __future__ import annotations

from typing import Sequence, TypeVar

import numpy as np

T = TypeVar("T")


def shard_bounds(n_items: int, n_shards: int) -> list[tuple[int, int]]:
    """Contiguous ``[start, stop)`` ranges covering ``range(n_items)``.

    Shard sizes differ by at most one (larger shards first).  Empty
    shards are dropped, so the result has ``min(n_items, n_shards)``
    entries (or none for an empty input).
    """
    if n_items < 0:
        raise ValueError("n_items must be >= 0")
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    n_shards = min(n_shards, n_items)
    bounds: list[tuple[int, int]] = []
    start = 0
    for shard in range(n_shards):
        size = n_items // n_shards + (1 if shard < n_items % n_shards else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


def shard_items(items: Sequence[T], n_shards: int) -> list[list[T]]:
    """Split ``items`` into contiguous, order-preserving shards."""
    items = list(items)
    return [items[start:stop] for start, stop in shard_bounds(len(items), n_shards)]


def child_rng(
    master_seed: int, index: int, domain: int = 0
) -> np.random.Generator:
    """The RNG stream owned by item ``index`` under ``master_seed``.

    ``domain`` namespaces streams so two subsystems deriving from the
    same ``(master_seed, index)`` pair never share a stream.
    """
    return np.random.default_rng(
        np.random.SeedSequence((master_seed, index, domain))
    )
