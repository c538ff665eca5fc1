"""Deterministic parallel execution runtime.

Two small pieces shared by the dataset builder, the evaluation grid, and
the random forest:

* :mod:`repro.runtime.shard` — deterministic work sharding and per-item
  seed derivation (``SeedSequence((master_seed, index))``), so every item
  owns an RNG stream that does not depend on which worker runs it or in
  what order;
* :mod:`repro.runtime.pool` — :func:`parallel_map`, a seeded process-pool
  map with ordered result merge.  ``workers <= 1`` runs inline (zero
  behavioural change); ``workers > 1`` fans items out to a process pool,
  captures each worker's :class:`~repro.obs.metrics.MetricsRegistry` and
  trace events, and merges both into the parent in item order.

The contract the adopters rely on: **any seeded run is byte-identical at
every worker count**, because all randomness is derived per item and all
results (and observability merges) are applied in item order.
"""

from repro.runtime.pool import parallel_map
from repro.runtime.shard import child_rng, shard_bounds, shard_items

__all__ = [
    "child_rng",
    "parallel_map",
    "shard_bounds",
    "shard_items",
]
