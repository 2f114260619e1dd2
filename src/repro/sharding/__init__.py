"""Horizontal scale-out: hash-sharded relations, ring-mergeable maintainers.

The covariance ring is a commutative monoid, so F-IVM trees over a
hash-partitioned fact table (dimension tables replicated) can be maintained
independently per shard and combined by one ring add.  This package provides

- :class:`~repro.sharding.router.ShardRouter` — deterministic, process-stable
  hash placement of fact rows and routing of netted delta groups;
- :class:`~repro.sharding.maintainer.ShardedMaintainer` — the facade speaking
  the unsharded maintainer contract over N per-shard maintainers;
- the executors (:mod:`repro.sharding.executors`) — ``serial`` in-process and
  ``processpool`` with persistent worker processes;
- :func:`~repro.sharding.merge.merge_payloads` — the kernel-backed ring merge
  of per-shard root payloads.

See the "Horizontal sharding" section of ``docs/architecture.md``.
"""

from repro.sharding.executors import ProcessPoolShardExecutor, SerialShardExecutor
from repro.sharding.maintainer import ShardedMaintainer
from repro.sharding.merge import merge_payloads
from repro.sharding.router import ShardRouter, stable_hash

__all__ = [
    "ProcessPoolShardExecutor",
    "SerialShardExecutor",
    "ShardedMaintainer",
    "ShardRouter",
    "merge_payloads",
    "stable_hash",
]
