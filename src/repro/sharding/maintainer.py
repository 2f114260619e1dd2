"""The sharded maintainer facade: N independent F-IVM trees, one ring merge.

:class:`ShardedMaintainer` speaks the :class:`~repro.ivm.base.CovarianceMaintainer`
update contract (``apply`` / ``apply_batch`` / ``net_updates`` /
``apply_groups`` / ``statistics`` / ``recompute_statistics``) while holding
**no view tree of its own**.  Instead it

1. **nets once** — batches run through the same
   :func:`repro.ivm.base.net_update_stream` the unsharded maintainers use;
2. **routes netted groups** — the :class:`~repro.sharding.router.ShardRouter`
   splits fact groups by shard key and replicates dimension groups;
3. **fans out** — an executor (:mod:`repro.sharding.executors`) applies each
   shard's group list to that shard's private maintainer, serially in-process
   or on persistent worker processes;
4. **merges** — ``statistics()`` ring-sums the per-shard root payloads
   (:func:`repro.sharding.merge.merge_payloads`).

Soundness: the query is linear in the fact relation, the fact multiset is a
disjoint union over shards, and the dimension tables are identical
everywhere, so the join decomposes row-exactly by fact shard and the
covariance payload — a ring sum over join rows — decomposes with it.  Each
shard maintainer sees a perfectly ordinary (smaller) update stream, so every
existing invariant (netting, fused passes, journal replay) holds per shard
unchanged.

The facade also keeps a parent-side copy of the **base relations** (no view
tree), updated from the same netted groups once the shards have applied
them.  That is what lets :class:`~repro.serving.server.QueryServer` serve
ad-hoc queries and pin snapshots against a sharded maintainer exactly as it
does against an unsharded one.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.data.database import Database
from repro.data.tuplestore import StatsCounters
from repro.ivm.base import (
    Update,
    coerce_groups,
    largest_relation,
    net_update_stream,
    recompute_covariance,
)
from repro.ivm.fivm import FIVM
from repro.query.conjunctive import ConjunctiveQuery
from repro.rings.covariance import CovariancePayload, CovarianceRing
from repro.sharding.executors import ProcessPoolShardExecutor, SerialShardExecutor
from repro.sharding.merge import merge_payloads
from repro.sharding.router import ShardRouter

__all__ = ["ShardedMaintainer"]


class ShardedMaintainer:
    """Hash-sharded covariance maintenance behind the unsharded contract."""

    def __init__(
        self,
        schema_database: Database,
        query: ConjunctiveQuery,
        features: Sequence[str],
        shards: int = 2,
        shard_key: Optional[Sequence[str]] = None,
        fact_relation: Optional[str] = None,
        executor: str = "serial",
    ) -> None:
        """Build ``shards`` private maintainers plus the routing layer.

        ``fact_relation`` defaults to the largest relation of
        ``schema_database`` among the query's relations
        (:func:`~repro.ivm.base.largest_relation`, which also roots every
        shard's :class:`~repro.ivm.fivm.FIVM`).
        ``shard_key`` defaults to the fact relation's first *join* attribute
        — one it shares with another relation of the query — and may name
        any subset of the fact schema.  Each shard is a
        :class:`~repro.ivm.fivm.FIVM` built over the full ``schema_database``
        statistics, so all shards choose the same join-tree root.
        ``executor`` is ``"serial"`` or ``"processpool"``.
        """
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.query = query
        self.features = tuple(features)
        self.ring = CovarianceRing(len(self.features))
        self.fact_relation = self._resolve_fact(schema_database, query, fact_relation)
        fact_schema = schema_database.relation(self.fact_relation).schema
        key = self._resolve_key(schema_database, query, fact_schema, shard_key)
        self.shard_key = key
        self.router = ShardRouter(
            shards, self.fact_relation, key, fact_schema.indices_of(key)
        )
        #: The facade's own base-relation copy (initially empty, like every
        #: maintainer), current to every applied batch: the serving layer
        #: queries and snapshots against it.
        self.database = schema_database.empty_copy()
        maintainers = [
            FIVM(schema_database, query, features) for _shard in range(shards)
        ]
        # All shards share one topology; expose shard 0's tree for consumers
        # (QueryServer's reader engines) that ask where the root lives.
        self.join_tree = maintainers[0].join_tree
        if executor == "serial":
            self._executor = SerialShardExecutor(maintainers, self.fact_relation)
        elif executor == "processpool":
            self._executor = ProcessPoolShardExecutor(maintainers, self.fact_relation)
        else:
            raise ValueError(
                f"unknown executor {executor!r}; expected 'serial' or 'processpool'"
            )
        #: Facade-local counters, aggregated with per-shard stats by
        #: :attr:`executor_stats` (all increments through the
        #: :class:`StatsCounters` lock contract).
        self._local_stats = StatsCounters()
        # Same single-writer contract (and error) as the unsharded base.
        self._writer_gate = threading.RLock()

    # -- defaults ----------------------------------------------------------------------

    @staticmethod
    def _resolve_fact(
        schema_database: Database, query: ConjunctiveQuery, fact_relation: Optional[str]
    ) -> str:
        if fact_relation is not None:
            if fact_relation not in query.relation_names:
                raise ValueError(
                    f"fact relation {fact_relation!r} is not part of the query "
                    f"(relations: {sorted(query.relation_names)})"
                )
            return fact_relation
        return largest_relation(schema_database, query)

    def _resolve_key(
        self,
        schema_database: Database,
        query: ConjunctiveQuery,
        fact_schema,
        shard_key: Optional[Sequence[str]],
    ) -> Tuple[str, ...]:
        if shard_key is not None:
            key = (shard_key,) if isinstance(shard_key, str) else tuple(shard_key)
            missing = [name for name in key if name not in fact_schema.names]
            if missing:
                raise ValueError(
                    f"shard key attributes {missing} are not in the schema of "
                    f"fact relation {self.fact_relation!r} ({list(fact_schema.names)})"
                )
            return key
        others = [
            schema_database.relation(name).schema.names
            for name in query.relation_names
            if name != self.fact_relation
        ]
        for attribute in fact_schema.names:
            if any(attribute in names for names in others):
                return (attribute,)
        raise ValueError(
            f"fact relation {self.fact_relation!r} shares no attribute with the "
            "rest of the query; pass shard_key= explicitly"
        )

    # -- update contract ---------------------------------------------------------------

    def apply(self, update: Update) -> None:
        """Apply one signed tuple update (routed like a one-row batch)."""
        self.apply_batch([update])

    def apply_batch(self, updates: Iterable[Update]) -> int:
        """Net the batch once, route the groups, fan out, update the base copy."""
        batch = list(updates)
        groups = net_update_stream(self.database, batch)
        self._apply_routed(groups)
        return len(batch)

    def net_updates(
        self, updates: Iterable[Update]
    ) -> List[Tuple[str, List[Tuple], List[int]]]:
        """Same netting (and validation) as the unsharded maintainers."""
        return net_update_stream(self.database, updates)

    def apply_groups(
        self,
        groups: Iterable[Tuple[str, Sequence[Tuple], Sequence[int]]],
        validated: bool = False,
    ) -> int:
        """Apply already-netted groups (the journal replay / durable-write path)."""
        prepared = coerce_groups(self.database, groups, validated)
        self._apply_routed(prepared)
        return sum(len(rows) for _name, rows, _netted in prepared)

    def _apply_routed(
        self, groups: List[Tuple[str, Sequence[Tuple], Sequence[int]]]
    ) -> None:
        if not self._writer_gate.acquire(blocking=False):
            raise RuntimeError(
                "concurrent writers: ShardedMaintainer is single-writer; "
                "serialize updates through one thread (e.g. QueryServer.apply_batch)"
            )
        try:
            if not groups:
                return
            per_shard = self.router.route_groups(groups)
            self._executor.apply(per_shard)
            fact = self.fact_relation
            routed_fact = 0
            replicated = 0
            # Only after every shard applied: a raising shard leaves the base
            # copy as it was.
            for name, rows, netted in groups:
                self.database.relation(name).add_batch(rows, netted, validated=True)
                if name == fact:
                    routed_fact += len(rows)
                else:
                    replicated += len(rows)
            self._local_stats.bump("routed_batches")
            self._local_stats.bump("routed_fact_rows", routed_fact)
            self._local_stats.bump("replicated_dimension_rows", replicated)
        finally:
            self._writer_gate.release()

    # -- results -----------------------------------------------------------------------

    def statistics(self) -> CovariancePayload:
        """The global covariance payload: ring merge of per-shard roots."""
        merged = merge_payloads(self._executor.statistics(), self.ring)
        self._local_stats.bump("payload_merges")
        return merged

    def shard_statistics(self) -> List[CovariancePayload]:
        """The raw per-shard root payloads, in shard order (for tests/benches)."""
        return self._executor.statistics()

    def recompute_statistics(self) -> CovariancePayload:
        """Ground truth from the facade's own base-relation copy."""
        return recompute_covariance(self.query, self.database, self.features, self.ring)

    # -- observability -----------------------------------------------------------------

    @property
    def executor_stats(self) -> Dict[str, int]:
        """Per-shard maintainer counters summed, plus the facade's own.

        Kernel counters (``kernel_<name>_calls``/``_ns``) from every shard —
        worker processes included, their deltas ride back on each apply reply
        — are summed under the :class:`StatsCounters` lock contract instead
        of being dropped on the facade floor.
        """
        aggregated = StatsCounters()
        for stats in self._executor.executor_stats():
            for key, value in stats.items():
                aggregated.bump(key, value)
        for key, value in self._local_stats.items():
            aggregated.bump(key, value)
        return aggregated

    @property
    def shard_count(self) -> int:
        return self.router.shard_count

    @property
    def executor_mode(self) -> str:
        return self._executor.mode

    def sharding_stats(self) -> Dict[str, object]:
        """Placement and traffic counters for ``serving_stats()`` / benches."""
        rows = self._executor.fact_row_counts()
        total = sum(rows)
        mean = total / len(rows) if rows else 0.0
        return {
            "shard_count": self.shard_count,
            "executor": self._executor.mode,
            "fact_relation": self.fact_relation,
            "shard_key": list(self.shard_key),
            "fact_rows_per_shard": rows,
            "fact_rows_mean": mean,
            "fact_rows_max": max(rows) if rows else 0,
            "imbalance": (max(rows) / mean) if total else 1.0,
            "maintainer_ships": self._executor.maintainer_ships,
            "group_messages": self._executor.group_messages,
        }

    # -- lifecycle ---------------------------------------------------------------------

    def close(self) -> None:
        """Shut down worker processes (no-op for the serial executor)."""
        self._executor.close()

    def __enter__(self) -> "ShardedMaintainer":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __getstate__(self) -> Dict:
        """Checkpoint pickling (serial executor only — the pool raises)."""
        state = self.__dict__.copy()
        state.pop("_writer_gate", None)
        return state

    def __setstate__(self, state: Dict) -> None:
        self.__dict__.update(state)
        self._writer_gate = threading.RLock()
