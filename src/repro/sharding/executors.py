"""Shard execution backends: in-process serial and persistent process pool.

Both executors own N per-shard maintainers and expose the same small surface
to :class:`~repro.sharding.maintainer.ShardedMaintainer`: apply routed group
lists, report per-shard root payloads / executor stats / fact row counts,
and close.  Two deliberate choices:

**Processes, not threads.**  CPython threads never overlap the pure-Python
parts of the propagation (a thread-pooled delta pass measured wall-clock
neutral, ``docs/archive/pre-harness.md``, and was removed).  Shard
parallelism therefore uses ``multiprocessing`` with the
``spawn`` start method — workers are clean interpreters (no forked locks or
thread state), at the cost of a one-time import+ship warm-up per worker.

**Ship the maintainer once, groups forever after.**  PR 9's
``__getstate__``/``__setstate__`` hooks make maintainers picklable; each
worker receives its shard maintainer exactly once at warm-up and holds it
resident.  Every batch thereafter ships only the *netted, routed delta
groups* down the pipe and gets the shard's root payload (a ``(1 + d + d²)``
float block), executor-stat counters, and fact row count back.  The
``maintainer_ships`` / ``group_messages`` counters make the "never re-ship"
claim testable.

Failure model is fail-stop: a worker raising mid-batch leaves the shard set
diverged, so the executor surfaces the error and the owner is expected to
rebuild (mirroring the serving layer's poison-batch quarantine).
"""

from __future__ import annotations

import multiprocessing
from typing import Dict, List, Optional, Sequence, Tuple

from repro.kernels import enable_kernel_stats, kernel_stats_enabled
from repro.rings.covariance import CovariancePayload

Groups = List[Tuple[str, Sequence[Tuple], Sequence[int]]]

__all__ = ["SerialShardExecutor", "ProcessPoolShardExecutor"]


class SerialShardExecutor:
    """Apply shard group lists one shard at a time, in this process.

    The correctness oracle for the process pool: same maintainers, same
    routed groups, same merge — bit-identical results.
    """

    mode = "serial"

    def __init__(self, maintainers: Sequence, fact_relation: str) -> None:
        self.maintainers = list(maintainers)
        self.fact_relation = fact_relation
        #: Contract counters mirrored by the process pool: the serial mode
        #: never ships anything, so ``maintainer_ships`` stays 0.
        self.maintainer_ships = 0
        self.group_messages = 0

    @property
    def shard_count(self) -> int:
        return len(self.maintainers)

    def apply(self, per_shard_groups: Sequence[Groups]) -> int:
        applied = 0
        for maintainer, groups in zip(self.maintainers, per_shard_groups):
            if not groups:
                continue
            self.group_messages += 1
            applied += maintainer.apply_groups(groups, validated=True)
        return applied

    def statistics(self) -> List[CovariancePayload]:
        return [maintainer.statistics() for maintainer in self.maintainers]

    def executor_stats(self) -> List[Dict[str, int]]:
        return [dict(maintainer.executor_stats) for maintainer in self.maintainers]

    def fact_row_counts(self) -> List[int]:
        return [
            len(maintainer.database.relation(self.fact_relation))
            for maintainer in self.maintainers
        ]

    def close(self) -> None:  # symmetry with the process pool
        pass


def _shard_worker(connection, stats_enabled: bool) -> None:
    """Worker loop: hold one shard maintainer resident, apply shipped groups.

    Runs in a spawned process.  The kernel-stats switch is process-global
    state, so the parent's setting is replayed before the maintainer
    arrives and the workers' counters ride back with every reply.
    """
    if stats_enabled:
        enable_kernel_stats()
    maintainer = None
    try:
        while True:
            try:
                message = connection.recv()
            except EOFError:
                break
            command = message[0]
            if command == "load":
                maintainer = message[1]
                connection.send(("ok", None))
            elif command == "apply":
                try:
                    applied = maintainer.apply_groups(message[1], validated=True)
                    connection.send(("ok", _shard_report(maintainer, applied, message[2])))
                except Exception as error:  # fail-stop: surface, don't guess
                    connection.send(("error", f"{type(error).__name__}: {error}"))
            elif command == "close":
                break
    finally:
        connection.close()


def _shard_report(maintainer, applied: int, fact_relation: str):
    return (
        applied,
        maintainer.statistics(),
        dict(maintainer.executor_stats),
        len(maintainer.database.relation(fact_relation)),
    )


class ProcessPoolShardExecutor:
    """Persistent worker processes, one resident shard maintainer each.

    Warm-up ships each maintainer to its worker exactly once; afterwards a
    batch is one ``("apply", groups)`` message per *touched* shard (untouched
    shards see no traffic at all), answered with the shard's root payload,
    stats and fact row count.  All sends go out before any reply is awaited,
    so on a multi-core host the shards genuinely overlap; on the single-core
    reference container the pool degrades to serial throughput plus pickling
    overhead — measured, not hidden, by the harness's ``ingest_sharded``
    workload (``docs/architecture.md#what-sharding-costs-on-one-core``).
    """

    mode = "processpool"

    def __init__(self, maintainers: Sequence, fact_relation: str) -> None:
        self.fact_relation = fact_relation
        self.maintainer_ships = 0
        self.group_messages = 0
        self._closed = False
        context = multiprocessing.get_context("spawn")
        stats_enabled = kernel_stats_enabled()
        self._workers: List[multiprocessing.Process] = []
        self._connections = []
        # Parent-side caches of each shard's last reported state; refreshed
        # from every apply reply, so reads never round-trip to a worker.
        self._payloads: List[CovariancePayload] = []
        self._stats: List[Dict[str, int]] = []
        self._fact_rows: List[int] = []
        try:
            for maintainer in maintainers:
                parent_end, child_end = context.Pipe()
                worker = context.Process(
                    target=_shard_worker,
                    args=(child_end, stats_enabled),
                    daemon=True,
                )
                worker.start()
                child_end.close()
                parent_end.send(("load", maintainer))
                status, _body = parent_end.recv()
                if status != "ok":
                    raise RuntimeError(f"shard worker failed to load: {_body}")
                self.maintainer_ships += 1
                self._workers.append(worker)
                self._connections.append(parent_end)
                self._payloads.append(maintainer.statistics())
                self._stats.append(dict(maintainer.executor_stats))
                self._fact_rows.append(
                    len(maintainer.database.relation(fact_relation))
                )
        except BaseException:
            self.close()
            raise

    @property
    def shard_count(self) -> int:
        return len(self._workers)

    def apply(self, per_shard_groups: Sequence[Groups]) -> int:
        if self._closed:
            raise RuntimeError("ProcessPoolShardExecutor is closed")
        pending: List[int] = []
        for shard, groups in enumerate(per_shard_groups):
            if not groups:
                continue
            self._connections[shard].send(("apply", groups, self.fact_relation))
            self.group_messages += 1
            pending.append(shard)
        applied = 0
        errors: List[str] = []
        for shard in pending:
            status, body = self._connections[shard].recv()
            if status != "ok":
                errors.append(f"shard {shard}: {body}")
                continue
            count, payload, stats, fact_rows = body
            applied += count
            self._payloads[shard] = payload
            self._stats[shard] = stats
            self._fact_rows[shard] = fact_rows
        if errors:
            raise RuntimeError(
                "sharded apply failed (shards diverged, rebuild the maintainer): "
                + "; ".join(errors)
            )
        return applied

    def statistics(self) -> List[CovariancePayload]:
        return list(self._payloads)

    def executor_stats(self) -> List[Dict[str, int]]:
        return [dict(stats) for stats in self._stats]

    def fact_row_counts(self) -> List[int]:
        return list(self._fact_rows)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for connection in self._connections:
            try:
                connection.send(("close",))
            except (OSError, ValueError):
                pass
        for connection in self._connections:
            try:
                connection.close()
            except OSError:
                pass
        for worker in self._workers:
            worker.join(timeout=5)
            if worker.is_alive():
                worker.terminate()
                worker.join(timeout=5)

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass

    def __getstate__(self):
        raise TypeError(
            "ProcessPoolShardExecutor holds live worker pipes and cannot be "
            "pickled; use executor='serial' for checkpointing/durability"
        )
