"""The many-readers/one-writer query server over epoch-pinned snapshots.

:class:`QueryServer` wires the three serving pieces together:

- a :class:`~repro.serving.snapshots.SnapshotManager` over the maintainer's
  database, republished after every applied writer batch;
- a thread pool of readers, each read building an
  :class:`~repro.engine.lmfao.LMFAOEngine` over its pinned generation (the
  engine caches nothing; what it derives from a relation snapshot lives on
  that snapshot, shared by every read of it, and every read computes every
  view of its plan);
- a single serialized ``apply_batch`` writer path feeding the wrapped
  :class:`~repro.ivm.base.CovarianceMaintainer`.

Reads are wait-free with respect to the writer: a read pins whatever
generation is current and never blocks on the writer lock; the writer never
waits for readers (superseded generations are retired by their last reader).
Every read reports the exact update ``prefix`` its generation contains, which
is what the differential concurrency suite replays serially for the
bit-identity check.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from repro import kernels
from repro.aggregates.batch import AggregateBatch
from repro.durability.checkpoint import CheckpointStore
from repro.durability.faults import fault_point
from repro.durability.journal import BatchJournal
from repro.durability.recovery import DurabilityOptions, recover as durability_recover
from repro.engine.lmfao import LMFAOEngine
from repro.ivm.base import CovarianceMaintainer, Update
from repro.serving.metrics import ServingStats
from repro.serving.snapshots import SnapshotManager

__all__ = ["ReadResult", "PoisonBatchError", "QueryServer"]


class PoisonBatchError(RuntimeError):
    """A batch was quarantined: validation or propagation raised.

    With durability enabled the maintainer was rolled back to its pre-batch
    state (checkpoint + journal replay, the journal record voided by an
    abort record); without it the batch failed validation before touching
    anything.  Either way the server stays writable and the published
    snapshot stream is intact.  ``seq`` is the voided journal sequence
    number (-1 when the batch never reached the journal) and ``cause`` the
    original exception.
    """

    def __init__(self, seq: int, cause: BaseException) -> None:
        super().__init__(f"batch quarantined (journal seq {seq}): {cause!r}")
        self.seq = seq
        self.cause = cause


@dataclass
class ReadResult:
    """One served read, tagged with the snapshot it was answered from."""

    kind: str                   # "query" | "statistics"
    generation: int             # snapshot generation id
    prefix: int                 # writer batches contained in the snapshot
    value: object               # aggregate values dict, or a CovariancePayload
    latency_s: float
    snapshot_age_s: float       # age of the pinned generation at acquisition


class QueryServer:
    """Serve aggregate reads against pinned snapshots while batches land.

    ``readers`` bounds the reader pool.  Each read builds an engine over its
    pinned generation that forces the maintainer's join-tree root (identical
    plans for identical batches, the precondition for bitwise-stable
    answers) and evaluates single-threaded inside its pool thread.  It
    computes every view of the read from the pinned generation — it never
    serves or patches one from an earlier read, which is what keeps a read
    bit-identical to a serial replay of its prefix.

    ``maintainer`` is anything speaking the maintainer contract —
    ``database`` / ``join_tree`` / ``query`` / ``apply_batch`` /
    ``net_updates`` / ``apply_groups`` / ``statistics`` — which includes
    :class:`repro.sharding.ShardedMaintainer`: the server snapshots and
    queries the facade's base-relation copy while the shards do the view
    maintenance, and ``serving_stats()`` grows a ``sharding`` block
    (shard count, per-shard fact rows, imbalance, ship/message counters).
    Durability composes with the *serial* sharded executor only — the
    process pool's live worker pipes cannot be checkpointed.
    """

    def __init__(
        self,
        maintainer: CovarianceMaintainer,
        readers: int = 4,
        durability: Optional[DurabilityOptions] = None,
        _start_prefix: int = 0,
    ) -> None:
        self.maintainer = maintainer
        self.manager = SnapshotManager(maintainer.database)
        self.stats = ServingStats()
        self.durability = durability
        self._journal: Optional[BatchJournal] = None
        self._checkpoints: Optional[CheckpointStore] = None
        self._batches_since_checkpoint = 0
        self._prefix = _start_prefix
        if durability is not None:
            self._journal = BatchJournal(durability.journal_path, sync=durability.sync)
            self._checkpoints = CheckpointStore(
                durability.checkpoint_directory, keep=durability.keep_checkpoints
            )
            # The seed checkpoint: every recovery has a base state to replay
            # the journal tail into, even before the first periodic one.
            self._write_checkpoint()
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, readers), thread_name_prefix="serving-reader"
        )
        self._writer_lock = threading.Lock()
        self._closed = False
        # Publish the initial generation so reads never race the first write.
        self.manager.publish(self.maintainer.statistics(), prefix=self._prefix)

    # -- durable construction ----------------------------------------------------------

    @classmethod
    def recover(
        cls,
        durability: DurabilityOptions,
        maintainer_factory=None,
        readers: int = 4,
    ) -> "QueryServer":
        """Rebuild a server from a durability directory after a crash.

        Loads the newest valid checkpoint, replays the journal tail through
        the maintainer's grouped apply path (see
        :func:`repro.durability.recovery.recover`), and serves the recovered
        state — bit-identical to the committed prefix the sync policy
        preserved.  ``maintainer_factory`` builds the empty maintainer only
        when no checkpoint exists (a durable server always seeds one, so
        this covers journals created outside a server).
        """
        result = durability_recover(durability, maintainer_factory)
        return cls(
            result.maintainer,
            readers=readers,
            durability=durability,
            _start_prefix=result.prefix,
        )

    # -- the writer path ---------------------------------------------------------------

    def apply_batch(self, updates: Iterable[Update]) -> int:
        """Apply one update batch, journal-first, and publish the generation.

        The single writer path: concurrent callers serialize on the writer
        lock (and the maintainer's own writer gate would reject any path
        that bypassed it).  Readers keep serving the previous generation
        until the publish completes.

        With durability enabled the batch is netted and validated up front,
        journaled *before* propagation (write-ahead), and applied through
        the same grouped path recovery replays.  A batch whose validation
        or propagation raises is quarantined — rolled back, voided in the
        journal, counted in ``serving_stats()["quarantined_batches"]`` —
        and surfaces as :class:`PoisonBatchError`; the server stays
        writable and the snapshot stream intact either way.
        """
        updates = list(updates)
        start = time.perf_counter()
        with self._writer_lock:
            # Checked under the lock: close() takes it too, so a batch either
            # publishes before the manager closes or never starts.
            if self._closed:
                raise RuntimeError("QueryServer is closed")
            if self._journal is None:
                try:
                    self.maintainer.apply_batch(updates)
                except Exception as error:
                    # apply_batch validates before mutating, so the state is
                    # intact; nothing is republished and the writer gate was
                    # released in the maintainer's finally.
                    self.stats.record_quarantine()
                    raise PoisonBatchError(-1, error) from error
            else:
                try:
                    groups = self.maintainer.net_updates(updates)
                except Exception as error:
                    self.stats.record_quarantine()
                    raise PoisonBatchError(-1, error) from error
                journal_start = time.perf_counter()
                size_before = self._journal.size_bytes()
                seq = self._journal.append(groups)
                self.stats.record_journal_append(
                    time.perf_counter() - journal_start,
                    self._journal.size_bytes() - size_before,
                )
                try:
                    # The groups came from this maintainer's own net_updates,
                    # so the normalization pass can be skipped.
                    self.maintainer.apply_groups(groups, validated=True)
                except Exception as error:
                    self._quarantine(seq, error)
            self._prefix += 1
            self.manager.publish(self.maintainer.statistics(), prefix=self._prefix)
            self._maybe_checkpoint()
        self.stats.record_write(time.perf_counter() - start, len(updates))
        return len(updates)

    def _quarantine(self, seq: int, error: BaseException) -> None:
        """Roll a poison batch back and void its journal record.

        Propagation may have raised mid-pass, leaving the maintainer's views
        partially mutated — and float propagation has no exact inverse — so
        the rollback rebuilds the whole maintainer from the latest checkpoint
        plus the journal tail (the poison record is aborted first and skipped
        by replay).  Published generations keep serving their pinned arrays
        of the old relation objects; the snapshot manager is rebound so the
        next publish cuts from the recovered database.
        """
        assert self._journal is not None and self.durability is not None
        self._journal.abort(seq)
        result = durability_recover(self.durability, journal=self._journal)
        self.maintainer = result.maintainer
        self.manager.rebind(self.maintainer.database)
        self.stats.record_quarantine()
        raise PoisonBatchError(seq, error) from error

    def _maybe_checkpoint(self) -> None:
        if self._checkpoints is None or self.durability is None:
            return
        # Every committed batch counts, periodic checkpoints or not: the lag
        # is the replay debt a crash at this instant would incur.
        self._batches_since_checkpoint += 1
        interval = self.durability.checkpoint_interval
        if interval <= 0 or self._batches_since_checkpoint < interval:
            return
        self._write_checkpoint()
        self.stats.record_checkpoint(
            self._checkpoints.last_write_seconds, self._checkpoints.last_size_bytes
        )

    def _write_checkpoint(self) -> None:
        assert self._checkpoints is not None and self._journal is not None
        self._checkpoints.write(self.maintainer, self._journal.last_seq, self._prefix)
        self._batches_since_checkpoint = 0

    @property
    def prefix(self) -> int:
        """Writer batches applied and published so far."""
        with self._writer_lock:
            return self._prefix

    # -- the reader paths --------------------------------------------------------------

    def submit_query(self, batch: AggregateBatch) -> "Future[ReadResult]":
        if self._closed:
            raise RuntimeError("QueryServer is closed")
        return self._pool.submit(self._read_query, batch)

    def query(self, batch: AggregateBatch) -> ReadResult:
        """Evaluate an aggregate batch against the current pinned snapshot."""
        return self.submit_query(batch).result()

    def submit_statistics(self) -> "Future[ReadResult]":
        if self._closed:
            raise RuntimeError("QueryServer is closed")
        return self._pool.submit(self._read_statistics)

    def statistics(self) -> ReadResult:
        """The maintained covariance payload at the current pinned snapshot."""
        return self.submit_statistics().result()

    def _read_query(self, batch: AggregateBatch) -> ReadResult:
        start = time.perf_counter()
        snapshot = self.manager.acquire()
        # Stamped after the pin: a generation published between `start` and
        # the acquire would otherwise be younger than the read (negative age).
        age = time.perf_counter() - snapshot.created_at
        prefix = snapshot.prefix
        try:
            # Any raise below — engine evaluation, the injected reader
            # fault — must still release the pinned generation, or a
            # superseded generation's arrays leak forever.
            try:
                fault_point("reader.query")
                engine = LMFAOEngine(
                    snapshot.database,
                    self.maintainer.query,
                    root_relation=self.maintainer.join_tree.root.relation_name,
                )
                value: Dict[str, object] = dict(engine.evaluate(batch).values)
            except BaseException:
                self.stats.record_read_error()
                raise
        finally:
            self.manager.release(snapshot)
        latency = time.perf_counter() - start
        self.stats.record_read(snapshot.generation, latency, age)
        return ReadResult("query", snapshot.generation, prefix, value, latency, age)

    def _read_statistics(self) -> ReadResult:
        start = time.perf_counter()
        snapshot = self.manager.acquire()
        # Stamped after the pin, as in `_read_query`.
        age = time.perf_counter() - snapshot.created_at
        prefix = snapshot.prefix
        try:
            try:
                fault_point("reader.query")
                payload = snapshot.statistics
                value = payload.copy() if payload is not None else None
            except BaseException:
                self.stats.record_read_error()
                raise
        finally:
            self.manager.release(snapshot)
        latency = time.perf_counter() - start
        self.stats.record_read(snapshot.generation, latency, age)
        return ReadResult("statistics", snapshot.generation, prefix, value, latency, age)

    # -- introspection / lifecycle -----------------------------------------------------

    def serving_stats(self) -> Dict[str, object]:
        """The ``serving_stats`` metrics block (see :mod:`repro.serving.metrics`)."""
        block = self.stats.snapshot(active_generations=self.manager.active_generations)
        current = self.manager.current()
        if current is not None:
            block["current_generation"] = current.generation
            block["current_prefix"] = current.prefix
            block["current_snapshot_age_s"] = time.perf_counter() - current.created_at
        block["kernel_backend"] = kernels.current_backend()
        sharding_stats = getattr(self.maintainer, "sharding_stats", None)
        if sharding_stats is not None:
            block["sharding"] = sharding_stats()
        block["durability_enabled"] = self._journal is not None
        if self._journal is not None:
            block["journal_sync"] = self._journal.sync
            block["journal_last_seq"] = self._journal.last_seq
            block["journal_size_bytes"] = self._journal.size_bytes()
            block["checkpoint_lag_batches"] = self._batches_since_checkpoint
        if kernels.kernel_stats_enabled():
            # Process-global counters (see repro.kernels).
            block["kernel_stats"] = {
                name: counters
                for name, counters in kernels.kernel_stats().items()
                if counters["calls"]
            }
        return block

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._pool.shutdown(wait=True)
        # Under the writer lock: a batch in flight publishes its generation
        # first, and the manager's hold on that one is dropped here.
        with self._writer_lock:
            self.manager.close()
            if self._journal is not None:
                # A clean shutdown checkpoints the final state so the next
                # recovery replays nothing (with no batch since the last write
                # there is nothing to fold); crashes skip this path by
                # definition and fall back to the last periodic (or seed)
                # checkpoint.
                if self._batches_since_checkpoint:
                    self._write_checkpoint()
                self._journal.close()

    def __enter__(self) -> "QueryServer":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
