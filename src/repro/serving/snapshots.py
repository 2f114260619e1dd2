"""Epoch-pinned snapshot generations over the maintained database.

The serving layer's consistency story is built on the TupleStore's
dense-snapshot contract (see :mod:`repro.data.tuplestore`): a relation's
:class:`~repro.data.colstore.ColumnStore` is its live rows in
first-insertion-since-last-death order — a function of the applied updates
alone — aliasing the store's arrays where it can.  For one caller the
relation's cache keeps such an alias valid; for *many concurrent readers
against one writer* the :class:`SnapshotManager` turns the contract into
refcounted **generations**:

- The writer, after each applied batch, calls :meth:`SnapshotManager.publish`:
  every relation's dense snapshot is captured into a read-only
  :class:`SnapshotDatabase` and each backing store is pinned
  (:meth:`repro.data.tuplestore.TupleStore.pin`).  Publishing never sweeps
  tombstones; reclaiming their space is the store's own amortised business.
  Nor does it gather the live slots of a store holding tombstones: the
  snapshot does that on its first read, so a generation retired unread cost
  its views and pins only.
- Readers call :meth:`~SnapshotManager.acquire`/:meth:`~SnapshotManager.release`
  around each read; acquire hands out the current generation and bumps its
  refcount — no reader ever mutates a store.
- While a generation is pinned, the writer's in-place multiplicity netting
  detaches the multiplicity buffer copy-on-write, and a sweep replaces the
  store's arrays instead of mutating them, so a pinned generation's arrays
  are immutable until its last reader releases it *and* it has been
  superseded — only then are the pins returned.

The manager itself is thread-safe (one lock around the generation table);
``publish`` must only ever be called from the single serialized writer path.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Iterator, List, Optional, Tuple

from repro.data.database import Database
from repro.data.relation import Relation
from repro.durability.faults import fault_point

__all__ = ["SnapshotRelation", "SnapshotDatabase", "Snapshot", "SnapshotManager"]


class SnapshotRelation:
    """A read-only relation façade over one pinned columnar snapshot.

    Exposes exactly the surface the engine's evaluation path consumes —
    ``schema``/``version``/``column_store()``/``items()`` — backed by the
    generation's pinned :class:`~repro.data.colstore.ColumnStore` instead of
    live storage.  Mutation is structurally impossible (there is no store
    reference here).  A relation unchanged across generations hands every
    one of them the same snapshot, so reads of any of them share what the
    engine derived from it (:attr:`~repro.data.colstore.ColumnStore.derived`).
    """

    __slots__ = ("name", "schema", "version", "_snapshot", "_live")

    def __init__(self, name: str, schema, snapshot, live: int) -> None:
        self.name = name
        self.schema = schema
        self.version = snapshot.version
        self._snapshot = snapshot
        self._live = live

    @property
    def arity(self) -> int:
        return len(self.schema)

    @property
    def attribute_names(self) -> Tuple[str, ...]:
        return self.schema.names

    def __len__(self) -> int:
        return self._live

    def column_store(self):
        return self._snapshot

    def items(self) -> Iterator[Tuple[Tuple, int]]:
        """The ``(row, multiplicity)`` pairs of the pinned (dense) snapshot.

        ``zip`` stops at the frozen multiplicity array — the shared row list
        may have grown past it under the writer's later appends.
        """
        snapshot = self._snapshot
        for row, multiplicity in zip(snapshot.rows, snapshot.multiplicities.tolist()):
            yield row, int(multiplicity)

    def __iter__(self) -> Iterator[Tuple]:
        for row, _multiplicity in self.items():
            yield row

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SnapshotRelation({self.name!r}, version={self.version}, "
            f"{self._live} tuples)"
        )


class SnapshotDatabase:
    """An immutable database façade over one generation's snapshot relations."""

    def __init__(self, name: str, relations: Dict[str, SnapshotRelation]) -> None:
        self.name = name
        self._relations = relations

    def relation(self, name: str) -> SnapshotRelation:
        try:
            return self._relations[name]
        except KeyError:
            raise KeyError(f"no relation {name!r} in snapshot database {self.name!r}")

    def __getitem__(self, name: str) -> SnapshotRelation:
        return self.relation(name)

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[SnapshotRelation]:
        return iter(self._relations.values())

    def __len__(self) -> int:
        return len(self._relations)

    @property
    def relation_names(self) -> Tuple[str, ...]:
        return tuple(self._relations)

    def relations(self) -> List[SnapshotRelation]:
        return list(self._relations.values())


class Snapshot:
    """One published generation: pinned stores + captured root statistics.

    ``prefix`` counts the writer batches contained in the generation — the
    differential concurrency suite replays exactly that prefix serially and
    demands bit-identical answers.  ``statistics`` is the maintainer's root
    payload at publish time (an independent copy; readers must treat it as
    read-only).  Refcounts are managed by the owning manager under its lock.
    """

    __slots__ = ("generation", "prefix", "created_at", "database", "statistics",
                 "keys", "_refs", "_pinned")

    def __init__(
        self,
        generation: int,
        prefix: int,
        database: SnapshotDatabase,
        statistics,
        keys: Dict[str, Tuple[int, int]],
        pinned: List[Relation],
    ) -> None:
        self.generation = generation
        self.prefix = prefix
        self.created_at = time.perf_counter()
        self.database = database
        self.statistics = statistics
        self.keys = keys
        self._refs = 0
        self._pinned = pinned

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Snapshot(generation={self.generation}, prefix={self.prefix})"


class SnapshotManager:
    """Refcounted epoch generations over one maintained :class:`Database`."""

    def __init__(self, database: Database, name: str = "serving") -> None:
        self._database = database
        self._name = name
        self._lock = threading.Lock()
        self._current: Optional[Snapshot] = None
        self._next_generation = 0
        self._published = 0
        self._retired = 0
        self._force_next_publish = False

    # -- the writer side ---------------------------------------------------------------

    def publish(self, statistics=None, prefix: int = 0) -> Snapshot:
        """Cut (or reuse) the generation for the database's current state.

        Writer-side only.  Every relation's dense snapshot is captured —
        identical, array for array, to what a serial replay of the same
        update prefix would expose, whenever either side last swept its
        tombstones.  When no relation changed since the current generation
        (a fully cancelling batch), the current generation is reused and
        only its prefix advances.
        """
        fault_point("snapshot.publish")
        with self._lock:
            database = self._database
            current = self._current
            keys = {relation.name: relation.storage_key for relation in database}
            if (
                current is not None
                and keys == current.keys
                and not self._force_next_publish
            ):
                current.prefix = prefix
                return current
            self._force_next_publish = False
            relations: Dict[str, SnapshotRelation] = {}
            pinned: List[Relation] = []
            for relation in database:
                snapshot_store = relation.column_store()
                relation.pin()
                pinned.append(relation)
                relations[relation.name] = SnapshotRelation(
                    relation.name, relation.schema, snapshot_store, live=len(relation)
                )
            snapshot = Snapshot(
                generation=self._next_generation,
                prefix=prefix,
                database=SnapshotDatabase(self._name, relations),
                statistics=statistics,
                keys=keys,
                pinned=pinned,
            )
            snapshot._refs = 1  # the manager's own hold on the current generation
            self._next_generation += 1
            self._published += 1
            self._current = snapshot
            if current is not None:
                self._release_locked(current)
            return snapshot

    def rebind(self, database: Database) -> None:
        """Swap the live database under the manager (quarantine rollback).

        Writer-side only.  After a poison batch the server replaces the
        whole maintainer with a state rebuilt from checkpoint + journal;
        the manager must then cut future generations from the replacement
        database.  The current generation keeps serving its pinned snapshot
        of the *old* relations — pinned arrays are immutable and the old
        relation objects stay alive through the snapshot's pin list — and
        the next publish is forced to cut a fresh generation even if the
        replacement's storage keys happen to collide with the current ones.
        """
        with self._lock:
            self._database = database
            self._force_next_publish = True

    # -- the reader side ---------------------------------------------------------------

    def acquire(self) -> Snapshot:
        """Pin the current generation for one read (pair with :meth:`release`)."""
        with self._lock:
            current = self._current
            if current is None:
                raise RuntimeError("no generation published yet")
            current._refs += 1
            return current

    def release(self, snapshot: Snapshot) -> None:
        with self._lock:
            self._release_locked(snapshot, from_reader=True)

    def _release_locked(self, snapshot: Snapshot, from_reader: bool = False) -> None:
        # The last reference of the current generation is the manager's own
        # hold — a reader trying to drop it has released more than it
        # acquired, and letting it through would retire a live generation.
        if snapshot._refs <= 1 and (from_reader and snapshot is self._current):
            raise RuntimeError("snapshot released more often than acquired")
        snapshot._refs -= 1
        if snapshot._refs < 0:
            raise RuntimeError("snapshot released more often than acquired")
        if snapshot._refs == 0 and snapshot is not self._current:
            # Last reader of a superseded generation: return the store pins
            # (unpin() only flips counters; no physical work on this thread).
            for relation in snapshot._pinned:
                relation.unpin()
            snapshot._pinned = []
            self._retired += 1

    # -- introspection -----------------------------------------------------------------

    def current(self) -> Optional[Snapshot]:
        """The current generation without pinning it (introspection only)."""
        with self._lock:
            return self._current

    @property
    def published_generations(self) -> int:
        with self._lock:
            return self._published

    @property
    def active_generations(self) -> int:
        """Generations whose pins are still held (current one included)."""
        with self._lock:
            return self._published - self._retired

    def close(self) -> None:
        """Drop the manager's hold on the current generation.

        Outstanding reader acquisitions stay valid; once they release, the
        last generation's pins are returned.
        """
        with self._lock:
            current, self._current = self._current, None
            if current is not None:
                self._release_locked(current)
