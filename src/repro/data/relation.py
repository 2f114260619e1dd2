"""Multiset relations: tuples mapped to integer multiplicities.

A :class:`Relation` is a thin façade over the array-native
:class:`~repro.data.tuplestore.TupleStore`: per-attribute dictionary-encoded
code arrays (a row is its codes), one signed multiplicity array, and a hash
index over the code rows.
Multiplicities live in the ring of integers, which gives the uniform
treatment of inserts (+1) and deletes (-1) described in Section 3.1 of the
paper — a natural join multiplies multiplicities while a union adds them,
and a multiplicity netting to zero deletes the tuple (its slot is reclaimed
by the store's amortised compaction, which no reader can observe).

The columnar view (:meth:`column_store`) is the store's dense snapshot — a
zero-copy alias of its arrays, or one gather of the live slots while
tombstones exist — never an encode; the tuple-at-a-time protocol
(``items``, ``expanded_rows`` & co.) survives for the naive engine, CSV
export and the benchmark harness, over row tuples decoded from the codes
on demand.
"""

from __future__ import annotations

import random
from operator import itemgetter
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.data.attribute import Attribute, AttributeType, Schema, SchemaError
from repro.data.tuplestore import TupleStore

Row = Tuple
RowValue = object


class RelationError(ValueError):
    """Raised on malformed relation operations."""


class Relation:
    """A named multiset relation over a :class:`Schema`.

    The relation maps each distinct tuple (a Python tuple aligned with the
    schema's attribute order) to a non-zero integer multiplicity, stored
    array-natively (see :mod:`repro.data.tuplestore`).
    """

    def __init__(
        self,
        name: str,
        schema: Schema,
        rows: Optional[Iterable[Sequence[RowValue]]] = None,
        multiplicities: Optional[Mapping[Row, int]] = None,
    ) -> None:
        self.name = name
        self.schema = schema
        self._store = TupleStore(schema)
        self._column_store = None
        self._column_store_key: Tuple[int, int] = (-1, -1)
        if multiplicities is not None:
            items = [(tuple(row), int(m)) for row, m in multiplicities.items()]
            self.add_batch([row for row, _m in items], [m for _r, m in items])
        if rows is not None:
            tuples = [tuple(row) for row in rows]
            self.add_batch(tuples, [1] * len(tuples))

    # -- basic protocol ---------------------------------------------------------

    @property
    def arity(self) -> int:
        return len(self.schema)

    @property
    def attribute_names(self) -> Tuple[str, ...]:
        return self.schema.names

    def __len__(self) -> int:
        """Number of distinct tuples (with non-zero multiplicity)."""
        return self._store.live

    def total_multiplicity(self) -> int:
        """Sum of multiplicities over all tuples."""
        return int(self._store.total)

    def __iter__(self) -> Iterator[Row]:
        return self._store.iter_rows()

    def __contains__(self, row: Sequence[RowValue]) -> bool:
        return tuple(row) in self._store

    def items(self) -> Iterator[Tuple[Row, int]]:
        return self._store.iter_items()

    def multiplicity(self, row: Sequence[RowValue]) -> int:
        return self._store.multiplicity(tuple(row))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self.schema.names == other.schema.names and dict(self.items()) == dict(
            other.items()
        )

    def __repr__(self) -> str:
        return f"Relation({self.name!r}, {self.schema}, {len(self)} tuples)"

    # -- mutation ---------------------------------------------------------------

    def add(self, row: Sequence[RowValue], multiplicity: int = 1) -> None:
        """Add ``multiplicity`` copies of ``row`` (negative values delete).

        A one-row :meth:`add_batch` (one version bump); a zero multiplicity
        changes nothing, not even the version.
        """
        if len(row) != self.arity:
            raise RelationError(
                f"row arity {len(row)} does not match schema arity {self.arity} "
                f"of relation {self.name!r}"
            )
        if multiplicity == 0:
            return
        self._store.add_batch([tuple(row)], [multiplicity])

    def remove(self, row: Sequence[RowValue], multiplicity: int = 1) -> None:
        """Remove ``multiplicity`` copies of ``row``."""
        self.add(row, -multiplicity)

    def add_batch(
        self,
        rows: Sequence[Row],
        multiplicities: Sequence[int],
        validated: bool = False,
    ) -> np.ndarray:
        """Apply one signed delta (rows + multiplicities) in a single pass.

        The one way rows enter the store: every row is arity-checked, the
        whole delta costs one version bump (downstream caches see a single
        mutation) and the rows it stores are encoded as they are stored.
        ``validated=True`` skips the arity pre-check and tuple coercion for
        callers that already pass checked tuple rows (the IVM batch path
        validates while netting).  Returns the rows' codes
        (:meth:`TupleStore.add_batch`).
        """
        arity = self.arity
        if not validated:
            # Validate (and coerce, exactly like ``add``) everything before
            # mutating anything: a mid-batch failure must not leave rows
            # applied under an unbumped version (every version-guarded cache
            # would then serve stale state as fresh).
            coerced = []
            for row in rows:
                if len(row) != arity:
                    raise RelationError(
                        f"row arity {len(row)} does not match schema arity {arity} "
                        f"of relation {self.name!r}"
                    )
                coerced.append(tuple(row))
            rows = coerced
        return self._store.add_batch(rows, multiplicities)

    def clear(self) -> None:
        self._store.clear()

    # -- columnar view -----------------------------------------------------------

    @property
    def version(self) -> int:
        """Mutation counter; bumped on every change to the stored tuples."""
        return self._store.version

    @property
    def store(self) -> TupleStore:
        """The :class:`TupleStore` holding the rows (F-IVM reads its key
        indexes; mutate through the relation, never the store)."""
        return self._store

    @property
    def storage_key(self) -> Tuple[int, int]:
        """The ``(version, epoch)`` pair guarding zero-copy snapshots."""
        store = self._store
        return (store.version, store.epoch)

    # -- snapshot pinning (the serving layer's epoch generations) ----------------

    def pin(self) -> None:
        """Pin the store's current arrays for an epoch-stable snapshot.

        See :meth:`repro.data.tuplestore.TupleStore.pin`; the serving
        layer's :class:`~repro.serving.SnapshotManager` pins every relation
        of a published generation and releases the pins when the generation
        retires.
        """
        self._store.pin()

    def unpin(self) -> None:
        """Release one snapshot pin (never runs physical work)."""
        self._store.unpin()

    def compact_storage(self) -> None:
        """Sweep the store's tombstones now (see :meth:`TupleStore.compact`).

        Never needed for correctness — the store reclaims space on its own,
        amortised over mutations, and no snapshot can tell whether a sweep
        ran; already-pinned generations keep reading their original buffers.
        """
        self._store.compact()

    def column_store(self):
        """The cached dictionary-encoded dense snapshot of this relation.

        The live rows in first-insertion-since-last-death order: a zero-copy
        alias of the tuple store's code, multiplicity and dictionary arrays
        while it holds no tombstone, one vectorised gather of the live slots
        on first read otherwise — never an encode and never a sweep.  Any
        later mutation bumps :attr:`version` and the next call snapshots
        again.  See :mod:`repro.data.colstore`.
        """
        from repro.data.colstore import ColumnStore

        store = self._store
        key = (store.version, store.epoch)
        cached = self._column_store
        if cached is not None and self._column_store_key == key:
            return cached
        snapshot = ColumnStore.from_tuplestore(self.name, self.schema, store)
        self._column_store = snapshot
        self._column_store_key = key
        return snapshot

    # -- checkpoint pickling -------------------------------------------------------

    def __getstate__(self) -> Dict:
        """Drop the zero-copy column-store cache: it aliases live buffers of
        this process and is rebuilt lazily (and cheaply) after a restore."""
        state = self.__dict__.copy()
        state["_column_store"] = None
        state["_column_store_key"] = (-1, -1)
        return state

    # -- derived views -----------------------------------------------------------

    def copy(self, name: Optional[str] = None) -> "Relation":
        clone = Relation(name or self.name, self.schema)
        clone._store = self._store.copy()
        return clone

    def empty_like(self, name: Optional[str] = None) -> "Relation":
        return Relation(name or self.name, self.schema)

    def rows(self) -> List[Row]:
        """All distinct rows (multiplicity ignored)."""
        return list(self._store.iter_rows())

    def _canonical_items(self) -> List[Tuple[Row, int]]:
        """Live ``(row, multiplicity)`` pairs in a deterministic order
        independent of mutation history.

        Sorted by the row values themselves (falling back to a repr key for
        rows that are not mutually comparable), so equivalence tests and
        samplers see the same order however the multiset was built.
        """
        items = list(self._store.iter_items())
        try:
            items.sort(key=itemgetter(0))
        except TypeError:
            items.sort(key=lambda item: tuple(repr(value) for value in item[0]))
        return items

    def expanded_rows(self) -> Iterator[Row]:
        """Iterate rows with positive multiplicity, repeated per multiplicity.

        The order is canonical (sorted by row value), independent of the
        insertion/deletion history that produced the multiset.
        """
        for row, multiplicity in self._canonical_items():
            if multiplicity < 0:
                raise RelationError(
                    "cannot expand a relation with negative multiplicities"
                )
            for _ in range(multiplicity):
                yield row

    def column(self, name: str) -> List[RowValue]:
        """Distinct-row values of one attribute (multiplicity ignored)."""
        index = self.schema.index_of(name)
        return [row[index] for row in self._store.iter_rows()]

    def active_domain(self, name: str) -> List[RowValue]:
        """Sorted distinct values of one attribute."""
        index = self.schema.index_of(name)
        return sorted({row[index] for row in self._store.iter_rows()})

    def sample_rows(self, count: int, seed: int = 0) -> List[Row]:
        """Sample ``count`` distinct rows without replacement.

        Deterministic in ``seed`` *and* independent of insertion history: the
        population is the canonical (value-sorted) row order.
        """
        rng = random.Random(seed)
        rows = [row for row, _multiplicity in self._canonical_items()]
        if count >= len(rows):
            return rows
        return rng.sample(rows, count)

    # -- pretty printing -----------------------------------------------------------

    def to_table(self, limit: int = 10) -> str:
        """ASCII rendering of (up to ``limit``) rows, for examples and docs."""
        header = " | ".join(self.schema.names)
        separator = "-" * len(header)
        lines = [header, separator]
        for position, (row, multiplicity) in enumerate(self.items()):
            if position >= limit:
                lines.append(f"... ({len(self) - limit} more rows)")
                break
            rendered = " | ".join(str(value) for value in row)
            if multiplicity != 1:
                rendered += f"  (x{multiplicity})"
            lines.append(rendered)
        return "\n".join(lines)


def relation_from_rows(
    name: str,
    attribute_names: Sequence[str],
    rows: Iterable[Sequence[RowValue]],
    categorical: Optional[Iterable[str]] = None,
) -> Relation:
    """Convenience: build a relation from attribute names and row sequences."""
    schema = Schema.from_names(list(attribute_names), categorical)
    return Relation(name, schema, rows=rows)
