"""The array-native multiset tuple store behind :class:`~repro.data.relation.Relation`.

Until PR 5 the system of record was a Python ``dict[tuple, int]``: every
mutation paid per-row dictionary upkeep and every columnar snapshot paid a
full re-encode of all rows.  The :class:`TupleStore` inverts that hierarchy —
the *columnar* form is the storage, and a row *is* its codes: the store keeps
no row tuple, and F-IVM's delta propagation reads it through key indexes.

- one **dictionary-encoded code array** per attribute (``values`` in
  first-occurrence order plus an ``int64`` code per row), grown in place at
  the write: :meth:`TupleStore.add_batch` encodes exactly the rows it stores
  (one C-level lookup pass over the batch, then, in a column holding unseen
  values, one C-level pass numbering them —
  :meth:`_ColumnCodes.extend_values`, the only encode path), so neither a
  snapshot nor a copy ever encodes anything, and hands the rows' codes back
  (F-IVM reads their key codes off them);
- one **float64 multiplicity array** aligned with the rows (signed —
  multiplicities live in the ring of integers, exactly representable in
  float64 far beyond any realistic count);
- a **row index** over the *live* slots, driving multiset *netting*: a
  dict from each live row's key — the bytes of its codes, cut out of one
  array by one C-level pass (:func:`_row_keys`) — to its slot.  Codes are
  exact under Python equality (``1``, ``1.0`` and ``True`` share a code, two
  NaN objects do not), so two rows are equal exactly when their keys are.
  An update of a stored row adjusts its multiplicity in place; a
  multiplicity reaching zero leaves a **tombstone** and drops the row from
  the index at that moment, so a tombstone is never revived and a re-insert
  always appends a new slot.  The index holds one ``bytes`` key and one int
  slot per live row, no tuple; it is built from the codes on a store's
  first probe and kept up to date by every append after that.

Rows enter a store one way, :meth:`TupleStore.add_batch` — a one-row
``Relation.add`` included; only :meth:`~TupleStore.copy` and a checkpoint
load build a store otherwise, and they rebuild one whole from codes.

Tuple consumers — the relational algebra, the naive engine,
``Relation.items()`` — decode on demand (:func:`decode_rows`: one dictionary
take per column, then one ``zip``); everything vectorised reads the code and
multiplicity arrays directly.  Decoding is exact: per column, the slots whose
value a code does not reproduce (``1.0`` or ``True`` under the code of
``1``, ``-0.0`` under that of ``0.0``) are recorded as exceptions when they
are encoded.

The dense-snapshot contract
---------------------------
The **dense snapshot** of a store is its live rows in slot order, which —
because dead slots are never revived — is *the live rows in
first-insertion-since-last-death order*: a pure function of the applied
deltas, never of when tombstones were swept.  So are its encodings: a
column's dictionary lists the values in first-occurrence order over the rows
ever stored (under Python equality — the first occurrence also decides
whether ``1`` or ``1.0`` is kept; a row netting to zero inside one delta is
never stored and leaves no value behind), hence ``values`` *and* ``codes``
are a function of the history, independent of how it was cut into batches.
:meth:`~repro.data.colstore.ColumnStore.from_tuplestore` builds it without
encoding anything: a zero-copy alias of the store's arrays while no
tombstone exists, otherwise one vectorised gather of the live slots, run on
the snapshot's first read.  Either snapshot is only valid while the owning
relation's version is unchanged (a later mutation may net a multiplicity *in
place*) or while the store is pinned for it; every consumer guards on the
version.

:meth:`~TupleStore.compact` is amortised space reclamation and never
observable: it runs from the mutation path once tombstones make up a quarter
of the stored rows (and number at least :data:`COMPACT_MIN_ZEROS`), drops
them preserving slot order, and bumps the epoch.  Pickling persists the
dense encodings (codes, dictionaries, exceptions) for the same reason — a
checkpoint's bytes do not depend on when the last sweep happened.

A :meth:`~TupleStore.copy` is the store a fresh one fed the live rows would
be, built from arrays: code arrays, dictionaries and row index copied as
they are while no row ever died; otherwise the live slots are gathered and
each dictionary compacted to the values they still use, renumbered in
first-occurrence order (:meth:`_ColumnCodes.compacted`).

Key indexes
-----------
:meth:`TupleStore.add_index` indexes the store by a tuple of attributes; the
F-IVM maintainer registers one per join key its propagation reads (a node's
connection key and each child's).  An index gives every slot a *key code*
and every code the slots that carry it:

- a single attribute's key codes *are* that column's dictionary codes — no
  second dictionary;
- a combination of attributes numbers the combinations of its columns'
  codes in order of first occurrence over every slot ever stored, so the
  numbering is a function of the history, and a checkpoint carries it (the
  only index state a file holds).  The slots stored since the index was
  last read are numbered, in slot order, by its next read, sweep or pickle
  (:meth:`_KeyIndex.catch_up`), which gives the same numbering whenever it
  runs;
- the buckets are derived: the slots grouped by code, built by one stable
  sort and then extended by merging in the slots appended since, once they
  outnumber an eighth of the bucketed ones (:data:`INDEX_TAIL_MIN` at
  least); until then a lookup scans them.  A sweep and a load drop the
  buckets, and the next lookup rebuilds them.

Codes are never reused, and a lookup returns *live* slots only (multiplicity
!= 0), in slot order per key: a delete nets in place, and a store with
tombstones and its swept or restored twin hand the same slots, in the same
order, to the same arithmetic.  :meth:`TupleStore.floats_at` reads a
feature column through the dictionary's float decoding (each entry decoded
once) with the exceptions put back, so a stored ``-0.0`` reads ``-0.0``.

Snapshot pinning
----------------
The serving layer (:mod:`repro.serving`) hands snapshots to concurrent
reader threads while a single writer keeps mutating the store.
:meth:`~TupleStore.pin` marks the *current* physical arrays as referenced by
such a snapshot generation; while any pin is held, in-place multiplicity
netting into a pinned slot first detaches the multiplicity buffer
copy-on-write (the pinned view keeps the old buffer, which is never written
again).  Nothing else needs protection: appends write at slots at or beyond
every pinned view's length (a buffer reallocation leaves the old buffer
untouched, and a dictionary or exception table only gains entries), and a
sweep *replaces* the code and multiplicity arrays rather than mutating them.

The module-level :data:`tuplestore_stats` counters make the storage claims
testable: ``zero_copy_snapshots`` counts dense-snapshot handoffs,
``compactions`` counts tombstone sweeps.
"""

from __future__ import annotations

import math
import sys
import threading
from collections import deque
from itertools import chain, compress, filterfalse, repeat
from operator import countOf, is_not, itemgetter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.kernels import get_kernels

#: The kernel-dispatch singleton: `enable_kernel_stats` rebinds its
#: attributes in place, so a module-level binding still sees the toggle
#: while the hot loops skip one function call per kernel invocation.
_KERNELS = get_kernels()

__all__ = ["TupleStore", "decode_rows", "net_rows", "transpose", "tuplestore_stats",
           "reset_tuplestore_stats"]


def transpose(rows: Sequence[Sequence], arity: int) -> List[List[object]]:
    """The columns of ``rows`` (each of ``arity`` values), one list per position.

    One C-level ``itemgetter`` pass per column.  Zipping the unpacked rows
    would build one iterator per row and hand the collector an argument
    tuple as long as the rows, which every young-generation collection it
    triggers traverses, so its cost grows faster than the row count.
    """
    return [list(map(itemgetter(position), rows)) for position in range(arity)]


class StatsCounters(dict):
    """A counter mapping whose increments are lock-protected.

    Plain ``stats[key] += 1`` is a read-modify-write of three bytecodes and
    loses increments when several threads race it (serving readers all bump
    ``zero_copy_snapshots`` through their snapshot reads).
    Mutating call sites go through :meth:`bump`; reads stay plain dict
    lookups — under the GIL a lookup is atomic, and a reader observing a
    counter one bump early is fine.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._lock = threading.Lock()

    def bump(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self[key] = self.get(key, 0) + amount

    def reset(self) -> None:
        with self._lock:
            for key in self:
                self[key] = 0

    def __reduce__(self):
        # The lock is process-local; pickle the counter values and rebuild
        # (checkpointing a maintainer that embeds counters relies on this).
        return (type(self), (dict(self),))


#: Global storage-behaviour counters (see the module docstring).
tuplestore_stats: StatsCounters = StatsCounters({
    "zero_copy_snapshots": 0,  # ColumnStore.from_tuplestore handoffs
    "compactions": 0,       # tombstone sweeps
    "batch_appends": 0,     # vectorised add_batch calls
    "mult_copy_on_write": 0,    # multiplicity buffers detached to protect a pin
})


def reset_tuplestore_stats() -> None:
    """Zero all counters (tests isolate their assertions this way)."""
    tuplestore_stats.reset()


#: Compaction triggers once this many tombstones accumulate (and they make up
#: at least a quarter of the stored rows) — see :meth:`TupleStore._maybe_compact`.
COMPACT_MIN_ZEROS = 64


class _GrowArray:
    """An amortised-doubling numpy array (bulk extend + zero-copy view).

    Its pickled state is the occupied prefix only — the doubling slack is
    capacity, not content — and a restored array owns its memory.
    """

    __slots__ = ("data", "size")

    def __init__(self, dtype, capacity: int = 16) -> None:
        self.data = np.empty(max(int(capacity), 1), dtype=dtype)
        self.size = 0

    def _reserve(self, extra: int) -> None:
        needed = self.size + extra
        capacity = self.data.shape[0]
        if needed <= capacity:
            return
        while capacity < needed:
            capacity *= 2
        grown = np.empty(capacity, dtype=self.data.dtype)
        grown[: self.size] = self.data[: self.size]
        self.data = grown

    def extend(self, values) -> None:
        values = np.asarray(values, dtype=self.data.dtype)
        end = self.size + values.shape[0]
        if end > self.data.shape[0]:
            self._reserve(values.shape[0])
        self.data[self.size : end] = values
        self.size = end

    def view(self) -> np.ndarray:
        return self.data[: self.size]

    def __getstate__(self) -> Dict:
        # State is the occupied prefix, handed out as a view: the pickler
        # copies it once (in-band) or not at all (protocol 5, out-of-band).
        return {"data": self.data[: self.size], "size": self.size}

    def __setstate__(self, state: Dict) -> None:
        # Copy into memory this array owns: the unpickled buffer may be a
        # window of a checkpoint file's read buffer.  The dtype is the
        # canonical instance of its scalar type, not the unpickled copy, so
        # re-pickling shares it like the live arrays do (same bytes).
        stored = state["data"]
        self.size = state["size"]
        self.data = np.empty(max(self.size, 1), dtype=stored.dtype.type)
        self.data[: self.size] = stored[: self.size]


def _exact(value, entry) -> bool:
    """Whether decoding ``value``'s code (its dictionary ``entry``) gives
    ``value`` back: same type and, for a float zero, the same sign bit."""
    if value is entry:
        return True
    if type(value) is not type(entry):
        return False
    return not (isinstance(value, float) and value == 0.0) or (
        math.copysign(1.0, value) == math.copysign(1.0, entry)
    )


def _remap_exceptions(exceptions: Dict[int, object], slots: np.ndarray) -> Dict[int, object]:
    """The exceptions of a store cut down to ``slots``, keyed by position
    in ``slots`` (ascending, so the dict order stays a function of history)."""
    if not exceptions:
        return {}
    old = np.fromiter(exceptions, dtype=np.int64, count=len(exceptions))
    hits = np.nonzero(np.isin(slots, old))[0]
    return {
        new: exceptions[slot]
        for new, slot in zip(hits.tolist(), slots[hits].tolist())
    }


def _decode(
    values: List[object], codes: np.ndarray, exceptions: Dict[int, object],
    slots: Optional[np.ndarray],
) -> List[object]:
    """The stored values of ``slots`` of one column (every slot of ``codes``
    when None): one take through the dictionary, then the exceptions put back."""
    if slots is not None:
        codes = codes[slots]
    decoded = list(map(values.__getitem__, codes.tolist()))
    if exceptions:
        # One C-level copy first: a writer appending rows may add entries
        # meanwhile (at slots past these codes, which the copy may hold).
        exceptions = exceptions.copy()
        if slots is not None:
            exceptions = _remap_exceptions(exceptions, slots)
        for slot, value in exceptions.items():
            if slot < len(decoded):
                decoded[slot] = value
    return decoded


def decode_rows(
    columns: Sequence[Tuple[List[object], np.ndarray, Dict[int, object]]],
    slots: Optional[np.ndarray],
    count: int,
) -> List[Tuple]:
    """The rows at ``slots`` (all ``count`` rows of the code arrays when
    None) of the columns ``(values, codes, exceptions)``, decoded exactly:
    one dictionary take per column, then one ``zip`` into tuples."""
    if not columns:
        return [()] * count
    return list(zip(*(
        _decode(values, codes, exceptions, slots) for values, codes, exceptions in columns
    )))


class _ColumnCodes:
    """One attribute's dictionary encoding, grown in place on every insert.

    ``values`` lists the distinct values in first-occurrence order, ``index``
    inverts it, and ``codes`` carries one ``int64`` dictionary code per stored
    row.  The dictionary only ever grows (values of tombstoned rows linger as
    unused entries — harmless: consumers treat the cardinality as an upper
    bound and derive exact distinct counts from the codes); a copy of a store
    that lost rows drops them (:meth:`compacted`).

    Python equality folds ``1``, ``1.0`` and ``True`` into one code, and
    ``-0.0`` into ``0.0``, so a code does not always decode to the value that
    was stored.  ``exceptions`` maps every slot whose value is not identical
    in type and sign bit to its dictionary entry to that value; with it the
    codes decode to the stored values exactly (:func:`decode_rows`).
    ``kinds`` holds the types encoded so far: while it is a single type, a
    chunk needs no per-value check unless it holds a float zero.
    """

    __slots__ = ("values", "index", "codes", "exceptions", "kinds", "floats")

    def __init__(self) -> None:
        self.values: List[object] = []
        self.index: Dict[object, int] = {}
        self.codes = _GrowArray(np.int64)
        self.exceptions: Dict[int, object] = {}
        self.kinds: set = set()
        # The dictionary decoded to float64, entry for entry, grown on demand
        # by floats_at (derived: never pickled, shared by a sweep).
        self.floats = _GrowArray(np.float64)

    def floats_at(self, slots: np.ndarray) -> np.ndarray:
        """The stored values of ``slots`` as float64: the dictionary's floats
        (each entry decoded once; ``float`` raises on a non-numeric one)
        gathered by code, with the exceptions' own values put back (a stored
        ``-0.0`` under the entry ``0.0`` reads ``-0.0``)."""
        if self.floats.size < len(self.values):
            fresh = self.values[self.floats.size :]
            self.floats.extend(np.fromiter(map(float, fresh), dtype=np.float64, count=len(fresh)))
        floats = self.floats.view()[self.codes.view()[slots]]
        exceptions = self.exceptions
        if exceptions:
            inexact = np.fromiter(exceptions, dtype=np.int64, count=len(exceptions))
            for position in np.flatnonzero(np.isin(slots, inexact)).tolist():
                floats[position] = float(exceptions[int(slots[position])])
        return floats

    def __getstate__(self) -> Dict:
        # The inverse index and the type set are derivable; rebuilding the
        # index on load halves the dictionary bytes a checkpoint carries.
        return {"values": self.values, "codes": self.codes,
                "exceptions": self.exceptions}

    def __setstate__(self, state: Dict) -> None:
        self.values = state["values"]
        self.codes = state["codes"]
        self.exceptions = state["exceptions"]
        self.floats = _GrowArray(np.float64)
        self._index_values()

    def _index_values(self) -> None:
        """Derive the inverse index and the type set from the dictionary."""
        self.index = dict(zip(self.values, range(len(self.values))))
        self.kinds = set(map(type, self.values))
        self.kinds.update(map(type, self.exceptions.values()))

    def extend_values(
        self, raw: Sequence[object], codes: np.ndarray, unseen: Optional[np.ndarray]
    ) -> None:
        """Append the codes of ``raw`` — the one encode path.

        ``codes`` is what :func:`_probe` found for ``raw`` (-1 for a value
        the dictionary lacks) and ``unseen`` flags those -1s (None when there
        are none).  Only the unseen values are assigned codes, written into
        ``codes``: one C-level pass keeps the first occurrence of each (under
        Python equality, as the row index compares rows), those join the
        dictionary in that order, and their codes are read back.  So a
        value's code is the position of its first occurrence in the column's
        history, and dictionary and codes do not depend on how the history
        was cut into batches.
        """
        if unseen is not None:
            fresh = list(compress(raw, unseen.tolist()))
            added = list(dict.fromkeys(fresh))
            base = len(self.values)
            self.index.update(zip(added, range(base, base + len(added))))
            self.values.extend(added)
            codes[unseen] = np.fromiter(
                map(self.index.__getitem__, fresh), dtype=np.int64, count=len(fresh)
            )
        self._record_exceptions(raw, codes)
        self.codes.extend(codes)

    def _record_exceptions(self, raw: Sequence[object], codes: np.ndarray) -> None:
        """Note the values of ``raw`` (about to be appended with ``codes``)
        that their dictionary entries do not reproduce exactly.

        One C-level type pass per chunk (a count while the column has only
        ever held one type).  Only a column of several types can hold a value
        whose type differs from its entry's; in a column of one float type
        with a zero entry, a chunk holding a zero (one C-level membership
        test) may hold one of the other sign, and the codes locate the zeros.
        Values are compared one by one only where those flag something.
        """
        kinds = self.kinds
        if len(kinds) != 1 or countOf(map(type, raw), next(iter(kinds))) != len(raw):
            kinds.update(map(type, raw))
        values = self.values
        if len(kinds) == 1:
            # One type: only a float zero of the other sign can differ.
            if not issubclass(next(iter(kinds)), float) or 0.0 not in raw:
                return
            zero = self.index.get(0.0)
            if zero is None:
                return
            suspects = np.flatnonzero(codes == zero).tolist()
        else:
            zero = self.index.get(0.0)
            entry_types = map(type, map(values.__getitem__, codes.tolist()))
            flagged = set(compress(range(len(raw)), map(is_not, map(type, raw), entry_types)))
            if zero is not None:
                flagged.update(np.flatnonzero(codes == zero).tolist())
            suspects = sorted(flagged)
        base = self.codes.size
        for position in suspects:
            value = raw[position]
            if not _exact(value, values[codes[position]]):
                self.exceptions[base + position] = value

    def copy(self) -> "_ColumnCodes":
        """An independent encoding of the same slots: dictionary, codes and
        exceptions copied as they are (the float decoding starts afresh)."""
        clone = _ColumnCodes()
        clone.values = self.values[:]
        clone.index = self.index.copy()
        clone.codes.extend(self.codes.view())
        clone.exceptions = self.exceptions.copy()
        clone.kinds = set(self.kinds)
        return clone

    def compacted(self, slots: np.ndarray) -> "_ColumnCodes":
        """The encoding of exactly ``slots`` (ascending) that appending their
        stored values to a fresh column would build: the dictionary cut down
        to the codes in use, renumbered in order of first occurrence.

        An entry is the value stored at its code's first slot.  Where that
        slot holds an exception, its value becomes the entry, and the code's
        other slots are checked against it one by one — the only per-row
        work, and only where an entry's first holder was swept.
        """
        codes = self.codes.view()[slots]
        exceptions = _remap_exceptions(self.exceptions, slots)
        used, first = np.unique(codes, return_index=True)
        order = np.argsort(first)
        used, first = used[order], first[order]
        renumber = np.empty(len(self.values), dtype=np.int64)  # read at used codes only
        renumber[used] = np.arange(used.size, dtype=np.int64)
        codes = renumber[codes]
        values = list(map(self.values.__getitem__, used.tolist()))
        if exceptions:
            held = np.fromiter(exceptions, dtype=np.int64, count=len(exceptions))
            for code in np.flatnonzero(np.isin(first, held)).tolist():
                stale, entry = values[code], exceptions[int(first[code])]
                values[code] = entry
                for slot in np.flatnonzero(codes == code).tolist():
                    value = exceptions.pop(slot, stale)
                    if not _exact(value, entry):
                        exceptions[slot] = value
            exceptions = dict(sorted(exceptions.items()))
        clone = _ColumnCodes()
        clone.values = values
        clone.codes = _GrowArray(np.int64, capacity=max(codes.size, 1))
        clone.codes.extend(codes)
        clone.exceptions = exceptions
        clone._index_values()
        return clone


#: A key index scans at most this many slots past its bucket arrays per
#: lookup (or an eighth of the slots they cover) before merging them in.
INDEX_TAIL_MIN = 1024

#: Bits per column code in a joined combination (dictionaries stay far below).
_CODE_BITS = 32


def _joined(parts: List[np.ndarray], count: int) -> List[int]:
    """One int per row joining its per-column codes, ``_CODE_BITS`` bits
    each: exact, hashed as an int, and negative where any code is -1."""
    if not parts:
        return [0] * count
    joined = ((parts[0] << _CODE_BITS) | parts[1]).tolist()
    for part in parts[2:]:          # past two columns, Python ints stay exact
        joined = list(map(int.__or__, map(int.__lshift__, joined, repeat(_CODE_BITS)),
                          part.tolist()))
    return joined


def _split(joined: int, arity: int) -> List[int]:
    """The per-column codes :func:`_joined` joined."""
    mask = (1 << _CODE_BITS) - 1
    return [(joined >> (_CODE_BITS * (arity - 1 - column))) & mask for column in range(arity)]


class _KeyIndex:
    """One secondary index of a :class:`TupleStore`: a key code per slot and
    the slots of each code (see "Key indexes" in the module docstring).

    ``positions`` are the key's column positions.  A single-column key's
    codes are that column's codes, so it holds no codes of its own.  Any
    other key numbers the combinations of its columns' codes in order of
    first occurrence over the stored slots: ``parts`` holds, per column,
    each combination's column code in code order (the numbering, which is
    history and what a pickle carries), ``combos`` maps a combination (its
    column codes joined into one int, :func:`_joined`) to its code, ``keys``
    lists the decoded key tuples in code order and ``codes`` holds one code
    per slot numbered so far (:meth:`catch_up` numbers the rest).

    The buckets are derived: ``order`` lists the slots below ``built``
    grouped by code, ascending within a code, and ``starts`` cuts it per
    code.  Slots from ``built`` on are scanned by a lookup until there are
    enough of them to merge.
    """

    __slots__ = ("positions", "parts", "combos", "keys", "codes", "order", "starts",
                 "built")

    def __init__(self, positions: Tuple[int, ...]) -> None:
        self.positions = positions
        composite = len(positions) != 1
        self.parts = [_GrowArray(np.uint32) for _ in positions] if composite else []
        self.combos: Optional[Dict[int, int]] = {} if composite else None
        self.keys: List[Tuple] = []
        self.codes = _GrowArray(np.int64) if composite else None
        self.drop_buckets()

    def drop_buckets(self) -> None:
        self.order = np.empty(0, dtype=np.int64)
        self.starts = np.zeros(1, dtype=np.int64)
        self.built = 0

    def code_columns(
        self, columns: List[_ColumnCodes], codes: Sequence[np.ndarray], count: int
    ) -> None:
        """Number the combinations of the ``count`` slots appended next,
        given by their ``codes`` in every column of the store."""
        if self.combos is None or not count:
            return
        probes = _joined([codes[position] for position in self.positions], count)
        combos = self.combos
        try:
            codes = np.fromiter(
                map(combos.__getitem__, probes), dtype=np.int64, count=len(probes)
            )
        except KeyError:
            # Unseen combinations are numbered in order of first occurrence,
            # then every code is read.
            fresh = list(dict.fromkeys(filterfalse(combos.__contains__, probes)))
            combos.update(zip(fresh, range(len(self.keys), len(self.keys) + len(fresh))))
            split = [_split(joined, len(self.positions)) for joined in fresh]
            for part, column in zip(self.parts, transpose(split, len(self.positions))):
                part.extend(column)
            self._add_keys(columns, split)
            codes = np.fromiter(
                map(combos.__getitem__, probes), dtype=np.int64, count=len(probes)
            )
        self.codes.extend(codes)

    def catch_up(self, columns: List[_ColumnCodes], count: int) -> None:
        """Number the combinations of the slots stored since the last call
        (a read, a sweep or a pickle calls it first): the same numbering,
        in slot order, whenever it runs."""
        if self.codes is not None and self.codes.size < count:
            start = self.codes.size
            self.code_columns(
                columns, [column.codes.view()[start:count] for column in columns], count - start
            )

    def _add_keys(self, columns: List[_ColumnCodes], combinations: Iterable[Sequence[int]]) -> None:
        self.keys.extend(
            tuple(columns[position].values[part] for position, part in zip(self.positions, combo))
            for combo in combinations
        )

    def slot_codes(self, columns: List[_ColumnCodes]) -> np.ndarray:
        if self.codes is None:
            return columns[self.positions[0]].codes.view()
        return self.codes.view()

    def size(self, columns: List[_ColumnCodes]) -> int:
        if self.combos is None:
            return len(columns[self.positions[0]].values)
        return len(self.keys)

    def decode(self, columns: List[_ColumnCodes], codes: Iterable[int]) -> List[Tuple]:
        if self.combos is None:
            values = columns[self.positions[0]].values
            return [(values[code],) for code in codes]
        return list(map(self.keys.__getitem__, codes))

    def probe(
        self, columns: List[_ColumnCodes], values: Sequence[Sequence], count: int
    ) -> np.ndarray:
        """The code of each of ``count`` keys given column-wise (``values[i]``
        holds the ``i``-th attribute of every key); -1 where no row has it."""
        return self._coded([
            np.fromiter(map(columns[position].index.get, column, repeat(-1)),
                        dtype=np.int64, count=count)
            for position, column in zip(self.positions, values)
        ], count)

    def encode(self, codes: np.ndarray) -> np.ndarray:
        """The key code of each row given by its codes in every column (one
        array row per column, as :meth:`TupleStore.add_batch` returns them)."""
        return self._coded([codes[position] for position in self.positions], codes.shape[1])

    def _coded(self, parts: List[np.ndarray], count: int) -> np.ndarray:
        """The key codes of ``count`` keys given by their column codes."""
        if self.combos is None:
            return parts[0]
        # An unknown value (-1) joins into a combination no slot has.
        return np.fromiter(
            map(self.combos.get, _joined(parts, count), repeat(-1)),
            dtype=np.int64, count=count,
        )

    def _merge(self, codes: np.ndarray, space: int) -> None:
        """Fold the slots from ``built`` on into the buckets: one stable sort
        of those slots' codes and one scatter of the old order."""
        built, old = self.built, self.order
        tail = codes[built:]
        tail_order = np.argsort(tail, kind="stable")
        tail_counts = np.bincount(tail, minlength=space)
        old_counts = np.zeros(space, dtype=np.int64)
        old_counts[: self.starts.size - 1] = np.diff(self.starts)
        order = np.empty(codes.size, dtype=np.int64)
        # A kept slot moves up by the new slots of smaller codes; a new one
        # lands after every kept slot of its own code and below.
        shift = np.cumsum(tail_counts) - tail_counts
        order[np.arange(built) + shift[codes[old]]] = old
        through = np.cumsum(old_counts)
        order[np.arange(tail.size) + through[tail[tail_order]]] = tail_order + built
        starts = np.zeros(space + 1, dtype=np.int64)
        np.cumsum(old_counts + tail_counts, out=starts[1:])
        self.order, self.starts, self.built = order, starts, codes.size

    def lookup(
        self, columns: List[_ColumnCodes], mults: np.ndarray, requested: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(items, slots)``: the live slots whose code is ``requested[i]``
        (distinct codes, -1 for none), each paired with its ``i``, ordered by
        ``i`` and then by slot."""
        codes = self.slot_codes(columns)
        space = self.size(columns)
        if codes.size - self.built > max(INDEX_TAIL_MIN, self.built >> 3):
            self._merge(codes, space)
        items = np.flatnonzero(requested >= 0)
        wanted = requested[items]
        bucketed = self.starts.size - 1
        low = self.starts[np.minimum(wanted, bucketed)]
        lengths = self.starts[np.minimum(wanted + 1, bucketed)] - low
        total = int(lengths.sum())
        into = np.repeat(low - (np.cumsum(lengths) - lengths), lengths)
        slots = self.order[into + np.arange(total, dtype=np.int64)]
        items_of = np.repeat(items, lengths)
        if codes.size > self.built:
            table = np.full(space, -1, dtype=np.int64)
            table[wanted] = items
            matched = table[codes[self.built :]]
            hits = np.flatnonzero(matched >= 0)
            if hits.size:
                items_of = np.concatenate([items_of, matched[hits]])
                slots = np.concatenate([slots, hits + self.built])
                ordered = np.argsort(items_of, kind="stable")
                items_of, slots = items_of[ordered], slots[ordered]
        live = mults[slots] != 0.0
        if not live.all():
            items_of, slots = items_of[live], slots[live]
        return items_of, slots

    def gather(self, slots: np.ndarray) -> None:
        """Keep exactly ``slots`` (a sweep): codes gathered, buckets dropped."""
        if self.codes is not None:
            kept = _GrowArray(np.int64, capacity=max(slots.size, 1))
            kept.extend(self.codes.view()[slots])
            self.codes = kept
        self.drop_buckets()

    def __getstate__(self) -> Dict:
        # The numbering of combinations is history; the rest is derived.
        return {"positions": self.positions, "parts": self.parts}

    def __setstate__(self, state: Dict) -> None:
        self.__init__(state["positions"])
        self.parts = parts = state["parts"]
        if parts:
            count = parts[0].size
            joined = _joined([part.view().astype(np.int64) for part in parts], count)
            self.combos = dict(zip(joined, range(count)))

    def rebuild(self, columns: List[_ColumnCodes]) -> None:
        """After a load: the key tuples of the restored numbering (the slots'
        codes follow on the first read)."""
        if self.combos is not None:
            self._add_keys(columns, zip(*(part.view().tolist() for part in self.parts)))


def net_rows(
    rows: Sequence[Tuple], multiplicities: Sequence[int]
) -> Tuple[List[Tuple], List[int]]:
    """Net a delta per row: repeated rows add up at their first position and
    rows netting to zero are dropped — the general branch behind the
    distinct-rows fast paths of netting and :meth:`TupleStore.add_batch`."""
    netted: Dict[Tuple, int] = {}
    for row, multiplicity in zip(rows, multiplicities):
        netted[row] = netted.get(row, 0) + multiplicity
    return (
        [row for row, multiplicity in netted.items() if multiplicity],
        [multiplicity for multiplicity in netted.values() if multiplicity],
    )


#: Rows keyed per step of a row index build (:meth:`TupleStore._content`).
_INSERT_CHUNK = 8192


def _probe(
    columns: List[_ColumnCodes], values: List[List[object]], count: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(codes, unseen)`` of ``count`` rows given column-wise: each value's
    code in its column's dictionary (-1 where it has none; nothing is added)
    and where that -1 is, both ``(columns, count)``.  One C-level pass over
    the whole batch."""
    codes = np.fromiter(
        chain.from_iterable(
            map(column.index.get, column_values, repeat(-1))
            for column, column_values in zip(columns, values)
        ),
        dtype=np.int64, count=len(columns) * count,
    ).reshape(len(columns), count)
    return codes, codes < 0


def _row_keys(codes: np.ndarray) -> List[bytes]:
    """The row index's key of each code row of ``codes`` (one array row per
    column, one array column per row): the bytes of its codes — exact, so
    two keys are equal exactly when the rows are.  One transposing copy and
    one C-level split into ``bytes``."""
    if not len(codes):
        return [b""] * codes.shape[1]
    rows = np.ascontiguousarray(codes.T)
    return rows.view(np.dtype((np.void, rows.itemsize * len(codes)))).ravel().tolist()


class TupleStore:
    """Array-native multiset storage for one relation (see module docstring)."""

    __slots__ = ("schema", "_mults", "_columns", "_code_rows", "_indexes", "_positions", "live",
                 "zeros", "total", "version", "epoch", "pins", "_pin_floor", "_cow_pending",
                 "_lost")

    def __init__(self, schema) -> None:
        self.schema = schema
        self._mults = _GrowArray(np.float64)
        self._columns: List[_ColumnCodes] = [_ColumnCodes() for _ in schema.names]
        # Built from the codes on a store's first probe (see _content): a
        # store only ever appended to, a load or a sweep has none yet.
        self._code_rows: Optional[Dict[bytes, int]] = None
        # Key indexes by column positions (see "Key indexes"), and the
        # positions of each attribute tuple asked for so far.
        self._indexes: Dict[Tuple[int, ...], _KeyIndex] = {}
        self._positions: Dict[Tuple[str, ...], Tuple[int, ...]] = {}
        self.live = 0              # distinct rows with non-zero multiplicity
        self.zeros = 0              # tombstones awaiting compaction
        self.total = 0.0            # running sum of multiplicities
        self.version = 0            # logical mutation counter
        self.epoch = 0              # physical layout counter (bumped by compact)
        # Snapshot pinning (see the module docstring): how many snapshot
        # generations reference this store's buffers, whether the *current*
        # multiplicity buffer is among the referenced ones (netting below
        # the pin floor must then detach it copy-on-write).
        self.pins = 0
        self._pin_floor = 0
        self._cow_pending = False
        # Whether the dictionaries may hold values no live row uses (a row
        # died, or the store was loaded): a copy then compacts them.
        self._lost = False

    # -- basic reads -------------------------------------------------------------------

    @property
    def row_count(self) -> int:
        """Stored rows including tombstones (the code/multiplicity array length)."""
        return self._mults.size

    def _codes(self) -> List[np.ndarray]:
        return [column.codes.view() for column in self._columns]

    def _content(self) -> Optional[Dict[bytes, int]]:
        """The row index — each live row's key (:func:`_row_keys`) to its
        slot — built from the codes on the first probe of a store with live
        rows (None while it holds none) and kept up to date by every append
        from then on.  Slots die only after a probe found them, and the
        index is only dropped while every slot is live (a sweep, a load), so
        it is built over live slots only, :data:`_INSERT_CHUNK` at a time."""
        index = self._code_rows
        if index is None and self.live:
            index = self._code_rows = {}
            codes = self._codes()
            for low in range(0, self.row_count, _INSERT_CHUNK):
                high = min(low + _INSERT_CHUNK, self.row_count)
                chunk = np.empty((len(codes), high - low), dtype=np.int64)
                for row, column in zip(chunk, codes):
                    row[:] = column[low:high]
                index.update(zip(_row_keys(chunk), range(low, high)))
        return index

    def _find(self, probed: np.ndarray, unseen: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(positions, slots)``: which of the code rows ``probed`` (one
        array row per column, see :func:`_probe`) are live, and their slots.
        Rows holding an unseen value (``unseen``) are new without a lookup;
        the others cost one C-level dict pass over their keys (a batch whose
        every row is new needs no index)."""
        fresh = unseen.any(axis=0)
        new = int(np.count_nonzero(fresh))
        index = None if new == fresh.size else self._content()
        if index is None:
            none = np.empty(0, dtype=np.int64)
            return none, none
        positions = None
        if new:
            positions = (~fresh).nonzero()[0]
            probed = probed[:, positions]
        slots = np.fromiter(
            map(index.get, _row_keys(probed), repeat(-1)), dtype=np.int64, count=probed.shape[1]
        )
        found = (slots >= 0).nonzero()[0]
        return found if positions is None else positions[found], slots[found]

    def _slot_of(self, row: Sequence) -> int:
        """The live slot holding ``row``, -1 for none (its values probed
        against the dictionaries, then the row index)."""
        if len(row) != len(self._columns):
            return -1
        _positions, slots = self._find(
            *_probe(self._columns, [[value] for value in row], 1)
        )
        return int(slots[0]) if slots.size else -1

    def multiplicity(self, row: Tuple) -> int:
        slot = self._slot_of(row)
        return 0 if slot < 0 else int(self._mults.data[slot])

    def __contains__(self, row: Tuple) -> bool:
        return self._slot_of(row) >= 0

    def rows_at(self, slots: Optional[np.ndarray] = None) -> List[Tuple]:
        """The stored rows at ``slots`` (every slot, tombstones included,
        when None), decoded from the codes."""
        return decode_rows(
            self.encoded_columns(), slots, self.row_count if slots is None else len(slots)
        )

    def iter_rows(self) -> Iterator[Tuple]:
        """Live rows (non-zero multiplicity), in storage order."""
        return iter(self.rows_at(self.live_slots() if self.zeros else None))

    def iter_items(self) -> Iterator[Tuple[Tuple, int]]:
        """Live ``(row, multiplicity)`` pairs, in storage order."""
        slots = self.live_slots() if self.zeros else None
        mults = self._mults.view() if slots is None else self._mults.view()[slots]
        return zip(self.rows_at(slots), map(int, mults.tolist()))

    # -- zero-copy accessors (consumed by ColumnStore.from_tuplestore) ------------------

    def multiplicities_view(self) -> np.ndarray:
        return self._mults.view()

    def live_slots(self) -> np.ndarray:
        """The slots of the dense snapshot: non-zero multiplicity, in order."""
        return _KERNELS.compact_keep(self._mults.view())

    def encoded_columns(self) -> List[Tuple[List[object], np.ndarray, Dict[int, object]]]:
        """Per column: its dictionary, a view of its codes (one per slot)
        and its exceptions — what a snapshot captures and a decode reads."""
        return [(column.values, column.codes.view(), column.exceptions)
                for column in self._columns]

    # -- snapshot pinning (consumed by repro.serving.SnapshotManager) -------------------

    def pin(self) -> None:
        """Mark the current physical arrays as referenced by a pinned snapshot.

        Writer-side only (call under whatever serializes mutations).  While
        pins are held, netting into a slot below the pin floor detaches the
        multiplicity buffer copy-on-write, so every array a pinned
        :class:`~repro.data.colstore.ColumnStore` aliases stays bit-identical
        to its pin-time content.
        """
        self.pins += 1
        self._cow_pending = True
        self._pin_floor = self._mults.size

    def unpin(self) -> None:
        """Release one pin (flips counters only, so safe from a reader
        thread holding the manager's lock)."""
        if self.pins <= 0:
            raise RuntimeError("TupleStore.unpin without a matching pin")
        self.pins -= 1
        if self.pins == 0:
            self._cow_pending = False
            self._pin_floor = 0

    def _detach_mults(self) -> None:
        """Copy-on-write detach of the multiplicity buffer.

        Every pinned snapshot keeps (and continues to read) the old buffer,
        which is never written again; netting proceeds on the fresh copy.
        """
        current = self._mults
        detached = _GrowArray(np.float64, capacity=max(current.data.shape[0], 1))
        detached.extend(current.view())
        self._mults = detached
        self._cow_pending = False
        self._pin_floor = 0
        tuplestore_stats.bump("mult_copy_on_write")

    # -- key indexes (consumed by repro.ivm.fivm) ---------------------------------------

    def add_index(self, attributes: Sequence[str]) -> None:
        """Index the store by ``attributes`` (a no-op when already indexed).

        Registered on an empty store, a combination's numbering is its order
        of first occurrence over every row ever stored.
        """
        positions = tuple(map(self.schema.index_of, attributes))
        if positions not in self._indexes:
            self._indexes[positions] = _KeyIndex(positions)

    def _index(self, attributes: Sequence[str]) -> _KeyIndex:
        names = tuple(attributes)
        positions = self._positions.get(names)
        if positions is None:
            positions = self._positions[names] = tuple(map(self.schema.index_of, names))
        index = self._indexes[positions]
        index.catch_up(self._columns, self.row_count)
        return index

    def index_codes(self, attributes: Sequence[str]) -> np.ndarray:
        """The key code of every slot, tombstones included."""
        return self._index(attributes).slot_codes(self._columns)

    def index_size(self, attributes: Sequence[str]) -> int:
        """How many key codes exist: codes are ``0..size-1``, never reused."""
        return self._index(attributes).size(self._columns)

    def index_keys(self, attributes: Sequence[str], codes: Iterable[int]) -> List[Tuple]:
        """The key tuple of each code."""
        return self._index(attributes).decode(self._columns, codes)

    def index_probe(
        self, attributes: Sequence[str], values: Sequence[Sequence], count: int
    ) -> np.ndarray:
        """The code of each of ``count`` keys, given as one value sequence per
        attribute; -1 for a key no stored row ever had."""
        return self._index(attributes).probe(self._columns, values, count)

    def index_encode(self, attributes: Sequence[str], codes: np.ndarray) -> np.ndarray:
        """The key code of each row given by its column codes, as
        :meth:`add_batch` returns them; -1 for a key no stored row ever had."""
        return self._index(attributes).encode(codes)

    def index_lookup(
        self, attributes: Sequence[str], codes: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(items, slots)``: every live slot whose code is ``codes[i]``,
        paired with its ``i``; ordered by ``i``, then by slot.  Codes of -1
        match nothing."""
        return self._index(attributes).lookup(self._columns, self._mults.view(), codes)

    def floats_at(self, attribute: str, slots: np.ndarray) -> np.ndarray:
        """The stored values of one attribute at ``slots``, as float64 (each
        dictionary entry decoded once; exceptions keep their own value)."""
        return self._columns[self.schema.index_of(attribute)].floats_at(slots)

    # -- mutation ----------------------------------------------------------------------

    def add_batch(self, rows: Sequence[Tuple], multiplicities: Sequence[int]) -> np.ndarray:
        """Apply one signed delta in a single pass (one version bump).

        The rows' values are looked up in the dictionaries (one C-level pass
        over the batch, nothing added) and their code rows in the row index.
        Rows it does not hold are appended and encoded — no per-row loop
        when they are distinct, the shape the IVM batch path hands over
        after netting.  Rows netting into existing slots go through the
        ``net_deltas`` kernel — one vectorised pass with the zero-crossing
        live/tombstone/total bookkeeping folded in.

        Returns the rows' codes, one array row per column and one array
        column per row, in the order given: what :meth:`index_encode` turns
        into key codes without looking a value up again.  A row the delta
        does not store (zero multiplicity, or netting to zero inside it)
        holds -1 where its column lacks its value.
        """
        self.version += 1
        given = len(rows)
        kept = None
        if 0 in multiplicities:
            kept = [position for position, m in enumerate(multiplicities) if m != 0]
            rows = [rows[position] for position in kept]
            multiplicities = [multiplicities[position] for position in kept]
        count = len(rows)
        columns = transpose(rows, len(self._columns))
        probed, unseen = _probe(self._columns, columns, count)
        if count:
            self._apply(rows, multiplicities, columns, probed, unseen)
        if kept is None:
            return probed
        codes = np.full((len(self._columns), given), -1, dtype=np.int64)
        codes[:, kept] = probed
        return codes

    def _apply(
        self,
        rows: Sequence[Tuple],
        multiplicities: Sequence[int],
        columns: List[List[object]],
        probed: np.ndarray,
        unseen: np.ndarray,
    ) -> None:
        """The body of :meth:`add_batch` for rows of non-zero multiplicity,
        given their values column-wise and their dictionary lookups (see
        :func:`_probe`); the codes of the rows it appends are written into
        ``probed``."""
        count = len(rows)
        netted, slots_array = self._find(probed, unseen)
        appended = 0
        if not netted.size:
            appended = self._append_rows(rows, multiplicities, columns, probed, unseen)
        elif netted.size < count:
            fresh = np.ones(count, dtype=bool)
            fresh[netted] = False
            new = fresh.nonzero()[0]
            positions = new.tolist()
            codes = probed[:, new]
            appended = self._append_rows(
                list(map(rows.__getitem__, positions)),
                list(map(multiplicities.__getitem__, positions)),
                [list(map(values.__getitem__, positions)) for values in columns],
                codes,
                unseen[:, new],
            )
            probed[:, new] = codes
        if netted.size:
            deltas = np.asarray(multiplicities, dtype=np.float64)[netted]
            if self._cow_pending and int(slots_array.min()) < self._pin_floor:
                # A netted slot is visible to a pinned snapshot; writing it
                # in place would tear that snapshot's multiplicities.
                self._detach_mults()
            mults = self._mults.data
            live_delta, zeros_delta, total_delta = _KERNELS.net_deltas(
                mults, slots_array, deltas
            )
            self.live += live_delta
            self.zeros += zeros_delta
            self.total += total_delta
            if zeros_delta:
                # Every netted slot was live (the index holds live rows
                # only), so a zero here is a slot that died just now; it
                # leaves the index and is never revived.
                died = netted[mults[slots_array] == 0.0]
                deque(map(self._code_rows.pop, _row_keys(probed[:, died]), repeat(None)), maxlen=0)
                self._lost = True
        if appended == count:
            tuplestore_stats.bump("batch_appends")
        self._maybe_compact()

    def clear(self) -> None:
        """Drop every row (one version bump, a new physical layout)."""
        self.version += 1
        self.epoch += 1
        self._mults = _GrowArray(np.float64)
        self._columns = [_ColumnCodes() for _ in self.schema.names]
        self._code_rows = None
        self._indexes = {positions: _KeyIndex(positions) for positions in self._indexes}
        self.live = 0
        self.zeros = 0
        self.total = 0.0
        self._lost = False
        # All buffers were replaced: pinned snapshots keep the old (now
        # immutable) ones, and nothing references the fresh arrays yet.
        self._cow_pending = False
        self._pin_floor = 0

    def _append_rows(
        self,
        rows: Sequence[Tuple],
        multiplicities: Sequence[int],
        columns: List[List[object]],
        probed: np.ndarray,
        unseen: np.ndarray,
    ) -> int:
        """Append and encode rows the index does not hold (non-zero
        multiplicities; ``columns`` are their values column-wise, ``probed``
        and ``unseen`` their dictionary lookups, see :func:`_probe`), and
        complete ``probed`` with the codes the encode assigned.

        Returns the number of slots appended.  Distinct rows — what netting
        hands over — cost one C-level set build and no per-row loop.
        """
        if len(set(rows)) < len(rows):
            # The same new row repeated inside one delta nets into one
            # slot; one netting to zero is never stored (nor encoded: a slot
            # that was never live is invisible to every snapshot).
            distinct, netted = net_rows(rows, multiplicities)
            if distinct:
                values = transpose(distinct, len(self._columns))
                self._append_rows(
                    distinct, netted, values, *_probe(self._columns, values, len(distinct))
                )
            probed[...] = _probe(self._columns, columns, len(rows))[0]
            return len(distinct)
        count = len(rows)
        for column, values, codes, missing, partial in zip(
            self._columns, columns, probed, unseen, unseen.any(axis=1).tolist()
        ):
            column.extend_values(values, codes, missing if partial else None)
        if self._code_rows is not None:
            self._code_rows.update(
                zip(_row_keys(probed), range(self.row_count, self.row_count + count))
            )
        self._mults.extend(multiplicities)
        self.live += count
        self.total += float(sum(multiplicities))
        return count

    # -- compaction --------------------------------------------------------------------

    def _maybe_compact(self) -> None:
        if self.zeros >= COMPACT_MIN_ZEROS and self.zeros * 4 >= self.row_count:
            self.compact()

    def compact(self) -> None:
        """Drop tombstoned rows, preserving storage order of the survivors.

        Space reclamation only: the dense snapshot (and therefore the
        version) is unchanged, but slots move, so the epoch is bumped and
        the row index is rebuilt.  The sweep *replaces* the multiplicity
        buffer and code arrays rather than mutating them, so it is safe
        under snapshot pins — pinned views keep reading their original
        arrays.
        """
        if self.zeros == 0:
            return
        slots = self.live_slots()
        for index in self._indexes.values():
            index.catch_up(self._columns, self.row_count)
            index.gather(slots)
        self._mults, self._columns = self._gather(slots)
        self.zeros = 0
        self._code_rows = None
        self.epoch += 1
        # The fresh buffers are not referenced by any pinned snapshot (the
        # pins keep the pre-sweep arrays, which are immutable from here on).
        self._cow_pending = False
        self._pin_floor = 0
        tuplestore_stats.bump("compactions")

    def _gather(self, slots: np.ndarray) -> Tuple[_GrowArray, List[_ColumnCodes]]:
        """A fresh multiplicity array and per-column encodings holding exactly
        the given slots, in the given order: codes gathered, exceptions
        remapped, the dictionary (values, index, types) shared."""
        capacity = max(slots.size, 1)
        mults = _GrowArray(np.float64, capacity=capacity)
        mults.extend(self._mults.view()[slots])
        columns = []
        for column in self._columns:
            kept = _ColumnCodes()
            kept.values, kept.index, kept.kinds = column.values, column.index, column.kinds
            kept.floats = column.floats
            kept.codes = _GrowArray(np.int64, capacity=capacity)
            kept.codes.extend(column.codes.view()[slots])
            kept.exceptions = _remap_exceptions(column.exceptions, slots)
            columns.append(kept)
        return mults, columns

    # -- checkpoint pickling -----------------------------------------------------------

    def __getstate__(self) -> Dict:
        """The store's state: schema, dense multiplicities, encodings
        (dictionaries, codes, exceptions) and counters.

        Tombstones are left out (gathered away, the store itself untouched),
        so the pickled bytes depend on the update history only, like every
        other snapshot.  A key index contributes its key columns and, for a
        combination, its numbering.  Everything else is derived or
        process-local and starts afresh in :meth:`__setstate__`: the row
        index (rebuilt from the codes), the key codes and buckets, the
        reader-pin bookkeeping and the physical-layout epoch.
        """
        for index in self._indexes.values():
            index.catch_up(self._columns, self.row_count)
        mults, columns = self._mults, self._columns
        if self.zeros:
            mults, columns = self._gather(self.live_slots())
        return {"schema": self.schema, "_mults": mults, "_columns": columns,
                "_indexes": self._indexes,
                "live": self.live, "total": self.total, "version": self.version}

    def __setstate__(self, state: Dict) -> None:
        self.__init__(state["schema"])  # derived and process-local fields start afresh
        for name, value in state.items():
            setattr(self, name, value)
        self._lost = True       # the dictionaries keep the values of swept rows
        for index in self._indexes.values():
            index.rebuild(self._columns)

    # -- copying -----------------------------------------------------------------------

    def copy(self) -> "TupleStore":
        """An independent store holding the live rows, in slot order: what a
        store fed :meth:`iter_items` would hold, built from arrays.

        While no row ever died, every slot is live and every dictionary entry
        in use, so the code arrays, dictionaries and row index are copied as
        they are — no per-row work and nothing to encode.  Otherwise the live
        slots are gathered and each dictionary is compacted to the values
        they use (:meth:`_ColumnCodes.compacted`), so a copy's encoding does
        not depend on the values of rows this store lost.  Version, epoch,
        pins and key indexes start afresh.
        """
        clone = TupleStore(self.schema)
        if self._lost:
            slots = self.live_slots()
            clone._mults = _GrowArray(np.float64, capacity=max(slots.size, 1))
            clone._mults.extend(self._mults.view()[slots])
            clone._columns = [column.compacted(slots) for column in self._columns]
        else:
            clone._mults = _GrowArray(np.float64, capacity=max(self.row_count, 1))
            clone._mults.extend(self._mults.view())
            clone._columns = [column.copy() for column in self._columns]
            if self._code_rows is not None:
                clone._code_rows = self._code_rows.copy()
        clone.live = clone.row_count
        clone.total = float(clone._mults.view().sum())
        return clone

    # -- introspection -----------------------------------------------------------------

    def memory_footprint(self) -> int:
        """Resident bytes of the store, counted rather than sampled.

        Every array buffer (``nbytes``, doubling slack included); per column
        the dictionary list, its inverse index, its distinct value objects
        and the exceptions; the row index; and each key index's arrays and,
        for a combination, its numbering dict and key tuples.  An object
        held twice (a value in the list and as an index key) counts once.
        """
        size = sys.getsizeof
        total = self._mults.data.nbytes
        row_index = self._code_rows
        if row_index is not None:
            total += size(row_index) + sum(map(size, row_index))
            total += sum(map(size, row_index.values()))
        for column in self._columns:
            total += column.codes.data.nbytes + column.floats.data.nbytes
            total += size(column.values) + size(column.index) + sum(map(size, column.values))
            total += size(column.exceptions) + sum(map(size, column.exceptions.values()))
        for index in self._indexes.values():
            total += index.order.nbytes + index.starts.nbytes
            total += sum(part.data.nbytes for part in index.parts)
            if index.codes is not None:
                total += index.codes.data.nbytes + size(index.combos) + size(index.keys)
                total += sum(map(size, index.combos)) + sum(map(size, index.keys))
        return total
