"""The array-native multiset tuple store behind :class:`~repro.data.relation.Relation`.

Until PR 5 the system of record was a Python ``dict[tuple, int]``: every
mutation paid per-row dictionary upkeep and every columnar snapshot paid a
full re-encode of all rows.  The :class:`TupleStore` inverts that hierarchy —
the *columnar* form is the storage, and it is the only copy of a relation's
rows (F-IVM's delta propagation reads it through key indexes):

- one **dictionary-encoded code array** per attribute (``values`` in
  first-occurrence order plus an ``int64`` code per row), grown in place and
  flushed *lazily*: mutations append rows and multiplicities only, and the
  pending tail is encoded — one transpose, then per column one C-level pass
  over the dictionary (:meth:`_ColumnCodes.extend_values`, the only encode
  path) — when a columnar snapshot is actually requested, so neither the
  update path nor the snapshot ever pays a whole-relation re-encode;
- one **float64 multiplicity array** aligned with the rows (signed —
  multiplicities live in the ring of integers, exactly representable in
  float64 far beyond any realistic count);
- a **row-key hash index** (row tuple -> slot) over the *live* slots, driving
  multiset *netting*: an update of a stored row adjusts its multiplicity in
  place; a multiplicity reaching zero leaves a **tombstone** and drops the
  row from the index at that moment, so a tombstone is never revived and a
  re-insert always appends a new slot.  A batch probes the index once, in
  one C-level pass, and distinct new rows enter it in another — no per-row
  Python on the pure-append path.

In memory the row tuples are kept too (they are the hash-index keys anyway),
so the tuple-at-a-time consumers — the interpreted/specialised executor
scans, the relational algebra, ``expanded_rows`` — read them back without
decoding; everything vectorised reads the code and multiplicity arrays
directly.  A checkpoint holds the codes only: the rows are decoded from them
on load, exactly — per column, the slots whose value a code does not
reproduce (``1.0`` or ``True`` under the code of ``1``, ``-0.0`` under that of
``0.0``) are recorded as exceptions when they are encoded.

The dense-snapshot contract
---------------------------
The **dense snapshot** of a store is its live rows in slot order, which —
because dead slots are never revived — is *the live rows in
first-insertion-since-last-death order*: a pure function of the applied
deltas, never of when tombstones were swept.  So are its encodings: a
column's dictionary lists the values in first-occurrence order over the rows
ever stored (under Python equality — the first occurrence also decides
whether ``1`` or ``1.0`` is kept), hence ``values`` *and* ``codes`` are a
function of the history, independent of how flushes chunked it.
:meth:`~repro.data.colstore.ColumnStore.from_tuplestore` builds it without
re-encoding anything: a zero-copy alias of the store's arrays while no
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

Key indexes
-----------
:meth:`TupleStore.add_index` indexes the store by a tuple of attributes; the
F-IVM maintainer registers one per join key its propagation reads (a node's
connection key and each child's).  An index gives every slot a *key code*
and every code the slots that carry it:

- a single attribute's key codes *are* that column's dictionary codes — no
  second dictionary;
- a combination of attributes numbers the combinations of its columns'
  codes in order of first occurrence over every slot ever encoded, so the
  numbering is a function of the history, and a checkpoint carries it (the
  only index state a file holds);
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
untouched), and a sweep *replaces* the row list, code and multiplicity
arrays rather than mutating them.

The module-level :data:`tuplestore_stats` counters make the storage claims
testable: ``zero_copy_snapshots`` counts dense-snapshot handoffs,
``compactions`` counts tombstone sweeps.
"""

from __future__ import annotations

import math
import threading
from itertools import compress, filterfalse, repeat
from operator import countOf, is_not
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.kernels import get_kernels

#: The kernel-dispatch singleton: `enable_kernel_stats` rebinds its
#: attributes in place, so a module-level binding still sees the toggle
#: while the hot loops skip one function call per kernel invocation.
_KERNELS = get_kernels()

__all__ = ["TupleStore", "net_rows", "tuplestore_stats", "reset_tuplestore_stats"]


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
    """An amortised-doubling numpy array (scalar/array append + zero-copy view).

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

    def append(self, value) -> None:
        self._reserve(1)
        self.data[self.size] = value
        self.size += 1

    def extend(self, values) -> None:
        values = np.asarray(values, dtype=self.data.dtype)
        self._reserve(values.shape[0])
        self.data[self.size : self.size + values.shape[0]] = values
        self.size += values.shape[0]

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


class _ColumnCodes:
    """One attribute's dictionary encoding, grown in place on every insert.

    ``values`` lists the distinct values in first-occurrence order, ``index``
    inverts it, and ``codes`` carries one ``int64`` dictionary code per stored
    row.  The dictionary only ever grows (values of tombstoned rows linger as
    unused entries — harmless: consumers treat the cardinality as an upper
    bound and derive exact distinct counts from the codes).

    Python equality folds ``1``, ``1.0`` and ``True`` into one code, and
    ``-0.0`` into ``0.0``, so a code does not always decode to the value that
    was stored.  ``exceptions`` maps every slot whose value is not identical
    in type and sign bit to its dictionary entry to that value; with it the
    codes decode to the stored values exactly (:meth:`decode`).  ``kinds``
    holds the types encoded so far: while it is a single type, a chunk needs
    no per-value check unless it holds a float zero.
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

    def code_of(self, value) -> int:
        code = self.index.get(value)
        if code is None:
            code = len(self.values)
            self.index[value] = code
            self.values.append(value)
        return code

    def append_value(self, value) -> None:
        code = self.code_of(value)
        self.kinds.add(type(value))
        if not _exact(value, self.values[code]):
            self.exceptions[self.codes.size] = value
        self.codes.append(code)

    def decode(self) -> List[object]:
        """The stored value of every slot: one object-array take through the
        dictionary, then the exceptions put back."""
        dictionary = np.fromiter(self.values, dtype=object, count=len(self.values))
        decoded = dictionary[self.codes.view()].tolist()
        for slot, value in self.exceptions.items():
            decoded[slot] = value
        return decoded

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
        self.index = {value: position for position, value in enumerate(self.values)}
        self.kinds = set(map(type, self.values))
        self.kinds.update(map(type, self.exceptions.values()))

    def extend_values(self, raw: Sequence[object]) -> None:
        """Bulk encode, the one path: codes in first-occurrence order.

        A batch whose values are all known is one C-level pass over the
        dictionary; the first unseen value ends that attempt and every value
        costs one ``setdefault`` instead.  Either way a value's code is the
        position of its first occurrence in the column's history (under
        Python equality, as the row index compares rows), so dictionary and
        codes do not depend on how the history was cut into flushes.
        """
        index = self.index
        try:
            codes = np.fromiter(
                map(index.__getitem__, raw), dtype=np.int64, count=len(raw)
            )
        except KeyError:
            values = self.values
            assign = index.setdefault
            codes = []
            for value in raw:
                code = assign(value, len(values))
                if code == len(values):
                    values.append(value)
                codes.append(code)
            codes = np.fromiter(codes, dtype=np.int64, count=len(raw))
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
        zero = self.index.get(0.0)
        if len(kinds) == 1:
            # One type: only a float zero of the other sign can differ.
            if zero is None or not issubclass(next(iter(kinds)), float) or 0.0 not in raw:
                return
            suspects = np.flatnonzero(codes == zero).tolist()
        else:
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
    first occurrence over the encoded slots: ``parts`` holds, per column,
    each combination's column code in code order (the numbering, which is
    history and what a pickle carries), ``combos`` maps a combination (its
    column codes joined into one int, :func:`_joined`) to its code, ``keys``
    lists the decoded key tuples in code order and ``codes`` holds one code
    per slot.

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

    def code_columns(self, columns: List[_ColumnCodes], start: int, stop: int) -> None:
        """Number the combinations of slots ``start..stop`` (already encoded)."""
        if self.combos is None or stop <= start:
            return
        probes = _joined(
            [columns[position].codes.view()[start:stop] for position in self.positions],
            stop - start,
        )
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
            for part, column in zip(self.parts, zip(*split)):
                part.extend(column)
            self._add_keys(columns, split)
            codes = np.fromiter(
                map(combos.__getitem__, probes), dtype=np.int64, count=len(probes)
            )
        self.codes.extend(codes)

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
        parts = [
            np.fromiter(map(columns[position].index.get, column, repeat(-1)),
                        dtype=np.int64, count=count)
            for position, column in zip(self.positions, values)
        ]
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

    def rebuild(self, columns: List[_ColumnCodes], count: int) -> None:
        """After a load: the key tuples of the restored numbering and the
        codes of all ``count`` slots."""
        if self.combos is not None:
            self._add_keys(columns, zip(*(part.view().tolist() for part in self.parts)))
            self.code_columns(columns, 0, count)


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


class TupleStore:
    """Array-native multiset storage for one relation (see module docstring)."""

    __slots__ = ("schema", "_rows", "_row_index", "_mults", "_columns",
                 "_encoded_count", "_indexes", "live", "zeros", "total", "version",
                 "epoch", "pins", "_pin_floor", "_cow_pending")

    def __init__(self, schema) -> None:
        self.schema = schema
        self._rows: List[Tuple] = []
        self._row_index: Dict[Tuple, int] = {}     # live rows only
        self._mults = _GrowArray(np.float64)
        self._columns: List[_ColumnCodes] = [_ColumnCodes() for _ in schema.names]
        # Rows below this position are dictionary-encoded; the tail is
        # pending and encoded in one vectorised pass on the next snapshot.
        self._encoded_count = 0
        # Key indexes by column positions (see "Key indexes").
        self._indexes: Dict[Tuple[int, ...], _KeyIndex] = {}
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

    # -- basic reads -------------------------------------------------------------------

    @property
    def row_count(self) -> int:
        """Stored rows including tombstones (the code/multiplicity array length)."""
        return len(self._rows)

    def multiplicity(self, row: Tuple) -> int:
        slot = self._row_index.get(row)
        if slot is None:
            return 0
        return int(self._mults.data[slot])

    def __contains__(self, row: Tuple) -> bool:
        return row in self._row_index

    def iter_rows(self) -> Iterator[Tuple]:
        """Live rows (non-zero multiplicity), in storage order."""
        if self.zeros == 0:
            return iter(self._rows)
        mults = self._mults.data
        return (row for slot, row in enumerate(self._rows) if mults[slot] != 0.0)

    def iter_items(self) -> Iterator[Tuple[Tuple, int]]:
        """Live ``(row, multiplicity)`` pairs, in storage order."""
        mults = self._mults.data
        if self.zeros == 0:
            for slot, row in enumerate(self._rows):
                yield row, int(mults[slot])
        else:
            for slot, row in enumerate(self._rows):
                multiplicity = mults[slot]
                if multiplicity != 0.0:
                    yield row, int(multiplicity)

    # -- zero-copy accessors (consumed by ColumnStore.from_tuplestore) ------------------

    def rows_list(self) -> List[Tuple]:
        """The raw row list, one entry per slot (tombstones included)."""
        return self._rows

    def multiplicities_view(self) -> np.ndarray:
        return self._mults.view()

    def live_slots(self) -> np.ndarray:
        """The slots of the dense snapshot: non-zero multiplicity, in order."""
        return _KERNELS.compact_keep(self._mults.view())

    def column_values(self, position: int) -> List[object]:
        self.flush_encodings()
        return self._columns[position].values

    def column_codes_view(self, position: int) -> np.ndarray:
        self.flush_encodings()
        return self._columns[position].codes.view()

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

    def flush_encodings(self) -> None:
        """Encode the pending row tail into the per-column code arrays.

        One transpose of the pending rows plus one vectorised dictionary
        merge per column, then each composite key index numbers the new
        slots — the cost is proportional to the rows appended since the last
        flush, never to the relation size.
        """
        start = self._encoded_count
        count = len(self._rows)
        if start >= count:
            return
        pending = self._rows[start:count]
        if len(pending) == 1:
            row = pending[0]
            for position, column in enumerate(self._columns):
                column.append_value(row[position])
        else:
            columns = list(zip(*pending))
            for position, column in enumerate(self._columns):
                column.extend_values(columns[position])
        self._encoded_count = count
        for index in self._indexes.values():
            index.code_columns(self._columns, start, count)

    # -- key indexes (consumed by repro.ivm.fivm) ---------------------------------------

    def add_index(self, attributes: Sequence[str]) -> None:
        """Index the store by ``attributes`` (a no-op when already indexed).

        Registered on an empty store, a combination's numbering is its order
        of first occurrence over every row ever stored.
        """
        positions = tuple(map(self.schema.index_of, attributes))
        if positions not in self._indexes:
            self.flush_encodings()
            index = self._indexes[positions] = _KeyIndex(positions)
            index.code_columns(self._columns, 0, len(self._rows))

    def _index(self, attributes: Sequence[str]) -> _KeyIndex:
        self.flush_encodings()
        return self._indexes[tuple(map(self.schema.index_of, attributes))]

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
        self.flush_encodings()
        return self._columns[self.schema.index_of(attribute)].floats_at(slots)

    # -- mutation ----------------------------------------------------------------------

    def add(self, row: Tuple, multiplicity: int) -> None:
        """Net one signed row delta into the store (one version bump)."""
        self.version += 1
        self._apply_one(row, multiplicity)
        self._maybe_compact()

    def add_batch(self, rows: Sequence[Tuple], multiplicities: Sequence[int]) -> None:
        """Apply one signed delta in a single pass (one version bump).

        The rows are resolved against the row index once, in one C-level
        probe.  Rows the index does not hold are bulk-appended — no per-row
        loop when they are distinct, the shape the IVM batch path hands over
        after netting — with their encoding deferred to the next flush.
        Rows netting into existing slots go through the ``net_deltas``
        kernel — one vectorised pass with the zero-crossing
        live/tombstone/total bookkeeping folded in.
        """
        self.version += 1
        if 0 in multiplicities:
            kept = [position for position, m in enumerate(multiplicities) if m != 0]
            rows = [rows[position] for position in kept]
            multiplicities = [multiplicities[position] for position in kept]
        slots = list(map(self._row_index.get, rows))
        stored = len(rows) - slots.count(None)
        new_rows, new_mults = rows, multiplicities
        if stored:
            new_rows = [row for row, slot in zip(rows, slots) if slot is None]
            new_mults = [m for m, slot in zip(multiplicities, slots) if slot is None]
        appended = self._append_rows(new_rows, new_mults)
        if stored:
            slots_array = np.asarray(
                [slot for slot in slots if slot is not None], dtype=np.int64
            )
            deltas = np.asarray(
                [m for m, slot in zip(multiplicities, slots) if slot is not None],
                dtype=np.float64,
            )
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
                stored_rows = self._rows
                drop = self._row_index.pop
                for slot in slots_array[mults[slots_array] == 0.0].tolist():
                    drop(stored_rows[slot], None)
        if len(rows) and appended == len(rows):
            tuplestore_stats.bump("batch_appends")
        self._maybe_compact()

    def clear(self) -> None:
        """Drop every row (one version bump, a new physical layout)."""
        self.version += 1
        self.epoch += 1
        self._rows = []
        self._row_index = {}
        self._mults = _GrowArray(np.float64)
        self._columns = [_ColumnCodes() for _ in self.schema.names]
        self._encoded_count = 0
        self._indexes = {positions: _KeyIndex(positions) for positions in self._indexes}
        self.live = 0
        self.zeros = 0
        self.total = 0.0
        # All buffers were replaced: pinned snapshots keep the old (now
        # immutable) ones, and nothing references the fresh arrays yet.
        self._cow_pending = False
        self._pin_floor = 0

    def _apply_one(self, row: Tuple, multiplicity: int) -> None:
        slot = self._row_index.get(row)
        if slot is None:
            self._row_index[row] = len(self._rows)
            self._rows.append(row)
            self._mults.append(float(multiplicity))
            self.live += 1
        else:
            if self._cow_pending and slot < self._pin_floor:
                # The slot is visible to a pinned snapshot; writing it in
                # place would tear that snapshot's multiplicities.
                self._detach_mults()
            mults = self._mults.data
            updated = mults[slot] + multiplicity
            mults[slot] = updated
            if updated == 0.0:
                # The slot dies: it leaves the index and is never revived.
                del self._row_index[row]
                self.zeros += 1
                self.live -= 1
        self.total += multiplicity

    def _append_rows(self, rows: Sequence[Tuple], multiplicities: Sequence[int]) -> int:
        """Bulk append of rows the index does not hold (non-zero
        multiplicities; encoding deferred to the next flush).

        Returns the number of slots appended.  Distinct rows — what netting
        hands over — cost one C-level index update and no per-row loop; the
        index growing by less than the row count is what gives repeated
        rows away.
        """
        index = self._row_index
        base = len(self._rows)
        absent = len(index)
        index.update(zip(rows, range(base, base + len(rows))))
        if len(index) - absent < len(rows):
            # The same new row repeated inside one delta nets into one
            # entry; one netting to zero is never stored (a slot that was
            # never live is invisible to every snapshot).
            for row in rows:
                index.pop(row, None)
            rows, multiplicities = net_rows(rows, multiplicities)
            index.update(zip(rows, range(base, base + len(rows))))
        self._rows.extend(rows)
        self._mults.extend(multiplicities)
        self.live += len(rows)
        self.total += float(sum(multiplicities))
        return len(rows)

    # -- compaction --------------------------------------------------------------------

    def _maybe_compact(self) -> None:
        if self.zeros >= COMPACT_MIN_ZEROS and self.zeros * 4 >= len(self._rows):
            self.compact()

    def compact(self) -> None:
        """Drop tombstoned rows, preserving storage order of the survivors.

        Space reclamation only: the dense snapshot (and therefore the
        version) is unchanged, but slots move, so the epoch is bumped.  The
        sweep *replaces* the row list, multiplicity buffer and code arrays
        rather than mutating them, so it is safe under snapshot pins — pinned
        views keep reading their original arrays.
        """
        if self.zeros == 0:
            return
        slots = self.live_slots()
        self._mults, self._columns = self._gather(slots)   # flushes the tail first
        self._rows = self._gather_rows(slots)
        self._encoded_count = len(self._rows)
        for index in self._indexes.values():
            index.gather(slots)
        self.zeros = 0
        self._index_live_rows()
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
        self.flush_encodings()
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

    def _gather_rows(self, slots: np.ndarray) -> List[Tuple]:
        rows = self._rows
        return [rows[slot] for slot in slots.tolist()]

    def _index_live_rows(self) -> None:
        """Rebuild the row index from the live slots (dead ones stay out)."""
        rows = self._rows
        self._row_index = {rows[slot]: slot for slot in self.live_slots().tolist()}

    # -- checkpoint pickling -----------------------------------------------------------

    def __getstate__(self) -> Dict:
        """The store's state: schema, dense multiplicities, encodings
        (dictionaries, codes, exceptions) and counters — no row tuples.

        Tombstones are left out (gathered away, the store itself untouched)
        and the pending tail is encoded first, so the pickled bytes depend on
        the update history only, like every other snapshot.  A key index
        contributes its key columns and, for a combination, its numbering.
        Everything else is derived or process-local and starts afresh in
        :meth:`__setstate__`: the rows (decoded exactly from the encodings),
        the row index, the key codes and buckets, the reader-pin bookkeeping
        and the physical-layout epoch.
        """
        self.flush_encodings()
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
        if self._columns:
            self._rows = list(zip(*(column.decode() for column in self._columns)))
        else:
            self._rows = [()] * self._mults.size
        self._encoded_count = len(self._rows)
        self._index_live_rows()
        for index in self._indexes.values():
            index.rebuild(self._columns, len(self._rows))

    # -- copying -----------------------------------------------------------------------

    def take(self, slots: np.ndarray) -> "TupleStore":
        """A new store holding exactly the given slots' rows, in slot order.

        The partitioned-construction primitive behind
        :meth:`repro.data.relation.Relation.partition`: the child's per-column
        code arrays are *slices* of this store's arrays (one vectorised gather
        per column) and the dictionaries are shallow list/dict copies — one
        probe per **distinct** value, never a per-row re-encode — so carving a
        shard out of a parent relation costs O(selected + distinct), not
        O(selected × arity) dictionary work.  The row tuples are shared by
        reference (they are immutable).  Tombstoned slots may be passed; they
        carry over as tombstones (dead in the child's index too).
        """
        slots = np.asarray(slots, dtype=np.int64)
        clone = TupleStore(self.schema)
        clone._rows = self._gather_rows(slots)
        clone._mults, clone._columns = self._gather(slots)
        for child in clone._columns:
            child.values, child.index = list(child.values), dict(child.index)
            child.kinds = set(child.kinds)
            child.floats = _GrowArray(np.float64)
        picked = clone._mults.view()
        clone._encoded_count = len(clone._rows)
        clone.live = int((picked != 0.0).sum())
        clone.zeros = slots.size - clone.live
        clone.total = float(picked.sum())
        clone._index_live_rows()
        return clone

    def copy(self) -> "TupleStore":
        """An independent store with the same live content."""
        clone = TupleStore(self.schema)
        rows: List[Tuple] = []
        multiplicities: List[int] = []
        for row, multiplicity in self.iter_items():
            rows.append(row)
            multiplicities.append(multiplicity)
        if rows:
            clone._append_rows(rows, multiplicities)
        return clone

    # -- introspection -----------------------------------------------------------------

    def memory_footprint(self, sample: int = 256) -> int:
        """Approximate resident bytes of the store (``sys.getsizeof`` sampling).

        Array buffers are counted exactly; the row tuples and dictionary
        values are sampled (``sample`` of each) and extrapolated, which keeps
        the estimate cheap on large relations.
        """
        import sys as _sys

        total = _sys.getsizeof(self._rows) + _sys.getsizeof(self._row_index)
        total += self._mults.data.nbytes
        row_count = len(self._rows)
        if row_count:
            step = max(row_count // max(sample, 1), 1)
            sampled = self._rows[::step]
            per_row = sum(
                _sys.getsizeof(row) + sum(_sys.getsizeof(value) for value in row)
                for row in sampled
            ) / len(sampled)
            total += int(per_row * row_count)
        for column in self._columns:
            total += column.codes.data.nbytes
            total += _sys.getsizeof(column.values) + _sys.getsizeof(column.index)
        for index in self._indexes.values():
            total += index.order.nbytes + index.starts.nbytes
            if index.codes is not None:
                total += index.codes.data.nbytes + _sys.getsizeof(index.combos)
        return total
