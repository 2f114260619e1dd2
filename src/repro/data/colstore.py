"""Dictionary-encoded columnar storage for relations.

A :class:`ColumnStore` is the vectorised view of a :class:`Relation`: every
attribute becomes a *dictionary encoding* — a small array of distinct values
plus an integer code per row — and the multiplicities become one float array.
All of the engine's hot operations (connection keys, group-by keys, filter
masks, join-key alignment against child views) then reduce to integer array
manipulation: combined keys are built by mixing per-attribute codes
arithmetically (or via ``np.unique(axis=0)`` when the cardinality product
would overflow), filters are evaluated once per *distinct* value and gathered
through the codes, and numeric columns are decoded through the dictionary.

Stores are cached on the relation (see :meth:`Relation.column_store`) and
invalidated by the relation's mutation counter, so repeated batch evaluations
— gradient descent steps, decision-tree node splits, IVM refreshes — reuse
the encodings instead of rebuilding per-row Python state every time.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.tuplestore import _KERNELS, _GrowArray, tuplestore_stats

__all__ = [
    "ColumnEncoding",
    "ColumnStore",
    "DeltaColumnStore",
    "StagedDelta",
    "combine_codes",
]

#: Cap on the mixed-radix cardinality product; above it combined keys fall
#: back to row-wise ``np.unique(axis=0)`` to avoid int64 overflow.
_MIX_LIMIT = 2 ** 62

#: A code space of up to ``4 * rows + 1024`` is compacted by counting
#: (``bincount``: one pass over the rows, one over the space); a sparser one
#: by sorting the rows (``np.unique``), whose cost does not grow with the space.
_COUNT_LIMIT_PER_ROW = 4
_COUNT_LIMIT_SLACK = 1024


class ColumnEncoding:
    """One dictionary-encoded column: distinct values + one int64 code per row."""

    __slots__ = ("values", "codes", "_float_values", "_sortable", "_sortable_ready")

    def __init__(self, values: List[object], codes: np.ndarray) -> None:
        self.values = values                      # python values, in code order
        self.codes = codes                        # int64, one per row
        self._float_values: Optional[Tuple[np.ndarray, Optional[np.ndarray]]] = None
        self._sortable: Optional[np.ndarray] = None
        self._sortable_ready = False

    @property
    def cardinality(self) -> int:
        return len(self.values)

    def float_values(self) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """The dictionary decoded to float64, and which entries are not numbers.

        An entry ``float()`` rejects decodes to 0.0 and is marked in the
        boolean mask, which is None when every entry is a number (a stored
        NaN is one).  The lazy fill publishes the pair with one assignment:
        pinned snapshots are shared by concurrent serving readers, and racing
        fills at worst duplicate the work — both results are equal.
        """
        decoded = self._float_values
        if decoded is None:
            try:
                decoded = (
                    np.asarray([float(value) for value in self.values], dtype=np.float64),
                    None,
                )
            except (TypeError, ValueError):
                numbers = np.zeros(len(self.values), dtype=np.float64)
                non_numeric = np.zeros(len(self.values), dtype=bool)
                for code, value in enumerate(self.values):
                    try:
                        numbers[code] = float(value)
                    except (TypeError, ValueError):
                        non_numeric[code] = True
                decoded = (numbers, non_numeric)
            self._float_values = decoded
        return decoded

    def sortable_values(self) -> Optional[np.ndarray]:
        """The dictionary as a typed numpy array (None when not comparable).

        The lazy fill computes first and publishes the ready flag *last*, so
        a concurrent reader sharing a pinned snapshot never observes
        ``ready`` with the value still unset (misread as "not comparable").
        """
        if not self._sortable_ready:
            self._sortable = as_sortable_array(self.values)
            self._sortable_ready = True
        return self._sortable


def _ints_exceed_float64_precision(values) -> bool:
    """True when an int in ``values`` would lose identity as a float64."""
    return any(
        isinstance(value, int) and not isinstance(value, bool) and (
            value > 2 ** 53 or value < -(2 ** 53)
        )
        for value in values
    )


def as_sortable_array(values: Sequence[object]) -> Optional[np.ndarray]:
    """A numeric or string numpy array over ``values``, or None.

    Used for vectorised (searchsorted) join-key matching and filter masks:
    both sides must reduce to the same comparable dtype kind.  Mixed-type
    columns return None — ``np.asarray`` would silently *stringify* them,
    which would equate e.g. ``3`` with ``"3"`` against Python semantics.
    """
    kinds = set(map(type, values))
    try:
        if kinds <= {int, bool}:
            # Keep pure-integer dictionaries exact: casting to float64 would
            # equate distinct values beyond 2**53.
            array = np.asarray(values, dtype=np.int64)
        elif kinds <= {int, bool, float}:
            if _ints_exceed_float64_precision(values):
                return None
            array = np.asarray(values, dtype=np.float64)
        elif kinds == {str}:
            array = np.asarray(values)
        else:
            return None
    except (TypeError, ValueError, OverflowError):
        return None
    if array.ndim != 1 or array.dtype.kind not in "iufU":
        return None
    return array


def _compact_codes(codes: np.ndarray, space: int) -> Tuple[np.ndarray, np.ndarray]:
    """Renumber ``codes`` (each in ``[0, space)``) densely over the values present.

    Returns ``(compact, present)``: ``present`` lists the distinct codes in
    increasing order and ``compact`` maps every input to its index in
    ``present`` — what ``np.unique(codes, return_inverse=True)`` returns, by
    counting instead of sorting while the space is of the order of the rows.
    """
    if space > _COUNT_LIMIT_PER_ROW * codes.size + _COUNT_LIMIT_SLACK:
        present, compact = np.unique(codes, return_inverse=True)
        return compact.reshape(-1).astype(np.int64, copy=False), present.astype(np.int64, copy=False)
    present = np.nonzero(np.bincount(codes, minlength=space))[0]
    mapping = np.empty(space, dtype=np.int64)     # read only where a code is present
    mapping[present] = np.arange(present.size, dtype=np.int64)
    return mapping[codes], present


def combine_codes(
    columns: Sequence[np.ndarray], cardinalities: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Combine per-attribute code columns into one code per distinct combination.

    Returns ``(codes, combos)`` where ``codes[i]`` indexes the rows of the
    ``(distinct, len(columns))`` matrix ``combos``, whose entries are the
    per-column dictionary indices of each distinct combination, in
    increasing (lexicographic) order.  Every column's codes lie in
    ``[0, cardinality)``.
    """
    if not columns:
        return np.empty(0, dtype=np.int64), np.empty((0, 0), dtype=np.int64)
    radices = [max(int(card), 1) for card in cardinalities]
    if len(columns) == 1:
        codes, present = _compact_codes(columns[0], radices[0])
        return codes, present.reshape(-1, 1)

    product = 1
    for radix in radices:
        product *= radix
    if 0 < product <= _MIX_LIMIT:
        mixed = columns[0].astype(np.int64, copy=True)
        for column, radix in zip(columns[1:], radices[1:]):
            mixed *= radix
            mixed += column
        codes, remainder = _compact_codes(mixed, product)
        combos = np.empty((remainder.size, len(columns)), dtype=np.int64)
        for position in range(len(columns) - 1, 0, -1):
            remainder, combos[:, position] = np.divmod(remainder, radices[position])
        combos[:, 0] = remainder
        return codes, combos

    stacked = np.stack(columns, axis=1)
    unique_rows, inverse = np.unique(stacked, axis=0, return_inverse=True)
    return (
        inverse.reshape(-1).astype(np.int64, copy=False),
        unique_rows.astype(np.int64, copy=False),
    )


class ColumnStore:
    """The columnar, dictionary-encoded snapshot of one relation.

    Every attribute's encoding comes from the tuple store that produced the
    snapshot; combined key codes (for any tuple of attributes) are cached, so
    connection keys, child join keys and group-by keys each pay their cost
    once per store lifetime.
    """

    def __init__(self, name, schema, version, row_count, source) -> None:
        # Built through from_tuplestore.  ``source`` is what the snapshot
        # reads from the store: (row list, multiplicity view, [(dictionary,
        # code view)] per column); ``_dense`` is (live slots or None,
        # multiplicities, encodings) once the live slots are gathered.
        self.relation_name: str = name
        self.schema = schema
        self.version = version
        self.row_count = row_count
        self._source = source
        self._dense: Optional[Tuple[Optional[np.ndarray], np.ndarray, List[ColumnEncoding]]] = None
        self._rows: Optional[List[Tuple]] = None
        self._float_columns: Dict[str, Optional[np.ndarray]] = {}
        self._key_cache: Dict[
            Tuple[str, ...],
            Tuple[np.ndarray, List[Tuple], Optional[List[Optional[np.ndarray]]]],
        ] = {}
        self._key_indexes: Dict[Tuple[str, ...], Dict[Tuple, int]] = {}
        self._distinct_counts: Dict[Tuple[str, ...], int] = {}

    @classmethod
    def from_tuplestore(cls, name: str, schema, store) -> "ColumnStore":
        """The dense snapshot of a :class:`~repro.data.tuplestore.TupleStore`.

        Never a re-encode.  The store's pending rows are encoded, then the
        snapshot captures views of its multiplicity and code arrays and its
        dictionary lists (the objects, not the store: a later sweep replaces
        the store's arrays and appends only ever write past the views).
        While the store holds no tombstone the snapshot is a zero-copy alias
        of those.  Otherwise the live slots are gathered — one
        ``compact_keep`` and one vectorised take per array, array for array
        what a sweep followed by an alias would expose — on the first read of
        ``multiplicities``, :meth:`encoding` or ``rows``, so a generation
        nobody reads never gathers.

        Either way the snapshot is valid while the owning relation's version
        is unchanged (in-place netting writes through the captured
        multiplicities; ``Relation.column_store`` guards on the version), or
        while the store is pinned for it (netting then detaches the buffer
        copy-on-write; see :meth:`~repro.data.tuplestore.TupleStore.pin`).
        """
        tuplestore_stats.bump("zero_copy_snapshots")
        columns = [
            (store.column_values(position), store.column_codes_view(position))
            for position in range(len(schema.names))
        ]
        multiplicities = store.multiplicities_view()
        snapshot = cls(
            name, schema, store.version, store.live,
            (store.rows_list(), multiplicities, columns),
        )
        if not store.zeros:
            snapshot._dense = (None, multiplicities, [
                ColumnEncoding(values, codes) for values, codes in columns
            ])
        return snapshot

    def _gathered(self) -> Tuple[Optional[np.ndarray], np.ndarray, List[ColumnEncoding]]:
        """The dense state, gathered on first call.

        Built in locals and published with one assignment: readers sharing a
        pinned snapshot that race the first call at worst duplicate the work.
        """
        dense = self._dense
        if dense is None:
            _rows, multiplicities, columns = self._source
            keep = _KERNELS.compact_keep(multiplicities)
            dense = (keep, multiplicities[keep], [
                ColumnEncoding(values, codes[keep]) for values, codes in columns
            ])
            self._dense = dense
        return dense

    def __len__(self) -> int:
        return self.row_count

    @property
    def multiplicities(self) -> np.ndarray:
        return self._gathered()[1]

    @property
    def rows(self) -> List[Tuple]:
        """The row tuples, aligned with ``multiplicities``.

        An aliased row list may have grown past ``row_count`` under later
        appends; a gathered snapshot materialises its list here, once
        (racing readers of a pinned snapshot at worst duplicate the work).
        """
        rows = self._rows
        if rows is None:
            keep = self._gathered()[0]
            stored = self._source[0]
            rows = stored if keep is None else [stored[slot] for slot in keep.tolist()]
            self._rows = rows
        return rows

    # -- per-attribute encodings ---------------------------------------------------------

    def encoding(self, attribute: str) -> ColumnEncoding:
        return self._gathered()[2][self.schema.index_of(attribute)]

    def float_column(self, attribute: str) -> Optional[np.ndarray]:
        """Per-row float64 values of one attribute (None when any is not numeric)."""
        if attribute not in self._float_columns:
            encoding = self.encoding(attribute)
            numbers, non_numeric = encoding.float_values()
            self._float_columns[attribute] = (
                None if non_numeric is not None else numbers[encoding.codes]
            )
        return self._float_columns[attribute]

    # -- combined keys -------------------------------------------------------------------

    def _key_data(
        self, key: Tuple[str, ...]
    ) -> Tuple[np.ndarray, List[Tuple], Optional[List[Optional[np.ndarray]]]]:
        cached = self._key_cache.get(key)
        if cached is not None:
            return cached
        if not key:
            result: Tuple[np.ndarray, List[Tuple], Optional[List[Optional[np.ndarray]]]] = (
                np.zeros(self.row_count, dtype=np.int64),
                [()],
                [],
            )
        else:
            encodings = [self.encoding(attribute) for attribute in key]
            codes, combos = combine_codes(
                [encoding.codes for encoding in encodings],
                [encoding.cardinality for encoding in encodings],
            )
            tuples = [
                tuple(
                    encoding.values[index]
                    for encoding, index in zip(encodings, combo)
                )
                for combo in combos.tolist()
            ]
            columns: Optional[List[Optional[np.ndarray]]] = []
            for position, encoding in enumerate(encodings):
                typed = encoding.sortable_values()
                columns.append(None if typed is None else typed[combos[:, position]])
            result = (codes, tuples, columns)
        self._key_cache[key] = result
        return result

    def codes_for(self, attributes: Sequence[str]) -> Tuple[np.ndarray, List[Tuple]]:
        """Row codes and distinct value tuples for a combination of attributes.

        ``codes_for(())`` maps every row to the single empty tuple, which lets
        scalar (ungrouped, connectionless) aggregates share the same machinery.
        """
        codes, tuples, _columns = self._key_data(tuple(attributes))
        return codes, tuples

    def distinct_count(self, attributes: Sequence[str]) -> int:
        """Number of distinct value combinations of ``attributes``.

        This is the size of the dictionary :meth:`codes_for` would build —
        the statistic behind the engine's cost-based join-tree rooting (see
        :mod:`repro.engine.statistics`): a child view keyed on these
        attributes has exactly this many entries.  When the combined key data
        is already cached it is reused; otherwise the count is derived from
        the code arrays alone (one ``np.unique``), without materialising the
        distinct value tuples a planner never reads.
        """
        key = tuple(attributes)
        cached = self._key_cache.get(key)
        if cached is not None:
            return len(cached[1])
        count = self._distinct_counts.get(key)
        if count is not None:
            return count
        if not key:
            count = 1
        elif len(key) == 1:
            count = int(np.unique(self.encoding(key[0]).codes).size)
        else:
            encodings = [self.encoding(attribute) for attribute in key]
            _codes, combos = combine_codes(
                [encoding.codes for encoding in encodings],
                [encoding.cardinality for encoding in encodings],
            )
            count = int(combos.shape[0])
        self._distinct_counts[key] = count
        return count

    def key_index(self, attributes: Sequence[str]) -> Dict[Tuple, int]:
        """Distinct key tuple -> key code, cached per attribute combination.

        The inverse of :meth:`codes_for`'s tuple list; the delta-propagation
        machinery probes it to align arbitrary key tuples (e.g. the keys of a
        payload view or a delta block) with this store's code space.
        """
        key = tuple(attributes)
        index = self._key_indexes.get(key)
        if index is None:
            _codes, tuples, _columns = self._key_data(key)
            index = {value: code for code, value in enumerate(tuples)}
            self._key_indexes[key] = index
        return index

    def key_columns(self, attributes: Sequence[str]) -> Optional[List[np.ndarray]]:
        """Typed per-attribute value arrays aligned with ``codes_for``'s tuples.

        None when any attribute's dictionary is not a comparable typed array
        (vectorised join-key matching then falls back to dictionary probing).
        """
        _codes, _tuples, columns = self._key_data(tuple(attributes))
        if columns is None or any(column is None for column in columns):
            return None
        return columns  # type: ignore[return-value]


class _DeltaKey:
    """One registered key of a :class:`DeltaColumnStore`.

    Holds the key dictionary (tuple -> code), the per-entry code array, and
    one growable *bucket* of entry positions per code — the incrementally
    maintained CSR the batched IVM propagation joins against.  Appending is
    two steps — :meth:`encode` turns rows into codes (registering unseen
    keys), :meth:`append` files entries under them — so a delta staged ahead
    of its commit is probed once and its codes are usable in between.

    Its pickled state is ``positions``, ``track_buckets``, ``keys`` and
    ``codes``; the key dictionary and the buckets are rebuilt from them on
    load, and the bucket-array cache starts empty.
    """

    __slots__ = ("positions", "index", "keys", "codes", "buckets",
                 "track_buckets", "scalar", "_bucket_arrays")

    def __init__(self, positions: List[int], track_buckets: bool = True) -> None:
        self.positions = positions
        # Single-attribute keys (the common case) are probed by their bare
        # value — no tuple construction per row; ``keys`` still lists tuples.
        self.scalar = len(positions) == 1
        self.index: Dict[object, int] = {}
        self.keys: List[Tuple] = []
        self.codes = _GrowArray(np.int64)
        # Buckets are plain int lists (appends are just list ops); the array
        # form is cached per bucket and rebuilt only when the bucket grew
        # since it was last read — cost proportional to the rows actually
        # joined, never to the store size.  Keys registered for grouping only
        # (``track_buckets=False``) skip the bucket bookkeeping entirely.
        self.track_buckets = track_buckets
        self.buckets: List[List[int]] = []
        self._bucket_arrays: Dict[int, np.ndarray] = {}

    def probe(self, key: Tuple) -> Optional[int]:
        """The code of a key *tuple* (None when unseen)."""
        return self.index.get(key[0] if self.scalar else key)

    def append_one(self, row: Tuple, entry: int) -> None:
        """Single-row :meth:`encode` + :meth:`append` without array machinery."""
        if self.scalar:
            probe = row[self.positions[0]]
            key = (probe,)
        else:
            probe = key = tuple(row[position] for position in self.positions)
        code = self.index.get(probe)
        if code is None:
            code = len(self.keys)
            self.index[probe] = code
            self.keys.append(key)
            self.buckets.append([])
        self.codes.append(code)
        if self.track_buckets:
            self.buckets[code].append(entry)

    def encode(self, columns: Sequence[Sequence], count: int) -> np.ndarray:
        """Key codes of ``count`` rows given as transposed columns.

        Unseen keys are registered (with an empty bucket); no entry is
        appended.  ``columns`` is the caller's one-time ``zip(*rows)``
        transpose, shared by every registered key of the store — probing
        reads whole C-level columns, in one C-level pass when every key is
        already known.
        """
        positions = self.positions
        if not positions:
            # The empty key (a root's connection key): every row codes to 0.
            if not self.keys:
                self.index[()] = 0
                self.keys.append(())
                self.buckets.append([])
            return np.zeros(count, dtype=np.int64)
        index = self.index
        scalar = self.scalar
        if scalar:
            probes: Sequence = columns[positions[0]]
        else:
            probes = list(zip(*(columns[position] for position in positions)))
        try:
            return np.fromiter(
                map(index.__getitem__, probes), dtype=np.int64, count=count
            )
        except KeyError:
            # At least one unseen key: one setdefault per row registers them
            # in first-occurrence order.
            keys = self.keys
            buckets = self.buckets
            assign = index.setdefault
            codes: List[int] = []
            for probe in probes:
                code = assign(probe, len(keys))
                if code == len(keys):
                    keys.append((probe,) if scalar else probe)
                    buckets.append([])
                codes.append(code)
            return np.fromiter(codes, dtype=np.int64, count=count)

    def append(self, codes: np.ndarray, base: int) -> None:
        """Append entries ``base..`` carrying the given (encoded) key codes."""
        self.codes.extend(codes)
        if self.track_buckets:
            buckets = self.buckets
            for entry, code in enumerate(codes.tolist(), base):
                buckets[code].append(entry)

    def bucket_array(self, code: int) -> np.ndarray:
        bucket = self.buckets[code]
        cached = self._bucket_arrays.get(code)
        if cached is None or cached.shape[0] != len(bucket):
            cached = np.asarray(bucket, dtype=np.int64)
            self._bucket_arrays[code] = cached
        return cached

    def __getstate__(self) -> Dict:
        return {"positions": self.positions, "track_buckets": self.track_buckets,
                "keys": self.keys, "codes": self.codes}

    def __setstate__(self, state: Dict) -> None:
        self.__init__(state["positions"], state["track_buckets"])
        self.keys = keys = state["keys"]
        self.codes = state["codes"]
        self.index = {
            (key[0] if self.scalar else key): code for code, key in enumerate(keys)
        }
        codes = self.codes.view()
        if self.track_buckets and codes.size:
            # Entries grouped by code, entry order kept within a bucket: a
            # stable sort of the codes, cut at the cumulative bucket sizes.
            entries = np.argsort(codes, kind="stable").tolist()
            ends = np.cumsum(np.bincount(codes, minlength=len(keys))).tolist()
            self.buckets = [
                entries[start:end] for start, end in zip([0] + ends[:-1], ends)
            ]
        else:
            self.buckets = [[] for _key in keys]


class StagedDelta:
    """One delta encoded by :meth:`DeltaColumnStore.stage`, not yet appended.

    ``columns`` is the transpose of the rows, ``codes`` maps every registered
    key (its attribute tuple) to one code per row.
    """

    __slots__ = ("columns", "multiplicities", "codes")

    def __init__(self, columns, multiplicities, codes) -> None:
        self.columns: List[Tuple] = columns
        self.multiplicities: np.ndarray = multiplicities
        self.codes: Dict[Tuple[str, ...], np.ndarray] = codes


class DeltaColumnStore:
    """An append-only dictionary-encoded log of signed tuple deltas.

    Where :class:`ColumnStore` snapshots a relation (and is invalidated by
    any mutation), this store *grows*: update batches append entries with
    signed multiplicities, and every registered decoding — float columns,
    key codes, per-key row buckets — is extended in place, so consumers
    never pay an O(rows) re-encode after a mutation.  Deletes append
    negative entries instead of mutating: all consumers (ring lifts, delta
    joins) are linear in the multiplicity, so a cancelling +1/-1 pair of
    entries contributes exactly zero.

    The batched IVM path maintains one such store per parent relation as its
    columnar mirror: a propagation hop is then a bucket concatenation plus
    pure array gathers, independent of the relation's total size.

    Two ways in.  :meth:`append_rows` buffers rows and encodes them on the
    next read (the per-tuple path).  :meth:`stage` encodes a whole delta —
    one transpose, one probe per row and registered key — and hands the
    codes back *without* appending: no reader sees the delta until
    :meth:`commit` files it.  The IVM batch path stages an update group,
    joins it against the child views through the staged codes, and commits
    once the rows are in the base relation; the buffer flushes the same way.

    Columns and keys must be registered before the first append (the store
    keeps no raw rows to backfill from).
    """

    def __init__(self, name: str, schema) -> None:
        self.name = name
        self.schema = schema
        self.entry_count = 0
        self._multiplicities = _GrowArray(np.float64)
        self._floats: Dict[str, Tuple[int, _GrowArray]] = {}
        self._keys: Dict[Tuple[str, ...], _DeltaKey] = {}
        # Appends are buffered here and encoded on the next read: the
        # per-tuple IVM path appends one row per update but only a fraction
        # of updates ever hop through a given mirror, so eager per-row
        # encoding (one dictionary probe per registered key per row) was
        # pure overhead for the rest.  Flushing in batches also reuses the
        # vectorised multi-row transpose.
        self._pending_rows: List[Tuple] = []
        self._pending_multiplicities: List[float] = []

    def __len__(self) -> int:
        return self.entry_count + len(self._pending_rows)

    # -- registration --------------------------------------------------------------------

    def _check_empty(self) -> None:
        if self.entry_count or self._pending_rows:
            raise ValueError(
                "register columns and keys before the first append; "
                "the delta store keeps no raw rows to backfill from"
            )

    def register_float(self, attribute: str) -> None:
        if attribute in self._floats:
            return
        self._check_empty()
        self._floats[attribute] = (
            self.schema.index_of(attribute),
            _GrowArray(np.float64),
        )

    def register_key(self, attributes: Sequence[str], track_buckets: bool = True) -> None:
        key = tuple(attributes)
        state = self._keys.get(key)
        if state is not None:
            # Re-registration only ever widens: a grouping-only key asked for
            # again with buckets starts tracking them.  Widening after rows
            # were appended would leave the buckets silently incomplete, so
            # it falls under the same registration-before-append rule.
            if track_buckets and not state.track_buckets:
                self._check_empty()
                state.track_buckets = True
            return
        self._check_empty()
        self._keys[key] = _DeltaKey(
            [self.schema.index_of(attribute) for attribute in key], track_buckets
        )

    # -- appends -------------------------------------------------------------------------

    def append_rows(self, rows: Sequence[Tuple], multiplicities) -> None:
        """Append one delta (rows + signed multiplicities); encoded lazily.

        The rows are buffered and reach the encodings on the next read (see
        :meth:`_flush`), so a stream of single-row appends between reads
        pays one vectorised encode instead of per-row dictionary probes.
        """
        self._pending_rows.extend(rows)
        self._pending_multiplicities.extend(
            float(multiplicity) for multiplicity in multiplicities
        )

    def _flush(self) -> None:
        if not self._pending_rows:
            return
        rows = self._pending_rows
        multiplicities = self._pending_multiplicities
        self._pending_rows = []
        self._pending_multiplicities = []
        if len(rows) > 1:
            self.commit(self.stage(rows, multiplicities))
            return
        # The per-tuple update path: scalar appends, no array round-trips.
        row = rows[0]
        self._multiplicities.append(multiplicities[0])
        for position, values in self._floats.values():
            values.append(float(row[position]))
        for state in self._keys.values():
            state.append_one(row, self.entry_count)
        self.entry_count += 1

    def stage(self, rows: Sequence[Tuple], multiplicities) -> "StagedDelta":
        """Encode one delta without appending it (see the class docstring).

        Keys the store has not seen are registered, so the codes stay valid,
        but no entry exists until :meth:`commit`: :meth:`buckets_for`,
        :meth:`key_codes` and the other readers do not see the delta.
        """
        self._flush()
        columns = list(zip(*rows))
        return StagedDelta(
            columns,
            np.asarray(multiplicities, dtype=np.float64),
            {
                key: state.encode(columns, len(rows))
                for key, state in self._keys.items()
            },
        )

    def commit(self, staged: "StagedDelta") -> None:
        """Append a delta :meth:`stage` encoded, at the store's current end."""
        self._flush()
        base = self.entry_count
        self._multiplicities.extend(staged.multiplicities)
        for position, values in self._floats.values():
            values.extend(np.asarray(staged.columns[position], dtype=np.float64))
        for key, state in self._keys.items():
            state.append(staged.codes[key], base)
        self.entry_count = base + staged.multiplicities.shape[0]

    # -- columnar access -----------------------------------------------------------------

    @property
    def multiplicities(self) -> np.ndarray:
        self._flush()
        return self._multiplicities.view()

    def float_column(self, attribute: str) -> np.ndarray:
        self._flush()
        return self._floats[attribute][1].view()

    def key_codes(self, attributes: Sequence[str]) -> Tuple[np.ndarray, List[Tuple]]:
        """Per-entry key code plus the distinct key tuples, in code order."""
        self._flush()
        state = self._keys[tuple(attributes)]
        return state.codes.view(), state.keys

    def probe_keys(
        self, attributes: Sequence[str], keys: Sequence[Tuple]
    ) -> List[Optional[int]]:
        """The code of each key tuple (None when no row ever carried it)."""
        self._flush()
        return list(map(self._keys[tuple(attributes)].probe, keys))

    def buckets_for(
        self, attributes: Sequence[str], keys: Sequence[Tuple]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Entry positions per requested key, concatenated in CSR form.

        Returns ``(offsets, positions)``: ``positions[offsets[i] :
        offsets[i + 1]]`` are the store entries whose key equals ``keys[i]``
        — the incremental counterpart of grouping a snapshot store's key
        codes, at cost O(matched entries) per call.
        """
        self._flush()
        state = self._keys[tuple(attributes)]
        probe = state.probe
        views: List[np.ndarray] = []
        offsets = np.zeros(len(keys) + 1, dtype=np.int64)
        total = 0
        for position, key in enumerate(keys):
            code = probe(key)
            if code is not None:
                view = state.bucket_array(code)
                views.append(view)
                total += view.shape[0]
            offsets[position + 1] = total
        if not views:
            return offsets, np.empty(0, dtype=np.int64)
        return offsets, np.concatenate(views)
