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
— gradient descent steps, decision-tree node splits, serving reads — reuse
the encodings, and what the engine derives from them (:attr:`ColumnStore.derived`),
instead of rebuilding per-row Python state every time.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.tuplestore import _KERNELS, decode_rows, tuplestore_stats

__all__ = [
    "ColumnEncoding",
    "ColumnStore",
    "KeyTuples",
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
            if int in kinds and _ints_exceed_float64_precision(values):
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


class KeyTuples(SequenceABC):
    """The distinct value tuples of a key, in code order, decoded on demand.

    Holds the dictionaries and the ``(distinct, arity)`` combination matrix
    :func:`combine_codes` returned.  ``len`` reads the matrix — the engine's
    own paths only ever count a key's combinations — and the first element
    access decodes every tuple, published with one assignment: readers
    racing it on a pinned snapshot at worst duplicate the work.
    """

    __slots__ = ("_values", "_combos", "_tuples")

    def __init__(self, values: List[List[object]], combos: np.ndarray) -> None:
        self._values = values
        self._combos = combos
        self._tuples: Optional[List[Tuple]] = None

    def __len__(self) -> int:
        return self._combos.shape[0]

    def dictionary_codes(self, position: int) -> np.ndarray:
        """Per key, in code order: the dictionary code of its ``position``-th value."""
        return self._combos[:, position]

    def _decoded(self) -> List[Tuple]:
        tuples = self._tuples
        if tuples is None:
            tuples = list(zip(*(
                list(map(values.__getitem__, self._combos[:, position].tolist()))
                for position, values in enumerate(self._values)
            )))
            self._tuples = tuples
        return tuples

    def __getitem__(self, index):
        return self._decoded()[index]

    def __iter__(self) -> Iterator[Tuple]:
        return iter(self._decoded())


class ColumnStore:
    """The columnar, dictionary-encoded snapshot of one relation.

    Every attribute's encoding comes from the tuple store that produced the
    snapshot; combined key codes (for any tuple of attributes) are cached, so
    connection keys, child join keys and group-by keys each pay their cost
    once per store lifetime.
    """

    def __init__(self, name, schema, version, row_count, source) -> None:
        # Built through from_tuplestore.  ``source`` is what the snapshot
        # reads from the store: (multiplicity view, [(dictionary, code view,
        # exceptions)] per column); ``_dense`` is (live slots or None,
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
            Tuple[np.ndarray, Sequence[Tuple], Optional[List[Optional[np.ndarray]]]],
        ] = {}
        self._key_indexes: Dict[Tuple[str, ...], Dict[Tuple, int]] = {}
        self._distinct_counts: Dict[Tuple[str, ...], int] = {}
        #: What the engine's executor derives from this snapshot alone (filter
        #: masks, key codings, cross-store key maps), shared by every engine
        #: and reader of it.  Entries are built in locals and published with
        #: one assignment, as the caches above are: readers sharing a pinned
        #: snapshot that race a fill at worst duplicate the work.
        self.derived: Dict[Tuple, object] = {}

    @classmethod
    def from_tuplestore(cls, name: str, schema, store) -> "ColumnStore":
        """The dense snapshot of a :class:`~repro.data.tuplestore.TupleStore`.

        Never an encode: the store encodes at the write.  The snapshot
        captures views of the store's multiplicity and code arrays and its
        dictionary lists and exception tables (the objects, not the store: a
        later sweep replaces the store's arrays, and appends only ever write
        past the views).  While the store holds no tombstone the snapshot is
        a zero-copy alias of those.  Otherwise the live slots are gathered —
        one ``compact_keep`` and one vectorised take per array, array for
        array what a sweep followed by an alias would expose — on the first
        read of ``multiplicities``, :meth:`encoding` or ``rows``, so a
        generation nobody reads never gathers.

        Either way the snapshot is valid while the owning relation's version
        is unchanged (in-place netting writes through the captured
        multiplicities; ``Relation.column_store`` guards on the version), or
        while the store is pinned for it (netting then detaches the buffer
        copy-on-write; see :meth:`~repro.data.tuplestore.TupleStore.pin`).
        """
        tuplestore_stats.bump("zero_copy_snapshots")
        columns = store.encoded_columns()
        multiplicities = store.multiplicities_view()
        snapshot = cls(name, schema, store.version, store.live, (multiplicities, columns))
        if not store.zeros:
            snapshot._dense = (None, multiplicities, [
                ColumnEncoding(values, codes) for values, codes, _exceptions in columns
            ])
        return snapshot

    def _gathered(self) -> Tuple[Optional[np.ndarray], np.ndarray, List[ColumnEncoding]]:
        """The dense state, gathered on first call.

        Built in locals and published with one assignment: readers sharing a
        pinned snapshot that race the first call at worst duplicate the work.
        """
        dense = self._dense
        if dense is None:
            multiplicities, columns = self._source
            keep = _KERNELS.compact_keep(multiplicities)
            dense = (keep, multiplicities[keep], [
                ColumnEncoding(values, codes[keep]) for values, codes, _exceptions in columns
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
        """The row tuples, aligned with ``multiplicities``: decoded from the
        codes on first read, once (racing readers of a pinned snapshot at
        worst duplicate the work)."""
        rows = self._rows
        if rows is None:
            keep = self._gathered()[0]
            rows = decode_rows(self._source[1], keep, self.row_count)
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
    ) -> Tuple[np.ndarray, Sequence[Tuple], Optional[List[Optional[np.ndarray]]]]:
        cached = self._key_cache.get(key)
        if cached is not None:
            return cached
        if not key:
            result: Tuple[np.ndarray, Sequence[Tuple], Optional[List[Optional[np.ndarray]]]] = (
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
            tuples = KeyTuples([encoding.values for encoding in encodings], combos)
            columns: Optional[List[Optional[np.ndarray]]] = []
            for position, encoding in enumerate(encodings):
                typed = encoding.sortable_values()
                columns.append(None if typed is None else typed[combos[:, position]])
            result = (codes, tuples, columns)
        self._key_cache[key] = result
        return result

    def codes_for(self, attributes: Sequence[str]) -> Tuple[np.ndarray, Sequence[Tuple]]:
        """Row codes and distinct value tuples for a combination of attributes.

        The tuples are a :class:`KeyTuples`, decoded on first element access
        (its ``len`` costs nothing).  ``codes_for(())`` maps every row to the
        single empty tuple, which lets scalar (ungrouped, connectionless)
        aggregates share the same machinery.
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
        the code arrays alone (the codes present in one attribute's
        dictionary, the combined codes of several), without materialising
        the distinct value tuples a planner never reads.
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
            encoding = self.encoding(key[0])
            count = int(np.count_nonzero(np.bincount(encoding.codes, minlength=encoding.cardinality)))
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

        The inverse of :meth:`codes_for`'s tuple list; the executor probes
        it to align a child view's key tuples with this store's code space.
        (F-IVM's propagation reads the relation's tuple store instead,
        through :meth:`~repro.data.tuplestore.TupleStore.add_index`.)
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

