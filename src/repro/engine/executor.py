"""View computation: one join-tree node at a time, bottom-up.

A *view* is the partial result of (a shared group of) aggregates over the
subtree rooted at a node: a map from the node's connection key (the join
attributes shared with its parent) to a map from group-by assignments to the
partial sum-product value.  Views are computed by scanning the node's relation
once, combining each tuple with the already-computed views of the children.

One code path computes views: ``_evaluate_family``, fully vectorised over
the relation's dictionary-encoded :class:`~repro.data.colstore.ColumnStore` —
filters are evaluated per distinct value and gathered through codes,
connection/group-by keys become integer row codes, and child views (including
*grouped, multi-entry* ones) are joined through CSR-style offset tables, with
no per-row Python at all.  It handles every signature whose product
attributes decode to floats; the rest (``views_tuple_fallback``) go through
:func:`scan_node_views`, a tuple-at-a-time scan with pre-resolved column
positions that doubles as the view-level reference of the equivalence tests
and as the "+specialisation" step of the Figure-6 benchmark.

The per-path view counts are reported through the ``stats`` dictionary so
callers (and benchmarks) can assert which path actually ran; views the engine
served from its cross-evaluate cache never reach this module and are counted
under :data:`STAT_CACHED` by the engine itself.
"""

from __future__ import annotations

import os as _os
import threading as _threading
from concurrent.futures import ThreadPoolExecutor as _ThreadPoolExecutor
from dataclasses import dataclass
from operator import itemgetter as _itemgetter
from typing import Callable, Dict, List, Mapping, MutableMapping, Optional, Sequence, Tuple

import numpy as _np

from repro.aggregates.spec import FilterOp
from repro.data.colstore import ColumnEncoding, ColumnStore, as_sortable_array, combine_codes
from repro.data.relation import Relation
from repro.engine.deltas import match_key_columns as _match_key_columns
from repro.engine.plan import ViewSignature
from repro.query.join_tree import JoinTreeNode

# conn_key -> (group assignment as sorted (attribute, value) pairs) -> value
View = Dict[Tuple, Dict[Tuple, float]]

EMPTY_GROUP: Tuple = ()

#: Keys used in the executor statistics dictionary.
STAT_COLUMNAR = "views_columnar"
STAT_TUPLE_FALLBACK = "views_tuple_fallback"
#: Views served from the engine's cross-evaluate view cache (never computed
#: here; the key exists so one stats dictionary covers all view outcomes).
STAT_CACHED = "views_cached"
#: Stale cached views the engine patched in place by recomputing only their
#: changed key groups after a small update (see ``LMFAOEngine``); like
#: :data:`STAT_CACHED`, counted by the engine, never by this module.
STAT_DELTA_REFRESHED = "views_delta_refreshed"
#: Stale cached *root* views the engine patched by adding the propagated
#: delta view of a small update instead of recomputing the root from scratch
#: (see ``LMFAOEngine._try_patch_root``); counted by the engine.
STAT_ROOT_PATCHED = "root_patches"


class SubtreeScheduler:
    """Dispatches independent join-tree work units onto one shared thread pool.

    The fused multi-delta pass (see :mod:`repro.ivm.fivm`) processes one tree
    level at a time; within a level, the per-parent node groups of
    :func:`repro.engine.deltas.subtree_schedule` touch disjoint maintainer
    state, so they can run concurrently.  The hot work inside a group is
    numpy-heavy enough to release the GIL, which is what makes threads pay
    off despite CPython.  The pool is shared process-wide (maintainers come
    and go per benchmark round; one pool avoids thread churn) and built
    lazily on the first parallel dispatch.

    Determinism: the scheduler only ever runs *whole groups*, each on a
    single thread, and joins them all before returning (a level barrier).
    Group results land in per-group state, never in shared accumulators, so
    the observable outcome is identical to running the groups sequentially —
    bit-identical, not merely equivalent up to float reassociation.
    """

    _pool: Optional[_ThreadPoolExecutor] = None
    _lock = _threading.Lock()

    @classmethod
    def pool(cls) -> _ThreadPoolExecutor:
        if cls._pool is None:
            with cls._lock:
                if cls._pool is None:
                    workers = max(2, min(16, _os.cpu_count() or 2))
                    cls._pool = _ThreadPoolExecutor(
                        max_workers=workers,
                        thread_name_prefix="subtree-delta",
                    )
        return cls._pool

    @classmethod
    def run_groups(cls, units: Sequence[Callable[[], None]]) -> None:
        """Run the given thunks concurrently and wait for all of them.

        A single unit runs inline (no dispatch overhead), as does everything
        on a single-core machine — threads cannot overlap there, so the
        dispatch cost would be pure loss; the sequential order is the same
        one the pool's determinism guarantees, so results are unchanged.
        Failures propagate after every submitted unit has finished, so the
        caller never observes a half-processed level.
        """
        if len(units) == 1 or (_os.cpu_count() or 1) < 2:
            inline_error: Optional[Exception] = None
            for unit in units:
                try:
                    unit()
                except Exception as exc:
                    # Only plain failures are deferred until the level
                    # completes; KeyboardInterrupt and friends must abort
                    # immediately.
                    if inline_error is None:
                        inline_error = exc
            if inline_error is not None:
                raise inline_error
            return
        futures = [cls.pool().submit(unit) for unit in units]
        error: Optional[Exception] = None
        for future in futures:
            try:
                future.result()
            except Exception as exc:
                if error is None:
                    error = exc
        if error is not None:
            raise error


def restrict_signature(
    signature: ViewSignature,
    child: JoinTreeNode,
    designation: Mapping[str, str],
) -> ViewSignature:
    """Restrict a signature to the subtree of one child node."""
    child_relations = {node.relation_name for node in child.subtree_nodes()}
    product = tuple(
        (attribute, exponent)
        for attribute, exponent in signature.product
        if designation[attribute] in child_relations
    )
    group_by = tuple(
        attribute for attribute in signature.group_by if designation[attribute] in child_relations
    )
    filters = tuple(
        condition
        for condition in signature.filters
        if designation[condition.attribute] in child_relations
    )
    return ViewSignature(
        relation_name=child.relation_name,
        product=product,
        group_by=group_by,
        filters=filters,
    )


@dataclass
class _SignatureTask:
    """Pre-resolved evaluation metadata for one signature at one node."""

    signature: ViewSignature
    local_product: List[Tuple[int, int]]          # (column position, exponent)
    local_group: List[Tuple[str, int]]            # (attribute, column position)
    local_filters: List[Tuple[int, object]]       # (column position, Filter)
    child_views: List[Tuple[List[int], View]]     # (child conn positions, child view)
    result: View


def _prepare_task(
    node: JoinTreeNode,
    relation: Relation,
    signature: ViewSignature,
    designation: Mapping[str, str],
    child_views: Mapping[Tuple[str, ViewSignature], View],
) -> _SignatureTask:
    schema = relation.schema
    here = node.relation_name

    local_product = [
        (schema.index_of(attribute), exponent)
        for attribute, exponent in signature.product
        if designation[attribute] == here
    ]
    local_group = [
        (attribute, schema.index_of(attribute))
        for attribute in signature.group_by
        if designation[attribute] == here
    ]
    local_filters = [
        (schema.index_of(condition.attribute), condition)
        for condition in signature.filters
        if designation[condition.attribute] == here
    ]

    children: List[Tuple[List[int], View]] = []
    for child in node.children:
        child_signature = restrict_signature(signature, child, designation)
        view = child_views[(child.relation_name, child_signature)]
        child_conn = sorted(child.attributes & node.attributes)
        positions = [schema.index_of(attribute) for attribute in child_conn]
        children.append((positions, view))

    return _SignatureTask(
        signature=signature,
        local_product=local_product,
        local_group=local_group,
        local_filters=local_filters,
        child_views=children,
        result={},
    )


def _scan_specialized(
    relation: Relation,
    conn_positions: Sequence[int],
    tasks: Sequence[_SignatureTask],
) -> None:
    """Single scan of ``relation`` computing all ``tasks`` (position-based access)."""
    for row, multiplicity in relation.items():
        conn_key = tuple(row[position] for position in conn_positions)
        for task in tasks:
            alive = True
            for position, condition in task.local_filters:
                if not condition.test(row[position]):
                    alive = False
                    break
            if not alive:
                continue

            factor = float(multiplicity)
            for position, exponent in task.local_product:
                factor *= float(row[position]) ** exponent

            partial: List[Tuple[Tuple, float]] = [
                (
                    tuple((attribute, row[position]) for attribute, position in task.local_group),
                    factor,
                )
            ]
            for child_positions, child_view in task.child_views:
                child_key = tuple(row[position] for position in child_positions)
                entries = child_view.get(child_key)
                if not entries:
                    alive = False
                    break
                expanded: List[Tuple[Tuple, float]] = []
                for group_pairs, value in partial:
                    for child_pairs, child_value in entries.items():
                        expanded.append((group_pairs + child_pairs, value * child_value))
                partial = expanded
            if not alive:
                continue

            groups = task.result.setdefault(conn_key, {})
            for group_pairs, value in partial:
                key = tuple(sorted(group_pairs)) if group_pairs else EMPTY_GROUP
                groups[key] = groups.get(key, 0.0) + value


class _ChildTable:
    """A child view in CSR form for vectorised joins.

    Join keys become *slots*; ``offsets[slot] .. offsets[slot + 1]`` delimit
    the view's group entries for that key inside the flat ``values`` /
    ``group_ids`` arrays.  Grouped child views therefore do not need a
    single-entry-per-key shape to be joined vectorised: a parent row matching
    a key with *k* group entries simply expands into *k* output rows.
    """

    __slots__ = ("slot_index", "offsets", "counts", "values", "group_ids",
                 "group_pairs", "has_groups", "key_columns", "group_attrs",
                 "slot_conn_ids", "conn_space", "_pair_index")

    def __init__(
        self,
        slot_index: Dict[Tuple, int],
        offsets: _np.ndarray,
        values: _np.ndarray,
        group_ids: _np.ndarray,
        group_pairs: List[Tuple],
        has_groups: bool,
        key_columns: Optional[List[_np.ndarray]] = None,
        group_attrs: Optional[Tuple[str, ...]] = None,
        slot_conn_ids: Optional[_np.ndarray] = None,
        conn_space: Optional[Tuple[object, int]] = None,
    ) -> None:
        self.slot_index = slot_index
        self.offsets = offsets
        self.counts = _np.diff(offsets)
        self.values = values
        self.group_ids = group_ids
        self.group_pairs = group_pairs
        self.has_groups = has_groups
        # Per key attribute: typed value arrays in slot order, when every
        # attribute's values reduce to a comparable numpy dtype (enables the
        # fully vectorised searchsorted join-key matching).
        self.key_columns = key_columns
        # The attribute sequence shared by every group-pair entry, when the
        # entries are known to be uniform (lets parents merge group keys with
        # one precomputed permutation instead of sorting per combination).
        self.group_attrs = group_attrs
        # Per slot: the key's code in the producing store's key space, plus
        # that space's (store, cardinality) identity — lets parents reuse one
        # cached store-to-store key mapping for every view of this child.
        self.slot_conn_ids = slot_conn_ids
        self.conn_space = conn_space
        self._pair_index: Optional[Dict[Tuple, int]] = None

    def pair_index(self) -> Dict[Tuple, int]:
        """Group pairs -> group id, built once and shared with patched copies.

        ``group_pairs`` is append-only, so a patched table (see
        :func:`patch_child_table`) extends this same dictionary and list; the
        original table's entries keep referencing their old ids unchanged.
        """
        if self._pair_index is None:
            self._pair_index = {
                pairs: gid for gid, pairs in enumerate(self.group_pairs)
            }
        return self._pair_index

    @staticmethod
    def from_view(view: "View") -> "_ChildTable":
        """Flatten a plain dict view (tuple-scan or hand-built) into CSR form."""
        slot_index: Dict[Tuple, int] = {}
        offsets = _np.empty(len(view) + 1, dtype=_np.int64)
        offsets[0] = 0
        values: List[float] = []
        group_ids: List[int] = []
        pair_index: Dict[Tuple, int] = {}
        group_pairs: List[Tuple] = []
        for slot, (key, groups) in enumerate(view.items()):
            slot_index[key] = slot
            for pairs, value in groups.items():
                values.append(value)
                gid = pair_index.get(pairs)
                if gid is None:
                    gid = len(group_pairs)
                    pair_index[pairs] = gid
                    group_pairs.append(pairs)
                group_ids.append(gid)
            offsets[slot + 1] = len(values)
        key_columns: Optional[List[_np.ndarray]] = None
        keys = list(slot_index)
        if keys and keys[0]:
            candidate = [
                as_sortable_array([key[position] for key in keys])
                for position in range(len(keys[0]))
            ]
            if all(column is not None for column in candidate):
                key_columns = candidate  # type: ignore[assignment]
        group_attrs: Optional[Tuple[str, ...]] = None
        if group_pairs:
            first = tuple(attribute for attribute, _value in group_pairs[0])
            if all(
                tuple(attribute for attribute, _value in pairs) == first
                for pairs in group_pairs
            ):
                group_attrs = first
        return _ChildTable(
            slot_index,
            offsets,
            _np.asarray(values, dtype=_np.float64),
            _np.asarray(group_ids, dtype=_np.int64),
            group_pairs,
            any(pairs != EMPTY_GROUP for pairs in group_pairs),
            key_columns,
            group_attrs,
        )


def _table_for(view: "View") -> _ChildTable:
    """CSR table of a child view, array-native when the view is columnar."""
    if isinstance(view, ColumnarView):
        return view.table()
    if isinstance(view, PatchedView):
        return view.patched_table
    return _ChildTable.from_view(view)


class PatchedView(dict):
    """A cached view refreshed in place by the delta-aware view cache.

    Behaves as the plain nested-dict view (the merged content), but carries
    a pre-patched CSR table so parent nodes keep consuming arrays instead of
    re-flattening the whole dict after every small update.
    """

    patched_table: _ChildTable


def patch_child_table(
    old: _ChildTable,
    changed_keys: Sequence[Tuple],
    replacement: Mapping[Tuple, Mapping[Tuple, float]],
) -> _ChildTable:
    """Rebuild a CSR child table with the entries of ``changed_keys`` replaced.

    Kept slots are selected with one boolean gather over the entry arrays;
    only the replacement entries are visited in Python.  The group-pair
    dictionary is shared (append-only) with the old table, so successive
    patches never re-encode the unchanged group keys.
    """
    counts = old.counts
    keep = _np.ones(counts.shape[0], dtype=bool)
    for key in changed_keys:
        slot = old.slot_index.get(key)
        if slot is not None:
            keep[slot] = False
    entry_mask = _np.repeat(keep, counts)
    kept_values = old.values[entry_mask]
    kept_group_ids = old.group_ids[entry_mask]
    kept_counts = counts[keep]

    # Kept keys stay in slot order (slot_index insertion order is slot order).
    slot_index: Dict[Tuple, int] = {}
    position = 0
    for key, slot in old.slot_index.items():
        if keep[slot]:
            slot_index[key] = position
            position += 1

    group_pairs = old.group_pairs       # shared, append-only
    pair_index = old.pair_index()       # extends in place alongside the list
    attrs = old.group_attrs
    extra_values: List[float] = []
    extra_group_ids: List[int] = []
    extra_counts: List[int] = []
    has_new_groups = False
    for key in changed_keys:
        groups = replacement.get(key)
        if not groups:
            continue
        slot_index[key] = position
        position += 1
        extra_counts.append(len(groups))
        for pairs, value in groups.items():
            if pairs and attrs is not None:
                # Align the replacement's (canonically sorted) pairs with the
                # old table's fixed attribute sequence so equal group keys
                # share one group id.
                mapping = dict(pairs)
                if len(mapping) == len(attrs) and all(a in mapping for a in attrs):
                    pairs = tuple((attribute, mapping[attribute]) for attribute in attrs)
                else:
                    attrs = None
            if pairs != EMPTY_GROUP:
                has_new_groups = True
            gid = pair_index.get(pairs)
            if gid is None:
                gid = len(group_pairs)
                pair_index[pairs] = gid
                group_pairs.append(pairs)
            extra_group_ids.append(gid)
            extra_values.append(value)

    values = kept_values
    group_ids = kept_group_ids
    all_counts = kept_counts
    if extra_values:
        values = _np.concatenate((kept_values, _np.asarray(extra_values, dtype=_np.float64)))
        group_ids = _np.concatenate(
            (kept_group_ids, _np.asarray(extra_group_ids, dtype=_np.int64))
        )
        all_counts = _np.concatenate(
            (kept_counts, _np.asarray(extra_counts, dtype=_np.int64))
        )
    offsets = _np.concatenate(
        ([0], _np.cumsum(all_counts))
    ).astype(_np.int64, copy=False)
    table = _ChildTable(
        slot_index,
        offsets,
        values,
        group_ids,
        group_pairs,
        old.has_groups or has_new_groups,
        None,            # key columns: dropped, parents fall back to probing
        attrs,
    )
    table._pair_index = pair_index
    return table


class ColumnarView(dict):
    """A view held in columnar form, materialising its dict shape lazily.

    The arrays describe one entry per *key code*: ``conn_ids[code]`` /
    ``group_ids[code]`` index the decoded connection-key and group-pair
    dictionaries, ``sums[code]`` is the aggregated value, and ``present``
    (when not None) lists the codes that actually received contributions.
    A parent node's columnar evaluation consumes :meth:`table` directly —
    the nested-dict shape is only built if somebody *reads* the view as a
    mapping (the root extraction, the tuple-scan fallback, or tests).
    """

    __slots__ = ("_conn_ids", "_group_ids", "_conn_keys", "_group_keys",
                 "_sums", "_present", "_ready", "_table", "_conn_columns",
                 "_group_attrs", "_conn_store", "_root_index")

    def __init__(
        self,
        conn_ids: _np.ndarray,
        group_ids: _np.ndarray,
        conn_keys: List[Tuple],
        group_keys: List[Tuple],
        sums: _np.ndarray,
        present: Optional[_np.ndarray],
        conn_columns: Optional[List[_np.ndarray]] = None,
        group_attrs: Optional[Tuple[str, ...]] = None,
        conn_store: Optional[ColumnStore] = None,
    ) -> None:
        super().__init__()
        self._conn_ids = conn_ids
        self._group_ids = group_ids
        self._conn_keys = conn_keys
        self._group_keys = group_keys
        self._sums = sums
        self._present = present
        self._ready = False
        self._table: Optional[_ChildTable] = None
        self._conn_columns = conn_columns
        self._group_attrs = group_attrs
        self._conn_store = conn_store
        # Canonical group pairs -> entry code, built by the first
        # apply_root_delta and maintained across patches.
        self._root_index: Optional[Dict[Tuple, int]] = None

    # -- columnar access -------------------------------------------------------------------

    def _codes(self) -> _np.ndarray:
        if self._present is None:
            return _np.arange(len(self._sums), dtype=_np.int64)
        return self._present

    @property
    def group_attrs(self) -> Optional[Tuple[str, ...]]:
        """The fixed attribute sequence of every group key, when known."""
        return self._group_attrs

    def conn_key_count_hint(self) -> int:
        """Roughly how many distinct connection keys the view holds.

        Cheap on purpose: before the dict shape exists this reads the decoded
        key list (an upper bound — unused codes may linger), afterwards the
        exact dict length.  Never triggers materialisation; the adaptive
        delta-refresh policy sizes its budget from this.
        """
        if self._ready:
            return dict.__len__(self)
        return len(self._conn_keys)

    def entry_count_hint(self) -> int:
        """Roughly how many (connection key, group) entries the view holds.

        Like :meth:`conn_key_count_hint` but at entry granularity (the root
        patch budget); reads the code arrays, never materialises the dict.
        """
        if self._ready:
            return sum(len(groups) for groups in dict.values(self))
        if self._present is not None:
            return len(self._present)
        return len(self._sums)

    def group_items(self) -> Optional[List[Tuple[Tuple, float]]]:
        """All (group pairs, value) entries when the view has no connection key.

        Lets the root extraction consume the arrays directly instead of first
        materialising the nested dict; None when a real connection key exists
        (or the dict shape was already built — then reading it is cheaper).
        """
        if self._ready or self._conn_keys != [()]:
            return None
        codes = self._codes()
        group_keys = self._group_keys
        return [
            (group_keys[group_id], value)
            for group_id, value in zip(
                self._group_ids[codes].tolist(), self._sums[codes].tolist()
            )
        ]

    def apply_root_delta(self, items: Sequence[Tuple[Tuple, float]]) -> bool:
        """Splice a signed delta into this *root* view's arrays in place.

        ``items`` are ``(group pairs, value)`` entries of a propagated delta
        view over the same signature.  Entries whose group key already exists
        are added straight into :attr:`_sums` — allocation-free, however wide
        the group-by — and only genuinely new group keys append to the
        arrays (copy-on-write, since a view family shares its key arrays).
        Returns False when the view is not patchable in place (a real
        connection key, or a delta group that cannot be aligned with the
        view's fixed attribute sequence); the caller then falls back to the
        nested-dict merge.
        """
        if self._conn_keys != [()]:
            return False
        attrs = self._group_attrs
        group_keys = self._group_keys
        group_ids = self._group_ids
        index = self._root_index
        if index is None:
            codes = self._codes()
            index = {}
            for code in codes.tolist():
                pairs = group_keys[group_ids[code]]
                index[tuple(sorted(pairs)) if pairs else EMPTY_GROUP] = code
            self._root_index = index

        # Stage the whole delta before touching any state: a mid-splice
        # abort must leave the view unmodified, or the caller's dict-merge
        # fallback would re-apply entries that already landed.
        hits: List[Tuple[int, float]] = []             # (existing code, value)
        appended: List[Tuple[Tuple, float]] = []       # (pairs in view order, value)
        staged: Dict[Tuple, int] = {}                  # canonical -> appended position
        for pairs, value in items:
            canonical = tuple(sorted(pairs)) if pairs else EMPTY_GROUP
            code = index.get(canonical)
            if code is not None:
                hits.append((code, value))
                continue
            position = staged.get(canonical)
            if position is not None:                   # duplicate delta groups fold
                appended[position] = (appended[position][0], appended[position][1] + value)
                continue
            if pairs and attrs is not None:
                mapping = dict(pairs)
                if len(mapping) == len(attrs) and all(a in mapping for a in attrs):
                    ordered = tuple((attribute, mapping[attribute]) for attribute in attrs)
                else:
                    return False     # cannot align with the fixed sequence
            elif pairs and attrs is None:
                # attrs None means every stored key is canonically sorted.
                ordered = canonical
            else:
                ordered = EMPTY_GROUP
            staged[canonical] = len(appended)
            appended.append((ordered, value))

        for code, value in hits:
            self._sums[code] += value
        for canonical, position in staged.items():
            index[canonical] = len(self._sums) + position

        if appended:
            # The key arrays may be shared with sibling views of the same
            # family: extend copies, never the originals.
            base_keys = len(group_keys)
            self._group_keys = list(group_keys) + [pairs for pairs, _v in appended]
            new_gids = _np.arange(base_keys, base_keys + len(appended), dtype=_np.int64)
            self._group_ids = _np.concatenate((group_ids, new_gids))
            self._conn_ids = _np.concatenate(
                (self._conn_ids, _np.zeros(len(appended), dtype=_np.int64))
            )
            new_codes = _np.arange(
                len(self._sums), len(self._sums) + len(appended), dtype=_np.int64
            )
            self._sums = _np.concatenate(
                (self._sums, _np.asarray([v for _p, v in appended], dtype=_np.float64))
            )
            if self._present is not None:
                self._present = _np.concatenate((self._present, new_codes))
        # Derived shapes are stale now; rebuild lazily on next read.
        self._table = None
        if self._ready:
            dict.clear(self)
            self._ready = False
        return True

    def table(self) -> _ChildTable:
        """CSR form grouped by connection key (built without the dict shape)."""
        if self._table is None:
            codes = self._codes()
            conn = self._conn_ids[codes]
            order = _np.argsort(conn, kind="stable")
            selected = codes[order]
            conn_sorted = conn[order]
            if selected.size:
                boundaries = _np.nonzero(_np.diff(conn_sorted))[0] + 1
                starts = _np.concatenate(([0], boundaries))
                offsets = _np.concatenate((starts, [selected.size]))
                distinct = conn_sorted[starts]
            else:
                offsets = _np.zeros(1, dtype=_np.int64)
                distinct = _np.empty(0, dtype=_np.int64)
            distinct_keys = [self._conn_keys[conn_id] for conn_id in distinct.tolist()]
            slot_index = {key: slot for slot, key in enumerate(distinct_keys)}
            key_columns = None
            if self._conn_columns is not None:
                key_columns = [column[distinct] for column in self._conn_columns]
            group_ids = self._group_ids[selected]
            referenced = set(_np.unique(group_ids).tolist())
            has_groups = any(
                self._group_keys[gid] != EMPTY_GROUP for gid in referenced
            )
            conn_space = None
            if self._conn_store is not None:
                conn_space = (self._conn_store, len(self._conn_keys))
            self._table = _ChildTable(
                slot_index,
                offsets.astype(_np.int64, copy=False),
                self._sums[selected],
                group_ids,
                self._group_keys,
                has_groups,
                key_columns,
                self._group_attrs,
                distinct,
                conn_space,
            )
        return self._table

    # -- lazy dict materialisation ---------------------------------------------------------

    def _canonical_keys(self) -> List[Tuple]:
        """Group keys in the canonical attribute-sorted order of the scans."""
        attrs = self._group_attrs
        keys = self._group_keys
        if attrs is None or not attrs or list(attrs) == sorted(attrs):
            return keys
        permutation = sorted(range(len(attrs)), key=attrs.__getitem__)
        if len(permutation) == 1:
            return keys
        pick = _itemgetter(*permutation)
        return [pick(pairs) if pairs else EMPTY_GROUP for pairs in keys]

    def _materialise(self) -> "ColumnarView":
        if not self._ready:
            self._ready = True
            codes = self._codes()
            conn_keys = self._conn_keys
            group_keys = self._canonical_keys()
            setdefault = dict.setdefault
            for conn_id, group_id, value in zip(
                self._conn_ids[codes].tolist(),
                self._group_ids[codes].tolist(),
                self._sums[codes].tolist(),
            ):
                groups = setdefault(self, conn_keys[conn_id], {})
                pairs = group_keys[group_id]
                groups[pairs] = groups.get(pairs, 0.0) + value
        return self

    def __getitem__(self, key):
        return dict.__getitem__(self._materialise(), key)

    def __iter__(self):
        return dict.__iter__(self._materialise())

    def __len__(self):
        return dict.__len__(self._materialise())

    def __contains__(self, key):
        return dict.__contains__(self._materialise(), key)

    def __eq__(self, other):
        if isinstance(other, ColumnarView):
            # dict.__eq__ would read the other side's raw (possibly not yet
            # materialised) backing storage directly.
            other = other._materialise()
        return dict.__eq__(self._materialise(), other)

    def __ne__(self, other):
        if isinstance(other, ColumnarView):
            other = other._materialise()
        return dict.__ne__(self._materialise(), other)

    __hash__ = None

    def __repr__(self):
        return dict.__repr__(self._materialise())

    def __bool__(self):
        return dict.__len__(self._materialise()) > 0

    def get(self, key, default=None):
        return dict.get(self._materialise(), key, default)

    def keys(self):
        return dict.keys(self._materialise())

    def values(self):
        return dict.values(self._materialise())

    def items(self):
        return dict.items(self._materialise())

    def copy(self):
        return dict(self._materialise())

    def setdefault(self, key, default=None):
        return dict.setdefault(self._materialise(), key, default)

    def pop(self, *args):
        return dict.pop(self._materialise(), *args)

    def popitem(self):
        return dict.popitem(self._materialise())

    def update(self, *args, **kwargs):
        return dict.update(self._materialise(), *args, **kwargs)

    def __reduce__(self):
        return (dict, (dict(self._materialise()),))


class _BaseKeys:
    """Joint (connection key, local group-by key) coding for one node.

    ``codes`` assigns every row its dense joint-key code; ``conn_ids`` and
    ``group_ids`` decompose each code into indices of the decoded connection
    keys and sorted group pairs.  Cached per group-by attribute tuple inside
    the :class:`ColumnarContext`, so every view family — and every later
    batch — reuses the arrays.
    """

    __slots__ = ("codes", "size", "conn_ids", "group_ids", "conn_keys",
                 "group_keys", "conn_columns", "group_attrs")

    def __init__(self, store: ColumnStore, conn: Tuple[str, ...], local: Tuple[str, ...]):
        conn_row_codes, conn_tuples = store.codes_for(conn)
        self.conn_columns = store.key_columns(conn) if conn else []
        self.group_attrs = tuple(sorted(local))
        joint = conn + tuple(a for a in local if a not in conn)
        joint_codes, joint_tuples = store.codes_for(joint)
        size = len(joint_tuples)
        self.codes = joint_codes
        self.size = size
        self.conn_keys = conn_tuples
        conn_ids = _np.zeros(size, dtype=_np.int64)
        conn_ids[joint_codes] = conn_row_codes
        self.conn_ids = conn_ids
        if local:
            local_row_codes, local_tuples = store.codes_for(local)
            group_ids = _np.zeros(size, dtype=_np.int64)
            group_ids[joint_codes] = local_row_codes
            self.group_ids = group_ids
            self.group_keys = [
                tuple(sorted(zip(local, values))) for values in local_tuples
            ]
        else:
            self.group_ids = _np.zeros(size, dtype=_np.int64)
            self.group_keys = [EMPTY_GROUP]


class ColumnarContext:
    """Columnar precomputations for one node, reusable across batches.

    Everything cached here depends only on the relation snapshot (through its
    :class:`ColumnStore`) and on stable keys — attribute tuples and filter
    conditions — never on a particular batch's child views.  The engine keeps
    these contexts alive across ``evaluate()`` calls and drops them only when
    the underlying relation's version changes.
    """

    def __init__(
        self,
        node: JoinTreeNode,
        relation: Relation,
        conn_attributes: Sequence[str],
        store: Optional[ColumnStore] = None,
    ) -> None:
        self.node = node
        self.relation = relation
        self.store = store if store is not None else relation.column_store()
        self.conn_attributes = tuple(conn_attributes)
        self._filter_masks: Dict[object, _np.ndarray] = {}
        self._base_keys: Dict[Tuple[str, ...], _BaseKeys] = {}
        # (signature, child relation) -> restricted child signature
        self.restrict_cache: Dict[Tuple[ViewSignature, str], ViewSignature] = {}
        # (key attrs, child store id) -> (store ref, parent key code -> child key code)
        self._cross_maps: Dict[Tuple, Tuple[object, Optional[_np.ndarray]]] = {}

    def filter_mask(self, condition) -> _np.ndarray:
        """Boolean row mask for one filter, evaluated over the dictionary.

        Comparison filters against typed dictionaries are pure array
        operations; anything else runs the condition's Python test once per
        *distinct* value, never per row.
        """
        key = (condition.attribute, condition.op, repr(condition.value))
        mask = self._filter_masks.get(key)
        if mask is None:
            encoding = self.store.encoding(condition.attribute)
            value_mask = _vectorised_value_mask(encoding, condition)
            if value_mask is None:
                value_mask = _np.fromiter(
                    (bool(condition.test(value)) for value in encoding.values),
                    dtype=bool,
                    count=encoding.cardinality,
                )
            mask = value_mask[encoding.codes]
            self._filter_masks[key] = mask
        return mask

    def base_keys(self, local_attributes: Tuple[str, ...]) -> _BaseKeys:
        base = self._base_keys.get(local_attributes)
        if base is None:
            base = _BaseKeys(self.store, self.conn_attributes, local_attributes)
            self._base_keys[local_attributes] = base
        return base

    def child_key_codes(self, attributes: Tuple[str, ...]) -> Tuple[_np.ndarray, List[Tuple]]:
        return self.store.codes_for(attributes)

    def cross_map(
        self, key_attributes: Tuple[str, ...], table: "_ChildTable"
    ) -> Optional[_np.ndarray]:
        """Parent key code -> child-store key code (or -1), cached per store pair.

        Every view of the same child reuses this one mapping; only a cheap
        slot scatter remains per view.
        """
        if table.conn_space is None:
            return None
        child_store, _size = table.conn_space
        # Keyed by relation name, not store identity: when the child mutates,
        # the fresh store *replaces* the stale entry instead of accumulating
        # one pinned snapshot per mutation over the engine's lifetime.
        key = (key_attributes, child_store.relation_name)  # type: ignore[attr-defined]
        cached = self._cross_maps.get(key)
        if cached is not None and cached[0] is child_store:
            return cached[1]
        parent_columns = self.store.key_columns(key_attributes)
        child_columns = child_store.key_columns(key_attributes)  # type: ignore[attr-defined]
        mapping = None
        if parent_columns is not None and child_columns is not None:
            mapping = _match_key_columns(parent_columns, child_columns)
        self._cross_maps[key] = (child_store, mapping)
        return mapping


def _vectorised_value_mask(encoding: ColumnEncoding, condition) -> Optional[_np.ndarray]:
    """Array evaluation of one filter over the dictionary values, or None.

    Only taken when numpy's comparison semantics provably coincide with the
    condition's Python ``test``: numeric dictionaries against numeric
    constants, string dictionaries against string constants.
    """
    typed = encoding.sortable_values()
    if typed is None:
        return None
    value = condition.value
    numeric = typed.dtype.kind in "iufb"
    if condition.op is FilterOp.IN:
        try:
            elements = list(value)
        except TypeError:
            return None
        if numeric:
            if not all(isinstance(e, (int, float, bool)) for e in elements):
                return None
        elif not all(isinstance(e, str) for e in elements):
            return None
        return _np.isin(typed, elements)
    if numeric:
        if not isinstance(value, (int, float, bool)):
            return None
    elif not isinstance(value, str):
        return None
    try:
        if condition.op is FilterOp.EQ:
            return typed == value
        if condition.op is FilterOp.NE:
            return typed != value
        if condition.op is FilterOp.GE:
            return typed >= value
        if condition.op is FilterOp.GT:
            return typed > value
        if condition.op is FilterOp.LE:
            return typed <= value
        if condition.op is FilterOp.LT:
            return typed < value
    except (TypeError, OverflowError):
        # e.g. a python int beyond int64 against an integer dictionary: fall
        # back to the exact per-value Python test.
        return None
    return None


def _slot_mapping(
    store: ColumnStore,
    key_attributes: Tuple[str, ...],
    table: _ChildTable,
    row_keys: List[Tuple],
) -> _np.ndarray:
    """Child-table slot (or -1) per distinct parent join-key combination.

    Keys whose attributes all reduce to comparable typed arrays are matched
    fully vectorised; everything else probes the table's key dictionary once
    per distinct combination.
    """
    if key_attributes and table.key_columns is not None:
        parent_columns = store.key_columns(key_attributes)
        if parent_columns is not None:
            mapped = _match_key_columns(parent_columns, table.key_columns)
            if mapped is not None:
                return mapped
    return _np.fromiter(
        (table.slot_index.get(key, -1) for key in row_keys),
        dtype=_np.int64,
        count=len(row_keys),
    )


@dataclass
class _ViewFamily:
    """A group of signatures at one node sharing everything but their weights.

    Signatures with identical locally-designated group-by attributes and
    identical child views differ only in which numeric columns they multiply
    and which filters zero rows out — so the engine evaluates the whole
    family with one shared pipeline (one key coding, one child-join
    expansion) and a *weight matrix* with one column per signature.  This is
    the columnar analogue of LMFAO compiling all aggregates of a batch into
    one generated scan per node.
    """

    local_attributes: Tuple[str, ...]
    children: List[Tuple[Tuple[str, ViewSignature], Tuple[str, ...]]]
    signatures: List[ViewSignature]


def _build_families(
    node: JoinTreeNode,
    signatures: Sequence[ViewSignature],
    designation: Mapping[str, str],
    restrict_cache: Dict[Tuple[ViewSignature, str], ViewSignature],
) -> List[_ViewFamily]:
    """Group distinct signatures into view families (see :class:`_ViewFamily`)."""
    here = node.relation_name
    key_attributes = [
        (child, tuple(sorted(child.attributes & node.attributes)))
        for child in node.children
    ]
    families: Dict[Tuple, _ViewFamily] = {}
    ordered: List[_ViewFamily] = []
    for signature in signatures:
        children = []
        for child, attributes in key_attributes:
            cache_key = (signature, child.relation_name)
            restricted = restrict_cache.get(cache_key)
            if restricted is None:
                restricted = restrict_signature(signature, child, designation)
                restrict_cache[cache_key] = restricted
            children.append(((child.relation_name, restricted), attributes))
        local_attributes = tuple(
            attribute for attribute in signature.group_by if designation[attribute] == here
        )
        key = (tuple(pair[0] for pair in children), local_attributes)
        family = families.get(key)
        if family is None:
            family = _ViewFamily(local_attributes, children, [])
            families[key] = family
            ordered.append(family)
        family.signatures.append(signature)
    return ordered


def _evaluate_family(
    context: ColumnarContext,
    node: JoinTreeNode,
    family: _ViewFamily,
    designation: Mapping[str, str],
    child_views: Mapping[Tuple[str, ViewSignature], View],
    child_tables: MutableMapping[Tuple[str, ViewSignature], _ChildTable],
) -> Tuple[Dict[ViewSignature, View], List[ViewSignature]]:
    """Vectorised evaluation of one view family.

    Returns the computed views plus the signatures that must fall back to the
    tuple scan (only those whose product references a non-numeric column).
    Filters *zero* a signature's weight column instead of dropping rows, so
    filtered and unfiltered signatures share the pipeline; per-signature
    presence columns (0/1 riding along unweighted) keep the semantics of the
    tuple scans — a group exists iff at least one row passing the signature's
    filters reached it, even when the contributions cancel to exactly 0.0.
    """
    here = node.relation_name
    store = context.store
    results: Dict[ViewSignature, View] = {}
    if store.row_count == 0:
        for signature in family.signatures:
            results[signature] = {}
        return results, []

    # Per-signature weight columns (multiplicity x local product, zeroed by
    # local filters) and presence columns for the filtered signatures.
    weight_columns: List[_np.ndarray] = []
    presence_columns: List[Optional[_np.ndarray]] = []
    computed: List[ViewSignature] = []
    fallback: List[ViewSignature] = []
    for signature in family.signatures:
        weights = store.multiplicities
        supported = True
        for attribute, exponent in signature.product:
            if designation[attribute] != here:
                continue
            column = store.float_column(attribute)
            if column is None:
                supported = False
                break
            weights = weights * (column if exponent == 1 else column ** exponent)
        if not supported:
            fallback.append(signature)
            continue
        mask: Optional[_np.ndarray] = None
        for condition in signature.filters:
            if designation[condition.attribute] != here:
                continue
            condition_mask = context.filter_mask(condition)
            mask = condition_mask if mask is None else (mask & condition_mask)
        if mask is not None:
            # np.where, not multiplication: `inf * 0` would turn a filtered-out
            # non-finite row into NaN, while the tuple scan skips it entirely.
            weights = _np.where(mask, weights, 0.0)
        computed.append(signature)
        weight_columns.append(weights)
        presence_columns.append(None if mask is None else mask.astype(_np.float64))
    if not computed:
        return results, fallback

    def all_empty() -> Tuple[Dict[ViewSignature, View], List[ViewSignature]]:
        for signature in computed:
            results[signature] = {}
        return results, fallback

    matrix = _np.stack(weight_columns, axis=1)            # (rows, signatures)
    filtered = [p for p in presence_columns if p is not None]
    presence = _np.stack(filtered, axis=1) if filtered else None
    base = context.base_keys(family.local_attributes)
    codes = base.codes

    # Child views: vectorised hash-join through per-key CSR offsets.  A row
    # matching a key with several group entries expands into several output
    # rows; rows without a match die (their key is absent from the join).
    components: List[_np.ndarray] = []
    decoders: List[List[Tuple]] = []
    decoder_attrs: List[Optional[Tuple[str, ...]]] = []
    rows: Optional[_np.ndarray] = None    # original row index per pipeline row
    for table_key, key_attributes in family.children:
        table = child_tables.get(table_key)
        if table is None:
            table = _table_for(child_views[table_key])
            child_tables[table_key] = table
        row_codes, row_keys = context.child_key_codes(key_attributes)
        # At most one probe per *distinct* key combination, never per row —
        # and when both sides are columnar, one cached store-to-store code
        # mapping plus a slot scatter, with no per-key work at all.
        cross = context.cross_map(key_attributes, table)
        if cross is not None and table.slot_conn_ids is not None:
            space = table.conn_space[1] if table.conn_space else 0
            inverse = _np.full(max(space, 1), -1, dtype=_np.int64)
            inverse[table.slot_conn_ids] = _np.arange(
                table.slot_conn_ids.size, dtype=_np.int64
            )
            slot_of_key = _np.where(cross >= 0, inverse[cross], -1)
        else:
            slot_of_key = _slot_mapping(store, key_attributes, table, row_keys)
        slots = slot_of_key[row_codes] if rows is None else slot_of_key[row_codes[rows]]
        live = slots >= 0
        all_live = bool(live.all())
        if all_live and bool((table.counts[slots] == 1).all()):
            # Every row matches exactly one entry: plain gather, no expansion.
            entries = table.offsets[slots]
            matrix = matrix * table.values[entries][:, None]
            if table.has_groups:
                components.append(table.group_ids[entries])
                decoders.append(table.group_pairs)
                decoder_attrs.append(table.group_attrs)
            continue
        counts = _np.zeros(slots.size, dtype=_np.int64)
        if all_live:
            counts = table.counts[slots]
        else:
            counts[live] = table.counts[slots[live]]
        total = int(counts.sum())
        if total == 0:
            return all_empty()
        repeats = _np.repeat(_np.arange(slots.size), counts)
        starts = _np.zeros(slots.size, dtype=_np.int64)
        starts[live] = table.offsets[slots[live]]
        exclusive = _np.cumsum(counts) - counts
        within = _np.arange(total, dtype=_np.int64) - _np.repeat(exclusive, counts)
        entries = _np.repeat(starts, counts) + within
        matrix = matrix[repeats] * table.values[entries][:, None]
        if presence is not None:
            presence = presence[repeats]
        codes = codes[repeats]
        rows = repeats if rows is None else rows[repeats]
        components = [component[repeats] for component in components]
        if table.has_groups:
            components.append(table.group_ids[entries])
            decoders.append(table.group_pairs)
            decoder_attrs.append(table.group_attrs)

    if not components:
        # Base codes are dense: bincount directly, no re-uniquing needed.
        size = base.size
        contributing = _np.bincount(codes, minlength=size)
        shared_present = _np.nonzero(contributing)[0]
        conn_ids, group_ids = base.conn_ids, base.group_ids
        conn_keys, group_keys = base.conn_keys, base.group_keys
        group_attrs: Optional[Tuple[str, ...]] = base.group_attrs
    else:
        columns = [codes] + components
        cardinalities = [max(base.size, 1)] + [max(len(d), 1) for d in decoders]
        codes, combos = combine_codes(columns, cardinalities)
        size = combos.shape[0]
        conn_ids = base.conn_ids[combos[:, 0]]
        conn_keys = base.conn_keys
        # Compact the group identity: a code combines (connection, group) but
        # the distinct group keys are usually far fewer than the codes, and
        # downstream consumers (parent joins, extraction) loop over them.
        group_columns = [base.group_ids[combos[:, 0]]] + [
            combos[:, position] for position in range(1, combos.shape[1])
        ]
        group_cardinalities = [max(len(base.group_keys), 1)] + [
            max(len(decoder), 1) for decoder in decoders
        ]
        group_ids, group_combos = combine_codes(group_columns, group_cardinalities)
        base_group_keys = base.group_keys
        group_keys = []
        if all(attrs is not None for attrs in decoder_attrs):
            # Group pairs stay in concatenation order; the attribute sequence
            # travels with the view and canonical (attribute-sorted) keys are
            # only produced at dict-materialisation boundaries.
            group_attrs: Optional[Tuple[str, ...]] = base.group_attrs + tuple(
                attribute for attrs in decoder_attrs for attribute in attrs  # type: ignore[union-attr]
            )
            append = group_keys.append
            for combo in group_combos.tolist():
                pairs = base_group_keys[combo[0]]
                for decoder, pair_code in zip(decoders, combo[1:]):
                    pairs = pairs + decoder[pair_code]
                append(pairs)
        else:
            group_attrs = None
            for combo in group_combos.tolist():
                pairs = base_group_keys[combo[0]]
                for decoder, pair_code in zip(decoders, combo[1:]):
                    pairs = pairs + decoder[pair_code]
                group_keys.append(tuple(sorted(pairs)) if pairs else EMPTY_GROUP)
        shared_present = None  # every combo stems from at least one pipeline row

    filtered_position = 0
    scalar_sums: Optional[_np.ndarray] = None
    if size == 1:
        # One key (scalar views): column sums replace per-signature bincounts.
        scalar_sums = matrix.sum(axis=0)
    for position, signature in enumerate(computed):
        if scalar_sums is not None:
            sums = scalar_sums[position : position + 1]
        else:
            sums = _np.bincount(codes, weights=matrix[:, position], minlength=size)
        if presence_columns[position] is None:
            present = shared_present
        else:
            passing = _np.bincount(
                codes, weights=presence[:, filtered_position], minlength=size
            )
            filtered_position += 1
            present = _np.nonzero(passing)[0]
        results[signature] = ColumnarView(
            conn_ids, group_ids, conn_keys, group_keys, sums, present,
            base.conn_columns, group_attrs, store,
        )
    return results, fallback


def _context_for(
    node: JoinTreeNode,
    relation: Relation,
    conn_attributes: Sequence[str],
    context_cache: Optional[MutableMapping[Tuple, ColumnarContext]],
) -> ColumnarContext:
    """Fetch (or build) the node's columnar context, honouring relation versions."""
    if context_cache is None:
        return ColumnarContext(node, relation, conn_attributes)
    key = (node.relation_name, tuple(conn_attributes))
    context = context_cache.get(key)
    store = relation.column_store()
    if context is None or context.store is not store:
        context = ColumnarContext(node, relation, conn_attributes, store=store)
        context_cache[key] = context
    return context


def scan_node_views(
    node: JoinTreeNode,
    relation: Relation,
    signatures: Sequence[ViewSignature],
    designation: Mapping[str, str],
    child_views: Mapping[Tuple[str, ViewSignature], View],
) -> Dict[ViewSignature, View]:
    """The views of ``signatures`` at one node by a single tuple-at-a-time scan.

    The engine's fallback for signatures the columnar path cannot take (a
    product attribute that does not decode to floats), and the semantics the
    columnar views are tested against.
    """
    conn_attributes = sorted(node.connection_attributes())
    conn_positions = [relation.schema.index_of(attribute) for attribute in conn_attributes]
    tasks = [
        _prepare_task(node, relation, signature, designation, child_views)
        for signature in signatures
    ]
    _scan_specialized(relation, conn_positions, tasks)
    return {task.signature: task.result for task in tasks}


def compute_node_views(
    node: JoinTreeNode,
    relation: Relation,
    signatures: Sequence[ViewSignature],
    designation: Mapping[str, str],
    child_views: Mapping[Tuple[str, ViewSignature], View],
    context_cache: Optional[MutableMapping[Tuple, ColumnarContext]] = None,
    stats: Optional[MutableMapping[str, int]] = None,
) -> Dict[ViewSignature, View]:
    """Compute the views for all ``signatures`` at one node.

    The distinct signatures are grouped into view families and evaluated
    vectorised over the relation's column store, sharing the per-node
    precomputation; signatures with a non-numeric product attribute fall
    back to :func:`scan_node_views`.  ``context_cache`` (used by the engine)
    carries columnar contexts across batch evaluations; ``stats`` counts how
    many views each path computed.
    """
    conn_attributes = sorted(node.connection_attributes())
    context = _context_for(node, relation, conn_attributes, context_cache)
    child_tables: Dict[Tuple[str, ViewSignature], _ChildTable] = {}
    results: Dict[ViewSignature, View] = {}
    remaining: List[ViewSignature] = []
    for family in _build_families(
        node, list(dict.fromkeys(signatures)), designation, context.restrict_cache
    ):
        computed, fallback = _evaluate_family(
            context, node, family, designation, child_views, child_tables
        )
        results.update(computed)
        remaining.extend(fallback)
    if stats is not None:
        stats[STAT_COLUMNAR] = stats.get(STAT_COLUMNAR, 0) + len(results)
        stats[STAT_TUPLE_FALLBACK] = stats.get(STAT_TUPLE_FALLBACK, 0) + len(remaining)
    if remaining:
        results.update(
            scan_node_views(node, relation, remaining, designation, child_views)
        )
    return {signature: results[signature] for signature in signatures}
