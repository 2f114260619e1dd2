"""View computation: one join-tree node at a time, bottom-up.

A *view* is the partial result of (a shared group of) aggregates over the
subtree rooted at a node: a map from the node's connection key (the join
attributes shared with its parent) to a map from group-by assignments to the
partial sum-product value.  Views are computed by scanning the node's relation
once, combining each tuple with the already-computed views of the children.
Views are *directional*: "the subtree rooted at a node" is whatever hangs
below the :class:`~repro.query.join_tree.JoinTreeNode` handed in, its parent
names the neighbour the views flow towards, and child views are looked up
under ``(child, node, signature)`` — the same node computes different views
for different neighbours, and two neighbours may well share one connection
key.

One code path computes views: ``_evaluate_family``, fully vectorised over
the relation's dictionary-encoded :class:`~repro.data.colstore.ColumnStore` —
filters are evaluated per distinct value and gathered through codes,
connection/group-by keys become integer row codes, and child views are joined
in code space with no per-row Python at all.  The views a node produces over
one key shape form a :class:`_ViewBundle` (one key coding, one value column
per view), and a parent evaluates *all* signatures reading the same child key
shapes in one pipeline (:class:`_ViewFamily`): group-free child views are
gathered by key code, *grouped, multi-entry* ones expand the rows through
CSR-style offset tables.  The path handles every signature: a product
attribute decodes through its dictionary, and a value ``float()`` rejects
raises :class:`TypeError` only where it reaches a product — in a row the
signature's local filters keep — which is where the tuple scan would fail.
That scan, :func:`repro.engine.naive.scan_node_views`, is the view-level
reference of the equivalence tests and the "+specialisation" step of the
Figure-6 benchmark; it is not a path of the engine.

The view count and ``view_pipelines``, the shared pipelines that computed
them, are reported through the ``stats`` dictionary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict, FrozenSet, List, Mapping, MutableMapping, Optional, Sequence, Tuple, Union,
)

import numpy as _np

from repro.aggregates.spec import Filter, FilterOp, InequalityCondition
from repro.data.colstore import ColumnEncoding, ColumnStore, combine_codes
from repro.data.relation import Relation
from repro.engine.deltas import match_key_columns as _match_key_columns
from repro.engine.plan import ViewSignature
from repro.query.join_tree import JoinTreeNode

EMPTY_GROUP: Tuple = ()

#: Keys used in the executor statistics dictionary.
STAT_COLUMNAR = "views_columnar"
#: Shared pipelines run (one per view family, see :class:`_ViewFamily`) to
#: compute the :data:`STAT_COLUMNAR` views.
STAT_PIPELINES = "view_pipelines"


def restrict_signature(
    signature: ViewSignature,
    child: JoinTreeNode,
    designation: Mapping[str, str],
    child_relations: Optional[FrozenSet[str]] = None,
) -> ViewSignature:
    """Restrict a signature to the subtree of one child node.

    ``child_relations`` are the relation names of that subtree, for callers
    that restrict many signatures to one child and walk it once.
    """
    if child_relations is None:
        child_relations = frozenset(node.relation_name for node in child.subtree_nodes())
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


class _ChildTable:
    """A child view in CSR form for vectorised joins.

    Join keys become *slots*; ``offsets[slot] .. offsets[slot + 1]`` delimit
    the view's group entries for that key inside the flat ``values`` /
    ``group_ids`` arrays.  Grouped child views therefore do not need a
    single-entry-per-key shape to be joined vectorised: a parent row matching
    a key with *k* group entries simply expands into *k* output rows.
    """

    __slots__ = ("offsets", "counts", "values", "group_ids", "group_pairs",
                 "has_groups", "group_attrs", "slot_conn_ids", "conn_space")

    def __init__(
        self,
        offsets: _np.ndarray,
        values: _np.ndarray,
        group_ids: _np.ndarray,
        group_pairs: List[Tuple],
        has_groups: bool,
        group_attrs: Optional[Tuple[str, ...]],
        slot_conn_ids: _np.ndarray,
        conn_space: Tuple[ColumnStore, int],
    ) -> None:
        self.offsets = offsets
        self.counts = _np.diff(offsets)
        self.values = values
        self.group_ids = group_ids
        self.group_pairs = group_pairs
        self.has_groups = has_groups
        # The attribute sequence shared by every group-pair entry, when the
        # entries are known to be uniform (lets parents merge group keys with
        # one precomputed permutation instead of sorting per combination).
        self.group_attrs = group_attrs
        # Per slot: the key's code in the producing store's key space, plus
        # that space's (store, cardinality) identity — lets parents reuse one
        # cached store-to-store key mapping for every view of this child.
        self.slot_conn_ids = slot_conn_ids
        self.conn_space = conn_space


class _ViewBundle:
    """The key coding shared by every view one pipeline produced.

    All views a node computes over the same key shape — same connection key,
    same locally-designated group-by, the same grouped children — are columns
    of one bundle: the code -> (connection key, group key) decoding lives
    here once, each :class:`ColumnarView` adds its own value column and
    presence.  A *flat* bundle (no group-by anywhere in the subtree: exactly
    one entry per connection key, so a code *is* the producing store's key
    code) needs no table at all — a parent resolves row -> code once per
    child store and gathers whichever columns its outputs need.  The other
    bundles are joined through a CSR table per view (:meth:`table`), whose
    shape is built once per distinct presence and shared by the columns.
    """

    __slots__ = ("conn_ids", "group_ids", "conn_keys", "_group_keys", "group_attrs",
                 "conn_store", "base", "base_groups", "flat", "_shapes", "_accepted")

    def __init__(
        self,
        conn_ids: _np.ndarray,
        group_ids: _np.ndarray,
        conn_keys: Sequence[Tuple],
        group_keys: Optional[List[Tuple]],
        group_attrs: Optional[Tuple[str, ...]],
        conn_store: ColumnStore,
        base: "_BaseKeys",
        flat: bool = False,
        base_groups: Optional[_np.ndarray] = None,
    ) -> None:
        self.conn_ids = conn_ids
        self.group_ids = group_ids
        self.conn_keys = conn_keys
        self._group_keys = group_keys
        self.group_attrs = group_attrs
        self.conn_store = conn_store
        #: The store's key coding the views were computed over.  Without grouped
        #: child views the group ids are its local group ids and its group keys
        #: are the bundle's (``group_keys`` is then None); with them,
        #: ``base_groups`` maps each group id to its local group id.
        self.base = base
        self.base_groups = base_groups
        self.flat = flat
        # id(presence mask) -> (the mask, pinned so the id stays unique; CSR shape)
        self._shapes: Dict[int, Tuple] = {}
        # (attribute, conditions, id(presence mask)) -> (the mask, pinned; group
        # ids of the entries it keeps; which of them each condition accepts)
        self._accepted: Dict[Tuple, Tuple] = {}

    @property
    def group_keys(self) -> List[Tuple]:
        """Per group id, its (attribute, value) pairs."""
        keys = self._group_keys
        return self.base.group_keys if keys is None else keys

    def table(self, sums: _np.ndarray, present: Optional[_np.ndarray]) -> _ChildTable:
        """CSR form of one column, grouped by connection key."""
        shape = self._shapes.get(id(present))
        if shape is None:
            if present is None:
                codes = _np.arange(len(self.conn_ids), dtype=_np.int64)
            else:
                codes = _np.nonzero(present)[0]
            conn = self.conn_ids[codes]
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
            group_ids = self.group_ids[selected]
            has_groups = any(
                self.group_keys[gid] != EMPTY_GROUP for gid in _np.unique(group_ids).tolist()
            )
            shape = (present, selected, offsets.astype(_np.int64, copy=False),
                     group_ids, has_groups, distinct)
            self._shapes[id(present)] = shape
        _pinned, selected, offsets, group_ids, has_groups, distinct = shape
        return _ChildTable(
            offsets,
            sums[selected],
            group_ids,
            self.group_keys,
            has_groups,
            self.group_attrs,
            distinct,
            (self.conn_store, len(self.conn_keys)),
        )

    def accepted(
        self, attribute: str, conditions: Tuple[Filter, ...], present: Optional[_np.ndarray]
    ) -> Tuple[_np.ndarray, _np.ndarray]:
        """The group ids of the entries ``present`` keeps, and a row per
        condition on ``attribute`` saying which of those entries it accepts.

        ``attribute`` is one of the store's own group-by attributes (the plan
        roots a filter family at its attribute's relation), so a group id's
        local key gives the attribute's dictionary code, and the code selects
        from the dictionary-value mask the store's filter masks are gathered
        from.  Memoised per presence, as :meth:`table` is: the views of a
        filter family per product share their presence, so they share the
        masks.
        """
        key = (attribute, conditions, id(present))
        cached = self._accepted.get(key)
        if cached is None:
            group_ids = self.group_ids if present is None else self.group_ids[present]
            base = self.base
            codes = base.local_tuples.dictionary_codes(base.local.index(attribute))
            if self.base_groups is not None:
                codes = codes[self.base_groups]
            per_value = _np.array([_value_mask(self.conn_store, c) for c in conditions])
            cached = self._accepted[key] = (present, group_ids, per_value[:, codes[group_ids]])
        return cached[1], cached[2]


class ColumnarView:
    """One column of a :class:`_ViewBundle`: a value and a presence array.

    The bundle decodes a *key code* into its connection key and group pairs;
    the view holds ``sums[code]``, the aggregated value, and ``present`` — a
    boolean per code marking the codes that actually received contributions
    (None: all of them).  A parent's evaluation consumes the arrays directly
    and the root extraction reads :meth:`group_items`;
    :func:`repro.engine.naive.view_as_dict` decodes a view into the tuple
    scan's nested-dict shape for the tests.  The arrays are never written
    after construction.
    """

    __slots__ = ("bundle", "sums", "present", "_table")

    def __init__(
        self, bundle: _ViewBundle, sums: _np.ndarray, present: Optional[_np.ndarray]
    ) -> None:
        self.bundle = bundle
        self.sums = sums
        self.present = present
        self._table: Optional[_ChildTable] = None

    def codes(self) -> _np.ndarray:
        """The key codes that hold an entry."""
        if self.present is None:
            return _np.arange(len(self.sums), dtype=_np.int64)
        return _np.nonzero(self.present)[0]

    @property
    def group_attrs(self) -> Optional[Tuple[str, ...]]:
        """The fixed attribute sequence of every group key, when known."""
        return self.bundle.group_attrs

    def flat_store(self) -> Optional[ColumnStore]:
        """The store whose key codes index this view's arrays, when flat."""
        return self.bundle.conn_store if self.bundle.flat else None

    def group_items(self) -> List[Tuple[Tuple, float]]:
        """All (group pairs, value) entries of a view without a connection key.

        That is a root view.  The pairs are in the bundle's concatenation
        order, which :attr:`group_attrs` names when it is not None.
        """
        codes = self.codes()
        group_keys = self.bundle.group_keys
        return [
            (group_keys[group_id], value)
            for group_id, value in zip(
                self.bundle.group_ids[codes].tolist(), self.sums[codes].tolist()
            )
        ]

    def table(self) -> _ChildTable:
        """CSR form grouped by connection key."""
        if self._table is None:
            self._table = self.bundle.table(self.sums, self.present)
        return self._table


class _BaseKeys:
    """Joint (connection key, local group-by key) coding for one node.

    ``codes`` assigns every row its dense joint-key code; ``conn_ids`` and
    ``group_ids`` decompose each code into indices of the decoded connection
    keys and sorted group pairs.  Memoised on the store per (connection,
    group-by) attribute tuples, so every view family — and every later
    batch, engine or reader of the snapshot — reuses the arrays.
    """

    __slots__ = ("codes", "size", "conn_ids", "group_ids", "conn_keys",
                 "group_attrs", "local", "local_tuples", "_group_keys")

    def __init__(self, store: ColumnStore, conn: Tuple[str, ...], local: Tuple[str, ...]):
        conn_row_codes, conn_tuples = store.codes_for(conn)
        self.group_attrs = tuple(sorted(local))
        self.local = local
        joint = conn + tuple(a for a in local if a not in conn)
        joint_codes, joint_tuples = store.codes_for(joint)
        size = len(joint_tuples)
        self.codes = joint_codes
        self.size = size
        self.conn_keys = conn_tuples
        conn_ids = _np.zeros(size, dtype=_np.int64)
        conn_ids[joint_codes] = conn_row_codes
        self.conn_ids = conn_ids
        local_row_codes, local_tuples = store.codes_for(local)
        #: The distinct local group-by keys the group ids index.
        self.local_tuples = local_tuples
        self.group_ids = _np.zeros(size, dtype=_np.int64)
        if local:
            self.group_ids[joint_codes] = local_row_codes
        self._group_keys: Optional[List[Tuple]] = None

    @property
    def group_keys(self) -> List[Tuple]:
        """Per group id, its sorted (attribute, value) pairs.

        Decoded on first read: a filter family's root view is read through
        its group ids alone.  Published with one assignment, as the store's
        own caches are.
        """
        keys = self._group_keys
        if keys is None:
            keys = [tuple(sorted(zip(self.local, values))) for values in self.local_tuples]
            self._group_keys = keys
        return keys


def _value_mask(store: ColumnStore, condition: Filter) -> _np.ndarray:
    """Boolean mask over the store's dictionary of one filter's attribute.

    Comparison filters against typed dictionaries are pure array operations;
    anything else runs the condition's Python test once per value.  Memoised
    on the store: filter masks and filter families both read it.
    """
    key = ("values", condition.attribute, condition.op, repr(condition.value))
    mask = store.derived.get(key)
    if mask is None:
        encoding = store.encoding(condition.attribute)
        mask = _vectorised_value_mask(encoding, condition)
        if mask is None:
            mask = _np.fromiter(
                (bool(condition.test(value)) for value in encoding.values),
                dtype=bool,
                count=encoding.cardinality,
            )
        store.derived[key] = mask
    return mask


def _filter_mask(store: ColumnStore, condition: Filter) -> _np.ndarray:
    """Boolean row mask for one filter: its dictionary-value mask, gathered by code.

    The condition is evaluated per *distinct* value, never per row.
    """
    key = ("filter", condition.attribute, condition.op, repr(condition.value))
    mask = store.derived.get(key)
    if mask is None:
        mask = _value_mask(store, condition)[store.encoding(condition.attribute).codes]
        store.derived[key] = mask
    return mask


def _base_keys(store: ColumnStore, conn: Tuple[str, ...], local: Tuple[str, ...]) -> _BaseKeys:
    key = ("base", conn, local)
    base = store.derived.get(key)
    if base is None:
        base = _BaseKeys(store, conn, local)
        store.derived[key] = base
    return base


def _cross_map(
    store: ColumnStore, key_attributes: Tuple[str, ...], child_store: ColumnStore
) -> _np.ndarray:
    """Parent key code -> child-store key code (or -1), memoised per store pair.

    Every view of the same child reuses this one mapping: typed key
    dictionaries are matched fully vectorised, anything else probes the
    child store's key index once per distinct parent key.
    """
    # Keyed by relation name, not store identity: when the child mutates,
    # the fresh store *replaces* the stale entry instead of accumulating one
    # kept-alive snapshot per mutation over the parent snapshot's lifetime.
    key = ("cross", key_attributes, child_store.relation_name)
    cached = store.derived.get(key)
    if cached is not None and cached[0] is child_store:
        return cached[1]
    parent_columns = store.key_columns(key_attributes)
    child_columns = child_store.key_columns(key_attributes)
    mapping = None
    if parent_columns is not None and child_columns is not None:
        mapping = _match_key_columns(parent_columns, child_columns)
    if mapping is None:
        index = child_store.key_index(key_attributes)
        row_keys = store.codes_for(key_attributes)[1]
        mapping = _np.fromiter(
            (index.get(row_key, -1) for row_key in row_keys),
            dtype=_np.int64,
            count=len(row_keys),
        )
    store.derived[key] = (child_store, mapping)
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


@dataclass
class _ViewFamily:
    """The signatures at one node that one shared pipeline evaluates.

    Signatures with the same locally-designated group-by attributes whose
    child views have the same *key shape* differ only in weights: which
    numeric columns they multiply, which filters zero rows out, and which
    value column of each child they read.  Per child, the key shape is the
    producing store when the child view is flat (see :class:`_ViewBundle`:
    every such view is indexed by that store's key codes, whatever its
    signature or the batch that computed it) and the child view itself
    otherwise (grouped children expand the pipeline rows through their own
    CSR table).  This is the columnar analogue of LMFAO's multi-output
    operator: one scan of the node per key shape, not one per combination of
    child signatures.
    """

    local_attributes: Tuple[str, ...]
    #: Per child: join-key attributes, the flat views' store (None: expand
    #: through the first member's table), and one child view per signature.
    children: List[Tuple[Tuple[str, ...], Optional[ColumnStore], List[ColumnarView]]]
    signatures: List[ViewSignature]


def _build_families(
    node: JoinTreeNode,
    signatures: Sequence[ViewSignature],
    designation: Mapping[str, str],
    child_views: Mapping[Tuple[str, str, ViewSignature], ColumnarView],
) -> List[_ViewFamily]:
    """Group distinct signatures into view families (see :class:`_ViewFamily`)."""
    here = node.relation_name
    # Per child: its join-key attributes and the relation names of its subtree.
    children = [
        (
            child,
            tuple(sorted(child.attributes & node.attributes)),
            frozenset(below.relation_name for below in child.subtree_nodes()),
        )
        for child in node.children
    ]
    families: Dict[Tuple, _ViewFamily] = {}
    for signature in signatures:
        local_attributes = tuple(a for a in signature.group_by if designation[a] == here)
        key: List[object] = [local_attributes]
        views: List[ColumnarView] = []
        stores: List[Optional[ColumnStore]] = []
        for child, _attributes, below in children:
            restricted = restrict_signature(signature, child, designation, below)
            view = child_views[(child.relation_name, here, restricted)]
            store = view.flat_store()
            views.append(view)
            stores.append(store)
            key.append(restricted if store is None else id(store))
        family = families.get(tuple(key))
        if family is None:
            family = families[tuple(key)] = _ViewFamily(
                local_attributes,
                [
                    (attributes, store, [])
                    for (_child, attributes, _below), store in zip(children, stores)
                ],
                [],
            )
        family.signatures.append(signature)
        for (_attributes, _store, members), view in zip(family.children, views):
            members.append(view)
    return list(families.values())


def _evaluate_family(
    store: ColumnStore,
    conn: Tuple[str, ...],
    node: JoinTreeNode,
    family: _ViewFamily,
    designation: Mapping[str, str],
    joins: MutableMapping[Tuple[int, int], Tuple[Optional[_ChildTable], _np.ndarray]],
) -> Dict[ViewSignature, ColumnarView]:
    """Vectorised evaluation of one view family.

    The join structure — row -> child key code per flat child store, row
    expansion through the CSR table of every other child, the output key
    coding — is resolved once; each signature then costs one weight column
    (multiplicity x local product, *zeroed* rather than dropped where a local
    filter fails, x one gathered value column per child) and one ``bincount``.
    The scratch is that one column, never a rows x outputs matrix.  Presence
    keeps the semantics of the tuple scan — a group exists iff at least one
    row passing the signature's filters, with the signature's own child
    entries present, reached it, even when the contributions cancel to
    exactly 0.0 — and is computed once per distinct (filters, child presence)
    pattern, so sibling outputs share their presence arrays by identity.
    """
    here = node.relation_name
    base = _base_keys(store, conn, family.local_attributes)
    if store.row_count == 0:
        return _empty_views(family, base, store)

    # Local weight columns (multiplicity x local product, zeroed by the local
    # filters), shared by the signatures with the same product and filters.
    local: Dict[Tuple, _np.ndarray] = {}
    masks: Dict[Tuple, Optional[_np.ndarray]] = {}
    # (signature, its position in the family, weights, local filters)
    computed: List[Tuple[ViewSignature, int, _np.ndarray, Tuple]] = []
    for member, signature in enumerate(family.signatures):
        product = tuple(pair for pair in signature.product if designation[pair[0]] == here)
        filters = tuple(c for c in signature.filters if designation[c.attribute] == here)
        if filters not in masks:
            mask: Optional[_np.ndarray] = None
            for condition in filters:
                condition_mask = _filter_mask(store, condition)
                mask = condition_mask if mask is None else (mask & condition_mask)
            masks[filters] = mask
        if (product, filters) not in local:
            weights = store.multiplicities
            for attribute, exponent in product:
                column = _product_column(store, attribute, masks[filters])
                weights = weights * (column if exponent == 1 else column ** exponent)
            if masks[filters] is not None:
                # np.where, not multiplication: `inf * 0` would turn a filtered-out
                # non-finite row into NaN, while the tuple scan skips it entirely.
                weights = _np.where(masks[filters], weights, 0.0)
            local[(product, filters)] = weights
        computed.append((signature, member, local[(product, filters)], filters))
    codes = base.codes

    # Child joins, resolved once for the whole family.  A flat child only
    # contributes the row -> key code gather (its columns are read per output
    # below); any other child is a vectorised hash-join through per-key CSR
    # offsets: a row matching a key with several group entries expands into
    # several pipeline rows.  Rows without a match die either way.
    # Per child: its columnar views (one per signature) and the pipeline rows'
    # key codes when flat, None and the rows' entry values otherwise.
    joined: List[Tuple[Optional[List[ColumnarView]], _np.ndarray]] = []
    components: List[_np.ndarray] = []
    decoders: List[List[Tuple]] = []
    decoder_attrs: List[Optional[Tuple[str, ...]]] = []
    rows: Optional[_np.ndarray] = None    # original row index per pipeline row
    for position, (key_attributes, child_store, members) in enumerate(family.children):
        join_key = (position, id(child_store if child_store is not None else members[0]))
        resolved = joins.get(join_key)
        if resolved is None:
            # One memoised store-to-store key code mapping per child store (plus
            # a slot scatter for a table), never a probe per row.
            table: Optional[_ChildTable] = None
            if child_store is not None:
                slot_of_key = _cross_map(store, key_attributes, child_store)
            else:
                table = members[0].table()
                cross = _cross_map(store, key_attributes, table.conn_space[0])
                inverse = _np.full(max(table.conn_space[1], 1), -1, dtype=_np.int64)
                inverse[table.slot_conn_ids] = _np.arange(
                    table.slot_conn_ids.size, dtype=_np.int64
                )
                slot_of_key = _np.where(cross >= 0, inverse[cross], -1)
            row_codes = store.codes_for(key_attributes)[0]
            resolved = joins[join_key] = (table, slot_of_key[row_codes])
        table, slots = resolved
        if rows is not None:
            slots = slots[rows]
        live = slots >= 0
        if bool(live.all()) and (table is None or bool((table.counts[slots] == 1).all())):
            # Every row matches exactly one entry: plain gather, no expansion.
            entries = slots if table is None else table.offsets[slots]
        else:
            counts = _np.zeros(slots.size, dtype=_np.int64)
            counts[live] = 1 if table is None else table.counts[slots[live]]
            total = int(counts.sum())
            if total == 0:
                return _empty_views(family, base, store)
            repeats = _np.repeat(_np.arange(slots.size), counts)
            if table is None:
                entries = slots[repeats]
            else:
                starts = _np.zeros(slots.size, dtype=_np.int64)
                starts[live] = table.offsets[slots[live]]
                exclusive = _np.cumsum(counts) - counts
                within = _np.arange(total, dtype=_np.int64) - _np.repeat(exclusive, counts)
                entries = _np.repeat(starts, counts) + within
            codes = codes[repeats]
            rows = repeats if rows is None else rows[repeats]
            components = [component[repeats] for component in components]
            joined = [(views, aligned[repeats]) for views, aligned in joined]
        if table is None:
            joined.append((members, entries))
            continue
        joined.append((None, table.values[entries]))
        if table.has_groups:
            components.append(table.group_ids[entries])
            decoders.append(table.group_pairs)
            decoder_attrs.append(table.group_attrs)

    everywhere: Optional[_np.ndarray] = None   # presence shared by the unfiltered outputs
    if not components:
        # Base codes are dense: bincount directly, no re-uniquing needed.
        size = base.size
        if rows is not None:       # else every code still has the rows that defined it
            everywhere = _np.bincount(codes, minlength=size) != 0
        conn_ids, group_ids = base.conn_ids, base.group_ids
        conn_keys = base.conn_keys
        group_keys: Optional[List[Tuple]] = None      # the base's, see _ViewBundle.base
        base_groups: Optional[_np.ndarray] = None
        group_attrs: Optional[Tuple[str, ...]] = base.group_attrs
    else:
        columns = [codes] + components
        cardinalities = [max(base.size, 1)] + [max(len(d), 1) for d in decoders]
        codes, combos = combine_codes(columns, cardinalities)
        size = combos.shape[0]     # every combo stems from at least one pipeline row
        conn_ids = base.conn_ids[combos[:, 0]]
        conn_keys = base.conn_keys
        # Compact the group identity: a code combines (connection, group) but
        # the distinct group keys are usually far fewer than the codes, and
        # downstream consumers (parent joins, extraction) loop over them.
        group_columns = [base.group_ids[combos[:, 0]]] + [
            combos[:, position] for position in range(1, combos.shape[1])
        ]
        group_cardinalities = [max(len(base.local_tuples), 1)] + [
            max(len(decoder), 1) for decoder in decoders
        ]
        group_ids, group_combos = combine_codes(group_columns, group_cardinalities)
        base_groups = group_combos[:, 0]
        base_group_keys = base.group_keys
        keys: List[Tuple] = []
        # When every child's group pairs have one attribute sequence, the pairs
        # stay in concatenation order: the sequence travels with the bundle,
        # and readers that need canonical (attribute-sorted) keys sort them.
        group_attrs = None
        if all(attrs is not None for attrs in decoder_attrs):
            group_attrs = base.group_attrs + tuple(
                attribute for attrs in decoder_attrs for attribute in attrs  # type: ignore[union-attr]
            )
        for combo in group_combos.tolist():
            pairs = base_group_keys[combo[0]]
            for decoder, pair_code in zip(decoders, combo[1:]):
                pairs = pairs + decoder[pair_code]
            if group_attrs is None:
                pairs = tuple(sorted(pairs)) if pairs else EMPTY_GROUP
            keys.append(pairs)
        group_keys = keys
    bundle = _ViewBundle(
        conn_ids, group_ids, conn_keys, group_keys, group_attrs, store, base,
        flat=not components and not family.local_attributes, base_groups=base_groups,
    )

    def alive_rows(filters: Tuple, member: int) -> Optional[_np.ndarray]:
        """The pipeline rows one output counts, None when it counts them all."""
        alive = masks[filters]
        if alive is not None and rows is not None:
            alive = alive[rows]
        for views, aligned in joined:
            if views is not None and views[member].present is not None:
                reached = views[member].present[aligned]
                alive = reached if alive is None else alive & reached
        return alive

    results: Dict[ViewSignature, ColumnarView] = {}
    presence: Dict[Tuple, Optional[_np.ndarray]] = {}
    # A dead row holds a 0.0 factor (zeroed weight, absent child key), which a
    # non-finite one turns into NaN — silently here, repaired below.
    with _np.errstate(invalid="ignore"):
        for signature, member, weights, filters in computed:
            column = weights if rows is None else weights[rows]
            pattern: Tuple = (filters,)
            for views, aligned in joined:
                if views is None:
                    column = column * aligned
                else:
                    column = column * views[member].sums[aligned]
                    pattern += (id(views[member].present),)
            sums = _np.bincount(codes, weights=column, minlength=size)
            if pattern not in presence:
                alive = alive_rows(filters, member)
                present = everywhere
                if alive is not None:
                    present = _np.bincount(codes, weights=alive, minlength=size) != 0
                presence[pattern] = None if present is None or bool(present.all()) else present
            if not _np.isfinite(sums).all():
                # The tuple scan skips dead rows: recount with them masked out.
                alive = alive_rows(filters, member)
                if alive is not None:
                    sums = _np.bincount(
                        codes, weights=_np.where(alive, column, 0.0), minlength=size
                    )
            results[signature] = ColumnarView(bundle, sums, presence[pattern])
    return results


def _product_column(
    store: ColumnStore, attribute: str, alive: Optional[_np.ndarray]
) -> _np.ndarray:
    """Per-row float64 values of one product attribute.

    A dictionary entry ``float()`` rejects decodes to 0.0; a row that holds
    one and that ``alive`` keeps (None: every row) raises :class:`TypeError`
    naming the relation, the attribute and the value — where the tuple scan,
    which calls ``float()`` on the rows its local filters pass, raises too.
    """
    column = store.float_column(attribute)
    if column is not None:
        return column
    encoding = store.encoding(attribute)
    numbers, non_numeric = encoding.float_values()
    offending = non_numeric[encoding.codes]
    if alive is not None:
        offending &= alive
    if offending.any():
        value = encoding.values[encoding.codes[int(_np.argmax(offending))]]
        raise TypeError(
            f"relation {store.relation_name!r}: product attribute {attribute!r} "
            f"holds the non-numeric value {value!r}"
        )
    return numbers[encoding.codes]


def _empty_views(
    family: _ViewFamily, base: _BaseKeys, store: ColumnStore
) -> Dict[ViewSignature, ColumnarView]:
    """The family's views when no row reaches an output: no code is present.

    Over the base key coding, flat when that coding is the store's connection
    key coding, so a parent joins them like any other view of the store.
    """
    bundle = _ViewBundle(
        base.conn_ids, base.group_ids, base.conn_keys, None, base.group_attrs, store, base,
        flat=not family.local_attributes,
    )
    view = ColumnarView(bundle, _np.zeros(base.size), _np.zeros(base.size, dtype=bool))
    return {signature: view for signature in family.signatures}


def filter_family_values(
    view: ColumnarView,
    attribute: str,
    group_by: Sequence[str],
    conditions: Sequence[Filter],
) -> List[Union[float, Dict[Tuple, float]]]:
    """The members' values of a filter family, read off its root view.

    ``view`` is the root view of the family's aggregate, grouped by
    ``attribute`` on top of the members' ``group_by``; a member is a masked
    sum over the view's entries whose attribute value its condition accepts.
    """
    group_ids, accepted = view.bundle.accepted(attribute, tuple(conditions), view.present)
    return _masked_values(view, group_ids, accepted, group_by)


def inequality_value(
    view: ColumnarView, condition: InequalityCondition, group_by: Sequence[str]
) -> Union[float, Dict[Tuple, float]]:
    """An additive-inequality aggregate's value, read off its root view.

    ``view`` is grouped by the condition's attributes on top of ``group_by``
    (:func:`repro.engine.plan.planned_group_by`).  The condition is tested
    once per distinct group key, summed in :meth:`InequalityCondition.test`'s
    order (a ``NaN`` fails it); a non-numeric value raises ``ValueError``.
    """
    group_ids = view.bundle.group_ids
    if view.present is not None:
        group_ids = group_ids[view.present]
    distinct, inverse = _np.unique(group_ids, return_inverse=True)
    group_keys = view.bundle.group_keys
    assignments = [dict(group_keys[group_id]) for group_id in distinct.tolist()]
    total = _np.zeros(len(assignments))
    with _np.errstate(invalid="ignore", over="ignore"):
        for attribute, weight in condition.weights:
            try:
                total += weight * _np.array([float(a[attribute]) for a in assignments])
            except (TypeError, ValueError):
                raise ValueError(
                    f"inequality {condition}: attribute {attribute!r} is not numeric"
                ) from None
        accepted = total > condition.threshold if condition.strict else total >= condition.threshold
    return _masked_values(view, group_ids, accepted[inverse][None, :], group_by)[0]


def _masked_values(
    view: ColumnarView,
    group_ids: _np.ndarray,
    accepted: _np.ndarray,
    group_by: Sequence[str],
) -> List[Union[float, Dict[Tuple, float]]]:
    """Per boolean row of ``accepted`` (over the present entries, whose group
    ids are ``group_ids``), the masked sum of a root view, scalar or keyed by
    ``group_by``.  ``np.where`` keeps a rejected ``inf``/``NaN`` entry out,
    and a group exists iff one of its accepted entries does.
    """
    sums = view.sums if view.present is None else view.sums[view.present]
    if not group_by:
        return _np.where(accepted, sums, 0.0).sum(axis=1).tolist()
    if not group_ids.size:
        return [{} for _mask in accepted]
    # Per group id, the key: its group-by values in the order asked for.
    keys: Dict[Tuple, int] = {}
    key_of_group = _np.fromiter(
        (
            keys.setdefault(tuple(map(dict(pairs).__getitem__, group_by)), len(keys))
            for pairs in view.bundle.group_keys
        ),
        dtype=_np.int64,
        count=len(view.bundle.group_keys),
    )
    key_ids = key_of_group[group_ids]
    ordered = list(keys)
    values: List[Union[float, Dict[Tuple, float]]] = []
    for alive in accepted:
        totals = _np.bincount(key_ids, weights=_np.where(alive, sums, 0.0), minlength=len(keys))
        present = _np.bincount(key_ids[alive], minlength=len(keys)) != 0
        values.append(dict(zip(
            [ordered[key] for key in _np.nonzero(present)[0].tolist()],
            totals[present].tolist(),
        )))
    return values


def compute_node_views(
    node: JoinTreeNode,
    relation: Relation,
    signatures: Sequence[ViewSignature],
    designation: Mapping[str, str],
    child_views: Mapping[Tuple[str, str, ViewSignature], ColumnarView],
    stats: Optional[MutableMapping[str, int]] = None,
) -> Dict[ViewSignature, ColumnarView]:
    """Compute the views for all ``signatures`` at one node.

    The distinct signatures are grouped into view families and evaluated
    vectorised over the relation's column store, sharing the per-node
    precomputation; what depends on the snapshot alone (filter masks, key
    codings, cross-store key maps) is memoised on the store itself, for
    every engine and reader of it.  ``child_views`` holds the views of the
    node's children under ``(child, node, signature)``; ``stats`` counts the
    views computed and the pipelines that computed them.
    """
    store = relation.column_store()
    conn = tuple(sorted(node.connection_attributes()))
    joins: Dict[Tuple[int, int], Tuple[Optional[_ChildTable], _np.ndarray]] = {}
    results: Dict[ViewSignature, ColumnarView] = {}
    families = _build_families(node, list(dict.fromkeys(signatures)), designation, child_views)
    for family in families:
        results.update(_evaluate_family(store, conn, node, family, designation, joins))
    if stats is not None:
        stats[STAT_PIPELINES] = stats.get(STAT_PIPELINES, 0) + len(families)
        stats[STAT_COLUMNAR] = stats.get(STAT_COLUMNAR, 0) + len(results)
    return {signature: results[signature] for signature in signatures}
