"""F-IVM: factorised incremental view maintenance with ring payloads.

The maintainer keeps one view per join-tree node, mapping the node's join key
(the attributes shared with its parent) to a payload in the covariance ring.
A base-relation update touches only the views on the leaf-to-root path of the
updated relation: the delta payload is computed from the relation's lifted
tuple and the children's current payloads, then propagated upwards.  Because
the payload carries the entire covariance-matrix batch, one propagation
maintains every aggregate at once — the cross-aggregate sharing responsible
for the throughput gap in Figure 4 (right).

The views are columnar :class:`~repro.ivm.payload_store.PayloadStore`\\ s
(key dictionary + stacked count/sums/quadratic arrays), so the maintainer has
two equivalent code paths over one state:

- **per-tuple** (``apply``): the seed's leaf-to-root walk, probing and
  updating single slots;
- **batched** (``apply_batch``): a whole per-relation update group is lifted
  into one :class:`~repro.rings.covariance.CovarianceBlock`, joined against
  the child views by key codes, and propagated to the root through the
  parent relations' own :class:`~repro.data.tuplestore.TupleStore`\\ s.
  Each row is stored, encoded and checkpointed once: a hop reads the
  parent's rows through the store's key indexes (a single attribute's codes
  are its column's dictionary codes; the slots per code play the role of
  the executor's CSR tables and are kept current incrementally, so a hop
  never pays an O(rows) re-encode), its multiplicities in place (a delete
  nets there, and only live rows hop) and its feature floats through the
  column dictionaries.  The same factorised delta rule, with every ring
  operation vectorised over the group.  The key codes of a group's rows
  reach the child views through the per-(parent, child)
  :class:`_SlotMap`\\ s the hops also use.

The batched path is *fused* across relations: instead of one leaf-to-root
propagation per touched relation, ``apply_batch`` runs a single
**multi-delta pass** over the join tree (``_apply_multi_delta``).  The pass
walks the tree one level at a time, deepest first; at every node it merges
the deltas arriving from the node's children with the node's own update
group (:func:`repro.engine.deltas.merge_keyed_deltas`), adds the merged
delta to the node's view, and performs *one* hop towards the parent.  The
fixed per-hop costs — key-code translation, bucket CSR assembly, sibling
slot-map lookups, payload gathers — are thereby paid once per *node*, not
once per (relation, ancestor) pair, which is what dominated small batches.
The slot maps resolve from *new* keys on either side, never by re-probing
outstanding misses, so facts arriving long before their dimension rows cost
nothing extra per hop.

Correctness of the fusion follows from telescoping the product delta: with
children processed in tree order, a child's hop multiplies the views of
earlier siblings *after* their deltas landed and of later siblings *before*
theirs, and a node's own group is lifted against fully-updated child views —
exactly the expansion of ``new product − old product``, so one traversal
lands on the per-relation result.  The pass needs no staging to keep a
parent's new rows from its children's hops: a node's group lands in its
relation at the node's own turn, after every child hopped.
"""

from __future__ import annotations

import time

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.colstore import _compact_codes
from repro.data.database import Database
from repro.data.tuplestore import TupleStore
from repro.engine.deltas import merge_keyed_deltas, subtree_schedule
from repro.ivm.base import CovarianceMaintainer, Update
from repro.ivm.payload_store import PayloadStore
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.join_tree import JoinTreeNode
from repro.rings.covariance import CovarianceBlock, CovariancePayload, PayloadScratch


class _SlotMap:
    """Store key code -> slot of one child view, for one (parent, child) pair.

    Both sides only grow — the parent's key index never reuses a code, a
    view never evicts a key and its slots never move — so every entry is
    settled by one dictionary probe: a key code is probed against the view
    when the index first has it, and a ``-1`` miss is filled when the *view*
    gains the key, by probing the keys the view gained since the last lookup
    against the index.  Outstanding misses are never re-probed, so
    ``probes`` stays below index keys + view keys however late the dimension
    rows arrive.  A cache over store and view: left out of checkpoints,
    rebuilt on first use.
    """

    __slots__ = ("view", "store", "attributes", "mapping", "size", "view_len",
                 "probes")

    def __init__(
        self, view: PayloadStore, store: TupleStore, attributes: Tuple[str, ...]
    ) -> None:
        self.view = view
        self.store = store
        self.attributes = attributes
        self.mapping = np.full(16, -1, dtype=np.int64)
        self.size = 0
        self.view_len = 0
        self.probes = 0

    def lookup(self) -> np.ndarray:
        view, store, attributes = self.view, self.store, self.attributes
        if len(view) > self.view_len:
            gained = view.keys(self.view_len)
            codes = store.index_probe(attributes, list(zip(*gained)), len(gained))
            for slot, code in enumerate(codes.tolist(), self.view_len):
                if 0 <= code < self.size:
                    self.mapping[code] = slot
            self.view_len += len(gained)
            self.probes += len(gained)
        needed = store.index_size(attributes)
        if needed > self.size:
            if needed > self.mapping.shape[0]:
                capacity = self.mapping.shape[0]
                while capacity < needed:
                    capacity *= 2
                grown = np.full(capacity, -1, dtype=np.int64)
                grown[: self.size] = self.mapping[: self.size]
                self.mapping = grown
            self.mapping[self.size : needed] = view.slots_for(
                store.index_keys(attributes, range(self.size, needed))
            )
            self.probes += needed - self.size
            self.size = needed
        return self.mapping[: self.size]


class FIVM(CovarianceMaintainer):
    """Factorised IVM over a view tree with covariance-ring payloads."""

    def __init__(
        self,
        schema_database: Database,
        query: ConjunctiveQuery,
        features: Sequence[str],
        root_relation: Optional[str] = None,
    ) -> None:
        super().__init__(schema_database, query, features, root_relation)
        # One payload view per node: join key -> covariance payload of the subtree.
        # Each view's payloads can only involve the features designated inside
        # its subtree; recording that support lets single-feature views (e.g.
        # a price-only dimension) multiply through thin column updates.
        self._views: Dict[str, PayloadStore] = {}
        for node in self.join_tree.nodes():
            view = PayloadStore(len(self.features))
            view.support = tuple(
                sorted(
                    self._feature_positions[feature]
                    for child in node.subtree_nodes()
                    for feature in self.features_of(child.relation_name)
                )
            )
            self._views[node.relation_name] = view
        # Per node: its sorted connection attributes and their positions.
        self._conn_attrs: Dict[str, Tuple[str, ...]] = {}
        self._conn_positions: Dict[str, List[int]] = {}
        for node in self.join_tree.nodes():
            relation = self.database.relation(node.relation_name)
            conn = tuple(sorted(node.connection_attributes()))
            self._conn_attrs[node.relation_name] = conn
            self._conn_positions[node.relation_name] = [
                relation.schema.index_of(attribute) for attribute in conn
            ]
        # Positions of each child's connection attributes inside the parent's schema.
        self._child_key_positions: Dict[Tuple[str, str], List[int]] = {}
        for node in self.join_tree.nodes():
            relation = self.database.relation(node.relation_name)
            for child in node.children:
                conn = sorted(child.connection_attributes())
                self._child_key_positions[(node.relation_name, child.relation_name)] = [
                    relation.schema.index_of(attribute) for attribute in conn
                ]
        # Propagation only ever joins against *parent* relations (leaves have
        # no readers), through key indexes on their own tuple stores: each
        # child's connection key (looked up by a hop) and the node's own (a
        # hop's output grouping; the root's empty key needs none).
        for node in self.join_tree.nodes():
            if not node.children:
                continue
            store = self.database.relation(node.relation_name).store
            if self._conn_attrs[node.relation_name]:
                store.add_index(self._conn_attrs[node.relation_name])
            for child in node.children:
                store.add_index(self._conn_attrs[child.relation_name])
        # A cache, left out of checkpoints: (parent, child) -> the parent's
        # key code -> child view slot map.
        self._slot_maps: Dict[Tuple[str, str], _SlotMap] = {}
        # The per-tuple path's fused ring workspace (see PayloadScratch).
        self._scratch = PayloadScratch(len(self.features))
        # The fused pass's traversal plan: every node after its children.
        self._schedule = subtree_schedule(self.join_tree)
        # Per relation: the node names on its leaf-to-root path, and the
        # memoised per-touched-set mini-schedules derived from them (a batch
        # only ever activates the union of its touched relations' paths, so
        # the pass iterates a pruned plan instead of the whole tree).
        self._paths: Dict[str, List[str]] = {}
        for node in self.join_tree.nodes():
            path: List[str] = []
            current: Optional[JoinTreeNode] = node
            while current is not None:
                path.append(current.relation_name)
                current = current.parent
            self._paths[node.relation_name] = path
        self._plan_cache: Dict[frozenset, List[JoinTreeNode]] = {}

    # -- helpers ------------------------------------------------------------------------------

    def _conn_key(self, relation_name: str, row: Tuple) -> Tuple:
        return tuple(row[position] for position in self._conn_positions[relation_name])

    def _slot_map(self, parent_name: str, child_name: str) -> _SlotMap:
        """The (lazily built) parent key code -> child view slot map."""
        pair = (parent_name, child_name)
        slot_map = self._slot_maps.get(pair)
        if slot_map is None:
            slot_map = self._slot_maps[pair] = _SlotMap(
                self._views[child_name],
                self.database.relation(parent_name).store,
                self._conn_attrs[child_name],
            )
        return slot_map

    def __getstate__(self) -> Dict:
        """Checkpoints carry state, not caches: slot maps and pruned plans
        are derivable from the stores, views and schedule and rebuilt on
        first use."""
        state = super().__getstate__()
        state["_slot_maps"] = {}
        state["_plan_cache"] = {}
        return state

    # -- per-tuple maintenance ------------------------------------------------------------------

    def _apply_update(self, update: Update) -> None:
        """One signed tuple update, array-native end to end.

        The update's own delta payload — ``scale(lift(row), m)`` times the
        children's view payloads at the row's child keys — is computed in the
        maintainer's :class:`~repro.rings.covariance.PayloadScratch` (no
        intermediate payload objects), added into the node's view, and then
        pushed to the root through the *same* vectorised :meth:`_hop` the
        batched path uses: a one-row block joined against the parent's tuple
        store through its key index.  The row reaches its own store after
        this, in :meth:`apply` (``Relation.add``, the only write).
        """
        name = update.relation_name
        node = self.join_tree.node(name)
        row = update.row
        scratch = self._scratch
        scratch.reset_lift(
            float(update.multiplicity),
            [(target, float(row[source])) for source, target in self._lift_plans[name]],
        )
        alive = True
        for child in node.children:
            positions = self._child_key_positions[(name, child.relation_name)]
            if len(positions) == 1:
                key = (row[positions[0]],)
            else:
                key = tuple(row[position] for position in positions)
            view = self._views[child.relation_name]
            slot = view.slot_of(key)
            if slot < 0:
                alive = False
                break
            view.multiply_scratch(scratch, slot)
        if alive:
            conn_key = self._conn_key(name, row)
            self._views[name].add_scratch(conn_key, scratch)
            if node.parent is not None:
                keys: List[Tuple] = [conn_key]
                # The hop only reads its input block (derived blocks are
                # freshly gathered), so the scratch's preallocated aliasing
                # view replaces the three per-update array copies block()
                # paid here before PR 8.
                block = scratch.block_view()
                while True:
                    hop = self._hop(node, keys, block)
                    if hop is None:
                        break
                    keys, block = hop
                    node = node.parent
                    self._views[node.relation_name].scatter_add(keys, block)
                    if node.parent is None:
                        break

    # -- batched maintenance --------------------------------------------------------------------

    def _group_delta(
        self, node: JoinTreeNode, rows: List[Tuple], netted: List[int]
    ) -> Optional[Tuple[List[Tuple], CovarianceBlock]]:
        """One update group's delta at its own node: ``(keys, block)`` or None.

        The group is lifted into one block (a feature that is not a number
        raises here, before anything is stored), lands in its relation — the
        pass calls this after every child hopped into the node's old rows,
        and before the node's own hop, which reads nothing of its own store
        — is joined against the (current) child views through the store's
        key codes of its rows, and is grouped by the node's connection key:
        the starting delta the fused pass pushes upwards.
        """
        relation_name = node.relation_name
        multiplicities = np.asarray(netted, dtype=np.float64)
        columns = list(zip(*rows))

        # Lift the whole group in one block (scaled by its multiplicities).
        plan = self._lift_plans[relation_name]
        features = np.zeros((len(rows), len(self.features)))
        for source, target in plan:
            features[:, target] = np.asarray(columns[source], dtype=np.float64)
        block = CovarianceBlock.lift(
            features, multiplicities, [target for _source, target in plan]
        )
        relation = self.database.relation(relation_name)
        store = relation.store
        first, epoch = store.row_count, store.epoch
        relation.add_batch(rows, netted, validated=True)
        # A group of new rows only (a bulk load) is the store's tail, in
        # order, and its key codes are read there instead of probed.
        appended = store.epoch == epoch and store.row_count - first == len(rows)

        # Join the lifted delta against the children's views: the rows' key
        # codes gathered through the slot maps the hops share; rows whose
        # key misses any child view produce no delta.
        alive = np.arange(len(rows), dtype=np.int64)
        gathers: List[Tuple[PayloadStore, np.ndarray]] = []
        for child in node.children:
            attributes = self._conn_attrs[child.relation_name]
            if appended:
                codes = store.index_codes(attributes)[first:]
            else:
                positions = self._child_key_positions[(relation_name, child.relation_name)]
                codes = store.index_probe(
                    attributes, [columns[position] for position in positions], len(rows)
                )
            slots = self._slot_map(relation_name, child.relation_name).lookup()[codes]
            live = slots >= 0
            if not live.all():
                alive = alive[live[alive]]
            gathers.append((self._views[child.relation_name], slots))
        if alive.size == 0:
            return None
        if alive.size < len(rows):
            block = block.take(alive)
        conn_positions = self._conn_positions[relation_name]
        if not conn_positions:
            # The root's empty connection key: one target group.  The last
            # child multiply fuses with the sum-to-one reduction, so the
            # chain never materialises a full product stack for the root.
            for view, slots in gathers[:-1]:
                block = view.multiply_into(block, slots[alive])
            if gathers:
                view, slots = gathers[-1]
                return [()], view.multiply_into_total(block, slots[alive])
            return [()], block.total_block()
        for view, slots in gathers:
            block = view.multiply_into(block, slots[alive])

        # Group the surviving delta rows by the node's connection key.
        scalar = len(conn_positions) == 1
        if scalar:
            probes = columns[conn_positions[0]]
        else:
            probes = list(zip(*(columns[position] for position in conn_positions)))
        if alive.size < len(rows):
            probes = [probes[position] for position in alive.tolist()]
        key_index: Dict[object, int] = {}
        delta_keys: List[Tuple] = []
        codes = np.empty(alive.size, dtype=np.int64)
        for output, probe in enumerate(probes):
            code = key_index.get(probe)
            if code is None:
                code = len(delta_keys)
                key_index[probe] = code
                delta_keys.append((probe,) if scalar else probe)
            codes[output] = code
        return delta_keys, block.segment_sum(codes, len(delta_keys))

    def _batch_schedule(self, touched) -> List[JoinTreeNode]:
        """The pruned traversal plan for one batch's touched relations.

        Only nodes on a touched relation's leaf-to-root path can carry a
        delta, so the full schedule is filtered down to them — preserving
        its order, which keeps the pruned pass bit-identical to the full
        one.  Plans are memoised per touched-relation set (streams repeat
        batch shapes).
        """
        key = frozenset(touched)
        plan = self._plan_cache.get(key)
        if plan is None:
            active: set = set()
            for name in key:
                active.update(self._paths[name])
            plan = [node for node in self._schedule if node.relation_name in active]
            if len(self._plan_cache) >= 64:
                self._plan_cache.clear()
            self._plan_cache[key] = plan
        return plan

    def _apply_multi_delta(self, groups: List[Tuple[str, List[Tuple], List[int]]]) -> None:
        """The fused pass: every touched relation's delta in one traversal.

        The schedule visits every node after its children.  At a node the
        contributions hopped up from its children (in tree order) are merged
        with the node's own group delta — lifted against the, by then final,
        child views — in that fixed order, so the floating-point result is
        reproducible; the merged delta is added to the node's view and
        hopped to the parent once.  Siblings keep their tree order: a node's
        delta must land in its view before a later sibling's hop reads it.
        A group's rows land in their relation at the node's own turn, so a
        child's hop reads its parent's rows as they were before the batch.
        """
        # The fused pass mutates tuple and payload stores with no internal
        # locking — it must only ever run under the single-writer gate that
        # apply()/apply_batch() hold (see CovarianceMaintainer).
        assert self._writer_gate._is_owned(), (
            "fused multi-delta pass entered without the writer gate"
        )
        started = time.perf_counter_ns()
        probes_before = sum(slot_map.probes for slot_map in self._slot_maps.values())
        grouped: Dict[str, Tuple[List[Tuple], List[int]]] = {
            name: (rows, netted) for name, rows, netted in groups
        }
        schedule = self._batch_schedule(grouped)
        pending: Dict[str, List[Tuple[List[Tuple], CovarianceBlock]]] = {
            node.relation_name: [] for node in schedule
        }
        for node in schedule:
            name = node.relation_name
            contributions = pending[name]
            if name in grouped:
                own = self._group_delta(node, *grouped[name])
                if own is not None:
                    contributions.append(own)
            if not contributions:
                continue
            keys, block = merge_keyed_deltas(contributions, CovarianceBlock.concatenate)
            self._views[name].scatter_add(keys, block)
            if node.parent is None:
                continue
            hop = self._hop(node, keys, block)
            if hop is not None:
                pending[node.parent.relation_name].append(hop)
        stats = self.executor_stats
        stats["delta_passes"] = stats.get("delta_passes", 0) + 1
        stats["delta_pass_ns"] = (
            stats.get("delta_pass_ns", 0) + time.perf_counter_ns() - started
        )
        stats["slot_map_probes"] = (
            stats.get("slot_map_probes", 0)
            + sum(slot_map.probes for slot_map in self._slot_maps.values())
            - probes_before
        )

    def _multiply_parent_lift(
        self,
        block: CovarianceBlock,
        relation_name: str,
        store: TupleStore,
        slots: np.ndarray,
    ) -> CovarianceBlock:
        """``block[i] * scale(lift(row at slots[i]), its multiplicity)``.

        Relations with no designated features lift to scaled ones, so the
        whole multiply collapses to a scale.  The fused sparse-lift product
        wins whenever the designated set is small (its work is
        ``d_local^2`` thin column updates instead of dense outer products)
        or the matched set is large; only small blocks of a feature-heavy
        relation fall back to materialising the lifted block, where the
        general multiply's few whole-array operations beat the fused path's
        many small ones.
        """
        multiplicities = store.multiplicities_view()[slots]
        local_features = self.features_of(relation_name)
        if not local_features:
            return block.scale(multiplicities)
        feature_positions = [
            self._feature_positions[feature] for feature in local_features
        ]
        features = np.zeros((slots.size, len(self.features)))
        for feature, target in zip(local_features, feature_positions):
            features[:, target] = store.floats_at(feature, slots)
        if len(feature_positions) <= 2 or slots.size >= 64:
            return block.multiply_lifted(features, multiplicities, feature_positions)
        return block.multiply(
            CovarianceBlock.lift(features, multiplicities, feature_positions)
        )

    def _hop(
        self, node: JoinTreeNode, keys: List[Tuple], block: CovarianceBlock
    ) -> Optional[Tuple[List[Tuple], CovarianceBlock]]:
        """One propagation hop: ``node``'s delta expressed at its parent.

        The hop joins the delta keys against the parent relation's tuple
        store: its key index expands the delta to the matched live parent
        rows (``items`` says which delta key each matched), the matched rows
        are lifted in one block, the sibling views are gathered by key code,
        and the result is segment-summed by the parent's own connection key
        — the per-tuple delta rule with every step over whole arrays.
        Returns the parent's ``(keys, block)`` delta, or None when nothing
        joins.
        """
        parent = node.parent
        store = self.database.relation(parent.relation_name).store
        attributes = self._conn_attrs[node.relation_name]
        codes = store.index_probe(attributes, list(zip(*keys)), len(keys))
        items, slots = store.index_lookup(attributes, codes)
        if slots.size == 0:
            return None
        contribution = self._multiply_parent_lift(
            block.take(items), parent.relation_name, store, slots
        )

        # Multiply in the other children's payloads at the matched rows.
        alive = np.arange(slots.size, dtype=np.int64)
        gathers: List[Tuple[PayloadStore, np.ndarray]] = []
        for sibling in parent.children:
            if sibling is node:
                continue
            sibling_codes = store.index_codes(self._conn_attrs[sibling.relation_name])
            slot_map = self._slot_map(parent.relation_name, sibling.relation_name)
            view_slots = slot_map.lookup()[sibling_codes[slots]]
            live = view_slots >= 0
            if not live.all():
                alive = alive[live[alive]]
            gathers.append((self._views[sibling.relation_name], view_slots))
        if alive.size == 0:
            return None
        if alive.size < slots.size:
            contribution = contribution.take(alive)
            slots = slots[alive]

        # When the whole delta collapses onto a single parent key (the
        # root's empty connection key — most hops under update-mass rooting
        # — or a parent whose rows all share one key), the final sibling
        # multiply fuses with the sum-to-one reduction: every ring term
        # becomes a dot product, no per-entry product stack is materialised.
        parent_conn = self._conn_attrs[parent.relation_name]
        single_key: Optional[Tuple] = None
        space = 0
        if not parent_conn:
            single_key = ()
        else:
            space = store.index_size(parent_conn)
            if space == 1:
                single_key = store.index_keys(parent_conn, [0])[0]
        if single_key is not None:
            for view, view_slots in gathers[:-1]:
                contribution = view.multiply_into(contribution, view_slots[alive])
            if gathers:
                view, view_slots = gathers[-1]
                return [single_key], view.multiply_into_total(
                    contribution, view_slots[alive]
                )
            return [single_key], contribution.total_block()

        for view, view_slots in gathers:
            contribution = view.multiply_into(contribution, view_slots[alive])
        compact, present = _compact_codes(store.index_codes(parent_conn)[slots], space)
        return (
            store.index_keys(parent_conn, present.tolist()),
            contribution.segment_sum(compact, present.size),
        )

    # -- results -----------------------------------------------------------------------------------

    def statistics(self) -> CovariancePayload:
        payload = self._views[self.join_tree.root.relation_name].get(())
        return payload if payload is not None else self.ring.zero()

    def view_sizes(self) -> Dict[str, int]:
        """Number of keys per maintained payload view (they stay small)."""
        return {name: len(view) for name, view in self._views.items()}
