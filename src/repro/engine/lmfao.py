"""The LMFAO-style batch engine.

``LMFAOEngine`` evaluates an :class:`~repro.aggregates.spec.AggregateBatch`
over a feature-extraction query without materialising the join:

1. build a join tree of the (acyclic) query;
2. decompose every aggregate into per-node view signatures (aggregate
   pushdown) and deduplicate identical signatures (sharing);
3. evaluate views bottom-up, sharing the scan of each relation across the
   views rooted at it, optionally in parallel across independent nodes;
4. assemble the final aggregate values at the root.

Specialisation (the vectorised columnar executor) and sharing are always on;
the Figure-6 ablation that takes them away again lives in
``benchmarks/bench_figure6_ablation.py``, not behind switches here.
"""

from __future__ import annotations

import os
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from collections import OrderedDict

import numpy as np

from repro.aggregates.spec import Aggregate, AggregateBatch
from repro.data.database import Database
from repro.data.relation import Relation
from repro.engine.executor import (
    STAT_CACHED,
    STAT_DELTA_REFRESHED,
    STAT_ROOT_PATCHED,
    ColumnarContext,
    ColumnarView,
    PatchedView,
    View,
    _ChildTable,
    _table_for,
    compute_node_views,
    patch_child_table,
    restrict_signature,
)
from repro.engine.deltas import rows_matching_keys
from repro.engine.plan import BatchPlan, ViewSignature, plan_batch
from repro.engine.naive import evaluate_aggregate_over_rows
from repro.engine.statistics import RootChoice, choose_root
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.join_tree import JoinTree, JoinTreeNode, build_join_tree

AggregateValue = Union[float, Dict[Tuple, float]]

#: The stale ``(signature, cached view)`` entries one logged change set can
#: refresh, the ``(row, signed multiplicity)`` changes, and the key budget.
_RefreshGroup = Tuple[List[Tuple[ViewSignature, View]], List[Tuple[Tuple, int]], int]


def _sub_relation_from_mask(relation: Relation, store, mask) -> Relation:
    """The relation restricted to the masked store rows, built in one batch.

    The rows come straight off the (zero-copy) store arrays — distinct by
    construction, so the batched insert takes the pure-append path with a
    single version bump.
    """
    positions = np.nonzero(mask)[0].tolist()
    rows = store.rows
    multiplicities = store.multiplicities
    sub_relation = Relation(relation.name, relation.schema)
    sub_relation.add_batch(
        [rows[position] for position in positions],
        [int(multiplicities[position]) for position in positions],
        validated=True,
    )
    return sub_relation


def _root_delta_items(delta_view: View) -> List[Tuple[Tuple, float]]:
    """The ``(group pairs, value)`` entries of a root delta view.

    Read straight off the arrays when the delta is columnar (no dict
    materialisation for a view consumed exactly once), off the nested dict's
    single empty connection key otherwise.
    """
    if isinstance(delta_view, ColumnarView):
        items = delta_view.group_items()
        if items is not None:
            return items
    return list(delta_view.get((), {}).items())


def _conn_key_hint(view: View) -> int:
    """Roughly how many connection keys a cached view holds (cheap, no
    materialisation) — the group-count estimate the adaptive delta-refresh
    budget is sized from."""
    if isinstance(view, ColumnarView):
        return view.conn_key_count_hint()
    try:
        return len(view)
    except TypeError:
        return 0


def _root_group_hint(view: View) -> int:
    """Roughly how many group entries a cached *root* view holds (cheap, no
    materialisation) — the estimate the adaptive root-patch budget is sized
    from."""
    if isinstance(view, ColumnarView):
        return view.entry_count_hint()
    getter = getattr(view, "get", None)
    if getter is None:
        return 0
    groups = getter((), None)
    return len(groups) if groups is not None else 0


#: The adaptive refresh budget (see :func:`refresh_budget`): a stale cached
#: view is refreshed through the delta paths while the logged change set and
#: the changed-key set it induces stay within ``max(REFRESH_KEY_FLOOR,
#: groups // REFRESH_GROUP_DIVISOR)`` — a floor that keeps small views on the
#: splice path, and a quarter of the groups beyond which a full recompute is
#: judged cheaper.
REFRESH_KEY_FLOOR = 64
REFRESH_GROUP_DIVISOR = 4


def refresh_budget(group_hint: int) -> int:
    """The changed-key budget the delta paths may spend on one cached view."""
    return max(REFRESH_KEY_FLOOR, int(group_hint) // REFRESH_GROUP_DIVISOR)


def _patched_root_view(old_view: View, delta_view: View) -> View:
    """The cached root view plus a propagated delta view.

    A columnar view is patched in place on its arrays; a view the in-place
    patch cannot represent (a plain dict from the tuple fallback or an empty
    join, or a delta group that does not align with the view's attribute
    sequence) is merged into a fresh nested dict.
    """
    if isinstance(old_view, ColumnarView) and old_view.apply_root_delta(
        _root_delta_items(delta_view)
    ):
        return old_view
    merged: Dict[Tuple, Dict[Tuple, float]] = dict(old_view.items())
    for conn_key, delta_groups in delta_view.items():
        base = dict(merged.get(conn_key, {}))
        for pairs, value in delta_groups.items():
            base[pairs] = base.get(pairs, 0.0) + value
        merged[conn_key] = base
    return merged


@dataclass
class EngineOptions:
    """The engine's configuration.

    ``parallel`` / ``workers``
        Evaluate independent join-tree nodes of one level concurrently on a
        thread pool of ``workers`` threads (``None``: derived from the cpu
        count).
    ``root_relation``
        Force a specific join-tree root.  ``None`` (default) scores every
        candidate root with the statistics-based model of
        :mod:`repro.engine.statistics` and picks the cheapest once, at
        construction.
    ``cache_views``
        Keep computed views alive across :meth:`LMFAOEngine.evaluate` calls,
        keyed by ``(node, signature)`` and guarded by the versions of every
        relation in the node's subtree — an unchanged subtree is never
        recomputed, so repeated identical batches (IVM refresh loops,
        benchmark rounds, gradient-descent steps re-deriving the same
        statistics) skip almost all view work, and a cached view whose
        subtree saw a small update is refreshed through the delta paths
        (:meth:`LMFAOEngine._try_delta_refresh`) instead of recomputed.
    ``view_cache_size``
        Upper bound on cached views per engine; least-recently-used entries
        are evicted beyond it.
    """

    parallel: bool = False
    workers: Optional[int] = None
    root_relation: Optional[str] = None
    cache_views: bool = True
    view_cache_size: int = 512

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1 or None, got {self.workers!r}")

    def resolved_workers(self) -> int:
        """The thread-pool size: explicit ``workers`` or a cpu-count default."""
        if self.workers is not None:
            return self.workers
        return max(2, min(16, os.cpu_count() or 2))


@dataclass
class BatchResult:
    """Results of one batch evaluation plus execution statistics."""

    batch: AggregateBatch
    values: Dict[str, AggregateValue]
    plan_summary: Dict[str, float] = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    views_computed: int = 0
    #: How many views each executor path computed (see executor.STAT_* keys);
    #: lets callers assert that e.g. no view fell off the vectorised path.
    executor_stats: Dict[str, int] = field(default_factory=dict)

    def __getitem__(self, name: str) -> AggregateValue:
        return self.values[name]

    def __contains__(self, name: str) -> bool:
        return name in self.values

    def value_of(self, aggregate: Aggregate) -> AggregateValue:
        return self.values[aggregate.name]

    def scalar(self, name: str) -> float:
        value = self.values[name]
        if isinstance(value, dict):
            raise TypeError(f"aggregate {name!r} is grouped; use grouped() instead")
        return float(value)

    def grouped(self, name: str) -> Dict[Tuple, float]:
        value = self.values[name]
        if not isinstance(value, dict):
            raise TypeError(f"aggregate {name!r} is scalar; use scalar() instead")
        return value

    def as_mapping(self) -> Dict[str, AggregateValue]:
        return dict(self.values)


class LMFAOEngine:
    """Layered multiple functional aggregate optimisation, in Python.

    The engine is built once per (database, query) pair and amortises work
    across :meth:`evaluate` calls through three caches:

    - **columnar contexts** (always on): per-node dictionary encodings, key
      codings, filter masks and cross-store key maps, refreshed lazily when
      the underlying :attr:`Relation.version` changes;
    - **the view cache** (``options.cache_views``): computed views keyed by
      ``(node, signature)`` and guarded by the version of every relation in
      the node's subtree — see :meth:`_evaluate_views`;
    - **the join-tree root**: chosen once at construction by the cost model
      unless ``options.root_relation`` forces it; :attr:`root_choice`
      records the per-candidate estimates for introspection.

    All caches invalidate through :attr:`Relation.version` — any mutation
    (``add``/``remove``/``clear``, including IVM deltas) bumps the counter
    and the affected state is rebuilt on the next evaluation; nothing needs
    to be invalidated eagerly.
    """

    def __init__(
        self,
        database: Database,
        query: ConjunctiveQuery,
        options: Optional[EngineOptions] = None,
    ) -> None:
        self.database = database
        self.query = query
        self.options = options or EngineOptions()
        #: How the root was picked (candidate costs included); None when the
        #: caller forced ``root_relation``.
        self.root_choice: Optional[RootChoice] = None
        self.join_tree = self._build_join_tree()
        # Columnar contexts survive across evaluate() calls: repeated batch
        # evaluations (gradient descent, decision-tree splits, IVM refreshes)
        # reuse the dictionary encodings.  Entries auto-refresh when the
        # underlying relation's version changes.
        self._context_cache: Dict[Tuple, ColumnarContext] = {}
        # The cross-evaluate view cache: (node, signature) -> (the versions
        # of every relation in the node's subtree at computation time, view).
        self._view_cache: "OrderedDict[Tuple[str, ViewSignature], Tuple[Tuple[int, ...], View]]" = (
            OrderedDict()
        )
        # Per node: the sorted relation names of its subtree (fixed once the
        # tree is rooted), used to assemble the cache guard cheaply.
        self._subtree_names: Dict[str, Tuple[str, ...]] = {
            node.relation_name: tuple(
                sorted(child.relation_name for child in node.subtree_nodes())
            )
            for node in self.join_tree.nodes()
        }
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_finalizer: Optional[weakref.finalize] = None
        # Observed per-view costs (EWMA seconds), per node: what a full
        # recompute of one of the node's views costs vs what refreshing one
        # through the delta paths costs.  The refresh policy consults these
        # before attempting a refresh — the touched-group fraction bounds
        # how much splicing is worth *trying*, but only a measured
        # comparison can tell whether this node's recompute is so cheap
        # that the refresh machinery loses outright (the PR-5 crossover
        # observation).
        self._recompute_cost: Dict[str, float] = {}
        self._refresh_cost: Dict[str, float] = {}

    # -- construction ---------------------------------------------------------------------

    def _build_join_tree(self) -> JoinTree:
        hypergraph = self.query.hypergraph(self.database)
        root = self.options.root_relation
        if root is not None:
            return build_join_tree(hypergraph, root=root)
        unrooted = build_join_tree(hypergraph)
        self.root_choice = choose_root(self.database, unrooted)
        root = self.root_choice.root
        if root == unrooted.root.relation_name:
            return unrooted
        return unrooted.rerooted(root)

    def rebind_database(self, database: Database) -> None:
        """Point the engine at another database with the same query schema.

        The serving layer evaluates each read against a pinned snapshot
        database; per-reader engines are reused across reads by rebinding
        instead of being rebuilt.  Every cache stays in place and keeps
        being correct through its existing guards: columnar contexts are
        keyed by store identity, and cached views are guarded by the
        subtree's relation versions — a relation whose version is unchanged
        across generations is bitwise unchanged (every mutation bumps the
        counter), so a cache hit from an earlier generation is exact.

        The new database must serve the same relation names with the same
        attribute names; the join tree is schema-derived and is kept as-is.
        """
        if database is self.database:
            return
        for name in self.query.relation_names:
            if name not in database:
                raise ValueError(f"rebind target lacks relation {name!r}")
            if database.relation(name).schema.names != self.database.relation(name).schema.names:
                raise ValueError(
                    f"rebind target changes the schema of relation {name!r}"
                )
        self.database = database

    # -- evaluation ------------------------------------------------------------------------

    def plan(self, batch: AggregateBatch) -> BatchPlan:
        return plan_batch(batch, self.join_tree)

    def close(self) -> None:
        """Release the worker pool, cached columnar contexts and cached views."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            if self._pool_finalizer is not None:
                self._pool_finalizer.detach()
                self._pool_finalizer = None
        self._context_cache.clear()
        self._view_cache.clear()

    def __enter__(self) -> "LMFAOEngine":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.options.resolved_workers())
            # Reclaim the idle worker threads when the engine is collected,
            # even if the caller never invokes close().
            self._pool_finalizer = weakref.finalize(
                self, self._pool.shutdown, wait=False
            )
        return self._pool

    def evaluate(self, batch: AggregateBatch) -> BatchResult:
        """Evaluate all aggregates of ``batch`` and return their values.

        Evaluations are incremental across calls: with ``cache_views`` on,
        views whose subtree relations have not changed since the last call
        are served from the view cache (``executor_stats["views_cached"]``
        counts them), so repeating an identical batch over unchanged data is
        nearly free, and after an update only the root-path above the mutated
        relation is recomputed.
        """
        started = time.perf_counter()
        plan = self.plan(batch)
        stats: Dict[str, int] = {}
        views = self._evaluate_views(plan, stats)

        values: Dict[str, AggregateValue] = {}
        root_name = self.join_tree.root.relation_name
        for decomposition in plan.decompositions:
            aggregate = decomposition.aggregate
            root_view = views[(root_name, decomposition.root_signature)]
            values[self._unique_name(aggregate, values)] = self._extract(aggregate, root_view)

        if plan.unsupported:
            self._evaluate_unsupported(plan.unsupported, values)

        elapsed = time.perf_counter() - started
        return BatchResult(
            batch=batch,
            values=values,
            plan_summary=plan.summary(),
            elapsed_seconds=elapsed,
            views_computed=plan.total_views,
            executor_stats=stats,
        )

    # -- internals ---------------------------------------------------------------------------

    @staticmethod
    def _unique_name(aggregate: Aggregate, existing: Mapping[str, AggregateValue]) -> str:
        name = aggregate.name or "aggregate"
        if name not in existing:
            return name
        suffix = 2
        while f"{name}#{suffix}" in existing:
            suffix += 1
        return f"{name}#{suffix}"

    def _subtree_versions(self, node: JoinTreeNode) -> Tuple[int, ...]:
        """The cache guard: versions of every relation in ``node``'s subtree."""
        return tuple(
            self.database.relation(name).version
            for name in self._subtree_names[node.relation_name]
        )

    def _evaluate_views(
        self, plan: BatchPlan, stats: Optional[Dict[str, int]] = None
    ) -> Dict[Tuple[str, ViewSignature], View]:
        """Evaluate all planned views bottom-up over the join tree.

        With ``cache_views`` on, each node's signatures are first resolved
        against the cross-evaluate view cache: an entry hits when the
        versions of *all* relations in the node's subtree are unchanged
        since the view was computed — the view's value depends on nothing
        else once the tree and designation are fixed.  Hits are
        served as-is (and count as ``views_cached`` in the stats); only the
        missing signatures reach the executor, and freshly computed views are
        inserted back with LRU eviction beyond ``view_cache_size``.
        """
        views: Dict[Tuple[str, ViewSignature], View] = {}
        levels = self._nodes_by_depth()
        cache = self._view_cache if self.options.cache_views else None

        def resolve_cached(node: JoinTreeNode) -> Tuple[List[ViewSignature], Tuple[int, ...]]:
            """Serve cache hits for one node; return the signatures left to compute.

            Stale entries are first offered to the delta-refresh path (see
            :meth:`_try_delta_refresh`): after a small update only the
            changed key groups of a cached view are recomputed, instead of
            the whole view.
            """
            signatures = plan.views_per_node[node.relation_name]
            if cache is None:
                return list(signatures), ()
            versions = self._subtree_versions(node)
            pending: List[ViewSignature] = []
            stale: List[Tuple[ViewSignature, Tuple[Tuple[int, ...], View]]] = []
            hits = 0
            for signature in signatures:
                entry = cache.get((node.relation_name, signature))
                if entry is not None and entry[0] == versions:
                    cache.move_to_end((node.relation_name, signature))
                    views[(node.relation_name, signature)] = entry[1]
                    hits += 1
                elif entry is not None:
                    stale.append((signature, entry))
                else:
                    pending.append(signature)
            if stale:
                pending.extend(
                    self._try_delta_refresh(node, stale, versions, plan, views, stats)
                )
            if hits and stats is not None:
                stats[STAT_CACHED] = stats.get(STAT_CACHED, 0) + hits
            return pending, versions

        def store_cached(
            node: JoinTreeNode, versions: Tuple[int, ...], computed: Dict[ViewSignature, View]
        ) -> None:
            if cache is not None:
                self._cache_views(node.relation_name, versions, computed)

        def run_node(
            node: JoinTreeNode,
            signatures: Sequence[ViewSignature],
            node_stats: Optional[Dict[str, int]],
        ) -> Dict[ViewSignature, View]:
            started = time.perf_counter()
            computed = compute_node_views(
                node,
                self.database.relation(node.relation_name),
                signatures,
                plan.designation,
                views,
                context_cache=self._context_cache,
                stats=node_stats,
            )
            if signatures:
                self._observe_cost(
                    self._recompute_cost,
                    node.relation_name,
                    (time.perf_counter() - started) / len(signatures),
                )
            return computed

        def merge_stats(node_stats: Dict[str, int]) -> None:
            if stats is not None:
                for key, count in node_stats.items():
                    stats[key] = stats.get(key, 0) + count

        for depth in sorted(levels, reverse=True):
            nodes = levels[depth]
            pending: Dict[str, Tuple[List[ViewSignature], Tuple[int, ...]]] = {}
            for node in nodes:
                pending[node.relation_name] = resolve_cached(node)
            runnable = [
                node for node in nodes if pending[node.relation_name][0]
            ]
            if self.options.parallel and len(runnable) > 1:
                # One pool for the whole engine lifetime: constructing and
                # tearing down an executor per tree level costs more than the
                # per-level work it parallelises.
                pool = self._ensure_pool()
                futures = []
                for node in runnable:
                    per_node: Dict[str, int] = {}
                    signatures = pending[node.relation_name][0]
                    futures.append(
                        (pool.submit(run_node, node, signatures, per_node), node, per_node)
                    )
                for future, node, node_stats in futures:
                    computed = future.result()
                    for signature, view in computed.items():
                        views[(node.relation_name, signature)] = view
                    store_cached(node, pending[node.relation_name][1], computed)
                    merge_stats(node_stats)
            else:
                for node in runnable:
                    node_stats: Dict[str, int] = {}
                    signatures = pending[node.relation_name][0]
                    computed = run_node(node, signatures, node_stats)
                    for signature, view in computed.items():
                        views[(node.relation_name, signature)] = view
                    store_cached(node, pending[node.relation_name][1], computed)
                    merge_stats(node_stats)
        return views

    # -- delta-aware cache refresh -------------------------------------------------------

    def _cache_views(
        self, name: str, versions: Tuple[int, ...], computed: Mapping[ViewSignature, View]
    ) -> None:
        """Insert one node's views as most-recently-used; evict beyond the bound."""
        cache = self._view_cache
        for signature, view in computed.items():
            cache[(name, signature)] = (versions, view)
            cache.move_to_end((name, signature))
        limit = max(int(self.options.view_cache_size), 0)
        while len(cache) > limit:
            cache.popitem(last=False)

    @staticmethod
    def _observe_cost(table: Dict[str, float], name: str, seconds: float) -> None:
        """Fold one per-view cost observation into the node's EWMA."""
        previous = table.get(name)
        table[name] = seconds if previous is None else 0.5 * previous + 0.5 * seconds

    def _refresh_pays(self, name: str) -> bool:
        """Whether a stale view at this node should attempt a delta refresh.

        Optimistic until both sides are measured (the initial evaluate
        records every node's recompute cost, the first attempted refresh
        records the refresh side), then a plain comparison of the per-view
        EWMAs.  Nodes whose full recompute is cheaper than the splice
        machinery — small views over fast scans, the case behind the PR-5
        crossover note — settle on recompute within an update or two; the
        recompute estimate stays fresh there because declining a refresh
        routes the views straight back through the timed compute path.
        """
        refresh = self._refresh_cost.get(name)
        recompute = self._recompute_cost.get(name)
        if refresh is None or recompute is None:
            return True
        return refresh <= recompute

    def _refreshable_groups(
        self,
        node: JoinTreeNode,
        stale: List[Tuple[ViewSignature, Tuple[Tuple[int, ...], View]]],
        versions: Tuple[int, ...],
        group_hint: Callable[[View], int],
    ) -> Tuple[List[ViewSignature], Dict[Tuple[str, int], _RefreshGroup]]:
        """Sort a node's stale cache entries into recompute vs delta-refresh.

        An entry qualifies for the delta paths when the measured costs say a
        refresh pays at this node (:meth:`_refresh_pays`), exactly one
        relation in the node's subtree changed since the entry was cached,
        and that relation's change log still covers the gap within the
        view's budget (:func:`refresh_budget`, sized from ``group_hint`` of
        the largest member — views cached for the same node share their
        group structure, so that is the honest fraction denominator for all
        of them).  Returns the signatures left for a full recompute, and per
        ``(changed relation, cached version)`` the qualifying ``(signature,
        cached view)`` members, the logged changes and the budget.
        """
        if not self._refresh_pays(node.relation_name):
            return [signature for signature, _entry in stale], {}
        names = self._subtree_names[node.relation_name]
        pending: List[ViewSignature] = []
        candidates: Dict[Tuple[str, int], List[Tuple[ViewSignature, View]]] = {}
        for signature, (old_versions, old_view) in stale:
            changed = [
                (name, old)
                for name, old, new in zip(names, old_versions, versions)
                if old != new
            ]
            if len(changed) != 1:
                pending.append(signature)
                continue
            candidates.setdefault(changed[0], []).append((signature, old_view))

        groups: Dict[Tuple[str, int], _RefreshGroup] = {}
        for (changed_name, old_version), members in candidates.items():
            limit = refresh_budget(max(group_hint(view) for _sig, view in members))
            changes = self.database.relation(changed_name).changes_since(old_version)
            if changes is None or len(changes) > limit:
                pending.extend(signature for signature, _view in members)
                continue
            groups[(changed_name, old_version)] = (members, changes, limit)
        return pending, groups

    def _changed_conn_keys(
        self,
        target: JoinTreeNode,
        changed_name: str,
        changes: List[Tuple[Tuple, int]],
        limit: int,
    ) -> Optional[List[Tuple]]:
        """The connection keys of ``target`` affected by ``changes`` to one relation.

        Walks the join-tree path from the mutated relation up to ``target``:
        the mutated node's affected keys are those of the changed rows, and
        each ancestor's are the connection keys of its rows whose child key
        is affected — read off the (fresh, because only ``changed_name``
        mutated) column stores.  None when the set outgrows ``limit`` (the
        caller's per-view refresh budget, see :func:`refresh_budget`).
        """
        node = self.join_tree.node(changed_name)
        relation = self.database.relation(changed_name)
        conn = tuple(sorted(node.connection_attributes()))
        positions = [relation.schema.index_of(attribute) for attribute in conn]
        keys = {tuple(row[position] for position in positions) for row, _m in changes}
        while node.relation_name != target.relation_name:
            if len(keys) > limit:
                return None
            parent = node.parent
            if parent is None:
                return None
            store = self.database.relation(parent.relation_name).column_store()
            child_attrs = tuple(sorted(node.connection_attributes()))
            parent_conn = tuple(sorted(parent.connection_attributes()))
            parent_codes, parent_tuples = store.codes_for(parent_conn)
            mask = rows_matching_keys(store, child_attrs, keys)
            affected = np.unique(parent_codes[mask])
            keys = {parent_tuples[code] for code in affected.tolist()}
            node = parent
        if len(keys) > limit:
            return None
        return sorted(keys)

    def _try_delta_refresh(
        self,
        node: JoinTreeNode,
        stale: List[Tuple[ViewSignature, Tuple[Tuple[int, ...], View]]],
        versions: Tuple[int, ...],
        plan: BatchPlan,
        views: Dict[Tuple[str, ViewSignature], View],
        stats: Optional[Dict[str, int]],
    ) -> List[ViewSignature]:
        """Refresh stale cached views in place where a small delta allows it.

        For the entries :meth:`_refreshable_groups` lets through, whose
        induced changed-key set at the node also stays within the budget,
        the node's view is recomputed only over the rows carrying an
        affected connection key (with the current child views) and spliced
        into the cached entries — entries for unaffected keys are untouched
        by construction, since a row only ever contributes to its own
        connection key.  Returns the signatures that still need a full
        compute.
        """
        if node.parent is None:
            # The root has a single (empty) connection key, so key-group
            # splicing degenerates to a full recompute; patch the root's
            # *payload* instead: propagate the delta view up and add it.
            return self._try_patch_root(node, stale, versions, plan, views, stats)
        pending, groups = self._refreshable_groups(node, stale, versions, _conn_key_hint)
        name = node.relation_name
        refreshed_count = 0
        refresh_seconds = 0.0
        for (changed_name, _old_version), (members, changes, limit) in groups.items():
            signatures = [signature for signature, _view in members]
            changed_keys = self._changed_conn_keys(node, changed_name, changes, limit)
            if changed_keys is None:
                pending.extend(signatures)
                continue
            refresh_started = time.perf_counter()
            refreshed = self._refresh_key_groups(node, signatures, changed_keys, plan, views)
            changed_set = set(changed_keys)
            spliced: Dict[ViewSignature, View] = {}
            for signature, old_view in members:
                replacement = refreshed[signature]
                # The merged dict shares the untouched group dictionaries by
                # reference (O(conn keys)); the CSR table is patched in array
                # form so parents keep their vectorised consumption.
                new_view = PatchedView(
                    {
                        key: groups_
                        for key, groups_ in old_view.items()
                        if key not in changed_set
                    }
                )
                new_view.update(replacement.items())
                new_view.patched_table = patch_child_table(
                    _table_for(old_view), changed_keys, replacement
                )
                views[(name, signature)] = spliced[signature] = new_view
            self._cache_views(name, versions, spliced)
            refresh_seconds += time.perf_counter() - refresh_started
            refreshed_count += len(members)
        if refreshed_count:
            self._observe_cost(self._refresh_cost, name, refresh_seconds / refreshed_count)
            if stats is not None:
                stats[STAT_DELTA_REFRESHED] = (
                    stats.get(STAT_DELTA_REFRESHED, 0) + refreshed_count
                )
        return pending

    def _try_patch_root(
        self,
        root: JoinTreeNode,
        stale: List[Tuple[ViewSignature, Tuple[Tuple[int, ...], View]]],
        versions: Tuple[int, ...],
        plan: BatchPlan,
        views: Dict[Tuple[str, ViewSignature], View],
        stats: Optional[Dict[str, int]],
    ) -> List[ViewSignature]:
        """Patch stale cached root views by adding a propagated delta view.

        A root view's value is *linear* in any single relation of the join:
        replacing that relation by its logged signed delta (and keeping every
        other relation as-is) evaluates to exactly the root view's change.
        For the entries :meth:`_refreshable_groups` lets through, the engine
        therefore computes a *delta view* — the changed rows at the mutated
        node, pushed up the root path by joining each ancestor's rows against
        the delta's connection keys with the (unchanged) sibling views — and
        splices it into the cached root view by plain value addition
        (:meth:`_propagate_root_delta`, :func:`_patched_root_view`).  This is
        the F-IVM delta rule applied to the engine's view signatures; the
        patched extraction can keep group entries whose contributions
        cancelled to ~0.0 (a full recompute drops them), which is why
        equivalence holds to float tolerance rather than bitwise.  Returns
        the signatures that still need a full recompute.
        """
        pending, groups = self._refreshable_groups(root, stale, versions, _root_group_hint)
        name = root.relation_name
        patched_count = 0
        patch_started = time.perf_counter()
        for (changed_name, _old_version), (members, changes, limit) in groups.items():
            signatures = [signature for signature, _view in members]
            deltas = self._propagate_root_delta(
                changed_name, changes, signatures, plan, views, limit
            )
            if deltas is None:
                pending.extend(signatures)
                continue
            patched: Dict[ViewSignature, View] = {}
            for signature, old_view in members:
                views[(name, signature)] = patched[signature] = _patched_root_view(
                    old_view, deltas[signature]
                )
            self._cache_views(name, versions, patched)
            patched_count += len(members)
        if patched_count:
            self._observe_cost(
                self._refresh_cost,
                name,
                (time.perf_counter() - patch_started) / patched_count,
            )
            if stats is not None:
                stats[STAT_ROOT_PATCHED] = stats.get(STAT_ROOT_PATCHED, 0) + patched_count
        return pending

    def _propagate_root_delta(
        self,
        changed_name: str,
        changes: List[Tuple[Tuple, int]],
        signatures: List[ViewSignature],
        plan: BatchPlan,
        views: Dict[Tuple[str, ViewSignature], View],
        limit: int,
    ) -> Optional[Dict[ViewSignature, View]]:
        """The root views' delta induced by one relation's signed changes.

        Walks the path from the changed relation to the root.  At the
        changed node the delta relation (changed rows with signed
        multiplicities) is evaluated with the current child views; at every
        ancestor, only the rows joining the delta's connection keys are
        evaluated, with the path child's view *replaced by the delta view*
        and all other children served from ``views`` (their subtrees are
        unchanged by the single-relation guard).  Linearity in one relation
        makes this exact.  None when a hop's key set outgrows ``limit`` —
        the caller's per-view refresh budget — and the caller then
        recomputes fully.
        """
        node = self.join_tree.node(changed_name)
        path: List[JoinTreeNode] = []
        current_node: Optional[JoinTreeNode] = node
        while current_node is not None:
            path.append(current_node)
            current_node = current_node.parent
        # Restrict every root signature down the path (root first).
        per_node_signatures: List[List[ViewSignature]] = [signatures]
        for position in range(len(path) - 1, 0, -1):
            parent_signatures = per_node_signatures[0]
            child = path[position - 1]
            per_node_signatures.insert(
                0,
                [
                    restrict_signature(signature, child, plan.designation)
                    for signature in parent_signatures
                ],
            )

        changed_relation = self.database.relation(changed_name)
        delta_relation = Relation(changed_relation.name, changed_relation.schema)
        delta_relation.add_batch(
            [row for row, _m in changes],
            [multiplicity for _row, multiplicity in changes],
            validated=True,
        )

        current = compute_node_views(
            node,
            delta_relation,
            per_node_signatures[0],
            plan.designation,
            views,
        )
        for position in range(1, len(path)):
            child = path[position - 1]
            parent = path[position]
            seen_keys: set = set()
            delta_keys: List[Tuple] = []
            for delta_view in current.values():
                for key in delta_view.keys():
                    if key not in seen_keys:
                        seen_keys.add(key)
                        delta_keys.append(key)
            if len(delta_keys) > limit:
                return None
            relation = self.database.relation(parent.relation_name)
            store = relation.column_store()
            child_conn = tuple(sorted(child.connection_attributes()))
            mask = rows_matching_keys(store, child_conn, delta_keys)
            sub_relation = _sub_relation_from_mask(relation, store, mask)
            overlay = dict(views)
            for child_signature in per_node_signatures[position - 1]:
                overlay[(child.relation_name, child_signature)] = current[
                    child_signature
                ]
            current = compute_node_views(
                parent,
                sub_relation,
                per_node_signatures[position],
                plan.designation,
                overlay,
            )
        return dict(zip(signatures, (current[s] for s in signatures)))

    def _refresh_key_groups(
        self,
        node: JoinTreeNode,
        signatures: List[ViewSignature],
        changed_keys: List[Tuple],
        plan: BatchPlan,
        views: Dict[Tuple[str, ViewSignature], View],
    ) -> Dict[ViewSignature, View]:
        """Recompute the views of ``node`` restricted to the changed conn keys.

        Builds a sub-relation holding exactly the rows whose connection key
        is affected and runs the ordinary executor over it with the current
        child views — the recomputed entries replace the affected keys
        one-for-one.
        """
        relation = self.database.relation(node.relation_name)
        store = relation.column_store()
        conn = tuple(sorted(node.connection_attributes()))
        mask = rows_matching_keys(store, conn, changed_keys)
        sub_relation = _sub_relation_from_mask(relation, store, mask)
        return compute_node_views(
            node,
            sub_relation,
            signatures,
            plan.designation,
            views,
        )

    def _nodes_by_depth(self) -> Dict[int, List[JoinTreeNode]]:
        levels: Dict[int, List[JoinTreeNode]] = {}

        def visit(node: JoinTreeNode, depth: int) -> None:
            levels.setdefault(depth, []).append(node)
            for child in node.children:
                visit(child, depth + 1)

        visit(self.join_tree.root, 0)
        return levels

    @staticmethod
    def _extract(aggregate: Aggregate, root_view: View) -> AggregateValue:
        """Turn the root view into the aggregate's scalar or grouped value."""
        items = None
        attrs = None
        if isinstance(root_view, ColumnarView):
            # Read the arrays directly; materialising the nested dict shape
            # for a view that is only unpacked here would be wasted work.
            items = root_view.group_items()
            if items is not None:
                # group_attrs describes the raw (concatenation-order) pairs of
                # group_items; the materialised dict below re-sorts its keys,
                # so the positional fast path only applies to the former.
                attrs = root_view.group_attrs
        if items is None:
            items = root_view.get((), {}).items()
        if not aggregate.group_by:
            for group_pairs, value in items:
                if group_pairs == ():
                    return value
            return 0.0
        result: Dict[Tuple, float] = {}
        if attrs is not None and all(a in attrs for a in aggregate.group_by):
            # Every group key shares one attribute sequence: pick values by
            # position instead of rebuilding an assignment dict per entry.
            positions = [attrs.index(a) for a in aggregate.group_by]
            if len(positions) == 1:
                position = positions[0]
                for group_pairs, value in items:
                    key = (group_pairs[position][1],)
                    result[key] = result.get(key, 0.0) + value
            else:
                for group_pairs, value in items:
                    key = tuple(group_pairs[p][1] for p in positions)
                    result[key] = result.get(key, 0.0) + value
            return result
        for group_pairs, value in items:
            assignment = dict(group_pairs)
            key = tuple(assignment[attribute] for attribute in aggregate.group_by)
            result[key] = result.get(key, 0.0) + value
        return result

    def _evaluate_unsupported(
        self, aggregates: Sequence[Aggregate], values: Dict[str, AggregateValue]
    ) -> None:
        """Fallback for additive-inequality aggregates: evaluate over the join.

        Inequality conditions mix attributes of several relations and cannot be
        pushed past the joins by this engine; Section 2.3's dedicated
        algorithms live in :mod:`repro.inequality`.
        """
        joined = self.query.evaluate(self.database)
        names = joined.schema.names
        rows = [
            (dict(zip(names, row)), multiplicity) for row, multiplicity in joined.items()
        ]
        for aggregate in aggregates:
            values[self._unique_name(aggregate, values)] = evaluate_aggregate_over_rows(
                aggregate, rows
            )
