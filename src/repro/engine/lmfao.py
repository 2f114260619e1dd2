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
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from collections import OrderedDict

from repro.aggregates.spec import Aggregate, AggregateBatch
from repro.data.database import Database
from repro.engine.executor import (
    STAT_CACHED,
    ColumnarContext,
    ColumnarView,
    View,
    compute_node_views,
)
from repro.engine.plan import BatchPlan, ViewSignature, plan_batch
from repro.engine.naive import evaluate_aggregate_over_rows
from repro.engine.statistics import RootChoice, choose_root
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.join_tree import JoinTree, JoinTreeNode, build_join_tree

AggregateValue = Union[float, Dict[Tuple, float]]

#: Upper bound on cached views per engine; least-recently-used entries are
#: evicted beyond it.  It bounds memory, not behaviour: a decision-tree fit
#: computes thousands of views it never asks for again.
VIEW_CACHE_SIZE = 512


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
    """

    parallel: bool = False
    workers: Optional[int] = None
    root_relation: Optional[str] = None

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
    - **the view cache** (always on, at most :data:`VIEW_CACHE_SIZE`
      entries): computed views keyed by ``(node, signature)`` and guarded by
      the version of every relation in the node's subtree — a hit is served
      as-is, anything else is recomputed (:meth:`_evaluate_views`);
    - **the join-tree root**: chosen once at construction by the cost model
      unless ``options.root_relation`` forces it; :attr:`root_choice`
      records the per-candidate estimates for introspection.

    All caches invalidate through :attr:`Relation.version` — any mutation
    (``add``/``remove``/``clear``, including IVM deltas) bumps the counter
    and the affected state is rebuilt on the next evaluation; nothing needs
    to be invalidated eagerly.  The engine evaluates over the data as it
    stands and never patches a result: keeping a result current under updates
    is what the maintainers of :mod:`repro.ivm` do, and ``evaluate`` after
    any mutation returns, bit for bit, what a freshly built engine rooted at
    the same relation returns, with ``executor_stats`` a function of the
    evaluate/mutate history alone.
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

        Views whose subtree relations have not changed since an earlier
        call are served from the view cache (``executor_stats["views_cached"]``
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

        Each node's signatures are first resolved against the cross-evaluate
        view cache: an entry hits when the versions of *all* relations in the
        node's subtree are unchanged since the view was computed — the view's
        value depends on nothing else once the tree and designation are
        fixed.  Hits are served as-is (and count as ``views_cached`` in the
        stats); missing and stale signatures alike reach the executor, and
        the freshly computed views replace them in the cache, with LRU
        eviction beyond :data:`VIEW_CACHE_SIZE`.
        """
        views: Dict[Tuple[str, ViewSignature], View] = {}
        levels = self._nodes_by_depth()
        cache = self._view_cache

        def resolve_cached(node: JoinTreeNode) -> Tuple[List[ViewSignature], Tuple[int, ...]]:
            """Serve cache hits for one node; return the signatures left to compute.

            A stale entry is one more signature to compute: the fresh view
            overwrites it.
            """
            signatures = plan.views_per_node[node.relation_name]
            versions = self._subtree_versions(node)
            pending: List[ViewSignature] = []
            hits = 0
            for signature in signatures:
                entry = cache.get((node.relation_name, signature))
                if entry is not None and entry[0] == versions:
                    cache.move_to_end((node.relation_name, signature))
                    views[(node.relation_name, signature)] = entry[1]
                    hits += 1
                else:
                    pending.append(signature)
            if hits and stats is not None:
                stats[STAT_CACHED] = stats.get(STAT_CACHED, 0) + hits
            return pending, versions

        def run_node(
            node: JoinTreeNode,
            signatures: Sequence[ViewSignature],
            node_stats: Optional[Dict[str, int]],
        ) -> Dict[ViewSignature, View]:
            return compute_node_views(
                node,
                self.database.relation(node.relation_name),
                signatures,
                plan.designation,
                views,
                context_cache=self._context_cache,
                stats=node_stats,
            )

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
                    self._cache_views(node.relation_name, pending[node.relation_name][1], computed)
                    merge_stats(node_stats)
            else:
                for node in runnable:
                    node_stats: Dict[str, int] = {}
                    signatures = pending[node.relation_name][0]
                    computed = run_node(node, signatures, node_stats)
                    for signature, view in computed.items():
                        views[(node.relation_name, signature)] = view
                    self._cache_views(node.relation_name, pending[node.relation_name][1], computed)
                    merge_stats(node_stats)
        return views

    def _cache_views(
        self, name: str, versions: Tuple[int, ...], computed: Mapping[ViewSignature, View]
    ) -> None:
        """Insert one node's views as most-recently-used; evict beyond the bound."""
        cache = self._view_cache
        for signature, view in computed.items():
            cache[(name, signature)] = (versions, view)
            cache.move_to_end((name, signature))
        while len(cache) > VIEW_CACHE_SIZE:
            cache.popitem(last=False)

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
