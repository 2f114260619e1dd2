"""The LMFAO-style batch engine.

``LMFAOEngine`` evaluates an :class:`~repro.aggregates.spec.AggregateBatch`
over a feature-extraction query without materialising the join:

1. build a join tree of the (acyclic) query;
2. root every aggregate — where its group-by attribute or batch-varying
   filter lives when the plan estimate says so, else at the tree's root —
   decompose it into per-node view signatures (aggregate pushdown) and
   deduplicate identical signatures per direction (sharing);
3. evaluate views bottom-up, sharing the scan of each relation across the
   views it computes for one neighbour;
4. assemble each aggregate's value at its root.

Specialisation (the vectorised columnar executor) and sharing are always on
and one thread evaluates a batch; the Figure-6 steps that take the former
away, or run a level's directions on a thread pool, live in
``benchmarks/bench_figure6_ablation.py``, not behind switches here.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

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
from repro.engine.plan import BatchPlan, Direction, ViewSignature, plan_batch
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
class BatchResult:
    """Results of one batch evaluation plus execution statistics."""

    batch: AggregateBatch
    values: Dict[str, AggregateValue]
    #: Plan counts plus the decision behind them: ``roots`` (root relation ->
    #: aggregates rooted there) and, when the plan chose the roots itself,
    #: ``estimated_cost`` next to ``single_root_cost``.
    plan_summary: Dict[str, object] = field(default_factory=dict)
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

    def minus(self, other: "BatchResult") -> "BatchResult":
        """``self - other``, name by name, without the engine (``views_computed`` 0).

        Sums live in a ring: when ``other`` answers this result's batch under
        one more filter ``c``, the difference answers it under ``not c``.
        Counts of whole rows subtract exactly; other sums come out within
        rounding of a direct evaluation.  A grouped count that reaches exactly
        0 is dropped — a direct evaluation yields no entry for an empty group
        — while a grouped sum keeps its key (0.0 does not say the group is
        empty).  The difference keeps this result's batch: it names the same
        aggregates, and says which of them are counts.
        """
        if self.values.keys() != other.values.keys():
            raise ValueError("minus() needs two results over the same aggregate names")
        started = time.perf_counter()
        counts = {aggregate.name for aggregate in self.batch if not aggregate.product}
        values: Dict[str, AggregateValue] = {}
        for name, value in self.values.items():
            subtrahend = other.values[name]
            if not isinstance(value, dict):
                values[name] = value - subtrahend
                continue
            difference = dict(value)
            for key, amount in subtrahend.items():
                difference[key] = difference.get(key, 0.0) - amount
            if name in counts:
                difference = {key: left for key, left in difference.items() if left != 0.0}
            values[name] = difference
        return BatchResult(
            batch=self.batch, values=values, elapsed_seconds=time.perf_counter() - started
        )

    def is_finite(self) -> bool:
        """True when no value, scalar or grouped, is ``inf`` or ``NaN``."""
        return all(
            math.isfinite(number)
            for value in self.values.values()
            for number in (value.values() if isinstance(value, dict) else (value,))
        )


class LMFAOEngine:
    """Layered multiple functional aggregate optimisation, in Python.

    The engine is built once per (database, query) pair and amortises work
    across :meth:`evaluate` calls through three caches:

    - **columnar contexts** (always on): per-node dictionary encodings, key
      codings, filter masks and cross-store key maps, refreshed lazily when
      the underlying :attr:`Relation.version` changes;
    - **the view cache** (always on, at most :data:`VIEW_CACHE_SIZE`
      entries between calls): computed views keyed by ``(node, towards,
      signature)`` and guarded by the version of every relation on the
      node's side of that edge — a hit is served as-is, anything else is
      recomputed (:meth:`_evaluate_views`);
    - **the join-tree root**: the *default* root — where aggregates without
      a cheaper root of their own are evaluated — is chosen once at
      construction by the schema-level cost model, and :attr:`root_choice`
      records its per-candidate estimates; per batch, :meth:`plan` may root
      groups of aggregates elsewhere (``BatchResult.plan_summary`` says
      where and at what estimated cost).  ``root_relation`` forces one root
      for everything.

    All caches invalidate through :attr:`Relation.version` — any mutation
    (``add``/``remove``/``clear``, including IVM deltas) bumps the counter
    and the affected state is rebuilt on the next evaluation; nothing needs
    to be invalidated eagerly.  The engine evaluates over the data as it
    stands and never patches a result: keeping a result current under updates
    is what the maintainers of :mod:`repro.ivm` do, and ``evaluate`` after
    any mutation returns, bit for bit, what a freshly built engine with the
    same default root returns, with ``executor_stats`` a function of the
    evaluate/mutate history alone.
    """

    def __init__(
        self,
        database: Database,
        query: ConjunctiveQuery,
        root_relation: Optional[str] = None,
    ) -> None:
        self.database = database
        self.query = query
        #: The root forced for every aggregate; ``None`` leaves it to the plan.
        self.root_relation = root_relation
        #: How the default root was picked (candidate costs included); None
        #: when the caller forced ``root_relation``.
        self.root_choice: Optional[RootChoice] = None
        self.join_tree = self._build_join_tree()
        # Columnar contexts survive across evaluate() calls: repeated batch
        # evaluations (gradient descent, decision-tree splits, IVM refreshes)
        # reuse the dictionary encodings.  Entries auto-refresh when the
        # underlying relation's version changes.
        self._context_cache: Dict[Tuple, ColumnarContext] = {}
        # The cross-evaluate view cache: (node, towards, signature) -> (the
        # versions of every relation on the node's side of the edge at
        # computation time, view).
        self._view_cache: "OrderedDict[Tuple[str, Optional[str], ViewSignature], Tuple[Tuple[int, ...], View]]" = (
            OrderedDict()
        )

    # -- construction ---------------------------------------------------------------------

    def _build_join_tree(self) -> JoinTree:
        hypergraph = self.query.hypergraph(self.database)
        if self.root_relation is not None:
            return build_join_tree(hypergraph, root=self.root_relation)
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
        """Plan ``batch``; the plan picks the roots unless one is forced."""
        if self.root_relation is not None:
            return plan_batch(batch, self.join_tree)
        row_counts = {
            name: len(self.database.relation(name)) for name in self.join_tree.relation_names
        }
        return plan_batch(batch, self.join_tree, row_counts)

    def evaluate(self, batch: AggregateBatch) -> BatchResult:
        """Evaluate all aggregates of ``batch`` and return their values.

        Views whose subtree relations have not changed since an earlier
        call are served from the view cache (``executor_stats["views_cached"]``
        counts them), so repeating an identical batch over unchanged data is
        nearly free, and after an update only the views with the mutated
        relation on their side of the edge are recomputed.
        """
        started = time.perf_counter()
        plan = self.plan(batch)
        stats: Dict[str, int] = {}
        views = self._evaluate_views(plan, stats)

        values: Dict[str, AggregateValue] = {}
        for decomposition in plan.decompositions:
            aggregate = decomposition.aggregate
            root_view = views[(decomposition.root, None, decomposition.root_signature)]
            values[self._unique_name(aggregate, values)] = self._extract(aggregate, root_view)
        # Once per call, after the last read: trimming per insert would evict
        # this very call's first views to make room for its last.
        cache = self._view_cache
        while len(cache) > VIEW_CACHE_SIZE:
            cache.popitem(last=False)

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

    def _side_versions(self, direction: Direction) -> Tuple[int, ...]:
        """The cache guard: versions of every relation on the direction's side."""
        return tuple(
            self.database.relation(name).version
            for name in sorted(self.join_tree.side(*direction))
        )

    def _evaluate_views(
        self, plan: BatchPlan, stats: Optional[Dict[str, int]] = None
    ) -> Dict[Tuple[str, Optional[str], ViewSignature], View]:
        """Evaluate all planned views bottom-up over the join tree.

        Each direction's signatures are first resolved against the
        cross-evaluate view cache: an entry hits when the versions of *all*
        relations on the node's side of the edge are unchanged since the view
        was computed — the view's value depends on nothing else once the tree
        and designation are fixed.  Hits are served as-is (and count as
        ``views_cached`` in the stats); missing and stale signatures alike
        reach the executor, and the freshly computed views replace them in
        the cache (:meth:`evaluate` trims it back to :data:`VIEW_CACHE_SIZE`,
        least recently used first, once it has read the root views).
        """
        views: Dict[Tuple[str, Optional[str], ViewSignature], View] = {}
        cache = self._view_cache

        def resolve_cached(direction: Direction) -> Tuple[List[ViewSignature], Tuple[int, ...]]:
            """Serve cache hits for one direction; return the signatures left to compute.

            A stale entry is one more signature to compute: the fresh view
            overwrites it.
            """
            versions = self._side_versions(direction)
            pending: List[ViewSignature] = []
            hits = 0
            for signature in plan.views[direction]:
                key = direction + (signature,)
                entry = cache.get(key)
                if entry is not None and entry[0] == versions:
                    cache.move_to_end(key)
                    views[key] = entry[1]
                    hits += 1
                else:
                    pending.append(signature)
            if hits and stats is not None:
                stats[STAT_CACHED] = stats.get(STAT_CACHED, 0) + hits
            return pending, versions

        for directions in self._levels(plan.views):
            # A level's hits are touched before its fresh views are inserted;
            # that is the LRU order the trim in evaluate() evicts by.
            pending = []
            for direction in directions:
                signatures, versions = resolve_cached(direction)
                if signatures:
                    pending.append((direction, signatures, versions))
            for direction, signatures, versions in pending:
                computed = compute_node_views(
                    self.join_tree.oriented(*direction),
                    self.database.relation(direction[0]),
                    signatures,
                    plan.designation,
                    views,
                    context_cache=self._context_cache,
                    stats=stats,
                )
                for signature, view in computed.items():
                    key = direction + (signature,)
                    views[key] = view
                    cache[key] = (versions, view)
                    cache.move_to_end(key)
        return views

    def _levels(self, directions: Iterable[Direction]) -> List[List[Direction]]:
        """``directions`` grouped bottom-up: a level reads only earlier levels' views.

        The level of ``(node, towards)`` is the height of what hangs below
        the node on its side of the edge.
        """

        def height(node: JoinTreeNode) -> int:
            return 1 + max((height(child) for child in node.children), default=-1)

        levels: Dict[int, List[Direction]] = {}
        for direction in directions:
            levels.setdefault(height(self.join_tree.oriented(*direction)), []).append(direction)
        return [levels[level] for level in sorted(levels)]

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
