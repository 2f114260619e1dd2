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

from repro.aggregates.spec import Aggregate, AggregateBatch
from repro.data.database import Database
from repro.engine.executor import ColumnarView, compute_node_views
from repro.engine.plan import BatchPlan, Direction, ViewSignature, plan_batch
from repro.engine.naive import evaluate_aggregate_over_rows
from repro.engine.statistics import RootChoice, choose_root
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.join_tree import JoinTree, JoinTreeNode, build_join_tree

AggregateValue = Union[float, Dict[Tuple, float]]


def _unique_name(aggregate: Aggregate, existing: Mapping[str, object]) -> str:
    """The value name of ``aggregate``: its own, or ``name#2``, ``#3``... when taken."""
    name = aggregate.name or "aggregate"
    if name not in existing:
        return name
    suffix = 2
    while f"{name}#{suffix}" in existing:
        suffix += 1
    return f"{name}#{suffix}"


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
        # The names evaluate() gave: pushed-down aggregates first, in batch
        # order, then those it evaluated over the join.
        names: Dict[str, Aggregate] = {}
        for aggregate in sorted(self.batch, key=lambda a: a.inequality is not None):
            names[_unique_name(aggregate, names)] = aggregate
        counts = {name for name, aggregate in names.items() if not aggregate.product}
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

    The engine is built per (database, query) pair and keeps only its join
    tree and **default root** — where aggregates without a cheaper root of
    their own are evaluated — chosen at construction by the schema-level
    cost model; :attr:`root_choice` records its per-candidate estimates.
    Per batch, :meth:`plan` may root groups of aggregates elsewhere
    (``BatchResult.plan_summary`` says where and at what estimated cost).
    ``root_relation`` forces one root for everything.

    Nothing is cached between calls: every call computes every view its
    plan needs.  What depends on a relation snapshot alone — key codings,
    filter masks, cross-store key maps — lives on that snapshot
    (:attr:`repro.data.colstore.ColumnStore.derived`), so every engine and
    reader over it shares the work, and a mutation, which makes the relation
    hand out a new snapshot, leaves nothing stale behind.  The engine never
    patches a result: keeping a result current under updates is what the
    maintainers of :mod:`repro.ivm` do, and ``evaluate`` after any mutation
    returns, bit for bit, what a freshly built engine with the same default
    root returns.
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

        Every view of the plan is computed; ``executor_stats`` counts them
        (``views_columnar``) and the shared pipelines that computed them
        (``view_pipelines``).
        """
        started = time.perf_counter()
        plan = self.plan(batch)
        stats: Dict[str, int] = {}
        views = self._evaluate_views(plan, stats)

        values: Dict[str, AggregateValue] = {}
        for decomposition in plan.decompositions:
            aggregate = decomposition.aggregate
            root_view = views[(decomposition.root, None, decomposition.root_signature)]
            values[_unique_name(aggregate, values)] = self._extract(
                aggregate, root_view.group_items(), root_view.group_attrs
            )

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

    def _evaluate_views(
        self, plan: BatchPlan, stats: Optional[Dict[str, int]] = None
    ) -> Dict[Tuple[str, Optional[str], ViewSignature], ColumnarView]:
        """Evaluate all planned views bottom-up over the join tree, level by level."""
        views: Dict[Tuple[str, Optional[str], ViewSignature], ColumnarView] = {}
        for directions in self._levels(plan.views):
            for direction in directions:
                computed = compute_node_views(
                    self.join_tree.oriented(*direction),
                    self.database.relation(direction[0]),
                    plan.views[direction],
                    plan.designation,
                    views,
                    stats=stats,
                )
                for signature, view in computed.items():
                    views[direction + (signature,)] = view
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
    def _extract(
        aggregate: Aggregate,
        items: Iterable[Tuple[Tuple, float]],
        attrs: Optional[Sequence[str]] = None,
    ) -> AggregateValue:
        """The aggregate's scalar or grouped value from its root view's entries.

        ``items`` are the root view's ``(group pairs, value)`` entries;
        ``attrs``, when given, is the attribute sequence every entry's pairs
        follow, which lets a grouped value pick its key by position.
        """
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
            values[_unique_name(aggregate, values)] = evaluate_aggregate_over_rows(
                aggregate, rows
            )
