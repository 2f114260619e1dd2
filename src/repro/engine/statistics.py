"""Data statistics and the cost-based join-tree rooting optimizer.

The LMFAO-style engine decomposes an aggregate batch over a *rooted* join
tree, and the choice of root changes how much work the decomposition shares:
an aggregate whose attributes all live inside one subtree collapses, at every
node of that subtree's complement, into the same count-only view as every
other such aggregate.  Rooting at the widest relation (the seed heuristic,
typically the fact table) therefore maximises the number of *distinct*
signatures at the most expensive node — the fact table hosts one view family
per aggregate — while rooting at a small dimension lets most aggregates share
count views at the fact node.  Measured on the yelp/retailer generators the
spread between the best and worst root is 2-4x.

This module derives the statistics that make the choice data-driven — row
counts and distinct connection-key counts, read straight off the column
store's code arrays (:meth:`~repro.data.colstore.ColumnStore.distinct_count`
never materialises the distinct value tuples a planner would not read) —
and scores every candidate root with a simple analytical model:

``cost(root) = sum over nodes n of weight(n) * (rows(n) + distinct_keys(n))``

where ``distinct_keys(n)`` is the number of distinct connection-key values of
``n`` towards its parent (the size of the views flowing out of ``n``) and
``weight(n) = (1 + payload(subtree(n))) ** 2`` estimates the number of
distinct view signatures at ``n``: batches quadratic in the features (the
covariance and regression-tree batches of the paper) induce one signature per
feature pair designated inside the subtree, and ``payload`` counts the
single-relation (non-join) attributes as a feature proxy.  The model is
deliberately batch-independent so the engine can pick the root once at
construction time; comparing against the seed heuristic is a matter of
passing ``root_relation=widest_relation(...)``.

Two per-batch choices read the same statistics: :func:`estimate_plan_cost`
weighs root assignments of one plan, and :func:`grouping_pays` decides
whether a filter family (aggregates differing in one condition on one
attribute) is evaluated as one aggregate grouped by the attribute, from
the attribute's distinct count against the family's size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Dict, List, Mapping, Optional, Tuple

from repro.data.database import Database
from repro.query.join_tree import JoinTree, JoinTreeNode

__all__ = [
    "RelationStatistics",
    "RootChoice",
    "collect_statistics",
    "estimate_root_costs",
    "choose_root",
    "estimate_plan_cost",
    "grouping_pays",
    "widest_relation",
]


@dataclass
class RelationStatistics:
    """Cardinality statistics of one relation, read off its column store.

    ``distinct_counts`` caches the number of distinct value combinations per
    attribute tuple; the underlying ``codes_for`` results are themselves
    cached on the relation's :class:`~repro.data.colstore.ColumnStore`, so
    collecting statistics costs nothing that evaluation would not also pay.
    """

    name: str
    row_count: int
    distinct_counts: Dict[Tuple[str, ...], int] = field(default_factory=dict)

    def distinct(self, database: Database, attributes: Tuple[str, ...]) -> int:
        """Distinct combinations of ``attributes`` in the relation."""
        key = tuple(sorted(attributes))
        count = self.distinct_counts.get(key)
        if count is None:
            store = database.relation(self.name).column_store()
            count = store.distinct_count(key)
            self.distinct_counts[key] = count
        return count


@dataclass(frozen=True)
class RootChoice:
    """The outcome of the root optimisation: the pick plus its evidence."""

    root: str
    strategy: str                     # "cost" or "widest" (the fallback)
    costs: Mapping[str, float]        # estimated cost per candidate root

    def ranked(self) -> List[Tuple[str, float]]:
        """Candidates from cheapest to most expensive (ties by name)."""
        return sorted(self.costs.items(), key=lambda item: (item[1], item[0]))


def collect_statistics(
    database: Database, join_tree: JoinTree
) -> Dict[str, RelationStatistics]:
    """Row-count statistics for every relation of the join tree."""
    return {
        node.relation_name: RelationStatistics(
            name=node.relation_name,
            row_count=len(database.relation(node.relation_name)),
        )
        for node in join_tree.nodes()
    }


def _payloads(join_tree: JoinTree) -> Dict[str, int]:
    """Per relation: the number of its attributes owned by no other relation.

    Join attributes (shared by two or more relations) carry no aggregation
    payload of their own; the single-relation attributes proxy the features a
    batch can designate to the relation.
    """
    owners: Dict[str, int] = {}
    for node in join_tree.nodes():
        for attribute in node.attributes:
            owners[attribute] = owners.get(attribute, 0) + 1
    return {
        node.relation_name: sum(
            1 for attribute in node.attributes if owners[attribute] == 1
        )
        for node in join_tree.nodes()
    }


def _subtree_weights(
    root: JoinTreeNode, payloads: Mapping[str, int]
) -> Dict[str, float]:
    """``(1 + subtree payload) ** 2`` per node: the signature-count estimate."""
    weights: Dict[str, float] = {}

    def visit(node: JoinTreeNode) -> int:
        total = payloads[node.relation_name]
        for child in node.children:
            total += visit(child)
        weights[node.relation_name] = float(1 + total) ** 2
        return total

    visit(root)
    return weights


def estimate_root_costs(
    database: Database,
    join_tree: JoinTree,
    statistics: Optional[Dict[str, RelationStatistics]] = None,
) -> Dict[str, float]:
    """Estimated view-family work for every candidate root of the join tree.

    For each candidate the tree is re-rooted and every node ``n`` contributes
    ``weight(n) * (rows(n) + distinct_keys(n))``, where ``distinct_keys(n)``
    is the distinct count of ``n``'s connection key towards its parent (zero
    at the root) and ``weight(n)`` the quadratic subtree-payload estimate of
    the number of distinct signatures evaluated at ``n`` (see the module
    docstring).  Distinct counts come from the relations' cached column
    stores, so repeated calls — and the evaluation that follows — share the
    encodings.
    """
    if statistics is None:
        statistics = collect_statistics(database, join_tree)
    payloads = _payloads(join_tree)

    costs: Dict[str, float] = {}
    for candidate in join_tree.relation_names:
        tree = (
            join_tree
            if join_tree.root.relation_name == candidate
            else join_tree.rerooted(candidate)
        )
        weights = _subtree_weights(tree.root, payloads)
        total = 0.0
        for node in tree.nodes():
            stats = statistics[node.relation_name]
            connection = tuple(sorted(node.connection_attributes()))
            distinct_keys = (
                stats.distinct(database, connection) if connection else 0
            )
            total += weights[node.relation_name] * (stats.row_count + distinct_keys)
        costs[candidate] = total
    return costs


def estimate_plan_cost(
    row_counts: Mapping[str, int],
    views: Mapping[Tuple[str, Optional[str]], Collection[object]],
) -> float:
    """The work of evaluating one plan: rows scanned times views computed.

    ``views`` maps each planned direction ``(node, towards)`` to its distinct
    signatures.  Every signature is one weight column and one ``bincount``
    over the node's rows, whichever shared pipeline computes it, so the sum
    of ``rows(node) * signatures`` over the directions ranks root assignments
    of *one batch* exactly where :func:`estimate_root_costs` has to guess the
    signature counts from the schema.
    """
    return float(
        sum(row_counts[node] * len(signatures) for (node, _towards), signatures in views.items())
    )


#: What one distinct value costs a filter family's grouped view, in rows one
#: filtered aggregate scans: its key code, its entry of the grouped
#: ``bincount`` and of the presence count, and every member's masked sum
#: over it.
GROUPED_VALUE_COST = 5
#: What one more view costs beyond the rows it scans — planning it, its
#: pipeline column, reading its value off the root — in the same rows:
#: about 65 us against 26 ns a row.  Both constants are fitted to a family
#: over a unique-valued attribute of 30 to 200k rows (the table under "The
#: cost choice" in ``docs/benchmarks.md``).
VIEW_COST_ROWS = 2500


def grouping_pays(rows: int, distinct: int, members: int) -> bool:
    """Whether ``members`` aggregates filtered on one attribute are cheaper grouped.

    Evaluated one by one, every member is a view of its own over the
    ``rows`` of the relation owning the attribute; grouped by the attribute,
    one view serves them all, holding one entry per ``distinct`` value.  So
    a low-cardinality attribute groups from two members on, and a
    unique-valued one only where the family outweighs
    :data:`GROUPED_VALUE_COST` (fewer members on a small relation, whose
    rows cost less than a view's fixed :data:`VIEW_COST_ROWS`).
    """
    return GROUPED_VALUE_COST * distinct < (members - 1) * (rows + VIEW_COST_ROWS)


def widest_relation(database: Database, relation_names) -> str:
    """The seed heuristic: root at the widest (then largest) relation."""
    return max(
        relation_names,
        key=lambda name: (
            database.relation(name).arity,
            len(database.relation(name)),
            name,
        ),
    )


def choose_root(database: Database, join_tree: JoinTree) -> RootChoice:
    """Pick the cheapest root by estimated cost, with a degenerate fallback.

    When the statistics are uninformative — every relation is empty, so all
    candidates cost the same — the choice falls back to the widest-relation
    heuristic so that e.g. IVM maintainers built over an initially empty
    database keep the seed behaviour instead of an arbitrary alphabetical
    tie-break.
    """
    costs = estimate_root_costs(database, join_tree)
    if len(set(costs.values())) <= 1:
        return RootChoice(
            root=widest_relation(database, join_tree.relation_names),
            strategy="widest",
            costs=costs,
        )
    root = min(costs.items(), key=lambda item: (item[1], item[0]))[0]
    return RootChoice(root=root, strategy="cost", costs=costs)
