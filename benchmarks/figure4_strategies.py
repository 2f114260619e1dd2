"""Figure 4 (right)'s comparison strategies: first-order and higher-order IVM.

The paper compares F-IVM against two classical ways of maintaining the
covariance batch — SUM(1), SUM(x_i) and SUM(x_i * x_j) for every feature
pair — under tuple inserts and deletes.  They are experiments, not modes of
the system, so they live here beside ``bench_figure4_ivm.py`` in their
simplest, per-tuple form: plain :class:`~repro.ivm.base.CovarianceMaintainer`
subclasses (``apply`` / ``apply_batch`` / ``statistics`` /
``recompute_statistics`` come from the base class, with every netted row of
a batch applied per tuple) over a dict-based delta join.

* :class:`FirstOrderIVM` — classical delta processing: every aggregate of the
  batch is an independent query that recomputes its own delta by joining the
  delta tuple against the base relations.  Nothing is shared, so the
  per-update cost grows quadratically with the number of features.
* :class:`HigherOrderIVM` — DBToaster-style delta processing with a
  materialised intermediate view: the delta join is computed *once* per
  update and appended to a tuple-level view of the join, but every aggregate
  still updates itself with its own scan of that delta.

F-IVM (:class:`repro.ivm.FIVM`) shares both: one view tree whose payloads
carry the whole batch, so one leaf-to-root propagation maintains every
aggregate at once.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.data.database import Database
from repro.ivm.base import CovarianceMaintainer, Update
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.join_tree import JoinTree
from repro.rings.covariance import CovariancePayload

#: One tuple of the join delta: ``(attribute -> value, signed multiplicity)``.
DeltaRow = Tuple[Dict[str, object], int]
#: A hash index of one relation: ``key -> {row: multiplicity}``.
_Index = Dict[Tuple, Dict[Tuple, int]]


class DeltaJoin:
    """All join tuples containing one delta tuple, by walking the join tree.

    Every edge of the join tree keeps a hash index of each endpoint on the
    attributes the two relations share: ``key -> {row: multiplicity}``.  The
    expansion starts from the updated relation and probes outwards, one
    neighbour at a time.
    """

    def __init__(self, database: Database, join_tree: JoinTree) -> None:
        self._schemas = {
            node.relation_name: database.relation(node.relation_name).schema
            for node in join_tree.nodes()
        }
        #: Per relation, for every tree edge: ``(neighbour, shared attributes,
        #: the neighbour's index on them)``.
        self._edges: Dict[str, List[Tuple[str, Tuple[str, ...], _Index]]] = {
            name: [] for name in self._schemas
        }
        #: Per relation: ``(key positions, index)`` of every index over it.
        self._indexes: Dict[str, List[Tuple[Tuple[int, ...], _Index]]] = {
            name: [] for name in self._schemas
        }
        for node in join_tree.nodes():
            neighbours = list(node.children)
            if node.parent is not None:
                neighbours.append(node.parent)
            for neighbour in neighbours:
                shared = tuple(sorted(node.attributes & neighbour.attributes))
                index: _Index = {}
                self._edges[node.relation_name].append(
                    (neighbour.relation_name, shared, index)
                )
                self._indexes[neighbour.relation_name].append(
                    (self._schemas[neighbour.relation_name].indices_of(shared), index)
                )

    def register(self, relation_name: str, row: Tuple, multiplicity: int) -> None:
        """Fold one applied update into every index over its relation."""
        for positions, index in self._indexes[relation_name]:
            key = tuple(row[position] for position in positions)
            bucket = index.setdefault(key, {})
            updated = bucket.get(row, 0) + multiplicity
            if updated:
                bucket[row] = updated
            else:
                bucket.pop(row, None)
                if not bucket:
                    del index[key]

    def expand(self, relation_name: str, row: Tuple, multiplicity: int) -> List[DeltaRow]:
        """The join delta of one signed tuple, as attribute dictionaries."""
        delta: List[DeltaRow] = [
            (dict(zip(self._schemas[relation_name].names, row)), multiplicity)
        ]
        visited = {relation_name}
        frontier = [relation_name]
        while frontier and delta:
            current = frontier.pop()
            for neighbour, shared, index in self._edges[current]:
                if neighbour in visited:
                    continue
                visited.add(neighbour)
                frontier.append(neighbour)
                names = self._schemas[neighbour].names
                expanded: List[DeltaRow] = []
                for assignment, count in delta:
                    key = tuple(assignment[attribute] for attribute in shared)
                    for other, other_count in index.get(key, {}).items():
                        merged = dict(assignment)
                        merged.update(zip(names, other))
                        expanded.append((merged, count * other_count))
                delta = expanded
        return delta


class _PerAggregateMaintainer(CovarianceMaintainer):
    """What both comparison strategies share: the delta join, and one
    separately maintained value per aggregate of the covariance batch."""

    def __init__(
        self, schema_database: Database, query: ConjunctiveQuery, features: Sequence[str]
    ) -> None:
        super().__init__(schema_database, query, features)
        self._join = DeltaJoin(self.database, self.join_tree)
        dimension = len(self.features)
        self._count = 0.0
        self._sums = np.zeros(dimension)
        self._moments = np.zeros((dimension, dimension))

    def _maintain_aggregates(self, delta: Callable[[], List[DeltaRow]]) -> None:
        """Every aggregate updates itself with its own scan of ``delta()`` —
        the inefficiency neither strategy removes."""
        self._count += sum(count for _assignment, count in delta())
        for position, feature in enumerate(self.features):
            self._sums[position] += sum(
                count * float(assignment[feature]) for assignment, count in delta()
            )
        for left, left_feature in enumerate(self.features):
            for right in range(left, len(self.features)):
                right_feature = self.features[right]
                moment = sum(
                    count * float(assignment[left_feature]) * float(assignment[right_feature])
                    for assignment, count in delta()
                )
                self._moments[left, right] += moment
                if left != right:
                    self._moments[right, left] += moment

    def statistics(self) -> CovariancePayload:
        return CovariancePayload(self._count, self._sums.copy(), self._moments.copy())


class FirstOrderIVM(_PerAggregateMaintainer):
    """Per-aggregate delta processing against the base relations."""

    def _apply_update(self, update: Update) -> None:
        # One delta-join expansion per maintained aggregate.
        self._maintain_aggregates(
            lambda: self._join.expand(update.relation_name, update.row, update.multiplicity)
        )
        self._join.register(update.relation_name, update.row, update.multiplicity)


class HigherOrderIVM(_PerAggregateMaintainer):
    """Shared delta join + materialised join view, per-aggregate updates."""

    def __init__(
        self, schema_database: Database, query: ConjunctiveQuery, features: Sequence[str]
    ) -> None:
        super().__init__(schema_database, query, features)
        # The materialised intermediate view: feature projections of the join.
        self._materialized_join: Dict[Tuple, int] = {}

    def _apply_update(self, update: Update) -> None:
        # One shared delta-join expansion per update (the higher-order benefit)...
        delta = self._join.expand(update.relation_name, update.row, update.multiplicity)
        # ...appended to the materialised view...
        view = self._materialized_join
        for assignment, count in delta:
            key = tuple(assignment[feature] for feature in self.features)
            updated = view.get(key, 0) + count
            if updated:
                view[key] = updated
            else:
                view.pop(key, None)
        # ...but each aggregate still scans the delta separately.
        self._maintain_aggregates(lambda: delta)
        self._join.register(update.relation_name, update.row, update.multiplicity)

    def materialized_view_size(self) -> int:
        """Number of distinct feature tuples held by the materialised view."""
        return len(self._materialized_join)
