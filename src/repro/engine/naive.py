"""Reference evaluators: the materialised join and the tuple-at-a-time view scan.

``MaterializedJoinEngine`` models what a classical DBMS (or the
PostgreSQL-based pipeline of Figure 3) does with an aggregate batch: compute
the feature-extraction join once, then answer every aggregate with an
independent scan of the materialised result.  There is no cross-aggregate
sharing, which is exactly what Figure 4 (left) isolates.  Its left-deep
tuple join (:meth:`MaterializedJoinEngine.materialize`) is the only tuple
join in the package: every production read takes the join from the engine
(:func:`repro.ml.statistics.join_counts`).

:func:`scan_node_views` computes one node's views by scanning its relation a
tuple at a time with pre-resolved column positions: the semantics the
engine's columnar views are tested against (through :func:`view_as_dict`),
and the "+specialisation" step of the Figure-6 benchmark.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.aggregates.spec import Aggregate, AggregateBatch
from repro.data.database import Database
from repro.data.relation import Relation, Row
from repro.engine.executor import EMPTY_GROUP, ColumnarView, restrict_signature
from repro.engine.lmfao import _unique_name
from repro.engine.plan import ViewSignature
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.join_tree import JoinTreeNode

AggregateValue = Union[float, Dict[Tuple, float]]

# conn_key -> (group assignment as sorted (attribute, value) pairs) -> value
View = Dict[Tuple, Dict[Tuple, float]]


def view_as_dict(view: ColumnarView) -> View:
    """A columnar view in the tuple scan's shape: connection key -> group key -> value.

    Group keys are the attribute-sorted ``(attribute, value)`` pairs the scan
    builds; a key code with no entry (``present`` False) is left out.
    """
    bundle = view.bundle
    group_keys = bundle.group_keys
    attrs = bundle.group_attrs
    if attrs and list(attrs) != sorted(attrs):
        pick = itemgetter(*sorted(range(len(attrs)), key=attrs.__getitem__))
        group_keys = [pick(pairs) if pairs else EMPTY_GROUP for pairs in group_keys]
    codes = view.codes()
    result: View = {}
    for conn_id, group_id, value in zip(
        bundle.conn_ids[codes].tolist(),
        bundle.group_ids[codes].tolist(),
        view.sums[codes].tolist(),
    ):
        groups = result.setdefault(bundle.conn_keys[conn_id], {})
        pairs = group_keys[group_id]
        groups[pairs] = groups.get(pairs, 0.0) + value
    return result


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
    child_views: Mapping[Tuple[str, str, ViewSignature], Union[View, ColumnarView]],
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
        view = child_views[(child.relation_name, here, child_signature)]
        if isinstance(view, ColumnarView):
            view = view_as_dict(view)
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


def scan_node_views(
    node: JoinTreeNode,
    relation: Relation,
    signatures: Sequence[ViewSignature],
    designation: Mapping[str, str],
    child_views: Mapping[Tuple[str, str, ViewSignature], Union[View, ColumnarView]],
) -> Dict[ViewSignature, View]:
    """The views of ``signatures`` at one node by a single tuple-at-a-time scan.

    ``child_views`` may hold the scan's own views or the engine's columnar
    ones, which are decoded through :func:`view_as_dict`.
    """
    conn_attributes = sorted(node.connection_attributes())
    conn_positions = [relation.schema.index_of(attribute) for attribute in conn_attributes]
    tasks = [
        _prepare_task(node, relation, signature, designation, child_views)
        for signature in signatures
    ]
    _scan_specialized(relation, conn_positions, tasks)
    return {task.signature: task.result for task in tasks}


def evaluate_aggregate_over_rows(
    aggregate: Aggregate,
    rows: Sequence[Tuple[Mapping[str, object], int]],
) -> AggregateValue:
    """Evaluate one aggregate by scanning (row dict, multiplicity) pairs."""
    grouped: Dict[Tuple, float] = {}
    scalar = 0.0
    for row, multiplicity in rows:
        passes = all(condition.test(row[condition.attribute]) for condition in aggregate.filters)
        if passes and aggregate.inequality is not None:
            passes = aggregate.inequality.test(row)
        if not passes:
            continue
        value = float(multiplicity)
        for attribute in aggregate.product:
            value *= float(row[attribute])  # type: ignore[arg-type]
        if aggregate.group_by:
            key = tuple(row[attribute] for attribute in aggregate.group_by)
            grouped[key] = grouped.get(key, 0.0) + value
        else:
            scalar += value
    return grouped if aggregate.group_by else scalar


def _natural_join(relations: Sequence[Relation], name: str) -> Relation:
    """Left-deep hash join of ``relations`` on their shared attribute names.

    A step that shares no attribute with the result so far is the product.
    Multiplicities multiply.  Rows come out in the order of the left-deep
    plan (left rows outer, each probing a hash index over the next
    relation's ``items()``), and the result lands with one ``add_batch``.
    """
    schema = relations[0].schema
    pairs: List[Tuple[Row, int]] = list(relations[0].items())
    for relation in relations[1:]:
        shared = schema.common_names(relation.schema)
        left_shared = schema.indices_of(shared)
        right_shared = relation.schema.indices_of(shared)
        right_extra = relation.schema.indices_of(
            [column for column in relation.schema.names if column not in shared]
        )
        schema = schema.union(relation.schema)
        index: Dict[Tuple, List[Tuple[Row, int]]] = {}
        for row, multiplicity in relation.items():
            key = tuple(row[position] for position in right_shared)
            index.setdefault(key, []).append((row, multiplicity))
        pairs = [
            (row + tuple(other_row[position] for position in right_extra),
             multiplicity * other_multiplicity)
            for row, multiplicity in pairs
            for other_row, other_multiplicity in index.get(
                tuple(row[position] for position in left_shared), ()
            )
        ]
    result = Relation(name, schema)
    result.add_batch(
        [row for row, _multiplicity in pairs],
        [multiplicity for _row, multiplicity in pairs],
        validated=True,
    )
    return result


@dataclass
class NaiveBatchResult:
    """Results plus timing split into join materialisation and aggregate scans."""

    batch: AggregateBatch
    values: Dict[str, AggregateValue]
    join_seconds: float = 0.0
    aggregate_seconds: float = 0.0
    join_rows: int = 0

    @property
    def elapsed_seconds(self) -> float:
        return self.join_seconds + self.aggregate_seconds

    def __getitem__(self, name: str) -> AggregateValue:
        return self.values[name]

    def scalar(self, name: str) -> float:
        value = self.values[name]
        if isinstance(value, dict):
            raise TypeError(f"aggregate {name!r} is grouped")
        return float(value)

    def grouped(self, name: str) -> Dict[Tuple, float]:
        value = self.values[name]
        if not isinstance(value, dict):
            raise TypeError(f"aggregate {name!r} is scalar")
        return value

    def as_mapping(self) -> Dict[str, AggregateValue]:
        return dict(self.values)


class MaterializedJoinEngine:
    """One-aggregate-at-a-time evaluation over the materialised join."""

    def __init__(self, database: Database, query: ConjunctiveQuery) -> None:
        self.database = database
        self.query = query
        self._join: Optional[Relation] = None
        self._rows: Optional[List[Tuple[Dict[str, object], int]]] = None

    def materialize(self) -> Relation:
        """Materialise (and cache) the feature-extraction join: a left-deep
        hash join over ``query.relation_names`` in their order."""
        if self._join is None:
            self._join = _natural_join(self.query.relations(self.database), self.query.name)
            names = self._join.schema.names
            self._rows = [
                (dict(zip(names, row)), multiplicity)
                for row, multiplicity in self._join.items()
            ]
        return self._join

    def invalidate(self) -> None:
        """Drop the cached join (used after updates to the base relations)."""
        self._join = None
        self._rows = None

    def evaluate(self, batch: AggregateBatch) -> NaiveBatchResult:
        started = time.perf_counter()
        joined = self.materialize()
        join_seconds = time.perf_counter() - started
        assert self._rows is not None

        values: Dict[str, AggregateValue] = {}
        started = time.perf_counter()
        for aggregate in batch:
            values[_unique_name(aggregate, values)] = evaluate_aggregate_over_rows(
                aggregate, self._rows
            )
        aggregate_seconds = time.perf_counter() - started

        return NaiveBatchResult(
            batch=batch,
            values=values,
            join_seconds=join_seconds,
            aggregate_seconds=aggregate_seconds,
            join_rows=len(joined),
        )
