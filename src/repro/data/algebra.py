"""Relational-algebra operators over multiset relations.

All operators respect multiplicities: selection and projection keep them
(projection adds them up per surviving tuple), joins multiply them, union adds
them, and difference subtracts them.  These are exactly the semantics of the
relational semiring / integer-ring view used throughout the paper.

Each operator collects its result as one ``(rows, multiplicities)`` delta and
lands it with a single :meth:`~repro.data.relation.Relation.add_batch`, so a
result is one mutation (version 1) whose rows sit in the order the operator
produced them, repeats netted at their first occurrence.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.data.attribute import Attribute, AttributeType, Schema, SchemaError
from repro.data.relation import Relation, RelationError, Row


def _add_items(relation: Relation, items: Iterable[Tuple[Row, int]]) -> None:
    """Land ``(row, multiplicity)`` pairs in ``relation`` as one delta."""
    pairs = list(items)
    relation.add_batch(
        [row for row, _multiplicity in pairs],
        [multiplicity for _row, multiplicity in pairs],
        validated=True,
    )


def _relation(name: str, schema: Schema, items: Iterable[Tuple[Row, int]]) -> Relation:
    """A new relation holding ``(row, multiplicity)`` pairs, one delta."""
    result = Relation(name, schema)
    _add_items(result, items)
    return result


def select(relation: Relation, predicate: Callable[[Dict[str, object]], bool],
           name: Optional[str] = None) -> Relation:
    """Keep tuples for which ``predicate`` holds (predicate sees a dict row)."""
    names = relation.schema.names
    kept = [
        (row, multiplicity)
        for row, multiplicity in relation.items()
        if predicate(dict(zip(names, row)))
    ]
    return _relation(name or f"select({relation.name})", relation.schema, kept)


def select_equals(relation: Relation, attribute: str, value: object,
                  name: Optional[str] = None) -> Relation:
    """Selection ``attribute = value`` (fast path, no dict construction)."""
    index = relation.schema.index_of(attribute)
    kept = [(row, multiplicity) for row, multiplicity in relation.items()
            if row[index] == value]
    return _relation(name or f"select({relation.name})", relation.schema, kept)


def project(relation: Relation, names: Sequence[str],
            name: Optional[str] = None) -> Relation:
    """Multiset projection onto ``names`` (multiplicities accumulate)."""
    schema = relation.schema.project(names)
    indices = relation.schema.indices_of(names)
    projected = [
        (tuple(row[index] for index in indices), multiplicity)
        for row, multiplicity in relation.items()
    ]
    return _relation(name or f"project({relation.name})", schema, projected)


def rename(relation: Relation, mapping: Mapping[str, str],
           name: Optional[str] = None) -> Relation:
    """Rename attributes according to ``mapping``."""
    schema = relation.schema.rename(dict(mapping))
    return _relation(name or relation.name, schema, relation.items())


def union(left: Relation, right: Relation, name: Optional[str] = None) -> Relation:
    """Multiset union: multiplicities add up."""
    if left.schema.names != right.schema.names:
        raise SchemaError(
            f"union requires identical schemas: {left.schema.names} vs {right.schema.names}"
        )
    result = left.copy(name or f"union({left.name},{right.name})")
    _add_items(result, right.items())
    return result


def difference(left: Relation, right: Relation, name: Optional[str] = None) -> Relation:
    """Multiset difference: subtract multiplicities (may go negative)."""
    if left.schema.names != right.schema.names:
        raise SchemaError(
            f"difference requires identical schemas: {left.schema.names} vs {right.schema.names}"
        )
    result = left.copy(name or f"difference({left.name},{right.name})")
    _add_items(result, ((row, -multiplicity) for row, multiplicity in right.items()))
    return result


def cartesian_product(left: Relation, right: Relation,
                      name: Optional[str] = None) -> Relation:
    """Cartesian product (schemas must be disjoint); multiplicities multiply."""
    shared = set(left.schema.names) & set(right.schema.names)
    if shared:
        raise SchemaError(f"cartesian product requires disjoint schemas, shared: {sorted(shared)}")
    schema = left.schema.union(right.schema)
    right_items = list(right.items())
    pairs = [
        (left_row + right_row, left_multiplicity * right_multiplicity)
        for left_row, left_multiplicity in left.items()
        for right_row, right_multiplicity in right_items
    ]
    return _relation(name or f"product({left.name},{right.name})", schema, pairs)


def natural_join(left: Relation, right: Relation,
                 name: Optional[str] = None) -> Relation:
    """Hash-based natural join on all shared attribute names."""
    shared = left.schema.common_names(right.schema)
    if not shared:
        return cartesian_product(left, right, name)
    schema = left.schema.union(right.schema)
    left_shared = left.schema.indices_of(shared)
    right_shared = right.schema.indices_of(shared)
    right_extra_names = [column for column in right.schema.names if column not in shared]
    right_extra = right.schema.indices_of(right_extra_names)

    # Build the hash table on the smaller relation for fewer probe misses.
    index: Dict[Tuple, List[Tuple[Row, int]]] = {}
    for row, multiplicity in right.items():
        key = tuple(row[position] for position in right_shared)
        index.setdefault(key, []).append((row, multiplicity))

    pairs = [
        (row + tuple(other_row[position] for position in right_extra),
         multiplicity * other_multiplicity)
        for row, multiplicity in left.items()
        for other_row, other_multiplicity in index.get(
            tuple(row[position] for position in left_shared), ()
        )
    ]
    return _relation(name or f"join({left.name},{right.name})", schema, pairs)


def natural_join_all(relations: Sequence[Relation], name: Optional[str] = None) -> Relation:
    """Left-deep natural join of a sequence of relations."""
    if not relations:
        raise RelationError("natural_join_all requires at least one relation")
    first = relations[0]
    # Built from items(), not copy(): a pinned snapshot's relations (see
    # repro.serving.snapshots.SnapshotRelation) are read-only and have none.
    result = _relation(first.name, first.schema, first.items())
    for relation in relations[1:]:
        result = natural_join(result, relation)
    result.name = name or "join(" + ",".join(relation.name for relation in relations) + ")"
    return result


def semi_join(left: Relation, right: Relation, name: Optional[str] = None) -> Relation:
    """Keep tuples of ``left`` that join with at least one tuple of ``right``."""
    shared = left.schema.common_names(right.schema)
    if not shared:
        return left.copy(name)
    left_shared = left.schema.indices_of(shared)
    right_shared = right.schema.indices_of(shared)
    keys = {tuple(row[position] for position in right_shared) for row in right}
    kept = [
        (row, multiplicity)
        for row, multiplicity in left.items()
        if tuple(row[position] for position in left_shared) in keys
    ]
    return _relation(name or f"semijoin({left.name},{right.name})", left.schema, kept)


def group_by_aggregate(
    relation: Relation,
    group_by: Sequence[str],
    aggregate: Callable[[Dict[str, object]], float],
    aggregate_name: str = "agg",
    use_multiplicity: bool = True,
    name: Optional[str] = None,
) -> Relation:
    """SUM-style group-by aggregate.

    For each group (projection of the tuple onto ``group_by``) the result holds
    the sum of ``aggregate(row) * multiplicity`` over the group's tuples.  The
    output schema is ``group_by + (aggregate_name,)`` with the aggregate column
    continuous.
    """
    names = relation.schema.names
    group_indices = relation.schema.indices_of(group_by)
    totals: Dict[Tuple, float] = {}
    for row, multiplicity in relation.items():
        value = aggregate(dict(zip(names, row)))
        weight = multiplicity if use_multiplicity else 1
        key = tuple(row[index] for index in group_indices)
        totals[key] = totals.get(key, 0.0) + value * weight

    schema = Schema(
        tuple(relation.schema.attribute(column) for column in group_by)
        + (Attribute(aggregate_name, AttributeType.CONTINUOUS),)
    )
    groups = [(key + (total,), 1) for key, total in totals.items()]
    return _relation(name or f"groupby({relation.name})", schema, groups)


def aggregate_scalar(
    relation: Relation,
    aggregate: Callable[[Dict[str, object]], float],
    use_multiplicity: bool = True,
) -> float:
    """SUM of ``aggregate(row) * multiplicity`` over the whole relation."""
    names = relation.schema.names
    total = 0.0
    for row, multiplicity in relation.items():
        weight = multiplicity if use_multiplicity else 1
        total += aggregate(dict(zip(names, row))) * weight
    return total


def count_rows(relation: Relation) -> int:
    """Total multiplicity of the relation (SUM(1))."""
    return relation.total_multiplicity()
