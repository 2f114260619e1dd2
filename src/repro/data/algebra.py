"""Relational-algebra operators over multiset relations.

All operators respect multiplicities: projection adds them up per surviving
tuple, and joins and products multiply them.  These are the semantics of the
integer-ring view used throughout the paper.  They are what
:meth:`~repro.query.conjunctive.ConjunctiveQuery.evaluate` calls.

Each operator collects its result as one ``(rows, multiplicities)`` delta and
lands it with a single :meth:`~repro.data.relation.Relation.add_batch`, so a
result is one mutation (version 1) whose rows sit in the order the operator
produced them, repeats netted at their first occurrence.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.data.attribute import Schema, SchemaError
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
