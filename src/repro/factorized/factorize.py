"""Computing the factorised join directly from the input relations.

The construction follows the variable order top-down.  At a node for variable
``X`` the candidate values are the intersection, over the relations containing
``X``, of the ``X`` values consistent with the ancestor assignments; below each
value the children of ``X`` are built recursively and branches with an empty
child are pruned.  Sub-factorisations are cached on the node's *key* (the
ancestors its subtree actually depends on), which is what shares, e.g., the
price fragment across dishes in the paper's example.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.data.database import Database
from repro.data.relation import Relation
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.variable_order import VariableOrder, build_variable_order
from repro.factorized.frepr import (
    FactorizedRelation,
    FactorizedNode,
    ProductNode,
    UnionNode,
)


def _sort_key(value: object) -> Tuple[str, str]:
    """Deterministic ordering for heterogeneous value domains."""
    return (type(value).__name__, str(value))


class _RelationIndex:
    """Per-(relation, variable) index: ancestor values -> set of variable values."""

    def __init__(self, relation: Relation, variable: str, ancestor_attributes: Sequence[str]):
        self.ancestor_attributes = tuple(ancestor_attributes)
        variable_position = relation.schema.index_of(variable)
        ancestor_positions = relation.schema.indices_of(self.ancestor_attributes)
        self.values_by_key: Dict[Tuple, Set[object]] = {}
        for row in relation:
            key = tuple(row[position] for position in ancestor_positions)
            self.values_by_key.setdefault(key, set()).add(row[variable_position])

    def lookup(self, context: Dict[str, object]) -> Set[object]:
        key = tuple(context[attribute] for attribute in self.ancestor_attributes)
        return self.values_by_key.get(key, set())


class FactorizationBuilder:
    """Builds a :class:`FactorizedRelation` for a query over a database."""

    def __init__(self, database: Database, order: VariableOrder) -> None:
        self.database = database
        self.order = order
        self._indexes: Dict[Tuple[str, str], _RelationIndex] = {}
        self._cache: Dict[Tuple[int, Tuple], FactorizedNode] = {}
        self.cache_hits = 0

    # -- index management --------------------------------------------------------------

    def _index(self, relation_name: str, node: VariableOrder) -> _RelationIndex:
        key = (relation_name, node.variable)
        index = self._indexes.get(key)
        if index is None:
            relation = self.database.relation(relation_name)
            ancestors = [
                attribute
                for attribute in node.ancestors()
                if attribute in relation.schema
            ]
            index = _RelationIndex(relation, node.variable, ancestors)
            self._indexes[key] = index
        return index

    # -- construction --------------------------------------------------------------------

    def build(self) -> FactorizedRelation:
        root_node = self._build_node(self.order, {})
        variables = tuple(self.order.variables())
        factorization = FactorizedRelation(
            root=root_node,
            variables=variables,
            cache_hits=self.cache_hits,
            cache_entries=len(self._cache),
        )
        return factorization

    def _build_node(self, node: VariableOrder, context: Dict[str, object]) -> FactorizedNode:
        cache_key = (
            id(node),
            tuple(sorted((attribute, context[attribute]) for attribute in node.key)),
        )
        cached = self._cache.get(cache_key)
        if cached is not None:
            self.cache_hits += 1
            return cached

        candidates: Optional[Set[object]] = None
        for relation_name in sorted(node.relations):
            index = self._index(relation_name, node)
            values = index.lookup(context)
            candidates = set(values) if candidates is None else candidates & values
        if candidates is None:
            # Variable not bound by any relation (cannot happen for well-formed
            # queries); treat as empty.
            candidates = set()

        union = UnionNode(node.variable)
        for value in sorted(candidates, key=_sort_key):
            child_context = dict(context)
            child_context[node.variable] = value
            factors: List[FactorizedNode] = []
            empty_branch = False
            for child in node.children:
                sub_factorization = self._build_node(child, child_context)
                if isinstance(sub_factorization, UnionNode) and not sub_factorization.children:
                    empty_branch = True
                    break
                factors.append(sub_factorization)
            if not empty_branch:
                union.children[value] = ProductNode(factors)

        self._cache[cache_key] = union
        return union


def factorize_join(
    query: ConjunctiveQuery,
    database: Database,
    order: Optional[VariableOrder] = None,
    root_relation: Optional[str] = None,
) -> FactorizedRelation:
    """Compute the factorised join of ``query`` over ``database``.

    ``order`` may supply an explicit variable order; otherwise one is derived
    from a join tree of the (acyclic) query, optionally rooted at
    ``root_relation``.

    The factorisation is a *set*: it represents the distinct join tuples and
    ignores multiplicities, so a row stored twice (or with multiplicity 2)
    joins once, where the engine's aggregates count it twice.  That is why
    no model in :mod:`repro.ml` reads it: they read the engine's bag join.
    """
    if order is None:
        order = build_variable_order(query, database, root_relation=root_relation)
    builder = FactorizationBuilder(database, order)
    return builder.build()
