"""Conjunctive (natural-join) queries.

A :class:`ConjunctiveQuery` is the feature-extraction query of Figure 2: a
natural join of a set of relations, optionally restricted to a set of output
(free) variables.  Join conditions are equality of equally named attributes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.data.database import Database
from repro.data.relation import Relation
from repro.data import algebra
from repro.query.hypergraph import Hypergraph


class QueryError(ValueError):
    """Raised when a query references unknown relations or attributes."""


@dataclass
class ConjunctiveQuery:
    """A natural-join query over named relations.

    Parameters
    ----------
    relation_names:
        The relations joined by the query (each name must exist in the database
        the query is evaluated against).
    free_variables:
        The output attributes.  ``None`` means all attributes (a full join).
    name:
        Optional display name.
    """

    relation_names: Tuple[str, ...]
    free_variables: Optional[Tuple[str, ...]] = None
    name: str = "Q"

    def __init__(
        self,
        relation_names: Sequence[str],
        free_variables: Optional[Sequence[str]] = None,
        name: str = "Q",
    ) -> None:
        if not relation_names:
            raise QueryError("a conjunctive query needs at least one relation")
        self.relation_names = tuple(relation_names)
        self.free_variables = tuple(free_variables) if free_variables is not None else None
        self.name = name

    # -- schema-level accessors ---------------------------------------------------

    def relations(self, database: Database) -> List[Relation]:
        return [database.relation(name) for name in self.relation_names]

    def variables(self, database: Database) -> Tuple[str, ...]:
        """All attributes mentioned by the query's relations (first-seen order)."""
        seen: List[str] = []
        for relation in self.relations(database):
            for attribute in relation.schema.names:
                if attribute not in seen:
                    seen.append(attribute)
        return tuple(seen)

    def output_variables(self, database: Database) -> Tuple[str, ...]:
        if self.free_variables is None:
            return self.variables(database)
        all_variables = set(self.variables(database))
        missing = [variable for variable in self.free_variables if variable not in all_variables]
        if missing:
            raise QueryError(f"free variables {missing} do not appear in the query")
        return self.free_variables

    def hypergraph(self, database: Database) -> Hypergraph:
        """The query hypergraph: one hyperedge per relation."""
        edges = {
            name: frozenset(database.relation(name).schema.names)
            for name in self.relation_names
        }
        return Hypergraph(edges)

    def join_attributes(self, database: Database) -> Dict[str, Set[str]]:
        """Map attribute -> set of relations containing it (join attributes have >= 2)."""
        membership: Dict[str, Set[str]] = {}
        for name in self.relation_names:
            for attribute in database.relation(name).schema.names:
                membership.setdefault(attribute, set()).add(name)
        return membership

    # -- evaluation -----------------------------------------------------------------

    def evaluate(self, database: Database) -> Relation:
        """Materialise the query result with a left-deep hash join plan.

        The reference join only: the oracle
        (:class:`~repro.engine.naive.MaterializedJoinEngine`) and the tests
        call it.  Every production read, the structure-agnostic baseline's
        materialised join included, takes the join from the engine
        (:func:`repro.ml.statistics.join_counts`).
        """
        joined = algebra.natural_join_all(self.relations(database), name=self.name)
        output = self.output_variables(database)
        if set(output) != set(joined.schema.names):
            joined = algebra.project(joined, output, name=self.name)
        return joined

    def __str__(self) -> str:
        head = ", ".join(self.free_variables) if self.free_variables else "*"
        return f"{self.name}({head}) :- {' ⋈ '.join(self.relation_names)}"
