"""Conjunctive (natural-join) queries.

A :class:`ConjunctiveQuery` is the feature-extraction query of Figure 2: a
natural join of a set of relations over all of their attributes.  Join
conditions are equality of equally named attributes.  The query only
describes the join; the engine (:mod:`repro.engine`) evaluates aggregates
over it, and the reference evaluator
(:class:`~repro.engine.naive.MaterializedJoinEngine`) materialises it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.data.database import Database
from repro.data.relation import Relation
from repro.query.hypergraph import Hypergraph


class QueryError(ValueError):
    """Raised for a query that joins no relation."""


@dataclass
class ConjunctiveQuery:
    """A natural-join query over named relations.

    Parameters
    ----------
    relation_names:
        The relations joined by the query (each name must exist in the database
        the query is evaluated against).
    name:
        Optional display name.
    """

    relation_names: Tuple[str, ...]
    name: str = "Q"

    def __init__(self, relation_names: Sequence[str], name: str = "Q") -> None:
        if not relation_names:
            raise QueryError("a conjunctive query needs at least one relation")
        self.relation_names = tuple(relation_names)
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

    def hypergraph(self, database: Database) -> Hypergraph:
        """The query hypergraph: one hyperedge per relation."""
        edges = {
            name: frozenset(database.relation(name).schema.names)
            for name in self.relation_names
        }
        return Hypergraph(edges)

    def __str__(self) -> str:
        return f"{self.name}(*) :- {' ⋈ '.join(self.relation_names)}"
