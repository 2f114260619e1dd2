"""Databases: named relations.

A :class:`Database` groups the relations referenced by a feature-extraction
query.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.data.attribute import Schema
from repro.data.relation import Relation, RelationError


class Database:
    """A collection of named relations."""

    def __init__(
        self,
        relations: Optional[Iterable[Relation]] = None,
        name: str = "database",
    ) -> None:
        self.name = name
        self._relations: Dict[str, Relation] = {}
        for relation in relations or ():
            self.add_relation(relation)

    # -- relation management -----------------------------------------------------

    def add_relation(self, relation: Relation) -> None:
        if relation.name in self._relations:
            raise RelationError(f"duplicate relation name {relation.name!r}")
        self._relations[relation.name] = relation

    def drop_relation(self, name: str) -> None:
        if name not in self._relations:
            raise RelationError(f"no relation named {name!r}")
        del self._relations[name]

    def relation(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError as exc:
            raise RelationError(
                f"no relation named {name!r}; available: {sorted(self._relations)}"
            ) from exc

    def __getitem__(self, name: str) -> Relation:
        return self.relation(name)

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[Relation]:
        return iter(self._relations.values())

    def __len__(self) -> int:
        return len(self._relations)

    @property
    def relation_names(self) -> Tuple[str, ...]:
        return tuple(self._relations)

    @property
    def relations(self) -> List[Relation]:
        return list(self._relations.values())

    def copy(self, name: Optional[str] = None) -> "Database":
        return Database([relation.copy() for relation in self], name or self.name)

    def empty_copy(self, name: Optional[str] = None) -> "Database":
        """A database with the same schemas but no tuples (used by IVM benches)."""
        return Database([relation.empty_like() for relation in self], name or self.name)

    # -- metadata ------------------------------------------------------------------

    def attribute_names(self) -> Tuple[str, ...]:
        """All attribute names across relations (first occurrence order)."""
        seen: List[str] = []
        for relation in self:
            for name in relation.schema.names:
                if name not in seen:
                    seen.append(name)
        return tuple(seen)

    def relations_with_attribute(self, attribute: str) -> List[Relation]:
        return [relation for relation in self if attribute in relation.schema]

    def schema_of(self, attribute: str) -> Schema:
        for relation in self:
            if attribute in relation.schema:
                return relation.schema
        raise RelationError(f"attribute {attribute!r} not found in any relation")

    def is_categorical(self, attribute: str) -> bool:
        return self.schema_of(attribute).is_categorical(attribute)

    def total_tuples(self) -> int:
        return sum(relation.total_multiplicity() for relation in self)

    def size_summary(self) -> Dict[str, Tuple[int, int]]:
        """Map relation name -> (distinct tuples, arity)."""
        return {relation.name: (len(relation), relation.arity) for relation in self}

    def __repr__(self) -> str:
        summary = ", ".join(f"{relation.name}[{len(relation)}]" for relation in self)
        return f"Database({self.name!r}: {summary})"
