"""Attributes and schemas.

An :class:`Attribute` is a named column with a type that matters for the
learning layer: continuous attributes participate in sums of products, while
categorical attributes participate through group-by keys (the sparse-tensor
encoding of one-hot features described in Section 2.1 of the paper).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence, Tuple


class AttributeType(enum.Enum):
    """The type of an attribute as seen by the aggregate/learning layers."""

    CONTINUOUS = "continuous"
    CATEGORICAL = "categorical"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AttributeType.{self.name}"


@dataclass(frozen=True)
class Attribute:
    """A named, typed column.

    Parameters
    ----------
    name:
        Column name, unique within a schema (and, by convention, within a
        database: natural joins connect equally named attributes).
    attribute_type:
        Whether the values are treated as continuous numbers or as categories.
    """

    name: str
    attribute_type: AttributeType = AttributeType.CONTINUOUS

    @property
    def is_continuous(self) -> bool:
        return self.attribute_type is AttributeType.CONTINUOUS

    @property
    def is_categorical(self) -> bool:
        return self.attribute_type is AttributeType.CATEGORICAL

    def __str__(self) -> str:
        return self.name


def continuous(name: str) -> Attribute:
    """Shorthand constructor for a continuous attribute."""
    return Attribute(name, AttributeType.CONTINUOUS)


def categorical(name: str) -> Attribute:
    """Shorthand constructor for a categorical attribute."""
    return Attribute(name, AttributeType.CATEGORICAL)


class SchemaError(ValueError):
    """Raised when a schema is malformed or attribute lookups fail."""


@dataclass(frozen=True)
class Schema:
    """An ordered collection of attributes with unique names."""

    attributes: Tuple[Attribute, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        names = [attribute.name for attribute in self.attributes]
        if len(names) != len(set(names)):
            duplicates = sorted({name for name in names if names.count(name) > 1})
            raise SchemaError(f"duplicate attribute names in schema: {duplicates}")

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def of(*attributes: Attribute) -> "Schema":
        return Schema(tuple(attributes))

    @staticmethod
    def from_names(
        names: Sequence[str],
        categorical_names: Optional[Iterable[str]] = None,
    ) -> "Schema":
        """Build a schema from attribute names.

        ``categorical_names`` selects which of them are categorical; the rest
        default to continuous.
        """
        categorical_set = set(categorical_names or ())
        unknown = categorical_set - set(names)
        if unknown:
            raise SchemaError(f"categorical names not in schema: {sorted(unknown)}")
        return Schema(
            tuple(
                Attribute(
                    name,
                    AttributeType.CATEGORICAL
                    if name in categorical_set
                    else AttributeType.CONTINUOUS,
                )
                for name in names
            )
        )

    # -- lookups ---------------------------------------------------------------

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(attribute.name for attribute in self.attributes)

    def __len__(self) -> int:
        return len(self.attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self.attributes)

    def __contains__(self, name: object) -> bool:
        if isinstance(name, Attribute):
            return name in self.attributes
        return name in self.names

    def attribute(self, name: str) -> Attribute:
        for attribute in self.attributes:
            if attribute.name == name:
                return attribute
        raise SchemaError(f"no attribute named {name!r} in schema {self.names}")

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError as exc:
            raise SchemaError(
                f"no attribute named {name!r} in schema {self.names}"
            ) from exc

    def indices_of(self, names: Sequence[str]) -> Tuple[int, ...]:
        return tuple(self.index_of(name) for name in names)

    def is_categorical(self, name: str) -> bool:
        return self.attribute(name).is_categorical

    def is_continuous(self, name: str) -> bool:
        return self.attribute(name).is_continuous

    # -- schema algebra ---------------------------------------------------------

    def rename(self, mapping: dict) -> "Schema":
        """Return a schema with attributes renamed according to ``mapping``."""
        return Schema(
            tuple(
                Attribute(mapping.get(attribute.name, attribute.name), attribute.attribute_type)
                for attribute in self.attributes
            )
        )

    def union(self, other: "Schema") -> "Schema":
        """Concatenate two schemas, keeping the first occurrence of shared names.

        Shared names must agree on the attribute type.
        """
        result = list(self.attributes)
        seen = {attribute.name: attribute for attribute in result}
        for attribute in other.attributes:
            existing = seen.get(attribute.name)
            if existing is None:
                result.append(attribute)
                seen[attribute.name] = attribute
            elif existing.attribute_type is not attribute.attribute_type:
                raise SchemaError(
                    f"attribute {attribute.name!r} has conflicting types: "
                    f"{existing.attribute_type} vs {attribute.attribute_type}"
                )
        return Schema(tuple(result))

    def common_names(self, other: "Schema") -> Tuple[str, ...]:
        """Names shared with ``other``, in this schema's order."""
        other_names = set(other.names)
        return tuple(name for name in self.names if name in other_names)

    def __str__(self) -> str:
        parts = ", ".join(
            f"{attribute.name}:{'cat' if attribute.is_categorical else 'num'}"
            for attribute in self.attributes
        )
        return f"({parts})"
