"""Aggregate specifications.

An :class:`Aggregate` is a SQL aggregate of the shape used throughout
Section 2 of the paper::

    SUM(X_1 * ... * X_k)  [WHERE filters]  GROUP BY Z_1, ..., Z_m

optionally carrying an additive-inequality condition
``w_1*X_1 + ... + w_n*X_n > c`` (Section 2.3).  A batch is a list of such
aggregates evaluated together over the same feature-extraction query.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple


class FilterOp(enum.Enum):
    """Comparison operators usable in aggregate filters."""

    EQ = "="
    NE = "!="
    GE = ">="
    GT = ">"
    LE = "<="
    LT = "<"
    IN = "in"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FilterOp.{self.name}"


@dataclass(frozen=True)
class Filter:
    """A per-attribute filter condition ``attribute op value``."""

    attribute: str
    op: FilterOp
    value: object

    def __hash__(self) -> int:
        # Planning and the executor's signature maps probe with the same few
        # filter objects over and over; re-hashing three fields (one of them
        # an enum, hashed in Python) on every probe was ~4 % of a tree fit.
        value = self.__dict__.get("_hash")
        if value is None:
            value = hash((self.attribute, self.op, self.value))
            object.__setattr__(self, "_hash", value)
        return value

    def __getstate__(self) -> Dict[str, object]:
        # String hashes are per process: the cached one must not travel.
        return {name: value for name, value in self.__dict__.items() if name != "_hash"}

    def test(self, value: object) -> bool:
        if self.op is FilterOp.EQ:
            return value == self.value
        if self.op is FilterOp.NE:
            return value != self.value
        if self.op is FilterOp.GE:
            return value >= self.value  # type: ignore[operator]
        if self.op is FilterOp.GT:
            return value > self.value  # type: ignore[operator]
        if self.op is FilterOp.LE:
            return value <= self.value  # type: ignore[operator]
        if self.op is FilterOp.LT:
            return value < self.value  # type: ignore[operator]
        if self.op is FilterOp.IN:
            return value in self.value  # type: ignore[operator]
        raise ValueError(f"unknown filter operator {self.op!r}")  # pragma: no cover

    def __str__(self) -> str:
        return f"{self.attribute} {self.op.value} {self.value!r}"


@dataclass(frozen=True)
class InequalityCondition:
    """An additive inequality ``sum_i weights[X_i] * X_i > threshold``.

    This is the new type of theta-join condition of Section 2.3; it cannot be
    pushed to a single relation because it mixes attributes from several of
    them.
    """

    weights: Tuple[Tuple[str, float], ...]
    threshold: float
    strict: bool = True

    @staticmethod
    def of(weights: Mapping[str, float], threshold: float, strict: bool = True) -> "InequalityCondition":
        return InequalityCondition(tuple(sorted(weights.items())), threshold, strict)

    @property
    def attributes(self) -> Tuple[str, ...]:
        return tuple(attribute for attribute, _weight in self.weights)

    def weight_map(self) -> Dict[str, float]:
        return dict(self.weights)

    def test(self, row: Mapping[str, object]) -> bool:
        total = sum(weight * float(row[attribute]) for attribute, weight in self.weights)  # type: ignore[arg-type]
        return total > self.threshold if self.strict else total >= self.threshold

    def __str__(self) -> str:
        terms = " + ".join(f"{weight:g}*{attribute}" for attribute, weight in self.weights)
        op = ">" if self.strict else ">="
        return f"{terms} {op} {self.threshold:g}"


@dataclass(frozen=True)
class Aggregate:
    """One sum-product aggregate with optional group-by, filters and inequality."""

    product: Tuple[str, ...] = ()
    group_by: Tuple[str, ...] = ()
    filters: Tuple[Filter, ...] = ()
    inequality: Optional[InequalityCondition] = None
    name: str = ""

    @staticmethod
    def count(group_by: Sequence[str] = (), filters: Sequence[Filter] = (),
              name: str = "") -> "Aggregate":
        """SUM(1), possibly grouped and filtered."""
        return Aggregate((), tuple(group_by), tuple(filters), None, name or "count")

    @staticmethod
    def sum_of(attributes: Sequence[str], group_by: Sequence[str] = (),
               filters: Sequence[Filter] = (), name: str = "") -> "Aggregate":
        """SUM of a product of attributes."""
        display = name or "sum_" + "_".join(attributes)
        return Aggregate(tuple(attributes), tuple(group_by), tuple(filters), None, display)

    # -- accessors ------------------------------------------------------------------------

    @property
    def is_grouped(self) -> bool:
        return bool(self.group_by)

    @property
    def degree(self) -> int:
        """Number of multiplied continuous attributes (0 for a plain COUNT)."""
        return len(self.product)

    def attributes(self) -> Tuple[str, ...]:
        """All attributes the aggregate mentions (product, group-by, filters, inequality)."""
        seen: List[str] = []
        sources: List[str] = list(self.product) + list(self.group_by)
        sources.extend(condition.attribute for condition in self.filters)
        if self.inequality is not None:
            sources.extend(self.inequality.attributes)
        for attribute in sources:
            if attribute not in seen:
                seen.append(attribute)
        return tuple(seen)

    def product_multiplicities(self) -> Dict[str, int]:
        """How many times each attribute occurs in the product (squares count twice)."""
        counts: Dict[str, int] = {}
        for attribute in self.product:
            counts[attribute] = counts.get(attribute, 0) + 1
        return counts

    def filters_on(self, attribute: str) -> Tuple[Filter, ...]:
        return tuple(condition for condition in self.filters if condition.attribute == attribute)


@dataclass
class AggregateBatch:
    """A named batch of aggregates evaluated together over one query."""

    name: str
    aggregates: List[Aggregate] = field(default_factory=list)
    description: str = ""

    def __len__(self) -> int:
        return len(self.aggregates)

    def __iter__(self):
        return iter(self.aggregates)

    def __getitem__(self, index: int) -> Aggregate:
        return self.aggregates[index]

    def add(self, aggregate: Aggregate) -> None:
        self.aggregates.append(aggregate)

    def attributes(self) -> Tuple[str, ...]:
        seen: List[str] = []
        for aggregate in self.aggregates:
            for attribute in aggregate.attributes():
                if attribute not in seen:
                    seen.append(attribute)
        return tuple(seen)

    def grouped_aggregates(self) -> List[Aggregate]:
        return [aggregate for aggregate in self.aggregates if aggregate.is_grouped]

    def scalar_aggregates(self) -> List[Aggregate]:
        return [aggregate for aggregate in self.aggregates if not aggregate.is_grouped]

    def summary(self) -> Dict[str, int]:
        return {
            "aggregates": len(self.aggregates),
            "grouped": len(self.grouped_aggregates()),
            "scalar": len(self.scalar_aggregates()),
            "with_filters": sum(1 for aggregate in self if aggregate.filters),
            "with_inequalities": sum(1 for aggregate in self if aggregate.inequality),
        }
