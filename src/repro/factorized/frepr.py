"""Factorised representations: union/product/value DAGs.

The representation mirrors Figure 8 of the paper: a union node groups the
values of one variable; below each value sits a product node whose factors are
the sub-factorisations of the variable's children in the variable order.
Caching (the ``price`` sub-tree cached per ``item`` in the paper) turns the
tree into a DAG, which is what makes factorisations succinct.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple


class FactorizedNode:
    """Base class for nodes of a factorised representation."""

    __slots__ = ()

    def value_count(self, _seen=None) -> int:
        """Number of data values in the representation (shared nodes count once)."""
        raise NotImplementedError

    def tuple_count(self) -> int:
        """Number of flat tuples represented."""
        raise NotImplementedError


@dataclass
class ValueLeaf(FactorizedNode):
    """A single data value of one variable."""

    variable: str
    value: object

    def value_count(self, seen=None) -> int:
        seen = seen if seen is not None else set()
        if id(self) in seen:
            return 0
        seen.add(id(self))
        return 1

    def tuple_count(self) -> int:
        return 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.variable}={self.value}"


@dataclass
class ProductNode(FactorizedNode):
    """Cartesian product of independent sub-factorisations."""

    factors: List[FactorizedNode] = field(default_factory=list)

    def value_count(self, seen=None) -> int:
        seen = seen if seen is not None else set()
        if id(self) in seen:
            return 0
        seen.add(id(self))
        return sum(factor.value_count(seen) for factor in self.factors)

    def tuple_count(self) -> int:
        count = 1
        for factor in self.factors:
            count *= factor.tuple_count()
        return count

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "(" + " x ".join(repr(factor) for factor in self.factors) + ")"


@dataclass
class UnionNode(FactorizedNode):
    """Union over the values of one variable.

    ``children`` maps each value of ``variable`` to the product node
    representing the rest of the tuple fragment below that value.
    """

    variable: str
    children: Dict[object, FactorizedNode] = field(default_factory=dict)

    def value_count(self, seen=None) -> int:
        seen = seen if seen is not None else set()
        if id(self) in seen:
            return 0
        seen.add(id(self))
        total = len(self.children)  # one value per child branch
        for child in self.children.values():
            total += child.value_count(seen)
        return total

    def tuple_count(self) -> int:
        return sum(child.tuple_count() for child in self.children.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(f"{value}->{child!r}" for value, child in self.children.items())
        return f"U[{self.variable}]({parts})"


@dataclass
class FactorizedRelation:
    """A factorised join result: the root node plus bookkeeping metadata."""

    root: FactorizedNode
    variables: Tuple[str, ...]
    cache_hits: int = 0
    cache_entries: int = 0

    # -- size measures -----------------------------------------------------------------

    def size(self) -> int:
        """Number of values in the factorisation (shared sub-DAGs count once)."""
        return self.root.value_count(set())

    def flat_size(self) -> int:
        """Number of tuples the factorisation represents."""
        return self.root.tuple_count()

    def flat_value_count(self) -> int:
        """Number of values of the equivalent flat (tabular) representation."""
        return self.flat_size() * len(self.variables)

    def compression_ratio(self) -> float:
        """Flat value count divided by factorised value count (>= 1 for joins)."""
        size = self.size()
        if size == 0:
            return 1.0
        return self.flat_value_count() / size

    # -- enumeration --------------------------------------------------------------------

    def tuples(self) -> Iterator[Tuple]:
        """Enumerate the flat tuples (each as a tuple aligned with ``variables``).

        Each *distinct* join tuple once: multiplicities are ignored, as in
        :func:`~repro.factorized.factorize.factorize_join`, so the count is
        ``flat_size()``, not the engine's bag count.
        """
        order = {variable: index for index, variable in enumerate(self.variables)}

        def enumerate_node(node: FactorizedNode) -> Iterator[Dict[str, object]]:
            if isinstance(node, ValueLeaf):
                yield {node.variable: node.value}
            elif isinstance(node, UnionNode):
                for value, child in node.children.items():
                    for assignment in enumerate_node(child):
                        combined = dict(assignment)
                        combined[node.variable] = value
                        yield combined
            elif isinstance(node, ProductNode):
                if not node.factors:
                    yield {}
                    return
                factor_assignments = [list(enumerate_node(factor)) for factor in node.factors]
                for combination in itertools.product(*factor_assignments):
                    combined: Dict[str, object] = {}
                    for assignment in combination:
                        combined.update(assignment)
                    yield combined
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown node type {type(node)!r}")

        for assignment in enumerate_node(self.root):
            yield tuple(assignment.get(variable) for variable in self.variables)

    def __len__(self) -> int:
        return self.flat_size()

    def render(self, max_depth: int = 12) -> str:
        """ASCII rendering of the factorisation (for examples/documentation)."""
        lines: List[str] = []

        def visit(node: FactorizedNode, depth: int) -> None:
            indent = "  " * depth
            if depth > max_depth:
                lines.append(indent + "...")
                return
            if isinstance(node, ValueLeaf):
                lines.append(f"{indent}{node.variable}={node.value}")
            elif isinstance(node, UnionNode):
                lines.append(f"{indent}∪ {node.variable}")
                for value, child in node.children.items():
                    lines.append(f"{indent}  {node.variable}={value} ×")
                    visit(child, depth + 2)
            elif isinstance(node, ProductNode):
                for factor in node.factors:
                    visit(factor, depth)

        visit(self.root, 0)
        return "\n".join(lines)
