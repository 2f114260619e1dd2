"""The IFAQ expression IR and its instrumented interpreter.

The IR supports the constructs used by the paper's Section 5.3 walk-through:
dictionaries (finite maps), records with static fields, summation over the
support of a dictionary, dictionary construction, let bindings and a bounded
iteration loop (the gradient-descent convergence loop).  The interpreter
counts arithmetic operations, dynamic dictionary lookups and static field
accesses, so the benefit of each compilation stage can be quantified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple


class Record:
    """An immutable record: hashable, with both dynamic and static access."""

    __slots__ = ("fields", "values")

    def __init__(self, mapping: Mapping[str, Any]) -> None:
        self.fields: Tuple[str, ...] = tuple(mapping)
        self.values: Tuple[Any, ...] = tuple(mapping.values())

    def dynamic_get(self, name: str) -> Any:
        for position, fieldname in enumerate(self.fields):
            if fieldname == name:
                return self.values[position]
        raise KeyError(name)

    def static_get(self, position: int) -> Any:
        return self.values[position]

    def position_of(self, name: str) -> int:
        return self.fields.index(name)

    def as_dict(self) -> Dict[str, Any]:
        return dict(zip(self.fields, self.values))

    def __hash__(self) -> int:
        return hash((self.fields, self.values))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Record):
            return NotImplemented
        return self.fields == other.fields and self.values == other.values

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(f"{name}={value!r}" for name, value in zip(self.fields, self.values))
        return f"Record({parts})"


@dataclass
class OperationCounter:
    """Counts the work done by the interpreter."""

    arithmetic: int = 0
    dynamic_lookups: int = 0
    static_accesses: int = 0
    loop_iterations: int = 0

    @property
    def total(self) -> int:
        return self.arithmetic + self.dynamic_lookups + self.static_accesses

    def as_dict(self) -> Dict[str, int]:
        return {
            "arithmetic": self.arithmetic,
            "dynamic_lookups": self.dynamic_lookups,
            "static_accesses": self.static_accesses,
            "loop_iterations": self.loop_iterations,
            "total": self.total,
        }


class Expr:
    """Base class of IR expressions."""

    def children(self) -> Tuple["Expr", ...]:
        return ()

    def rebuild(self, children: Sequence["Expr"]) -> "Expr":
        return self

    def free_variables(self) -> frozenset:
        names = frozenset()
        for child in self.children():
            names |= child.free_variables()
        return names


@dataclass
class Const(Expr):
    value: Any

    def free_variables(self) -> frozenset:
        return frozenset()


@dataclass
class Var(Expr):
    name: str

    def free_variables(self) -> frozenset:
        return frozenset({self.name})


@dataclass
class Lookup(Expr):
    """Dynamic access ``container(key)`` — dictionary lookup or record field."""

    container: Expr
    key: Expr

    def children(self) -> Tuple[Expr, ...]:
        return (self.container, self.key)

    def rebuild(self, children: Sequence[Expr]) -> "Lookup":
        return Lookup(children[0], children[1])


@dataclass
class FieldOf(Expr):
    """Static field access ``record.field`` resolved to a position at compile time."""

    record: Expr
    field_name: str
    position: Optional[int] = None

    def children(self) -> Tuple[Expr, ...]:
        return (self.record,)

    def rebuild(self, children: Sequence[Expr]) -> "FieldOf":
        return FieldOf(children[0], self.field_name, self.position)


@dataclass
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr

    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)

    def rebuild(self, children: Sequence[Expr]) -> "BinOp":
        return BinOp(self.op, children[0], children[1])


@dataclass
class MakeRecord(Expr):
    entries: Tuple[Tuple[str, Expr], ...]

    def __init__(self, mapping: Mapping[str, Expr]) -> None:
        self.entries = tuple(mapping.items())

    def children(self) -> Tuple[Expr, ...]:
        return tuple(expr for _name, expr in self.entries)

    def rebuild(self, children: Sequence[Expr]) -> "MakeRecord":
        return MakeRecord({name: child for (name, _old), child in zip(self.entries, children)})


@dataclass
class SumOver(Expr):
    """``Σ_{variable ∈ sup(domain)} body`` — iterate over a dictionary's keys."""

    variable: str
    domain: Expr
    body: Expr

    def children(self) -> Tuple[Expr, ...]:
        return (self.domain, self.body)

    def rebuild(self, children: Sequence[Expr]) -> "SumOver":
        return SumOver(self.variable, children[0], children[1])

    def free_variables(self) -> frozenset:
        return self.domain.free_variables() | (self.body.free_variables() - {self.variable})


@dataclass
class DictOver(Expr):
    """``λ_{variable ∈ sup(domain)} body`` — build a dictionary keyed by the domain."""

    variable: str
    domain: Expr
    body: Expr

    def children(self) -> Tuple[Expr, ...]:
        return (self.domain, self.body)

    def rebuild(self, children: Sequence[Expr]) -> "DictOver":
        return DictOver(self.variable, children[0], children[1])

    def free_variables(self) -> frozenset:
        return self.domain.free_variables() | (self.body.free_variables() - {self.variable})


@dataclass
class Let(Expr):
    name: str
    bound: Expr
    body: Expr

    def children(self) -> Tuple[Expr, ...]:
        return (self.bound, self.body)

    def rebuild(self, children: Sequence[Expr]) -> "Let":
        return Let(self.name, children[0], children[1])

    def free_variables(self) -> frozenset:
        return self.bound.free_variables() | (self.body.free_variables() - {self.name})


@dataclass
class IterateLoop(Expr):
    """Bounded iteration: ``state = init; repeat count times: state = step``.

    The step expression sees the current state under ``state_name``.  This is
    the convergence loop of gradient descent with a fixed iteration budget.
    """

    state_name: str
    init: Expr
    count: int
    step: Expr

    def children(self) -> Tuple[Expr, ...]:
        return (self.init, self.step)

    def rebuild(self, children: Sequence[Expr]) -> "IterateLoop":
        return IterateLoop(self.state_name, children[0], self.count, children[1])

    def free_variables(self) -> frozenset:
        return self.init.free_variables() | (self.step.free_variables() - {self.state_name})


_ARITHMETIC = {
    "+": lambda left, right: left + right,
    "-": lambda left, right: left - right,
    "*": lambda left, right: left * right,
    "/": lambda left, right: left / right,
    "==": lambda left, right: 1.0 if left == right else 0.0,
}


def evaluate(expression: Expr, environment: Mapping[str, Any],
             counter: Optional[OperationCounter] = None) -> Any:
    """Evaluate an expression, counting operations in ``counter``."""
    counter = counter if counter is not None else OperationCounter()
    return _evaluate(expression, dict(environment), counter)


def _evaluate(expression: Expr, environment: Dict[str, Any], counter: OperationCounter) -> Any:
    if isinstance(expression, Const):
        return expression.value
    if isinstance(expression, Var):
        try:
            return environment[expression.name]
        except KeyError as exc:
            raise NameError(f"unbound variable {expression.name!r}") from exc
    if isinstance(expression, Lookup):
        container = _evaluate(expression.container, environment, counter)
        key = _evaluate(expression.key, environment, counter)
        counter.dynamic_lookups += 1
        if isinstance(container, Record):
            return container.dynamic_get(key)
        return container[key]
    if isinstance(expression, FieldOf):
        record = _evaluate(expression.record, environment, counter)
        counter.static_accesses += 1
        if isinstance(record, Record):
            if expression.position is not None:
                return record.static_get(expression.position)
            return record.dynamic_get(expression.field_name)
        return record[expression.field_name]
    if isinstance(expression, BinOp):
        left = _evaluate(expression.left, environment, counter)
        right = _evaluate(expression.right, environment, counter)
        counter.arithmetic += 1
        return _ARITHMETIC[expression.op](left, right)
    if isinstance(expression, MakeRecord):
        return Record(
            {name: _evaluate(child, environment, counter) for name, child in expression.entries}
        )
    if isinstance(expression, SumOver):
        domain = _evaluate(expression.domain, environment, counter)
        total = 0.0
        keys = domain.keys() if isinstance(domain, dict) else domain
        for key in keys:
            environment[expression.variable] = key
            total = total + _evaluate(expression.body, environment, counter)
            counter.arithmetic += 1
        environment.pop(expression.variable, None)
        return total
    if isinstance(expression, DictOver):
        domain = _evaluate(expression.domain, environment, counter)
        keys = domain.keys() if isinstance(domain, dict) else domain
        result = {}
        for key in keys:
            environment[expression.variable] = key
            result[key] = _evaluate(expression.body, environment, counter)
        environment.pop(expression.variable, None)
        return result
    if isinstance(expression, Let):
        environment[expression.name] = _evaluate(expression.bound, environment, counter)
        value = _evaluate(expression.body, environment, counter)
        environment.pop(expression.name, None)
        return value
    if isinstance(expression, IterateLoop):
        state = _evaluate(expression.init, environment, counter)
        for _iteration in range(expression.count):
            counter.loop_iterations += 1
            environment[expression.state_name] = state
            state = _evaluate(expression.step, environment, counter)
        environment.pop(expression.state_name, None)
        return state
    raise TypeError(f"unknown expression type {type(expression)!r}")
