"""Equivalence-preserving IFAQ transformations.

Three rewrites from Figure 11 are implemented generically over the IR:

* :func:`hoist_invariant_lets` — loop-invariant code motion: a ``Let`` at the
  top of a loop body whose bound expression does not depend on the loop state
  is moved out of the loop;
* :func:`specialize_field_access` — schema specialisation: dynamic record
  lookups with statically known keys become static field accesses with
  resolved positions;
* :func:`lower_to_batch` — aggregate pushdown: the bindings that sum a
  product of fields over the join become one aggregate batch, evaluated by
  the LMFAO engine over the base relations.
"""

from __future__ import annotations

from itertools import product
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.aggregates.spec import Aggregate, AggregateBatch
from repro.data.database import Database
from repro.engine.lmfao import LMFAOEngine
from repro.ifaq.expr import (
    BinOp,
    Const,
    DictOver,
    Expr,
    FieldOf,
    IterateLoop,
    Let,
    Lookup,
    SumOver,
    Var,
)
from repro.query.conjunctive import ConjunctiveQuery

#: The IR variable bound to the join dictionary ``Q`` (record -> multiplicity).
JOIN_VARIABLE = "Q"


def _transform_bottom_up(expression: Expr, rule: Callable[[Expr], Expr]) -> Expr:
    """Apply ``rule`` to every node, children first."""
    children = expression.children()
    if children:
        rebuilt = expression.rebuild(
            [_transform_bottom_up(child, rule) for child in children]
        )
    else:
        rebuilt = expression
    return rule(rebuilt)


# -- loop-invariant code motion ------------------------------------------------------------------


def hoist_invariant_lets(expression: Expr) -> Expr:
    """Move loop-invariant ``Let`` bindings out of ``IterateLoop`` bodies."""

    def rule(node: Expr) -> Expr:
        if not isinstance(node, IterateLoop):
            return node
        loop = node
        hoisted: List[Tuple[str, Expr]] = []
        step = loop.step
        while isinstance(step, Let) and loop.state_name not in step.bound.free_variables():
            hoisted.append((step.name, step.bound))
            step = step.body
        if not hoisted:
            return node
        result: Expr = IterateLoop(loop.state_name, loop.init, loop.count, step)
        for name, bound in reversed(hoisted):
            result = Let(name, bound, result)
        return result

    return _transform_bottom_up(expression, rule)


# -- schema specialisation -----------------------------------------------------------------------------


def specialize_field_access(expression: Expr, field_order: Sequence[str],
                            record_variables: Sequence[str]) -> Expr:
    """Turn ``Lookup(Var(x), Const(field))`` into a positional ``FieldOf`` access.

    ``field_order`` is the statically known record layout and
    ``record_variables`` the loop variables bound to records of that layout.
    """
    positions: Dict[str, int] = {name: position for position, name in enumerate(field_order)}
    record_set = set(record_variables)

    def rule(node: Expr) -> Expr:
        if (
            isinstance(node, Lookup)
            and isinstance(node.container, Var)
            and node.container.name in record_set
            and isinstance(node.key, Const)
            and node.key.value in positions
        ):
            return FieldOf(node.container, str(node.key.value), positions[str(node.key.value)])
        return node

    return _transform_bottom_up(expression, rule)


# -- aggregate pushdown and lowering -------------------------------------------------------------


def _factors(expression: Expr) -> Iterator[Expr]:
    """The operands of a (nested) product ``a * b * ...``."""
    if isinstance(expression, BinOp) and expression.op == "*":
        yield from _factors(expression.left)
        yield from _factors(expression.right)
    else:
        yield expression


def _sum_product_nest(
    bound: Expr,
) -> Optional[Tuple[List[Tuple[str, List[Any]]], List[Tuple[str, bool]]]]:
    """``(layers, fields)`` when ``bound`` is ``λ_{v1∈D1} … λ_{vk∈Dk} Σ_{x∈Q}
    Q(x) · Π x(field)`` with constant domains ``Di`` (k >= 1); ``None``
    otherwise.  A field is ``(name, True)`` when it is a layer variable's
    value and ``(name, False)`` when it names the field itself.
    """
    layers: List[Tuple[str, List[Any]]] = []
    node = bound
    while isinstance(node, DictOver) and isinstance(node.domain, Const):
        layers.append((node.variable, list(node.domain.value)))
        node = node.body
    if not (layers and isinstance(node, SumOver) and node.domain == Var(JOIN_VARIABLE)):
        return None
    record, layer_names = Var(node.variable), {name for name, _domain in layers}
    factors = list(_factors(node.body))
    weight = Lookup(Var(JOIN_VARIABLE), record)
    fields: List[Tuple[str, bool]] = []
    for factor in factors:
        if factor == weight:
            continue
        if isinstance(factor, FieldOf) and factor.record == record:
            fields.append((factor.field_name, False))
        elif isinstance(factor, Lookup) and factor.container == record:
            key = factor.key
            if isinstance(key, Const):
                fields.append((str(key.value), False))
            elif isinstance(key, Var) and key.name in layer_names:
                fields.append((key.name, True))
            else:
                return None
        else:
            return None
    return (layers, fields) if len(factors) - len(fields) == 1 else None


def _walk(expression: Expr) -> Iterator[Expr]:
    yield expression
    for child in expression.children():
        yield from _walk(child)


def lower_to_batch(program: Expr, database: Database, query: ConjunctiveQuery) -> Expr:
    """Evaluate the program's sum-product bindings over the join as one engine batch.

    Every ``Let`` whose bound is a nest of ``DictOver`` over constant domains
    around ``Σ_{x∈Q} Q(x) · Π x(field)`` (the covariance dictionary M and the
    correlation vector C of Section 5.3) contributes one
    ``Aggregate(product=fields)`` per entry of the nest.  All entries of all
    such bindings run as a single :class:`AggregateBatch` on
    ``LMFAOEngine(database, query)`` — over the base relations, without the
    join — and each bound becomes a ``Const`` of its results.  Such a bound
    reads nothing but ``Q``, so it is loop-invariant wherever it sits.  The
    rest of the program (the convergence loop) is left to the interpreter.
    """
    nests = {}
    for node in _walk(program):
        if isinstance(node, Let):
            nest = _sum_product_nest(node.bound)
            if nest is not None:
                nests[repr(node.bound)] = nest
    if not nests:
        return program

    entries: Dict[Tuple[str, Tuple[Any, ...]], Aggregate] = {}
    for key, (layers, fields) in nests.items():
        names = [name for name, _domain in layers]
        for assignment in product(*(domain for _name, domain in layers)):
            values = dict(zip(names, assignment))
            entries[key, assignment] = Aggregate(
                product=tuple(values[name] if is_layer else name for name, is_layer in fields),
                name=f"entry{len(entries)}",
            )
    results = LMFAOEngine(database, query).evaluate(
        AggregateBatch("lowered", list(entries.values()))
    )
    constants: Dict[str, Dict[Any, Any]] = {}
    for (key, assignment), aggregate in entries.items():
        table = constants.setdefault(key, {})
        for layer_key in assignment[:-1]:
            table = table.setdefault(layer_key, {})
        table[assignment[-1]] = results.scalar(aggregate.name)

    def rule(node: Expr) -> Expr:
        if isinstance(node, Let) and repr(node.bound) in constants:
            return Let(node.name, Const(constants[repr(node.bound)]), node.body)
        return node

    return _transform_bottom_up(program, rule)
