"""Equivalence-preserving IFAQ transformations.

Two of the rewrites from Figure 11 are implemented generically over the IR:

* :func:`hoist_invariant_lets` — loop-invariant code motion: a ``Let`` at the
  top of a loop body whose bound expression does not depend on the loop state
  is moved out of the loop;
* :func:`specialize_field_access` — schema specialisation: dynamic record
  lookups with statically known keys become static field accesses with
  resolved positions.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.ifaq.expr import (
    Const,
    DictOver,
    Expr,
    FieldOf,
    IterateLoop,
    Let,
    Lookup,
    Var,
)


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
