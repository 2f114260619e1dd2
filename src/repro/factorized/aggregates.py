"""Aggregate evaluation over factorised joins (Figures 9 and 10).

Aggregates are computed in one bottom-up pass: each data value is lifted into
a (semi)ring element, unions map to ring addition and products to ring
multiplication.  Shared sub-DAGs of the factorisation are evaluated once.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Mapping, Optional, Sequence, Tuple

from repro.rings.base import Semiring
from repro.rings.covariance import CovariancePayload, CovarianceRing
from repro.rings.groupby import GroupByRing
from repro.rings.numeric import CountingSemiring, RealRing
from repro.factorized.frepr import (
    FactorizedNode,
    FactorizedRelation,
    ProductNode,
    UnionNode,
    ValueLeaf,
)

LiftFunction = Callable[[str, object], Any]


def aggregate_over_factorization(
    factorization: FactorizedRelation,
    ring: Semiring,
    lift: LiftFunction,
) -> Any:
    """Evaluate an aggregate over a factorised join in one pass.

    ``lift(variable, value)`` maps each data value into the ring; unions add,
    products multiply.  Shared nodes (the cached fragments of the DAG) are
    evaluated once thanks to memoisation on node identity.
    """
    memo: Dict[int, Any] = {}

    def evaluate(node: FactorizedNode) -> Any:
        node_id = id(node)
        if node_id in memo:
            return memo[node_id]
        if isinstance(node, ValueLeaf):
            result = lift(node.variable, node.value)
        elif isinstance(node, UnionNode):
            result = ring.zero()
            for value, child in node.children.items():
                contribution = ring.multiply(lift(node.variable, value), evaluate(child))
                result = ring.add(result, contribution)
        elif isinstance(node, ProductNode):
            result = ring.one()
            for factor in node.factors:
                result = ring.multiply(result, evaluate(factor))
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown factorisation node {type(node)!r}")
        memo[node_id] = result
        return result

    return evaluate(factorization.root)


def count_over_factorization(factorization: FactorizedRelation) -> int:
    """SUM(1) (Figure 9, left): every value lifts to 1 in the counting semiring."""
    semiring = CountingSemiring()
    return aggregate_over_factorization(factorization, semiring, lambda _variable, _value: 1)


def sum_product_over_factorization(
    factorization: FactorizedRelation, variables: Sequence[str]
) -> float:
    """SUM of the product of the given continuous variables over all tuples.

    ``variables=[]`` degenerates to COUNT, ``variables=['price']`` computes
    SUM(price), ``variables=['price', 'price']`` is not supported (a square
    needs its own lift).
    """
    wanted = set(variables)
    ring = RealRing()

    def lift(variable: str, value: object) -> float:
        return float(value) if variable in wanted else 1.0

    return aggregate_over_factorization(factorization, ring, lift)


def group_by_sum_over_factorization(
    factorization: FactorizedRelation,
    group_by: Sequence[str],
    sum_variables: Sequence[str] = (),
) -> Dict[Tuple, float]:
    """``SUM(prod(sum_variables)) GROUP BY group_by`` in one pass.

    Returns a map from group-by value tuples (aligned with ``group_by``) to the
    aggregate value.  This is the sparse-tensor encoding of categorical
    interactions: only co-occurring categories appear as keys.
    """
    group_set = set(group_by)
    sum_set = set(sum_variables)
    ring = GroupByRing(RealRing())

    def lift(variable: str, value: object):
        if variable in group_set:
            return ring.lift_group(variable, value)
        if variable in sum_set:
            return ring.lift_value(float(value))
        return ring.one()

    keyed = aggregate_over_factorization(factorization, ring, lift)
    result: Dict[Tuple, float] = {}
    for key, value in keyed.items():
        assignment = dict(key)
        result[tuple(assignment[attribute] for attribute in group_by)] = value
    return result


def covariance_over_factorization(
    factorization: FactorizedRelation, features: Sequence[str]
) -> CovariancePayload:
    """SUM(1), SUM(x_i) and SUM(x_i*x_j) for all feature pairs in one pass.

    Evaluates the factorisation in the covariance ring (Section 5.2); the
    result's ``sums``/``moments`` are indexed by the position of each feature
    in ``features``.
    """
    ring = CovarianceRing(len(features))
    index_of = {feature: position for position, feature in enumerate(features)}

    def lift(variable: str, value: object) -> CovariancePayload:
        position = index_of.get(variable)
        if position is None:
            return ring.one()
        return ring.lift(position, float(value))

    return aggregate_over_factorization(factorization, ring, lift)
