"""A keyed (group-by) semiring.

Elements are finite maps from group-by keys — partial assignments of
categorical attributes — to values in an underlying (semi)ring.  Adding two
maps merges them, adding values of equal keys; multiplying them combines every
pair of keys (assignments of disjoint attribute sets merge) and multiplies the
values.  Evaluating a factorised join in this semiring computes a group-by
aggregate in one pass, which is exactly the paper's sparse-tensor encoding of
one-hot categorical interactions (Section 2.1): only the key combinations that
exist in the data are ever represented.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Mapping, Optional, Tuple

from repro.rings.base import Ring, Semiring
from repro.rings.numeric import RealRing

GroupKey = FrozenSet[Tuple[str, object]]


class GroupByRing(Ring):
    """Maps from group-by keys to values of an inner (semi)ring."""

    def __init__(self, inner: Optional[Semiring] = None) -> None:
        self.inner = inner if inner is not None else RealRing()

    # -- identities -----------------------------------------------------------------------

    def zero(self) -> Dict[GroupKey, Any]:
        return {}

    def one(self) -> Dict[GroupKey, Any]:
        return {frozenset(): self.inner.one()}

    # -- operations ------------------------------------------------------------------------

    def add(self, left: Mapping[GroupKey, Any], right: Mapping[GroupKey, Any]) -> Dict[GroupKey, Any]:
        result: Dict[GroupKey, Any] = dict(left)
        for key, value in right.items():
            if key in result:
                result[key] = self.inner.add(result[key], value)
            else:
                result[key] = value
        return result

    def multiply(self, left: Mapping[GroupKey, Any], right: Mapping[GroupKey, Any]) -> Dict[GroupKey, Any]:
        result: Dict[GroupKey, Any] = {}
        for left_key, left_value in left.items():
            for right_key, right_value in right.items():
                merged_key = left_key | right_key
                product = self.inner.multiply(left_value, right_value)
                if merged_key in result:
                    result[merged_key] = self.inner.add(result[merged_key], product)
                else:
                    result[merged_key] = product
        return result

    def negate(self, element: Mapping[GroupKey, Any]) -> Dict[GroupKey, Any]:
        if not isinstance(self.inner, Ring):
            raise TypeError("inner semiring has no additive inverse")
        return {key: self.inner.negate(value) for key, value in element.items()}

    def equal(self, left: Mapping[GroupKey, Any], right: Mapping[GroupKey, Any]) -> bool:
        # A missing key denotes the inner zero: comparing the union of keys
        # against that default (instead of first *dropping* near-zero entries
        # and matching key sets) keeps values right at the zero tolerance from
        # flipping the comparison when only one side rounds across it.
        zero = self.inner.zero()
        return all(
            self.inner.equal(left.get(key, zero), right.get(key, zero))
            for key in set(left) | set(right)
        )

    # -- lifting ----------------------------------------------------------------------------

    def lift_group(self, attribute: str, value: object) -> Dict[GroupKey, Any]:
        """Lift a categorical value: the singleton map {attribute=value -> 1}."""
        return {frozenset({(attribute, value)}): self.inner.one()}

    def lift_value(self, value: Any) -> Dict[GroupKey, Any]:
        """Lift a numeric contribution with an empty group key."""
        return {frozenset(): value}
