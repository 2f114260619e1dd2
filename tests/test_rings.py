"""Tests and property-based checks for the (semi)ring toolbox."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rings import (
    CountingSemiring,
    CovariancePayload,
    CovarianceRing,
    GroupByRing,
    IntegerRing,
    MaxPlusSemiring,
    RealRing,
    check_ring_axioms,
    check_semiring_axioms,
)

small_ints = st.integers(min_value=-20, max_value=20)
small_floats = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)


# -- numeric rings -------------------------------------------------------------------------------


@given(st.lists(small_ints, min_size=3, max_size=3))
def test_integer_ring_axioms(elements):
    assert check_ring_axioms(IntegerRing(), elements) == []


@given(st.lists(st.integers(min_value=0, max_value=20), min_size=3, max_size=3))
def test_counting_semiring_axioms(elements):
    assert check_semiring_axioms(CountingSemiring(), elements) == []


@given(st.lists(small_floats, min_size=3, max_size=3))
def test_max_plus_semiring_axioms(elements):
    assert check_semiring_axioms(MaxPlusSemiring(), elements) == []


def test_real_ring_subtract_and_scale():
    ring = RealRing()
    assert ring.subtract(5.0, 3.0) == 2.0
    assert ring.scale(2.5, 3) == 7.5
    assert ring.scale(2.5, -2) == -5.0


def test_semiring_sum_and_product_helpers():
    ring = IntegerRing()
    assert ring.sum([1, 2, 3]) == 6
    assert ring.product([2, 3, 4]) == 24
    assert ring.sum([]) == 0
    assert ring.product([]) == 1


# -- covariance ring -------------------------------------------------------------------------------


def _payload_strategy(dimension=2):
    return st.builds(
        lambda count, sums, moments: CovariancePayload(
            float(count),
            np.array(sums, dtype=float),
            np.array(moments, dtype=float).reshape(dimension, dimension),
        ),
        small_ints,
        st.lists(small_floats, min_size=dimension, max_size=dimension),
        st.lists(small_floats, min_size=dimension * dimension, max_size=dimension * dimension),
    )


@settings(max_examples=25, deadline=None)
@given(st.lists(_payload_strategy(), min_size=3, max_size=3))
def test_covariance_ring_axioms(elements):
    ring = CovarianceRing(2)
    assert check_ring_axioms(ring, elements) == []


def test_covariance_ring_lift_and_product_is_one_tuple():
    ring = CovarianceRing(2)
    combined = ring.multiply(ring.lift(0, 3.0), ring.lift(1, 4.0))
    assert combined.count == 1
    assert np.allclose(combined.sums, [3.0, 4.0])
    assert np.allclose(combined.moments, [[9.0, 12.0], [12.0, 16.0]])


def test_covariance_ring_lift_bounds():
    ring = CovarianceRing(2)
    with pytest.raises(IndexError):
        ring.lift(2, 1.0)
    with pytest.raises(ValueError):
        CovarianceRing(-1)


# -- group-by ring -----------------------------------------------------------------------------------


def _grouped_strategy():
    key = st.sampled_from(["a", "b", "c"])
    value = st.sampled_from(["x", "y"])
    entry = st.tuples(key, value)
    return st.dictionaries(
        st.builds(lambda pair: frozenset({pair}), entry), small_floats, max_size=3
    )


@settings(max_examples=25, deadline=None)
@given(st.lists(_grouped_strategy(), min_size=3, max_size=3))
def test_groupby_ring_axioms(elements):
    ring = GroupByRing(RealRing())
    assert check_ring_axioms(ring, elements) == []


def test_groupby_ring_models_group_by_sum():
    ring = GroupByRing(RealRing())
    # Two tuples of group 'a' with values 2 and 3, one tuple of group 'b' with value 5.
    tuples = [
        ring.multiply(ring.lift_group("g", "a"), ring.lift_value(2.0)),
        ring.multiply(ring.lift_group("g", "a"), ring.lift_value(3.0)),
        ring.multiply(ring.lift_group("g", "b"), ring.lift_value(5.0)),
    ]
    total = ring.sum(tuples)
    assert total[frozenset({("g", "a")})] == 5.0
    assert total[frozenset({("g", "b")})] == 5.0


def test_groupby_ring_product_combines_disjoint_attributes():
    ring = GroupByRing(RealRing())
    left = ring.lift_group("g", "a")
    right = ring.lift_group("h", "x")
    product = ring.multiply(left, right)
    assert product == {frozenset({("g", "a"), ("h", "x")}): 1.0}
