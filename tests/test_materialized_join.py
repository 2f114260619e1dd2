"""Tests for the reference evaluator's tuple join, ``MaterializedJoinEngine.materialize``."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import Database, Relation, Schema
from repro.data.attribute import SchemaError
from repro.data.relation import relation_from_rows
from repro.engine import MaterializedJoinEngine
from repro.query import ConjunctiveQuery


def _join(*relations):
    database = Database(relations)
    query = ConjunctiveQuery([relation.name for relation in relations])
    return MaterializedJoinEngine(database, query).materialize()


@pytest.fixture()
def orders():
    return relation_from_rows(
        "Orders", ["customer", "dish"],
        [("elise", "burger"), ("steve", "hotdog"), ("joe", "hotdog")],
        categorical=["customer", "dish"],
    )


@pytest.fixture()
def dishes():
    return relation_from_rows(
        "Dishes", ["dish", "price"],
        [("burger", 8), ("hotdog", 5), ("salad", 6)],
        categorical=["dish"],
    )


def test_natural_join_on_shared_attribute(orders, dishes):
    joined = _join(orders, dishes)
    assert len(joined) == 3
    assert joined.schema.names == ("customer", "dish", "price")
    assert joined.multiplicity(("steve", "hotdog", 5)) == 1


def test_natural_join_multiplies_multiplicities(orders, dishes):
    orders.add(("joe", "hotdog"), 2)          # multiplicity 3 now
    dishes.add(("hotdog", 5), 1)              # multiplicity 2 now
    joined = _join(orders, dishes)
    assert joined.multiplicity(("joe", "hotdog", 5)) == 6


def test_natural_join_without_shared_attributes_is_product(orders):
    tags = relation_from_rows("Tags", ["tag"], [("a",), ("b",)], categorical=["tag"])
    tags.add(("b",), 2)                       # multiplicity 3 now
    joined = _join(orders, tags)
    assert len(joined) == len(orders) * 2
    assert joined.schema.names == ("customer", "dish", "tag")
    assert joined.multiplicity(("joe", "hotdog", "b")) == 3


def test_natural_join_all_left_deep(orders, dishes):
    extras = relation_from_rows("Extras", ["dish", "calories"], [("burger", 700), ("hotdog", 400)],
                                categorical=["dish"])
    joined = _join(orders, dishes, extras)
    assert len(joined) == 3
    assert joined.schema.names == ("customer", "dish", "price", "calories")


def test_join_is_commutative_on_content(orders, dishes):
    left = _join(orders, dishes)
    right = _join(dishes, orders)
    left_set = {tuple(sorted(zip(left.schema.names, row))) for row in left}
    right_set = {tuple(sorted(zip(right.schema.names, row))) for row in right}
    assert left_set == right_set


def test_every_result_is_one_batch(orders, dishes):
    """The join lands its whole result with one ``add_batch``, whatever the
    number of relations or whether a step is a product."""
    tags = relation_from_rows("Tags", ["tag"], [("a",), ("b",)], categorical=["tag"])
    results = {
        "single": _join(orders),
        "product": _join(orders, tags),
        "join": _join(orders, dishes),
        "three": _join(orders, dishes, tags),
    }
    assert {name: result.version for name, result in results.items()} == dict.fromkeys(
        results, 1
    )


def test_no_match_is_an_empty_join_over_every_attribute(orders):
    prices = relation_from_rows("Prices", ["dish", "price"], [("salad", 6)], categorical=["dish"])
    joined = _join(orders, prices)
    assert len(joined) == 0
    assert joined.schema.names == ("customer", "dish", "price")


def test_an_attribute_typed_differently_in_two_relations_is_rejected(orders):
    numbered = relation_from_rows("Numbered", ["dish", "price"], [(1, 6)])
    with pytest.raises(SchemaError, match="'dish' has conflicting types"):
        _join(orders, numbered)


def test_materialize_caches_the_join_until_invalidated(orders, dishes):
    database = Database([orders, dishes])
    engine = MaterializedJoinEngine(database, ConjunctiveQuery(["Orders", "Dishes"]))
    joined = engine.materialize()
    assert engine.materialize() is joined
    orders.add(("ada", "salad"))
    assert len(engine.materialize()) == 3
    engine.invalidate()
    assert engine.materialize().multiplicity(("ada", "salad", 6)) == 1


@settings(max_examples=80, deadline=None)
@given(
    left=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=-3, max_value=3).filter(bool),
        ),
        max_size=30,
    ),
    right=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=-3, max_value=3).filter(bool),
        ),
        max_size=30,
    ),
)
def test_join_over_signed_multiplicities_equals_a_nested_loop(left, right):
    """Every pair of live rows agreeing on ``k`` meets once, with the product
    of their signed multiplicities, in left-row-then-right-row order."""
    relations = []
    for name, columns, deltas in (("R", ["k", "v"], left), ("S", ["k", "w"], right)):
        source: dict = {}
        for key, value, multiplicity in deltas:
            source[(key, value)] = source.get((key, value), 0) + multiplicity
        relations.append(Relation(name, Schema.from_names(columns), multiplicities=source))
    joined = _join(*relations)
    expected = [
        ((key, value, other_value), multiplicity * other_multiplicity)
        for (key, value), multiplicity in relations[0].items()
        for (other_key, other_value), other_multiplicity in relations[1].items()
        if key == other_key
    ]
    assert list(joined.items()) == expected
    assert joined.version == 1


_SIGNED_ROWS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=-2, max_value=2).filter(bool),
    ),
    max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(first=_SIGNED_ROWS, second=_SIGNED_ROWS, third=_SIGNED_ROWS)
def test_three_relation_join_is_the_left_deep_nested_loop(first, second, third):
    """``T`` shares ``a`` with ``R`` only, so it joins on a column of the
    result so far: rows come out ``R``-row, then ``S``-row, then ``T``-row,
    each with the product of the three multiplicities."""
    relations = []
    for name, columns, deltas in (
        ("R", ["a", "b"], first), ("S", ["b", "c"], second), ("T", ["a", "d"], third),
    ):
        source: dict = {}
        for left_value, right_value, multiplicity in deltas:
            row = (left_value, right_value)
            source[row] = source.get(row, 0) + multiplicity
        relations.append(Relation(name, Schema.from_names(columns), multiplicities=source))
    joined = _join(*relations)
    expected = [
        ((a, b, c, d), r_multiplicity * s_multiplicity * t_multiplicity)
        for (a, b), r_multiplicity in relations[0].items()
        for (s_b, c), s_multiplicity in relations[1].items()
        if s_b == b
        for (t_a, d), t_multiplicity in relations[2].items()
        if t_a == a
    ]
    assert joined.schema.names == ("a", "b", "c", "d")
    assert list(joined.items()) == expected
    assert joined.version == 1
