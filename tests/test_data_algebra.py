"""Tests for the multiset relational-algebra operators."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import Relation, Schema, algebra
from repro.data.attribute import SchemaError
from repro.data.relation import relation_from_rows


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


def test_project_accumulates_multiplicities(orders):
    projected = algebra.project(orders, ["dish"])
    assert projected.multiplicity(("hotdog",)) == 2
    assert projected.schema.names == ("dish",)


def test_cartesian_product_multiplies(orders):
    tags = relation_from_rows("Tags", ["tag"], [("a",), ("b",)], categorical=["tag"])
    product = algebra.cartesian_product(orders, tags)
    assert len(product) == len(orders) * 2
    assert product.schema.names == ("customer", "dish", "tag")


def test_cartesian_product_rejects_shared_attributes(orders):
    with pytest.raises(SchemaError):
        algebra.cartesian_product(orders, orders)


def test_natural_join_on_shared_attribute(orders, dishes):
    joined = algebra.natural_join(orders, dishes)
    assert len(joined) == 3
    assert joined.schema.names == ("customer", "dish", "price")
    assert joined.multiplicity(("steve", "hotdog", 5)) == 1


def test_natural_join_multiplies_multiplicities(orders, dishes):
    orders.add(("joe", "hotdog"), 2)          # multiplicity 3 now
    joined = algebra.natural_join(orders, dishes)
    assert joined.multiplicity(("joe", "hotdog", 5)) == 3


def test_natural_join_without_shared_attributes_is_product(orders):
    tags = relation_from_rows("Tags", ["tag"], [("a",)], categorical=["tag"])
    joined = algebra.natural_join(orders, tags)
    assert len(joined) == len(orders)


def test_natural_join_all_left_deep(orders, dishes):
    extras = relation_from_rows("Extras", ["dish", "calories"], [("burger", 700), ("hotdog", 400)],
                                categorical=["dish"])
    joined = algebra.natural_join_all([orders, dishes, extras])
    assert len(joined) == 3
    assert set(joined.schema.names) == {"customer", "dish", "price", "calories"}


def test_join_is_commutative_on_content(orders, dishes):
    left = algebra.natural_join(orders, dishes)
    right = algebra.natural_join(dishes, orders)
    left_set = {tuple(sorted(zip(left.schema.names, row))) for row in left}
    right_set = {tuple(sorted(zip(right.schema.names, row))) for row in right}
    assert left_set == right_set


def test_every_result_is_one_batch(orders, dishes):
    """Each operator lands its whole result with one ``add_batch``."""
    tags = relation_from_rows("Tags", ["tag"], [("a",), ("b",)], categorical=["tag"])
    joined = algebra.natural_join(orders, dishes)
    results = {
        "project": algebra.project(orders, ["dish"]),
        "cartesian_product": algebra.cartesian_product(orders, tags),
        "natural_join": joined,
        "natural_join_all": algebra.natural_join_all([orders, dishes, tags]),
    }
    assert {name: result.version for name, result in results.items()} == dict.fromkeys(
        results, 1
    )


@settings(max_examples=80, deadline=None)
@given(
    deltas=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=-3, max_value=3).filter(bool),
        ),
        max_size=40,
    )
)
def test_project_over_signed_multiplicities_equals_a_dict_model(deltas):
    """Rows that project alike net: a key may cancel to zero and come back,
    and it lands once, at its first occurrence, with its net multiplicity."""
    schema = Schema.from_names(["k", "v"])
    source: dict = {}
    for key, value, multiplicity in deltas:
        source[(key, value)] = source.get((key, value), 0) + multiplicity
    relation = Relation("R", schema, multiplicities=source)
    model: dict = {}
    for (key, _value), multiplicity in relation.items():
        model[(key,)] = model.get((key,), 0) + multiplicity
    projected = algebra.project(relation, ["k"])
    assert list(projected.items()) == [(row, m) for row, m in model.items() if m]
    assert projected.version == 1
