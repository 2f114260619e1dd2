"""Tests for factorised joins and ring-based aggregate evaluation.

Includes the property-based invariant at the heart of the approach: the
factorised join represents exactly the same set of tuples as the flat join,
and aggregates evaluated over the factorisation equal aggregates evaluated
over the flat result.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import Database, Relation, Schema, algebra
from repro.datasets import orders_database, orders_query
from repro.datasets.toy import orders_variable_order_spec
from repro.factorized import factorize_join
from repro.factorized.aggregates import (
    count_over_factorization,
    covariance_over_factorization,
    group_by_sum_over_factorization,
    sum_of_squares_over_factorization,
    sum_product_over_factorization,
)
from repro.query import ConjunctiveQuery
from repro.query.variable_order import order_from_nested


def _flat_rows(query, database):
    joined = query.evaluate(database)
    return joined, list(joined.expanded_rows())


# -- toy example (Figures 7-9) ----------------------------------------------------------------------


def test_factorized_join_represents_flat_join(toy_database, toy_query):
    factorization = factorize_join(toy_query, toy_database)
    joined = toy_query.evaluate(toy_database)
    flat = {tuple(sorted(zip(joined.schema.names, row))) for row in joined}
    factored = {
        tuple(sorted(zip(factorization.variables, row))) for row in factorization.tuples()
    }
    assert factored == flat
    assert factorization.flat_size() == 12


def test_paper_variable_order_compression(toy_database, toy_query):
    hypergraph = toy_query.hypergraph(toy_database)
    order = order_from_nested(orders_variable_order_spec(), hypergraph)
    factorization = factorize_join(toy_query, toy_database, order=order)
    # 12 tuples x 5 attributes = 60 values flat; the factorisation is smaller.
    assert factorization.flat_value_count() == 60
    assert factorization.size() < 30
    assert factorization.compression_ratio() > 2.0
    assert factorization.cache_hits > 0


def test_count_matches_figure9(toy_database, toy_query):
    factorization = factorize_join(toy_query, toy_database)
    assert count_over_factorization(factorization) == 12


def test_group_by_sum_matches_figure9(toy_database, toy_query):
    factorization = factorize_join(toy_query, toy_database)
    grouped = group_by_sum_over_factorization(factorization, ["dish"], ["price"])
    assert grouped[("burger",)] == pytest.approx(20.0)
    assert grouped[("hotdog",)] == pytest.approx(16.0)


def test_covariance_ring_matches_figure10(toy_database, toy_query):
    factorization = factorize_join(toy_query, toy_database)
    payload = covariance_over_factorization(factorization, ["price"])
    assert payload.count == pytest.approx(12)
    assert payload.sums[0] == pytest.approx(36.0)
    assert payload.moments[0, 0] == pytest.approx(136.0)


def test_sum_of_squares_and_sum_product(toy_database, toy_query):
    factorization = factorize_join(toy_query, toy_database)
    joined, rows = _flat_rows(toy_query, toy_database)
    price_index = joined.schema.index_of("price")
    expected_square = sum(row[price_index] ** 2 for row in rows)
    assert sum_of_squares_over_factorization(factorization, "price") == pytest.approx(expected_square)
    expected_sum = sum(row[price_index] for row in rows)
    assert sum_product_over_factorization(factorization, ["price"]) == pytest.approx(expected_sum)


def test_empty_join_factorizes_to_empty(toy_database, toy_query):
    empty = toy_database.copy()
    empty["Items"].clear()
    factorization = factorize_join(toy_query, empty)
    assert factorization.flat_size() == 0
    assert count_over_factorization(factorization) == 0


def test_dangling_tuples_are_pruned(toy_database, toy_query):
    # A dish no customer ordered must not appear in the join.
    toy_database["Dish"].add(("pizza", "cheese"))
    toy_database["Items"].add(("cheese", 3))
    factorization = factorize_join(toy_query, toy_database)
    assert all("pizza" not in row for row in factorization.tuples())


def test_factorized_join_ignores_multiplicities_unlike_the_engine(toy_database, toy_query):
    """The marked starting point of ROADMAP item 14: a set, not a bag.

    One Orders row stored a second time doubles its join tuples in the
    engine's count; the factorisation, its ``tuples()`` and the aggregates
    over it still see each distinct tuple once.  Item 14 makes models read
    the join with multiplicities; this test changes with it.
    """
    from repro.aggregates import Aggregate, AggregateBatch
    from repro.engine import LMFAOEngine

    before = factorize_join(toy_query, toy_database)
    orders = toy_database["Orders"]
    row = orders.rows()[0]
    orders.add(row)
    assert orders.multiplicity(row) == 2
    after = factorize_join(toy_query, toy_database)
    assert sorted(after.tuples()) == sorted(before.tuples())
    assert after.flat_size() == count_over_factorization(after) == 12
    count = AggregateBatch("count", [Aggregate.count(name="count")])
    engine_count = LMFAOEngine(toy_database, toy_query).evaluate(count).scalar("count")
    positions = [after.variables.index(name) for name in orders.schema.names]
    joined_by_row = sum(
        1 for tuple_ in after.tuples() if tuple(tuple_[p] for p in positions) == row
    )
    assert engine_count == 12 + joined_by_row > 12


def test_factorization_respects_explicit_root(small_retailer, small_retailer_query):
    fact_rooted = factorize_join(small_retailer_query, small_retailer, root_relation="Inventory")
    joined = small_retailer_query.evaluate(small_retailer)
    assert fact_rooted.flat_size() == len(joined)


# -- property-based invariants -------------------------------------------------------------------------


@st.composite
def random_three_relation_database(draw):
    """A random acyclic three-relation database R(a,b) ⋈ S(b,c) ⋈ T(c,d).

    Rows are unique so every tuple has multiplicity one: factorised
    representations are set-based and do not encode multiplicities.
    """
    domain = st.integers(min_value=0, max_value=3)
    rows_r = draw(st.lists(st.tuples(domain, domain), min_size=0, max_size=8, unique=True))
    rows_s = draw(st.lists(st.tuples(domain, domain), min_size=0, max_size=8, unique=True))
    rows_t = draw(st.lists(st.tuples(domain, domain), min_size=0, max_size=8, unique=True))
    database = Database(
        [
            Relation("R", Schema.from_names(["a", "b"]), rows=rows_r),
            Relation("S", Schema.from_names(["b", "c"]), rows=rows_s),
            Relation("T", Schema.from_names(["c", "d"]), rows=rows_t),
        ]
    )
    return database


@settings(max_examples=40, deadline=None)
@given(random_three_relation_database())
def test_factorized_join_equals_flat_join_property(database):
    query = ConjunctiveQuery(["R", "S", "T"])
    factorization = factorize_join(query, database)
    joined = query.evaluate(database)
    flat = sorted(
        tuple(sorted(zip(joined.schema.names, row))) for row in joined.expanded_rows()
    )
    factored = sorted(
        tuple(sorted(zip(factorization.variables, row))) for row in factorization.tuples()
    )
    assert factored == flat


@settings(max_examples=40, deadline=None)
@given(random_three_relation_database())
def test_aggregates_over_factorization_match_flat_property(database):
    query = ConjunctiveQuery(["R", "S", "T"])
    factorization = factorize_join(query, database)
    joined = query.evaluate(database)
    rows = list(joined.expanded_rows())
    names = joined.schema.names

    assert count_over_factorization(factorization) == len(rows)

    expected_sum_ad = sum(row[names.index("a")] * row[names.index("d")] for row in rows)
    assert sum_product_over_factorization(factorization, ["a", "d"]) == pytest.approx(
        float(expected_sum_ad)
    )

    grouped = group_by_sum_over_factorization(factorization, ["b"], ["d"])
    expected_grouped = {}
    for row in rows:
        key = (row[names.index("b")],)
        expected_grouped[key] = expected_grouped.get(key, 0.0) + float(row[names.index("d")])
    for key in set(grouped) | set(expected_grouped):
        assert grouped.get(key, 0.0) == pytest.approx(expected_grouped.get(key, 0.0))


@settings(max_examples=25, deadline=None)
@given(random_three_relation_database())
def test_covariance_payload_matches_reference_property(database):
    query = ConjunctiveQuery(["R", "S", "T"])
    factorization = factorize_join(query, database)
    joined = query.evaluate(database)
    names = joined.schema.names
    rows = [
        [float(row[names.index(feature)]) for feature in ("a", "d")]
        for row in joined.expanded_rows()
    ]
    payload = covariance_over_factorization(factorization, ["a", "d"])
    assert payload.count == pytest.approx(len(rows))
    if rows:
        matrix = np.array(rows)
        assert np.allclose(payload.sums, matrix.sum(axis=0))
        assert np.allclose(payload.moments, matrix.T @ matrix)
