"""Tests for the LMFAO-style engine: planning, sharing, correctness vs baseline."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregates import (
    Aggregate,
    AggregateBatch,
    Filter,
    FilterOp,
    InequalityCondition,
    covariance_batch,
)
from repro.data import Database, Relation, Schema
from repro.engine import LMFAOEngine, MaterializedJoinEngine, plan_batch
from repro.engine.plan import designate_attributes
from repro.query import ConjunctiveQuery, build_join_tree


def _values_close(left, right, tolerance=1e-6):
    if isinstance(left, dict) or isinstance(right, dict):
        left = left if isinstance(left, dict) else {}
        right = right if isinstance(right, dict) else {}
        keys = set(left) | set(right)
        return all(
            math.isclose(left.get(key, 0.0), right.get(key, 0.0), rel_tol=1e-9, abs_tol=tolerance)
            for key in keys
        )
    return math.isclose(left, right, rel_tol=1e-9, abs_tol=tolerance)


def _assert_engines_agree(database, query, batch):
    lmfao = LMFAOEngine(database, query).evaluate(batch)
    naive = MaterializedJoinEngine(database, query).evaluate(batch)
    for name, value in lmfao.values.items():
        assert _values_close(value, naive.values[name]), f"aggregate {name} differs"
    return lmfao, naive


# -- planning -------------------------------------------------------------------------------------------


def test_designation_assigns_each_attribute_once(toy_database, toy_query):
    tree = build_join_tree(toy_query.hypergraph(toy_database), root="Orders")
    designation = designate_attributes(tree)
    assert set(designation) == set(toy_query.variables(toy_database))
    assert all(owner in toy_query.relation_names for owner in designation.values())


def test_plan_shares_views_across_aggregates(small_retailer, small_retailer_query):
    batch = covariance_batch(["inventoryunits", "prize", "maxtemp"], ["category"])
    tree = build_join_tree(
        small_retailer_query.hypergraph(small_retailer), root="Inventory"
    )
    shared = plan_batch(batch, tree)
    # Without sharing every aggregate would be planned on its own.
    one_at_a_time = sum(
        plan_batch(AggregateBatch(aggregate.name, [aggregate]), tree).total_views
        for aggregate in batch
    )
    assert shared.total_views < one_at_a_time == shared.total_views_without_sharing
    assert shared.sharing_factor() > 1.0
    assert shared.summary()["aggregates"] == len(batch)


def test_plan_memo_returns_the_plan_of_one_aggregate_at_a_time(
    small_retailer, small_retailer_query
):
    """Sharing the restrictions across a batch changes no signature.

    A CART node batch repeats three products over a hundred filter sets; the
    planner restricts each distinct part once per node.  The result must be
    what decomposing every aggregate on its own gives, in the same order.
    """
    from repro.aggregates import decision_tree_node_batch
    from repro.engine.plan import decompose_aggregate

    node_filters = (Filter("prize", FilterOp.GE, 100.0), Filter("maxtemp", FilterOp.LT, 20))
    batch = decision_tree_node_batch(
        "inventoryunits",
        ["prize", "maxtemp", "population"],
        ["category"],
        thresholds={"prize": [50.0, 100.0, 100], "maxtemp": [20.0, 5.0]},
        categories={"category": small_retailer["Items"].active_domain("category")},
        node_filters=node_filters,
    )
    batch.add(Aggregate.sum_of(["prize", "prize"], group_by=["zip", "category"], name="grouped"))
    tree = build_join_tree(small_retailer_query.hypergraph(small_retailer), root="Stores")
    plan = plan_batch(batch, tree)
    designation = designate_attributes(tree)
    assert plan.designation == designation
    seen = {name: [] for name in plan.views_per_node}
    for aggregate, decomposition in zip(batch, plan.decompositions):
        alone = decompose_aggregate(aggregate, tree, designation)
        assert decomposition.aggregate is aggregate
        assert decomposition.signatures == alone.signatures
        assert list(decomposition.signatures) == list(alone.signatures)
        assert decomposition.root_signature == alone.root_signature
        for name, signature in alone.signatures.items():
            if signature not in seen[name]:
                seen[name].append(signature)
    assert plan.views_per_node == seen


def test_plan_rejects_unknown_attributes(toy_database, toy_query):
    tree = build_join_tree(toy_query.hypergraph(toy_database), root="Orders")
    batch = AggregateBatch("bad", [Aggregate.sum_of(["nonexistent"])])
    with pytest.raises(ValueError):
        plan_batch(batch, tree)


def test_plan_marks_inequality_aggregates_unsupported(toy_database, toy_query):
    tree = build_join_tree(toy_query.hypergraph(toy_database), root="Orders")
    aggregate = Aggregate(
        product=(), group_by=(), filters=(),
        inequality=InequalityCondition.of({"price": 1.0}, 3.0), name="violators",
    )
    plan = plan_batch(AggregateBatch("ineq", [aggregate]), tree)
    assert plan.unsupported == [aggregate]


# -- correctness against the materialised baseline ------------------------------------------------------------


def test_count_and_sums_match_naive(toy_database, toy_query):
    batch = AggregateBatch(
        "basic",
        [
            Aggregate.count(name="count"),
            Aggregate.sum_of(["price"], name="sum_price"),
            Aggregate.sum_of(["price", "price"], name="sum_price_sq"),
            Aggregate.count(group_by=["dish"], name="count_by_dish"),
            Aggregate.sum_of(["price"], group_by=["customer", "dish"], name="price_by_cust_dish"),
        ],
    )
    lmfao, _naive = _assert_engines_agree(toy_database, toy_query, batch)
    assert lmfao.scalar("count") == pytest.approx(12.0)
    assert lmfao.grouped("count_by_dish")[("burger",)] == pytest.approx(6.0)


def test_filters_match_naive(toy_database, toy_query):
    batch = AggregateBatch(
        "filtered",
        [
            Aggregate.sum_of(["price"], filters=[Filter("price", FilterOp.GE, 3)], name="expensive"),
            Aggregate.count(filters=[Filter("dish", FilterOp.EQ, "burger")], name="burgers"),
            Aggregate.count(
                filters=[Filter("day", FilterOp.NE, "Friday"), Filter("price", FilterOp.LT, 5)],
                name="cheap_not_friday",
            ),
        ],
    )
    _assert_engines_agree(toy_database, toy_query, batch)


def test_covariance_batch_matches_naive_on_retailer(small_retailer, small_retailer_query):
    batch = covariance_batch(
        ["inventoryunits", "prize", "maxtemp", "rain", "population"], ["category", "snow"]
    )
    lmfao, naive = _assert_engines_agree(small_retailer, small_retailer_query, batch)
    assert lmfao.views_computed > 0
    assert lmfao.plan_summary["sharing_factor"] > 1.0


def test_inequality_fallback_matches_naive(toy_database, toy_query):
    aggregate = Aggregate(
        product=("price",),
        group_by=("dish",),
        filters=(),
        inequality=InequalityCondition.of({"price": 1.0}, 2.0),
        name="pricey_by_dish",
    )
    batch = AggregateBatch("ineq", [aggregate])
    _assert_engines_agree(toy_database, toy_query, batch)


def test_engine_root_selection_defaults_to_the_cost_based_pick(
    small_retailer, small_retailer_query
):
    engine = LMFAOEngine(small_retailer, small_retailer_query)
    assert engine.root_choice is not None and engine.root_choice.strategy == "cost"
    assert engine.join_tree.root.relation_name == engine.root_choice.ranked()[0][0]
    # Forcing the fact table as root must give the same results.
    forced = LMFAOEngine(small_retailer, small_retailer_query, root_relation="Inventory")
    batch = covariance_batch(["inventoryunits", "prize"], [])
    default_result = engine.evaluate(batch)
    forced_result = forced.evaluate(batch)
    for name in default_result.values:
        assert _values_close(default_result.values[name], forced_result.values[name])


def test_duplicate_aggregate_names_are_disambiguated(toy_database, toy_query):
    batch = AggregateBatch(
        "dups", [Aggregate.count(name="agg"), Aggregate.sum_of(["price"], name="agg")]
    )
    result = LMFAOEngine(toy_database, toy_query).evaluate(batch)
    assert "agg" in result.values and "agg#2" in result.values


def test_batch_result_accessors(toy_database, toy_query):
    batch = AggregateBatch(
        "accessors", [Aggregate.count(name="count"), Aggregate.count(group_by=["dish"], name="by_dish")]
    )
    result = LMFAOEngine(toy_database, toy_query).evaluate(batch)
    assert "count" in result
    with pytest.raises(TypeError):
        result.grouped("count")
    with pytest.raises(TypeError):
        result.scalar("by_dish")
    assert result.value_of(batch[0]) == result["count"]


def test_empty_relation_gives_zero_aggregates(toy_database, toy_query):
    empty = toy_database.copy()
    empty["Orders"].clear()
    batch = AggregateBatch(
        "empty", [Aggregate.count(name="count"), Aggregate.count(group_by=["dish"], name="by_dish")]
    )
    result = LMFAOEngine(empty, toy_query).evaluate(batch)
    assert result.scalar("count") == 0.0
    assert result.grouped("by_dish") == {}


def test_naive_engine_reports_join_statistics(toy_database, toy_query):
    engine = MaterializedJoinEngine(toy_database, toy_query)
    result = engine.evaluate(AggregateBatch("count", [Aggregate.count(name="count")]))
    assert result.join_rows == 12
    assert result.elapsed_seconds >= 0
    engine.invalidate()
    assert engine.materialize() is not None


# -- property-based: random batches over random data -----------------------------------------------------------


@st.composite
def random_star_database(draw):
    domain = st.integers(min_value=0, max_value=3)
    value = st.integers(min_value=-5, max_value=5)
    fact_rows = draw(
        st.lists(st.tuples(domain, domain, value), min_size=0, max_size=12)
    )
    dim1_rows = draw(st.lists(st.tuples(domain, value), min_size=0, max_size=5))
    dim2_rows = draw(st.lists(st.tuples(domain, value), min_size=0, max_size=5))
    database = Database(
        [
            Relation(
                "F",
                Schema.from_names(["k1", "k2", "m"], categorical_names=["k1", "k2"]),
                rows=fact_rows,
            ),
            Relation("D1", Schema.from_names(["k1", "x"], categorical_names=["k1"]), rows=dim1_rows),
            Relation("D2", Schema.from_names(["k2", "y"], categorical_names=["k2"]), rows=dim2_rows),
        ]
    )
    return database


@settings(max_examples=30, deadline=None)
@given(random_star_database())
def test_engine_matches_naive_on_random_star_queries(database):
    query = ConjunctiveQuery(["F", "D1", "D2"])
    batch = AggregateBatch(
        "random",
        [
            Aggregate.count(name="count"),
            Aggregate.sum_of(["m"], name="sum_m"),
            Aggregate.sum_of(["m", "x"], name="sum_mx"),
            Aggregate.sum_of(["x", "y"], name="sum_xy"),
            Aggregate.count(group_by=["k1"], name="count_k1"),
            Aggregate.sum_of(["y"], group_by=["k1", "k2"], name="sum_y_by_keys"),
            Aggregate.sum_of(["m"], filters=[Filter("x", FilterOp.GE, 0)], name="sum_m_xpos"),
        ],
    )
    lmfao = LMFAOEngine(database, query).evaluate(batch)
    naive = MaterializedJoinEngine(database, query).evaluate(batch)
    for name, value in lmfao.values.items():
        assert _values_close(value, naive.values[name]), name


# -- property-based: a result minus the result under one more filter ----------------------------------------


_COMPLEMENT = {FilterOp.GE: FilterOp.LT, FilterOp.EQ: FilterOp.NE}
_TOY_CONDITIONS = st.one_of(
    st.builds(lambda value: Filter("price", FilterOp.GE, value), st.sampled_from([2, 3, 4, 6, 7])),
    st.builds(lambda value: Filter("dish", FilterOp.EQ, value), st.sampled_from(["burger", "hotdog"])),
    st.builds(lambda value: Filter("day", FilterOp.EQ, value), st.sampled_from(["Monday", "Friday"])),
    st.builds(
        lambda value: Filter("customer", FilterOp.EQ, value),
        st.sampled_from(["Elise", "Steve", "Joe", "nobody"]),
    ),
    st.builds(
        lambda value: Filter("item", FilterOp.EQ, value),
        st.sampled_from(["patty", "onion", "bun", "sausage"]),
    ),
)


def _filtered_toy_batch(filters):
    return AggregateBatch(
        "node",
        [
            Aggregate.count(filters=filters, name="count"),
            Aggregate.sum_of(["price"], filters=filters, name="sum"),
            Aggregate.sum_of(["price", "price"], filters=filters, name="sum_squares"),
            Aggregate.count(group_by=["dish"], filters=filters, name="count@dish"),
            Aggregate.count(group_by=["customer", "item"], filters=filters, name="count@customer,item"),
            Aggregate.sum_of(["price"], group_by=["item"], filters=filters, name="sum@item"),
        ],
    )


@settings(max_examples=60, deadline=None)
@given(st.lists(_TOY_CONDITIONS, max_size=2), _TOY_CONDITIONS, st.booleans())
def test_result_minus_the_true_branch_is_the_false_branch(node_filters, condition, negate):
    """``evaluate(P) - evaluate(P and c) == evaluate(P and not c)``, key sets included."""
    from repro.datasets import orders_database, orders_query

    if negate:   # the node's own path may hold complements too
        node_filters = [
            Filter(f.attribute, _COMPLEMENT[f.op], f.value) for f in node_filters
        ]
    node_filters = tuple(node_filters)
    complement = Filter(condition.attribute, _COMPLEMENT[condition.op], condition.value)
    engine = LMFAOEngine(orders_database(), orders_query())
    node = engine.evaluate(_filtered_toy_batch(node_filters))
    true_branch = engine.evaluate(_filtered_toy_batch(node_filters + (condition,)))
    false_branch = engine.evaluate(_filtered_toy_batch(node_filters + (complement,)))

    derived = node.minus(true_branch)
    assert derived.views_computed == 0 and derived.executor_stats == {}
    assert derived.is_finite()
    assert derived.values.keys() == false_branch.values.keys()
    for name in ("count", "count@dish", "count@customer,item"):
        assert derived.values[name] == false_branch.values[name]    # exact, empty groups dropped
    for name in ("sum", "sum_squares", "sum@item"):
        assert _values_close(derived.values[name], false_branch.values[name], tolerance=1e-9)


def test_minus_drops_the_empty_groups_of_a_repeated_count_name():
    """A count named like another one (``n#2`` in the values) is a count too."""
    database = Database(
        [
            Relation("F", Schema.from_names(["k", "m"], ["k"]),
                     rows=[(1, 2.0), (1, 3.0), (2, 5.0)]),
            Relation("D", Schema.from_names(["k", "x"], ["k"]), rows=[(1, 7), (2, 9)]),
        ]
    )
    engine = LMFAOEngine(database, ConjunctiveQuery(["F", "D"]))

    def twice(*filters):
        return AggregateBatch(
            "twice", [Aggregate.count(group_by=["k"], filters=filters, name="n") for _ in range(2)]
        )

    derived = engine.evaluate(twice()).minus(engine.evaluate(twice(Filter("x", FilterOp.LE, 8))))
    direct = engine.evaluate(twice(Filter("x", FilterOp.GT, 8)))
    assert direct.values == {"n": {(2,): 1.0}, "n#2": {(2,): 1.0}}
    assert derived.values == direct.values


def test_minus_needs_the_same_aggregate_names_and_reports_non_finite_values(toy_database, toy_query):
    engine = LMFAOEngine(toy_database, toy_query)
    node = engine.evaluate(_filtered_toy_batch(()))
    other = engine.evaluate(AggregateBatch("other", [Aggregate.count(name="count")]))
    with pytest.raises(ValueError):
        node.minus(other)
    assert node.is_finite()
    node.values["sum"] = float("inf")
    assert not node.is_finite()
    assert not node.minus(node).is_finite()         # inf - inf
    node.values["sum"] = 0.0
    node.values["sum@item"][("bun",)] = float("nan")
    assert not node.is_finite()
