"""Additive-inequality aggregates (Section 2.3) on the planned engine.

An aggregate with an inequality is planned grouped by the condition's
attributes and read off its root view as a masked sum; these tests hold it
to the materialised join (``MaterializedJoinEngine``) and check that no
production read materialises the join any more.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregates import Aggregate, AggregateBatch, Filter, FilterOp, InequalityCondition
from repro.data import Database, Relation, Schema
from repro.datasets import orders_database, orders_query, retailer_database, retailer_query
from repro.datasets.registry import DATASETS
from repro.engine import LMFAOEngine, MaterializedJoinEngine, naive
from repro.ifaq import compile_and_run
from repro.ivm import FIVM, Update
from repro.ml.statistics import join_columns
from repro.pipelines import StructureAgnosticPipeline
from repro.query import ConjunctiveQuery
from repro.serving import QueryServer
from repro.sharding import ShardedMaintainer

FEATURES = ["inventoryunits", "prize", "maxtemp"]


def _close(left, right):
    if isinstance(left, float) and math.isnan(left):
        return isinstance(right, float) and math.isnan(right)
    return math.isclose(left, right, rel_tol=1e-9, abs_tol=1e-9)


def _assert_matches_the_join(database, query, batch):
    """Every value of ``batch`` on the engine equals the materialised join's;
    grouped values key for key."""
    planned = LMFAOEngine(database, query).evaluate(batch)
    joined = MaterializedJoinEngine(database, query).evaluate(batch)
    assert planned.values.keys() == joined.values.keys()
    for name, expected in joined.values.items():
        value = planned.values[name]
        if isinstance(expected, dict):
            assert value.keys() == expected.keys(), name
            assert all(_close(value[key], expected[key]) for key in expected), name
        else:
            assert _close(value, expected), name
    return planned


# -- named errors --------------------------------------------------------------------------------


def _inequality_batch(weights):
    condition = InequalityCondition.of(weights, 0.0)
    return AggregateBatch("ineq", [Aggregate(inequality=condition, name="x")])


def test_an_inequality_over_an_attribute_the_query_lacks_is_named():
    engine = LMFAOEngine(orders_database(), orders_query())
    with pytest.raises(ValueError, match=r"aggregate 'x' references attributes \['nosuch'\]"):
        engine.evaluate(_inequality_batch({"nosuch": 1.0}))


def test_a_non_numeric_inequality_attribute_is_named():
    engine = LMFAOEngine(orders_database(), orders_query())
    with pytest.raises(ValueError, match="attribute 'day' is not numeric"):
        engine.evaluate(_inequality_batch({"price": 1.0, "day": 1.0}))


# -- against the materialised join -------------------------------------------------------------


def test_named_like_the_join_in_batch_order():
    """Inequality aggregates take their names in batch order, as over the join."""
    condition = InequalityCondition.of({"price": 1.0}, 2.0)
    batch = AggregateBatch(
        "names",
        [
            Aggregate(inequality=condition, name="n"),
            Aggregate.count(name="n"),
            Aggregate(product=("price",), group_by=("price",), inequality=condition, name="n"),
        ],
    )
    result = _assert_matches_the_join(orders_database(), orders_query(), batch)
    assert list(result.values) == ["n", "n#2", "n#3"]
    assert result.values == {"n": 4.0, "n#2": 12.0, "n#3": {(6,): 12.0, (4,): 8.0}}


def _star_database(fact_rows, x_values, y_values):
    """F(k1, k2, m) with D1(k1, x) and D2(k2, y): three relations, a number each."""
    return Database(
        [
            Relation("F", Schema.from_names(["k1", "k2", "m"], ["k1", "k2"]), rows=fact_rows),
            Relation(
                "D1", Schema.from_names(["k1", "x"], ["k1"]), rows=list(enumerate(x_values))
            ),
            Relation(
                "D2", Schema.from_names(["k2", "y"], ["k2"]), rows=list(enumerate(y_values))
            ),
        ]
    )


_THRESHOLDS = [-3.0, -1.0, 0.0, 1.0, 2.0, 3.5, 4.0, 6.0, 8.0]


@st.composite
def _inequality_aggregates(draw, numeric, categorical, filters, thresholds=_THRESHOLDS):
    """1-3 inequality aggregates over one or two of ``numeric``, next to a count.

    A condition is strict or not; a threshold is often a value the weighted
    sum takes, so the boundary is tested.  The group-by may repeat the
    condition's attributes; a filter may join.
    """
    aggregates = [Aggregate.count(name="count")]
    for position in range(draw(st.integers(1, 3))):
        attributes = draw(st.lists(st.sampled_from(numeric), min_size=1, max_size=2, unique=True))
        weights = {a: draw(st.sampled_from([-1.0, 0.5, 1.0, 2.0])) for a in attributes}
        threshold = draw(st.sampled_from(thresholds))
        aggregates.append(
            Aggregate(
                product=tuple(draw(st.lists(st.sampled_from(numeric), max_size=2))),
                group_by=tuple(draw(st.lists(
                    st.sampled_from(categorical + attributes), max_size=2, unique=True
                ))),
                filters=tuple(draw(st.lists(st.sampled_from(filters), max_size=1))),
                inequality=InequalityCondition.of(weights, threshold, strict=draw(st.booleans())),
                name=f"ineq{position}",
            )
        )
    return AggregateBatch("inequalities", aggregates)


_STAR_NUMERIC = ["m", "x", "y"]
_STAR_FILTERS = [
    Filter("m", FilterOp.GE, 0), Filter("k1", FilterOp.NE, 1), Filter("y", FilterOp.LT, 2),
]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-4, 4)),
        max_size=14,
    ),
    st.lists(st.one_of(st.integers(-4, 4), st.just(float("nan"))), min_size=4, max_size=4),
    st.lists(st.integers(-4, 4), min_size=4, max_size=4),
    st.data(),
)
def test_inequalities_match_the_join_on_a_random_star(fact_rows, x_values, y_values, data):
    """``x`` may hold NaN: a NaN fails every condition weighing it, and sums
    it reaches are NaN on both sides."""
    database = _star_database(fact_rows, x_values, y_values)
    batch = data.draw(_inequality_aggregates(_STAR_NUMERIC, ["k1", "k2"], _STAR_FILTERS))
    _assert_matches_the_join(database, ConjunctiveQuery(["F", "D1", "D2"]), batch)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_inequalities_match_the_join_on_the_toy(data):
    batch = data.draw(_inequality_aggregates(
        ["price"], ["dish", "customer", "item"],
        [Filter("day", FilterOp.EQ, "Friday"), Filter("price", FilterOp.LT, 6)],
    ))
    _assert_matches_the_join(orders_database(), orders_query(), batch)


@lru_cache(maxsize=None)
def _small_retailer():
    return retailer_database(inventory_rows=300, stores=5, items=12, dates=6, seed=4)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_inequalities_match_the_join_on_a_small_retailer(data):
    """Single- and cross-relation conditions over Inventory, Items and Weather."""
    batch = data.draw(_inequality_aggregates(
        ["inventoryunits", "prize", "maxtemp"], ["category", "snow"],
        [Filter("rain", FilterOp.LT, 10.0), Filter("prize", FilterOp.GE, 50)],
        thresholds=[15.0 * threshold for threshold in _THRESHOLDS],
    ))
    _assert_matches_the_join(_small_retailer(), retailer_query(), batch)


_FACT_ROWS = {"retailer": "inventory_rows", "favorita": "sales_rows", "yelp": "review_rows",
              "tpcds": "sales_rows"}


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_inequalities_match_the_join_on_every_dataset(name):
    """Per dataset: the target against its median, and the target plus a
    feature of another relation against the sum of their medians, scalar and
    grouped by a categorical feature (and by that feature too)."""
    spec = DATASETS[name]
    database, query = spec.load(**{_FACT_ROWS[name]: 300})
    target = spec.target
    holder = next(r for r in database if target in r.schema.names)
    other = next(f for f in spec.continuous_features if f not in holder.schema.names)

    def median(attribute):
        relation = next(r for r in database if attribute in r.schema.names)
        return float(np.median(relation.column_store().float_column(attribute)))

    single = InequalityCondition.of({target: 1.0}, median(target))
    cross = InequalityCondition.of(
        {target: 1.0, other: 0.5}, median(target) + 0.5 * median(other), strict=False
    )
    category = spec.categorical_features[0]
    batch = AggregateBatch("inequalities", [
        Aggregate.count(name="count"),
        Aggregate(inequality=single, name="above"),
        Aggregate(product=(other,), inequality=single, name="other_above"),
        Aggregate(group_by=(category,), inequality=cross, name="cross@category"),
        Aggregate(
            product=(target,), group_by=(category, other), inequality=cross, name="cross@both"
        ),
    ])
    result = _assert_matches_the_join(database, query, batch)
    assert 0 < result.scalar("above") < result.scalar("count")


# -- no production read materialises the join -----------------------------------------------------


def test_no_production_read_materialises_the_join(monkeypatch, sri_database, sri_query):
    """Statistics recomputed from scratch, the per-row learners' columns, an
    inequality batch, a served inequality read, Figure 3's structure-agnostic
    baseline and every IFAQ stage all run on the engine."""
    database = retailer_database(inventory_rows=300, seed=1)
    updates = [
        Update(relation.name, row, count)
        for relation in database
        for row, count in relation.items()
    ]
    maintainer = FIVM(database, retailer_query(), FEATURES)
    maintainer.apply_batch(updates)
    condition = InequalityCondition.of({"prize": 1.0, "maxtemp": 0.5}, 60.0)
    batch = AggregateBatch("inequalities", [
        Aggregate(inequality=condition, name="above"),
        Aggregate(product=("inventoryunits",), group_by=("category",), inequality=condition,
                  name="units@category"),
    ])
    expected = MaterializedJoinEngine(database, retailer_query()).evaluate(batch).values

    def refuse(*_args):
        raise AssertionError("the join was materialised")

    monkeypatch.setattr(MaterializedJoinEngine, "materialize", refuse)
    monkeypatch.setattr(naive, "_natural_join", refuse)
    assert maintainer.recompute_statistics() == maintainer.statistics()
    with ShardedMaintainer(database, retailer_query(), FEATURES, executor="serial") as sharded:
        sharded.apply_batch(updates)
        assert sharded.recompute_statistics() == sharded.statistics()
    columns, multiplicities = join_columns(database, retailer_query(), FEATURES)
    assert int(multiplicities.sum()) == maintainer.statistics().count
    assert columns.shape == (len(multiplicities), len(FEATURES))
    values = LMFAOEngine(database, retailer_query()).evaluate(batch).values
    assert values["above"] == expected["above"] > 0
    with QueryServer(maintainer, readers=1) as server:
        assert server.query(batch).value["above"] == expected["above"]
    report = StructureAgnosticPipeline("inventoryunits", FEATURES[1:], ["category"]).run(
        database, retailer_query())
    assert report.data_matrix_shape[0] == maintainer.statistics().count
    assert compile_and_run(sri_database, sri_query, iterations=2).parameters_agree()
