"""Tests for aggregate specifications, batch synthesis and the sigma matrix."""

import numpy as np
import pytest

from repro.aggregates import (
    Aggregate,
    AggregateBatch,
    Filter,
    FilterOp,
    InequalityCondition,
    batch_catalogue,
    covariance_batch,
    decision_tree_node_batch,
    kmeans_batch,
    mutual_information_batch,
)
from repro.aggregates.sparse_tensor import FeatureIndex, sigma_from_batch_results
from repro.engine import LMFAOEngine
from repro.ml.statistics import sigma_from_data_matrix


# -- specs ---------------------------------------------------------------------------------------


def test_filter_operators():
    assert Filter("x", FilterOp.GE, 3).test(3)
    assert not Filter("x", FilterOp.GT, 3).test(3)
    assert Filter("x", FilterOp.LT, 3).test(2)
    assert Filter("x", FilterOp.LE, 3).test(3)
    assert Filter("x", FilterOp.EQ, "a").test("a")
    assert Filter("x", FilterOp.NE, "a").test("b")
    assert Filter("x", FilterOp.IN, ("a", "b")).test("a")
    assert not Filter("x", FilterOp.IN, ("a", "b")).test("c")


def test_inequality_condition():
    condition = InequalityCondition.of({"x": 2.0, "y": -1.0}, 3.0)
    assert condition.test({"x": 3.0, "y": 1.0})       # 6 - 1 = 5 > 3
    assert not condition.test({"x": 1.0, "y": 0.0})   # 2 > 3 fails
    assert set(condition.attributes) == {"x", "y"}
    assert "2*x" in str(condition)
    non_strict = InequalityCondition.of({"x": 1.0}, 1.0, strict=False)
    assert non_strict.test({"x": 1.0})


def test_aggregate_constructors_and_accessors():
    count = Aggregate.count(group_by=["g"])
    assert count.degree == 0 and count.is_grouped
    sum_xy = Aggregate.sum_of(["x", "y"], filters=[Filter("z", FilterOp.GE, 1)])
    assert sum_xy.degree == 2
    assert set(sum_xy.attributes()) == {"x", "y", "z"}
    squares = Aggregate.sum_of(["x", "x"])
    assert squares.product_multiplicities() == {"x": 2}
    assert sum_xy.filters_on("z")[0].op is FilterOp.GE


def test_aggregate_to_sql_rendering():
    aggregate = Aggregate.sum_of(["x", "y"], group_by=["g"], filters=[Filter("z", FilterOp.GE, 1)])
    sql = aggregate.to_sql("Q")
    assert "SUM(x*y)" in sql
    assert "GROUP BY g" in sql
    assert "z >= 1" in sql
    assert "SUM(1)" in Aggregate.count().to_sql()


def test_batch_summary_and_accessors():
    batch = AggregateBatch("demo")
    batch.add(Aggregate.count())
    batch.add(Aggregate.sum_of(["x"], group_by=["g"]))
    assert len(batch) == 2
    assert batch.attributes() == ("x", "g")
    summary = batch.summary()
    assert summary["grouped"] == 1 and summary["scalar"] == 1


# -- batch synthesis (Figure 5 shapes) --------------------------------------------------------------


def test_covariance_batch_size_formula():
    continuous = ["a", "b", "c"]
    categorical = ["g", "h"]
    batch = covariance_batch(continuous, categorical)
    features = len(continuous) + len(categorical)
    expected = 1 + features + features * (features + 1) // 2
    assert len(batch) == expected


def test_covariance_batch_contains_expected_aggregate_kinds():
    batch = covariance_batch(["a", "b"], ["g"])
    names = {aggregate.name for aggregate in batch}
    assert "count" in names
    assert "sum:a*b" in names
    assert "sum:a@g" in names
    assert "count@g,g" in names or "count@g" in names


def test_decision_tree_node_batch_counts_and_filters():
    batch = decision_tree_node_batch(
        "y", ["a", "b"], ["g"],
        thresholds={"a": [1.0, 2.0], "b": [5.0]},
        categories={"g": ["u", "v"]},
    )
    # 3 node aggregates + 3 per condition: (2 + 1) thresholds + 2 categories = 5 conditions.
    assert len(batch) == 3 + 3 * 5
    filtered = [aggregate for aggregate in batch if aggregate.filters]
    assert len(filtered) == 15


def test_decision_tree_node_batch_names_every_candidate_apart():
    """Thresholds that agree in six significant digits still get their own names."""
    thresholds = [round(1000.0 + 0.05 * position / 9, 6) for position in range(1, 9)]
    assert len({f"{threshold:g}" for threshold in thresholds}) == 4
    batch = decision_tree_node_batch(
        "y", ["a"], ["g"], thresholds={"a": thresholds}, categories={"g": [1, "1", 1.5]}
    )
    names = [aggregate.name for aggregate in batch]
    assert len(names) == len(set(names)) == 3 + 3 * (8 + 3)
    assert "count|a>=1000.005556" in names and "count|g=1" in names and "count|g='1'" in names
    with pytest.raises(ValueError, match="share aggregate names"):
        decision_tree_node_batch("y", ["a"], thresholds={"a": [1.0, 2.0, 1.0]})


def test_decision_tree_node_batch_grouped_fallback_without_categories():
    batch = decision_tree_node_batch("y", ["a"], ["g"], thresholds={"a": [1.0]})
    grouped = [aggregate for aggregate in batch if aggregate.group_by == ("g",)]
    assert len(grouped) == 3


def test_mutual_information_batch_size():
    batch = mutual_information_batch(["a", "b", "c"])
    # 1 count + 3 marginals + 3 pairs.
    assert len(batch) == 7


def test_kmeans_batch_size():
    batch = kmeans_batch(["a", "b"], ["g"])
    # 1 count + 2 per continuous + 1 per categorical.
    assert len(batch) == 1 + 4 + 1


def test_batch_catalogue_produces_all_four_workloads():
    catalogue = batch_catalogue("y", ["y", "a", "b"], ["g"])
    assert set(catalogue) == {"covariance", "decision_node", "mutual_information", "kmeans"}
    assert len(catalogue["decision_node"]) > len(catalogue["kmeans"])


# -- sigma matrix assembly ------------------------------------------------------------------------------


def test_feature_index_layout():
    index = FeatureIndex(["a", "b"], {"g": ["u", "v"]})
    assert index.size == 5
    assert index.intercept_position() == 0
    assert index.position("a") == 1
    assert index.position("g", "v") == 4
    assert index.positions_of_feature("g") == [3, 4]
    assert index.labels()[3] == "g=u"
    assert index.has("g", "u") and not index.has("g", "w")
    with pytest.raises(KeyError):
        index.position("g", "w")


def test_sigma_from_batch_results_matches_data_matrix(small_retailer, small_retailer_query):
    continuous = ["inventoryunits", "prize", "maxtemp"]
    categorical = ["category", "snow"]
    engine = LMFAOEngine(small_retailer, small_retailer_query)
    result = engine.evaluate(covariance_batch(continuous, categorical))
    sigma = sigma_from_batch_results(result.as_mapping(), continuous, categorical)

    joined = small_retailer_query.evaluate(small_retailer)
    rows = [dict(zip(joined.schema.names, row)) for row in joined.expanded_rows()]
    reference = sigma_from_data_matrix(rows, continuous, categorical)

    assert sigma.is_symmetric()
    assert sigma.dimension == reference.dimension
    assert np.allclose(sigma.matrix, reference.matrix)
    assert sigma.count() == pytest.approx(len(rows))


def test_sigma_entry_accessors(small_retailer, small_retailer_query):
    continuous = ["inventoryunits", "prize"]
    engine = LMFAOEngine(small_retailer, small_retailer_query)
    result = engine.evaluate(covariance_batch(continuous, []))
    sigma = sigma_from_batch_results(result.as_mapping(), continuous, [])
    assert sigma.entry("prize", "prize") > 0
    assert sigma.entry("inventoryunits", "prize") == sigma.entry("prize", "inventoryunits")
    submatrix = sigma.submatrix([0, 1])
    assert submatrix.shape == (2, 2)


def test_sigma_from_batch_results_requires_grouped_counts():
    with pytest.raises(KeyError):
        sigma_from_batch_results({"count": 3.0}, ["a"], ["g"])
