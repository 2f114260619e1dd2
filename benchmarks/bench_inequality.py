"""Section 2.3: additive-inequality aggregates — scan vs sort-based evaluation.

Many aggregates with the same inequality direction but different thresholds
(the pattern produced by SVM sub-gradients and k-means assignment) are
evaluated with the naive per-query scan and with the sort-once strategy.  The
shape to check: the sorted evaluator wins once the number of thresholds grows,
and both agree exactly.  Over a join, an inequality batch on the planned
engine gives the materialised join's values at least 10x faster.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.aggregates import Aggregate, AggregateBatch, InequalityCondition
from repro.datasets import retailer_database, retailer_query
from repro.engine import LMFAOEngine, MaterializedJoinEngine
from repro.inequality import NaiveInequalityEvaluator, SortedInequalityEvaluator

POINT_COUNT = 4000
THRESHOLD_COUNT = 64


@pytest.fixture(scope="module")
def inequality_workload():
    rng = np.random.default_rng(17)
    points = rng.normal(size=(POINT_COUNT, 4))
    weights = np.array([0.8, -1.2, 0.5, 2.0])
    thresholds = np.linspace(-3.0, 3.0, THRESHOLD_COUNT)
    return points, weights, thresholds


def test_inequality_naive_scan(benchmark, inequality_workload):
    points, weights, thresholds = inequality_workload
    evaluator = NaiveInequalityEvaluator(points)
    counts = benchmark.pedantic(
        evaluator.count_above_many, args=(weights, thresholds), rounds=1, iterations=1
    )
    print(f"\n=== naive scan: {len(thresholds)} thresholds over {evaluator.count} points ===")
    assert counts[0] >= counts[-1]


def test_inequality_sorted(benchmark, inequality_workload):
    points, weights, thresholds = inequality_workload
    evaluator = SortedInequalityEvaluator(points)
    counts = benchmark.pedantic(
        evaluator.count_above_many, args=(weights, thresholds), rounds=1, iterations=1
    )
    print(f"\n=== sort + binary search: {len(thresholds)} thresholds over {evaluator.count} points ===")
    assert counts[0] >= counts[-1]


def test_inequality_agreement_and_speedup(benchmark, inequality_workload):
    points, weights, thresholds = inequality_workload
    naive = NaiveInequalityEvaluator(points)
    sorted_evaluator = SortedInequalityEvaluator(points)

    def run_both():
        started = time.perf_counter()
        naive_counts = naive.count_above_many(weights, thresholds)
        naive_seconds = time.perf_counter() - started
        started = time.perf_counter()
        sorted_counts = SortedInequalityEvaluator(points).count_above_many(weights, thresholds)
        sorted_seconds = time.perf_counter() - started
        return naive_counts, naive_seconds, sorted_counts, sorted_seconds

    naive_counts, naive_seconds, sorted_counts, sorted_seconds = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )

    print(
        f"\n=== Section 2.3: additive-inequality batch of {len(thresholds)} thresholds ===\n"
        f"  naive scan : {naive_seconds:.3f}s\n"
        f"  sort-based : {sorted_seconds:.3f}s (speedup {naive_seconds / max(sorted_seconds, 1e-9):.1f}x)"
    )
    assert naive_counts == sorted_counts
    assert sorted_seconds < naive_seconds


def test_inequality_aggregates_on_the_engine_beat_the_materialised_join(benchmark):
    """One single-relation inequality batch over retailer at 20k Inventory rows.

    The engine plans each aggregate grouped by the condition's attribute and
    tests the condition once per distinct value; the materialised join tests
    it once per join row.  Same values, and the engine at least 10x faster,
    each side timed from a cold start on its own copy of the data.
    """
    database = retailer_database(inventory_rows=20_000, seed=1)
    query = retailer_query()
    condition = InequalityCondition.of({"prize": 1.0}, 30.0)
    batch = AggregateBatch("prize > 30", [
        Aggregate(inequality=condition, name="rows"),
        Aggregate(product=("inventoryunits",), inequality=condition, name="units"),
        Aggregate(group_by=("category",), inequality=condition, name="rows@category"),
    ])

    def run_both():
        started = time.perf_counter()
        planned = LMFAOEngine(database.copy(), query).evaluate(batch)
        engine_seconds = time.perf_counter() - started
        started = time.perf_counter()
        joined = MaterializedJoinEngine(database.copy(), query).evaluate(batch)
        join_seconds = time.perf_counter() - started
        return planned, engine_seconds, joined, join_seconds

    planned, engine_seconds, joined, join_seconds = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )
    print(
        f"\n=== Section 2.3: {len(batch)} inequality aggregates, retailer at 20k rows ===\n"
        f"  materialised join : {join_seconds:.3f}s\n"
        f"  planned engine    : {engine_seconds:.3f}s"
        f" (speedup {join_seconds / max(engine_seconds, 1e-9):.1f}x)"
    )
    assert planned["rows"] == joined["rows"] > 0
    assert planned["rows@category"] == joined["rows@category"]
    assert planned["units"] == pytest.approx(joined["units"], rel=1e-9)
    assert engine_seconds * 10 <= join_seconds
