"""Figure 3 (right): end-to-end linear regression, structure-agnostic vs -aware.

The structure-agnostic pipeline stands in for PostgreSQL + TensorFlow
(materialise the join, export it, one-hot encode, one epoch of mini-batch
gradient descent); the structure-aware pipeline stands in for LMFAO (aggregate
batch over the base relations, gradient descent over the sigma matrix).  The
benchmark reports the per-stage times of both, their total speedup, and the
accuracy of both models on held-out join tuples.
"""

from __future__ import annotations

import pytest

from repro.datasets import RETAILER_FEATURES
from repro.engine import MaterializedJoinEngine
from repro.pipelines import StructureAgnosticPipeline, StructureAwarePipeline


@pytest.fixture(scope="module")
def pipeline_inputs(bench_datasets):
    # Figure 3 is an end-to-end comparison, so it uses a larger retailer
    # instance than the per-batch benchmarks: the data-movement costs the
    # structure-agnostic pipeline pays only show up with enough rows.
    from repro.datasets import load_dataset

    database, query, spec = load_dataset(
        "retailer", inventory_rows=8000, stores=15, items=60, dates=40
    )
    joined = MaterializedJoinEngine(database, query).materialize()
    test_rows = [dict(zip(joined.schema.names, row)) for row in joined.sample_rows(300, seed=5)]
    return database, query, spec, test_rows


def test_figure3_structure_agnostic(benchmark, pipeline_inputs):
    database, query, spec, test_rows = pipeline_inputs
    pipeline = StructureAgnosticPipeline(
        spec.target, spec.continuous_features, spec.categorical_features, epochs=1
    )
    report = benchmark.pedantic(pipeline.run, args=(database, query), rounds=1, iterations=1)

    print("\n=== Figure 3 (right): structure-agnostic (PostgreSQL+TensorFlow stand-in) ===")
    for stage, seconds in report.as_rows():
        print(f"  {stage:18s} {seconds:8.3f}s")
    print(f"  data matrix: {report.data_matrix_shape}, {report.data_matrix_bytes / 1e6:.1f} MB")
    print(f"  test RMSE: {pipeline.rmse(test_rows):.3f}")
    assert report.total_seconds > 0
    assert report.join_rows > 0


def test_figure3_structure_aware(benchmark, pipeline_inputs):
    database, query, spec, test_rows = pipeline_inputs
    pipeline = StructureAwarePipeline(
        spec.target, spec.continuous_features, spec.categorical_features
    )
    report = benchmark.pedantic(pipeline.run, args=(database, query), rounds=1, iterations=1)

    print("\n=== Figure 3 (right): structure-aware (LMFAO stand-in) ===")
    for stage, seconds in report.as_rows():
        print(f"  {stage:18s} {seconds:8.3f}s")
    print(f"  sufficient statistics: {report.sigma_dimension}x{report.sigma_dimension} "
          f"({report.sigma_bytes / 1e3:.1f} KB) from {report.aggregate_count} aggregates")
    print(f"  test RMSE: {pipeline.rmse(test_rows):.3f}")
    assert report.total_seconds > 0


def test_figure3_speedup_summary(benchmark, pipeline_inputs):
    """The headline comparison: total structure-agnostic / structure-aware time."""
    database, query, spec, test_rows = pipeline_inputs

    def run_both():
        agnostic = StructureAgnosticPipeline(
            spec.target, spec.continuous_features, spec.categorical_features, epochs=1
        )
        agnostic_report = agnostic.run(database, query)
        aware = StructureAwarePipeline(
            spec.target, spec.continuous_features, spec.categorical_features
        )
        aware_report = aware.run(database, query)
        return agnostic, agnostic_report, aware, aware_report

    agnostic, agnostic_report, aware, aware_report = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )
    speedup = agnostic_report.total_seconds / max(aware_report.total_seconds, 1e-9)
    agnostic_rmse = agnostic.rmse(test_rows)
    aware_rmse = aware.rmse(test_rows)

    print("\n=== Figure 3 (right): summary ===")
    print(f"  structure-agnostic total: {agnostic_report.total_seconds:8.3f}s (RMSE {agnostic_rmse:.3f})")
    print(f"  structure-aware total:    {aware_report.total_seconds:8.3f}s (RMSE {aware_rmse:.3f})")
    print(f"  speedup: {speedup:.1f}x  (paper reports 2,160x at 84M rows with a C++ engine)")

    # The structure-aware path must win and must not lose accuracy.
    assert speedup > 1.0
    assert aware_rmse <= agnostic_rmse * 1.1
