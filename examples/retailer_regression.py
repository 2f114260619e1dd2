"""Figure 3 end to end: structure-agnostic vs structure-aware linear regression.

The structure-agnostic pipeline materialises the join, exports it, one-hot
encodes the categorical features and runs mini-batch gradient descent over the
data matrix.  The structure-aware pipeline evaluates the covariance batch with
the LMFAO-style engine and runs gradient descent over the sigma matrix.  Both
are timed stage by stage, and both models are evaluated on held-out join rows.

Run with:  python examples/retailer_regression.py
"""

from repro.datasets import RETAILER_FEATURES, retailer_database, retailer_query
from repro.engine import MaterializedJoinEngine
from repro.pipelines import StructureAgnosticPipeline, StructureAwarePipeline


def main() -> None:
    database = retailer_database(inventory_rows=3000, stores=15, items=60, dates=40)
    query = retailer_query()
    target = RETAILER_FEATURES["target"]
    continuous = RETAILER_FEATURES["continuous"]
    categorical = RETAILER_FEATURES["categorical"]

    print("== dataset characteristics (cf. Figure 3, left) ==")
    joined = MaterializedJoinEngine(database, query).materialize()
    for relation in database:
        print(f"  {relation.name:13s} {len(relation):8d} tuples / {relation.arity} attributes")
    print(f"  {'Join':13s} {len(joined):8d} tuples / {joined.arity} attributes")

    test_rows = [dict(zip(joined.schema.names, row)) for row in joined.sample_rows(400, seed=99)]

    print("\n== structure-agnostic: materialise -> export -> one-hot -> SGD ==")
    agnostic = StructureAgnosticPipeline(target, continuous, categorical, epochs=1)
    agnostic_report = agnostic.run(database, query)
    for stage, seconds in agnostic_report.as_rows():
        print(f"  {stage:18s} {seconds:8.3f}s")
    print(f"  data matrix: {agnostic_report.data_matrix_shape} "
          f"({agnostic_report.data_matrix_bytes / 1e6:.1f} MB)")
    print(f"  test RMSE: {agnostic.rmse(test_rows):.3f}")

    print("\n== structure-aware: aggregate batch -> gradient descent on sigma ==")
    aware = StructureAwarePipeline(target, continuous, categorical)
    aware_report = aware.run(database, query)
    for stage, seconds in aware_report.as_rows():
        print(f"  {stage:18s} {seconds:8.3f}s")
    print(f"  sufficient statistics: {aware_report.sigma_dimension}x{aware_report.sigma_dimension} "
          f"matrix ({aware_report.sigma_bytes / 1e3:.1f} KB) "
          f"from {aware_report.aggregate_count} aggregates")
    print(f"  test RMSE: {aware.rmse(test_rows):.3f}")

    speedup = agnostic_report.total_seconds / max(aware_report.total_seconds, 1e-9)
    print(f"\nstructure-aware speedup over structure-agnostic: {speedup:.1f}x")

    print("\n== model selection from the same sigma matrix (Section 1.5) ==")
    from repro.ml import ModelSelector

    selector = ModelSelector(aware.sigma, target)
    candidates = selector.search(["prize", "maxtemp", "rain", "population", "avghhi"],
                                 max_subset_size=3)
    print(f"  trained {len(candidates)} candidate models without touching the data again")
    best = selector.best()
    print(f"  best subset: {best.features} (training MSE {best.training_mse:.3f})")


if __name__ == "__main__":
    main()
