"""Quickstart: structure-aware learning over relational data in five steps.

1. build (or load) a multi-relation database;
2. describe the feature-extraction join;
3. synthesise the aggregate batch for the model;
4. evaluate the batch with the LMFAO-style engine (the join is never
   materialised);
5. train the model from the resulting sufficient statistics.

Run with:  python examples/quickstart.py
"""

from repro.aggregates import covariance_batch
from repro.aggregates.sparse_tensor import sigma_from_batch_results
from repro.datasets import retailer_database, retailer_query, RETAILER_FEATURES
from repro.engine import LMFAOEngine, MaterializedJoinEngine
from repro.ml import RidgeRegression


def main() -> None:
    # 1. A snowflake database shaped like the paper's retailer dataset.
    database = retailer_database(inventory_rows=2000, stores=10, items=40, dates=30)
    print(f"database: {database}")

    # 2. The feature-extraction query: the natural join of all five relations.
    query = retailer_query()
    print(f"query: {query}")

    # 3. The covariance batch for a ridge linear regression model.
    continuous = RETAILER_FEATURES["continuous"]
    categorical = RETAILER_FEATURES["categorical"]
    batch = covariance_batch(continuous, categorical)
    print(f"aggregate batch: {len(batch)} aggregates ({batch.summary()})")

    # 4. Evaluate the batch directly over the base relations.
    engine = LMFAOEngine(database, query)
    result = engine.evaluate(batch)
    print(
        f"batch evaluated in {result.elapsed_seconds:.3f}s "
        f"({result.views_computed} shared views, plan: {result.plan_summary})"
    )

    # 5. Assemble the sigma matrix and train the model by gradient descent.
    sigma = sigma_from_batch_results(result.as_mapping(), continuous, categorical)
    model = RidgeRegression(target=RETAILER_FEATURES["target"], regularization=1e-3)
    model.fit(sigma)
    print(f"model trained in {model.trace.iterations} gradient-descent iterations")

    coefficients = model.coefficients()
    top = sorted(coefficients.items(), key=lambda item: -abs(item[1]))[:8]
    print("largest coefficients:")
    for name, value in top:
        print(f"  {name:30s} {value:+.4f}")

    # Sanity check the model on a sample of join tuples.
    joined = MaterializedJoinEngine(database, query).materialize()
    rows = [dict(zip(joined.schema.names, row)) for row in joined.sample_rows(200, seed=1)]
    print(f"training RMSE on 200 sampled join tuples: {model.rmse(rows):.3f}")


if __name__ == "__main__":
    main()
