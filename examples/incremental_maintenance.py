"""Keeping models fresh under high-throughput updates (Figure 4, right; §1.5).

An initially empty retailer database receives a stream of tuple inserts.
F-IVM maintains the covariance matrix with ring payloads; after every bulk of
inserts the linear-regression model is refreshed by resuming gradient descent
from the previous parameters — a few milliseconds instead of retraining from
scratch over the join.  (The three-way throughput comparison of Figure 4
against first-order and higher-order IVM is ``benchmarks/bench_figure4_ivm.py``.)

Run with:  python examples/incremental_maintenance.py
"""

import random
import time

import numpy as np

from repro.aggregates.sparse_tensor import FeatureIndex, SigmaMatrix
from repro.datasets import RETAILER_FEATURES, retailer_database, retailer_query
from repro.ivm import FIVM, Update
from repro.ml import RidgeRegression


def sigma_from_payload(payload, features) -> SigmaMatrix:
    """Wrap an F-IVM covariance payload as a SigmaMatrix (continuous features only)."""
    index = FeatureIndex(list(features), {}, include_intercept=True)
    matrix = np.zeros((index.size, index.size))
    matrix[0, 0] = payload.count
    matrix[0, 1:] = payload.sums
    matrix[1:, 0] = payload.sums
    matrix[1:, 1:] = payload.moments
    return SigmaMatrix(index, matrix)


def main() -> None:
    full = retailer_database(inventory_rows=2500, stores=10, items=40, dates=25)
    query = retailer_query()
    features = list(RETAILER_FEATURES["continuous"])
    target = RETAILER_FEATURES["target"]

    # A stream of inserts drawn from every relation, in random order.
    updates = [
        Update(relation.name, row, 1) for relation in full for row in relation
    ]
    random.Random(7).shuffle(updates)
    print(f"streaming {len(updates)} tuple inserts into an initially empty database")

    print("\n== model refresh with F-IVM (bulk of 500 inserts at a time) ==")
    maintainer = FIVM(full, query, features)
    model = RidgeRegression(target, regularization=1e-3)
    previous_parameters = None
    for bulk_start in range(0, len(updates), 500):
        bulk = updates[bulk_start:bulk_start + 500]
        maintainer.apply_batch(bulk)
        payload = maintainer.statistics()
        if payload.count < 10:
            continue
        sigma = sigma_from_payload(payload, features)
        started = time.perf_counter()
        if previous_parameters is None:
            model.fit(sigma)
        else:
            model.warm_start_fit(sigma, previous_parameters)
        refresh_time = time.perf_counter() - started
        previous_parameters = model.parameters
        print(
            f"  after {bulk_start + len(bulk):6d} inserts: join count={payload.count:8.0f}, "
            f"model refreshed in {refresh_time * 1000:6.1f} ms "
            f"({model.trace.iterations} GD steps)"
        )


if __name__ == "__main__":
    main()
