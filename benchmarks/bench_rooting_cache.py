"""Cost-based rooting and the cross-evaluate view cache, measured.

Two measurements beyond the paper's figures, introduced in PR 2:

- *rooting*: evaluation time of the covariance batch under the cost-picked
  root vs the seed's widest-relation heuristic, plus the exhaustive per-root
  sweep the cost model has to navigate (the measured 2-4x spread between the
  best and worst root is the opportunity);
- *view cache*: cold evaluation vs a warm repeat of the identical batch on
  the same engine (all views served from the cache) and the recovery cost
  after a single-tuple update (only the mutated root path recomputes).
"""

from __future__ import annotations

import pytest

from repro.aggregates import covariance_batch
from repro.engine import EngineOptions, LMFAOEngine
from repro.engine.executor import STAT_CACHED
from repro.engine.statistics import widest_relation


def _covariance(spec):
    return covariance_batch(spec.continuous_features, spec.categorical_features)


@pytest.mark.parametrize("dataset_name", ["retailer", "favorita", "yelp", "tpcds"])
def test_rooting_cost_vs_widest(benchmark, bench_datasets, dataset_name):
    database, query, spec = bench_datasets[dataset_name]
    batch = _covariance(spec)

    def run():
        cost = LMFAOEngine(database, query, EngineOptions(root_strategy="cost"))
        widest = LMFAOEngine(
            database,
            query,
            EngineOptions(root_relation=widest_relation(database, query.relation_names)),
        )
        return {
            "cost_root": cost.join_tree.root.relation_name,
            "widest_root": widest.join_tree.root.relation_name,
            "cost_seconds": cost.evaluate(batch).elapsed_seconds,
            "widest_seconds": widest.evaluate(batch).elapsed_seconds,
        }

    outcome = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        f"\n=== Rooting {dataset_name}: cost->{outcome['cost_root']} "
        f"{outcome['cost_seconds']:.4f}s vs widest->{outcome['widest_root']} "
        f"{outcome['widest_seconds']:.4f}s"
    )
    # Both runs must at least complete; the quality claim is tracked in
    # BENCH_PR<n>.json where best-of-N timings make it robust.
    assert outcome["cost_seconds"] > 0 and outcome["widest_seconds"] > 0


@pytest.mark.parametrize("dataset_name", ["retailer", "favorita", "yelp", "tpcds"])
def test_view_cache_warm_repeat(benchmark, bench_datasets, dataset_name):
    database, query, spec = bench_datasets[dataset_name]
    batch = _covariance(spec)
    engine = LMFAOEngine(database, query)

    cold = engine.evaluate(batch)
    warm = benchmark.pedantic(lambda: engine.evaluate(batch), rounds=1, iterations=1)

    print(
        f"\n=== View cache {dataset_name}: cold {cold.elapsed_seconds:.4f}s, "
        f"warm {warm.elapsed_seconds:.4f}s "
        f"({warm.executor_stats.get(STAT_CACHED, 0)} views cached) "
        f"-> {cold.elapsed_seconds / max(warm.elapsed_seconds, 1e-12):.1f}x"
    )
    # The warm repeat must be served entirely from the cache.
    assert warm.executor_stats.get(STAT_CACHED, 0) == cold.executor_stats.get(
        "views_columnar", 0
    ) + cold.executor_stats.get("views_tuple_fallback", 0)
    assert warm.executor_stats.get("views_columnar", 0) == 0


@pytest.mark.parametrize("dataset_name", ["retailer", "favorita", "yelp"])
def test_batch_aware_rooting_vs_static(benchmark, bench_datasets, dataset_name):
    """Where the planned-signature (cost-batch) root differs from the proxy.

    On the full covariance batch the quadratic payload proxy tracks the
    planned signature counts well; on a narrow count+sum batch most views
    collapse to counts and the batch-aware model roots differently (usually
    at the fact table).  PR 3 satellite — the recorded comparison lives in
    ``rooting_batch_*`` of ``BENCH_PR3.json``.
    """
    from repro.aggregates.spec import Aggregate, AggregateBatch

    database, query, spec = bench_datasets[dataset_name]
    narrow = AggregateBatch(
        "narrow",
        [
            Aggregate.count(),
            Aggregate.sum_of([spec.continuous_features[0]]),
            Aggregate.sum_of([spec.continuous_features[0]] * 2),
        ],
    )
    batches = {"full": _covariance(spec), "narrow": narrow}

    def run():
        outcome = {}
        for name, batch in batches.items():
            static = LMFAOEngine(database, query, EngineOptions(root_strategy="cost"))
            dynamic = LMFAOEngine(
                database, query, EngineOptions(root_strategy="cost-batch")
            )
            static_seconds = static.evaluate(batch).elapsed_seconds
            dynamic_seconds = dynamic.evaluate(batch).elapsed_seconds
            outcome[name] = (
                static.join_tree.root.relation_name,
                dynamic.join_tree.root.relation_name,
                static_seconds,
                dynamic_seconds,
            )
        return outcome

    outcome = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\n=== Batch-aware rooting {dataset_name} ===")
    for name, (static_root, batch_root, static_s, dynamic_s) in outcome.items():
        marker = " (differs)" if static_root != batch_root else ""
        print(
            f"  {name:6s} static->{static_root} {static_s:.4f}s | "
            f"cost-batch->{batch_root} {dynamic_s:.4f}s{marker}"
        )
    # The narrow batch is where the two models disagree.
    assert outcome["narrow"][0] != outcome["narrow"][1]
