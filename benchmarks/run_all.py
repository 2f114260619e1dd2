"""Run the benchmark suite and write machine-readable timings.

Executes the core measurements of the ``bench_figure*`` scripts directly (no
pytest harness) and records everything in one JSON file, so the performance
trajectory of the engine is tracked from PR to PR (the ``BENCH_PR<n>.json``
convention — see ``docs/benchmarks.md``)::

    PYTHONPATH=src python benchmarks/run_all.py --pr 2 --output BENCH_PR2.json

Per figure the file holds timings for every dataset/batch/configuration plus
the engine options used.  For Figure 4 the file also carries the *seed*
timings (measured from the repository's seed commit on the same machine with
the same scales) and the resulting speedups.  Pass ``--seed-repo <path>`` to
a checkout of the seed commit to re-measure the reference instead of using
the recorded values.

Since PR 2 the file additionally records the cost-based rooting comparison
(``rooting``: the cost-picked root vs the seed's widest-relation heuristic,
plus an exhaustive per-root sweep) and the cross-evaluate view-cache figures
(``view_cache``: cold vs warm evaluation of an identical batch, and the
recovery cost after a single-tuple update).

Since PR 3 it also records the batched-IVM update-throughput sweep of
Figure 4 (right) (``ivm_throughput``: all three strategies at batch sizes
1/100/1000/10000 against the seed commit's per-tuple loop) and the
batch-aware rooting comparison (``rooting_batch``: the static cost model vs
per-batch planned-signature costs on a full and a narrow batch).

Since PR 4 it additionally records the fused multi-delta pass comparison
(``ivm_fused``: F-IVM per-relation vs fused one-pass vs fused+parallel
propagation, with the batch-100 fused figure compared against the PR-3
recorded throughput).

The PR-3 ``ivm_delta_cache`` and PR-4 ``root_patching`` comparisons (delta
refresh / root patching on vs off vs ``"auto"``) ended with PR 14: the
adaptive policy is the engine's only behaviour, so nothing is left to
compare, and ``BENCH_PR8.json`` is the archived evidence.

Since PR 5 it records the array-native storage figures (``storage``):
small-batch F-IVM throughput (batch 1/10/100) on the tuple-store backend
against the PR-4 recorded figures, CSV ingest throughput of the batched
columnar path vs a per-row ``add`` loop, the store's memory footprint via
``sys.getsizeof`` sampling against a plain ``dict[tuple, int]``, and the
``tuplestore_stats`` counters of an insert/delete stream.

Since PR 8 (``--pr 8``) it additionally records the per-kernel
microbenchmark of the pluggable kernel backends (``kernel_microbench``,
from ``bench_kernels.py``) and — because absolute throughputs are
machine-bound — renames the raw sweep to
``ivm_throughput_local`` while the gated figure becomes the same-machine
``ivm_rebaseline`` ratio: pass ``--rebaseline-repo`` a checkout of the
baseline PR's code (e.g. a git worktree at the PR-5 commit) and both sides
run through one subprocess harness on the current machine.

Since PR 9 (``--pr 9``) it additionally records the durability figures
(``durability_bench``, from ``bench_durability.py``): journaled F-IVM
throughput per sync policy ratioed against the same run's no-journal
figure (the ``sync="none"`` ratio is gated at 0.9 by the trajectory
check), plus checkpoint write cost and recovery replay throughput.

Since PR 10 (``--pr 10``) it additionally records the sharding figures
(``sharding_bench``, from ``bench_sharding.py``): batch-100 sharded
maintainer throughput ratioed against the same run's unsharded figure per
stream shape and executor (the fact-only serial ratios are gated by the
trajectory check — 1 shard at 0.9, 2 shards at the documented 0.4
scale-out floor), plus the Zipf-skew shard-imbalance figure.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCHMARKS_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCHMARKS_DIR.parent

sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.aggregates import covariance_batch  # noqa: E402
from repro.aggregates.spec import Aggregate, AggregateBatch  # noqa: E402
from repro.datasets import load_dataset  # noqa: E402
from repro.engine import EngineOptions, LMFAOEngine, MaterializedJoinEngine  # noqa: E402
from repro.engine.statistics import widest_relation  # noqa: E402
from repro.ivm import FIVM, FirstOrderIVM, HigherOrderIVM, Update  # noqa: E402


def _load_module(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    assert spec.loader is not None
    spec.loader.exec_module(module)
    return module


_conftest = _load_module("bench_conftest", BENCHMARKS_DIR / "conftest.py")
_figure4 = _load_module("bench_figure4", BENCHMARKS_DIR / "bench_figure4_batches.py")
_figure6 = _load_module("bench_figure6", BENCHMARKS_DIR / "bench_figure6_ablation.py")

#: The scaled-down dataset sizes used by the pytest benchmark suite.
BENCH_SCALES = _conftest.BENCH_SCALES

#: A 10x larger variant where the columnar engine's advantage is measured;
#: per-view Python overhead no longer dominates at this size.
LARGE_SCALES = {
    "retailer": dict(inventory_rows=15000, stores=25, items=120, dates=60),
    "favorita": dict(sales_rows=15000, stores=25, items=120, dates=75),
    "yelp": dict(review_rows=15000, businesses=200, users=300),
    "tpcds": dict(sales_rows=15000, items=150, customers=250, stores=25, dates=90),
}

#: LMFAO evaluate() seconds of the seed commit (2f9b836), measured on the
#: reference machine with the same scales, default options, minimum over
#: repeated runs.  Re-measure with --seed-repo.
SEED_REFERENCE = {
    "bench": {
        "retailer": {"C": 0.03535, "R": 0.02904},
        "favorita": {"C": 0.05454, "R": 0.03517},
        "yelp": {"C": 0.02187, "R": 0.03414},
        "tpcds": {"C": 0.05303, "R": 0.05467},
    },
    "large": {
        "retailer": {"C": 0.26444, "R": 0.19145},
        "favorita": {"C": 0.55298, "R": 0.31011},
        "yelp": {"C": 0.15714, "R": 0.22698},
        "tpcds": {"C": 0.47085, "R": 0.45512},
    },
}

#: Seed-commit (2f9b836) per-tuple IVM throughput (tuples/s) on the retailer
#: update stream, measured on the reference machine at the same scales (the
#: per-strategy stream caps of IVM_STREAM_CAPS applied, best of 2 runs).
#: Re-measure with --seed-repo.
SEED_IVM_REFERENCE = {
    "bench": {"first_order": 1918.6, "higher_order": 14629.8, "fivm": 13066.2},
    "large": {"first_order": 2488.1, "higher_order": 20823.3, "fivm": 19814.2},
}

#: Batch sizes of the Figure-4 (right) update-throughput sweep.
IVM_BATCH_SIZES = [1, 100, 1000, 10000]

#: Stream caps per strategy (first-order is orders of magnitude slower).
IVM_STREAM_CAPS = {"first_order": 600, "higher_order": 4000, "fivm": None}

IVM_STRATEGIES = {
    "first_order": FirstOrderIVM,
    "higher_order": HigherOrderIVM,
    "fivm": FIVM,
}


def _best_of(callable_, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - started)
    return best


def _figure4_timings(scales, rounds: int):
    """LMFAO vs materialised-join timings for the C and R batches."""
    figure = {}
    for dataset, scale in scales.items():
        database, query, spec = load_dataset(dataset, **scale)
        batches = _figure4._build_batches(database, spec)
        figure[dataset] = {}
        for batch_name, batch in batches.items():
            lmfao_best = float("inf")
            for _ in range(rounds):
                engine = LMFAOEngine(database, query)   # cold: no cached contexts
                lmfao_best = min(lmfao_best, engine.evaluate(batch).elapsed_seconds)
            naive = MaterializedJoinEngine(database, query)
            naive_best = float("inf")
            for _ in range(rounds):
                naive.invalidate()
                naive_best = min(naive_best, naive.evaluate(batch).elapsed_seconds)
            figure[dataset][batch_name] = {
                "aggregates": len(batch),
                "lmfao_seconds": round(lmfao_best, 6),
                "naive_seconds": round(naive_best, 6),
                "naive_speedup": round(naive_best / max(lmfao_best, 1e-12), 2),
            }
    return figure


def _figure6_timings(scales, rounds: int):
    """Ablation of the optimisation staircase for the covariance batch.

    The steps are the callables of ``bench_figure6_ablation.CONFIGURATIONS``,
    so the recorded trajectory always measures what the suite asserts on.
    The two scan steps are skipped above ``ORACLE_ROW_CAP`` base rows — the
    bench scales this figure records stay under the cap, so the recorded
    staircase is unaffected; the guard keeps any future large-scale sweep
    from timing per-row Python.
    """
    figure = {}
    for dataset, scale in scales.items():
        database, query, spec = load_dataset(dataset, **scale)
        batch = covariance_batch(spec.continuous_features, spec.categorical_features)
        root = _figure6.cost_root(database, query)
        figure[dataset] = {}
        for name, run in _figure6.CONFIGURATIONS:
            if _figure6.oracle_capped(name, database):
                figure[dataset][name] = None
                continue
            timing = _best_of(lambda: run(database, query, root, batch), rounds)
            figure[dataset][name] = round(timing, 6)
    return figure


def _rooting_timings(scales, rounds: int):
    """Cost-based root choice vs the widest-relation heuristic, per dataset.

    Records the roots both strategies pick, their best-of-``rounds`` cold
    evaluation times for the covariance batch, and an exhaustive sweep over
    every candidate root so the spread the optimizer navigates is visible.
    """
    figure = {}
    for dataset, scale in scales.items():
        database, query, spec = load_dataset(dataset, **scale)
        batch = covariance_batch(spec.continuous_features, spec.categorical_features)

        def best_seconds(options):
            # One untimed warm-up so the lazy dictionary encodings (cached on
            # the relations, shared by every engine over this database) do not
            # bias whichever configuration happens to be measured first.
            LMFAOEngine(database, query, options).evaluate(batch)
            best = float("inf")
            for _ in range(rounds):
                engine = LMFAOEngine(database, query, options)
                best = min(best, engine.evaluate(batch).elapsed_seconds)
            return best

        cost_engine = LMFAOEngine(database, query, EngineOptions(root_strategy="cost"))
        cost_root = cost_engine.join_tree.root.relation_name
        widest_root = widest_relation(database, query.relation_names)
        cost_seconds = best_seconds(EngineOptions(root_strategy="cost"))
        widest_seconds = best_seconds(EngineOptions(root_relation=widest_root))
        # The strategy picks were already timed above; only the remaining
        # candidates need fresh measurements for the exhaustive sweep.
        measured = {cost_root: cost_seconds, widest_root: widest_seconds}
        sweep = {
            root: round(
                measured[root]
                if root in measured
                else best_seconds(EngineOptions(root_relation=root)),
                6,
            )
            for root in query.relation_names
        }
        figure[dataset] = {
            "cost_root": cost_root,
            "widest_root": widest_root,
            "cost_seconds": round(cost_seconds, 6),
            "widest_seconds": round(widest_seconds, 6),
            "speedup_vs_widest": round(widest_seconds / max(cost_seconds, 1e-12), 2),
            "estimated_costs": {
                name: round(value, 1)
                for name, value in (cost_engine.root_choice.costs.items()
                                    if cost_engine.root_choice else [])
            },
            "per_root_seconds": sweep,
        }
    return figure


def _view_cache_timings(scales, rounds: int):
    """Cold vs warm evaluation of an identical batch on one engine.

    ``warm_seconds`` is a repeat of the same batch over unchanged relations
    (all views served from the cross-evaluate view cache);
    ``after_update_seconds`` follows a single-tuple update of the fact
    relation, so only the mutated root path is recomputed.
    """
    figure = {}
    for dataset, scale in scales.items():
        database, query, spec = load_dataset(dataset, **scale)
        batch = covariance_batch(spec.continuous_features, spec.categorical_features)
        engine = LMFAOEngine(database, query)
        cold = engine.evaluate(batch)
        warm_best = float("inf")
        warm_stats = {}
        for _ in range(rounds):
            warm = engine.evaluate(batch)
            if warm.elapsed_seconds < warm_best:
                warm_best = warm.elapsed_seconds
                warm_stats = warm.executor_stats
        fact = max(query.relation_names, key=lambda name: len(database.relation(name)))
        sample_row = next(iter(database.relation(fact).items()))[0]
        database.relation(fact).add(sample_row, 1)
        after_update = engine.evaluate(batch)
        figure[dataset] = {
            "cold_seconds": round(cold.elapsed_seconds, 6),
            "warm_seconds": round(warm_best, 6),
            "warm_speedup": round(cold.elapsed_seconds / max(warm_best, 1e-12), 2),
            "warm_views_cached": warm_stats.get("views_cached", 0),
            "updated_relation": fact,
            "after_update_seconds": round(after_update.elapsed_seconds, 6),
            "after_update_views_cached": after_update.executor_stats.get("views_cached", 0),
        }
    return figure


#: The three F-IVM propagation modes compared by the PR-4 fused figure:
#: (name, fused pass on?, ``parallel_deltas`` on?).
IVM_FUSED_MODES = [
    ("per_relation", False, False),
    ("fused", True, False),
    ("fused_parallel", True, True),
]


def _recorded_fivm_reference(pr_number, scale_name):
    """A prior PR's recorded F-IVM batch throughputs (None when unavailable)."""
    path = REPO_ROOT / f"BENCH_PR{pr_number}.json"
    if not path.exists():
        return None
    try:
        recorded = json.loads(path.read_text())
        sizes = recorded["figures"][f"ivm_throughput_{scale_name}"]["strategies"][
            "fivm"
        ]["batch_sizes"]
        return {size: entry["tuples_per_s"] for size, entry in sizes.items()}
    except (KeyError, TypeError, ValueError):
        return None


def _pr3_fivm_reference(scale_name):
    """The PR-3 recorded F-IVM batch throughputs (None when not available)."""
    return _recorded_fivm_reference(3, scale_name)


def _ivm_fused_timings(scale, scale_name, rounds):
    """The fused one-pass propagation vs the PR-3 per-relation path.

    All modes run the *current* code (identical group netting, rooting and
    kernels); ``per_relation`` propagates each touched relation's delta
    separately while ``fused`` carries them in one tree pass and
    ``fused_parallel`` additionally dispatches independent subtree groups on
    the shared pool (wall-clock neutral on single-core machines; results are
    bit-identical by construction).  The fused batch-100/1000 figures are
    additionally compared against the PR-3 *recorded* throughput, which is
    the acceptance metric of the fused pass.
    """
    database, query, features, updates = _retailer_update_stream(scale)
    pr3 = _pr3_fivm_reference(scale_name)
    figure = {
        "stream_length": len(updates),
        "features": len(features),
        "pr3_recorded_tuples_per_s": pr3,
        "modes": {},
    }
    # Rounds are interleaved round-robin across the modes (with a rotating
    # start) instead of measuring one mode to completion: sustained load
    # slows the single-core reference container by a few percent per
    # successive measurement, which would systematically penalise whichever
    # mode ran later.  Best-of-rounds per mode then samples comparable
    # machine states for every mode.
    best = {
        (mode, batch_size): (0.0, {})
        for mode, _fused, _parallel in IVM_FUSED_MODES
        for batch_size in (100, 1000)
    }
    for round_index in range(rounds):
        order = (
            IVM_FUSED_MODES[round_index % len(IVM_FUSED_MODES):]
            + IVM_FUSED_MODES[: round_index % len(IVM_FUSED_MODES)]
        )
        for mode, fused, parallel in order:
            for batch_size in (100, 1000):
                maintainer = FIVM(
                    database,
                    query,
                    features,
                    fused_deltas=fused,
                    parallel_deltas=parallel,
                )
                started = time.perf_counter()
                for start in range(0, len(updates), batch_size):
                    maintainer.apply_batch(updates[start : start + batch_size])
                throughput = len(updates) / (time.perf_counter() - started)
                if throughput > best[(mode, batch_size)][0]:
                    best[(mode, batch_size)] = (
                        throughput,
                        dict(maintainer.executor_stats),
                    )
    for mode, _fused, _parallel in IVM_FUSED_MODES:
        entry = {}
        for batch_size in (100, 1000):
            throughput, stats = best[(mode, batch_size)]
            record = {"tuples_per_s": round(throughput, 1)}
            if stats:
                record["delta_passes"] = stats.get("delta_passes", 0)
                record["delta_pass_ms"] = round(
                    stats.get("delta_pass_ns", 0) / 1e6, 3
                )
            if pr3 and pr3.get(str(batch_size)):
                record["speedup_vs_pr3"] = round(
                    throughput / pr3[str(batch_size)], 2
                )
            entry[str(batch_size)] = record
        figure["modes"][mode] = entry
    return figure


#: Small-batch sizes of the PR-5 array-native storage sweep.
STORAGE_BATCH_SIZES = [1, 10, 100]


def _storage_timings(scale, scale_name, rounds):
    """PR-5 figures: the array-native tuple store across its three claims.

    ``ivm_batches`` measures F-IVM on the small-batch end (1/10/100) where
    per-row storage upkeep used to dominate; batch 1 and 10 are compared
    against the PR-4 *recorded per-tuple* (batch-1) figure — PR 4 recorded
    no batch-10 point, so its per-tuple path is the baseline both small
    sizes must beat — and batch 100 against the PR-4 batch-100 record.
    ``csv_ingest`` compares the batched columnar ingest against a per-row
    ``add`` loop over the same parsed rows.  ``memory`` samples the store's
    footprint via ``sys.getsizeof`` against a plain ``dict[tuple, int]`` of
    the same content (the seed's system of record).  ``counters`` replays an
    insert/delete stream and records the ``tuplestore_stats``.
    """
    import sys as _sys
    import tempfile

    from repro.data.csv_io import read_csv, write_csv
    from repro.data.relation import Relation
    from repro.data.tuplestore import reset_tuplestore_stats, tuplestore_stats

    database, query, features, updates = _retailer_update_stream(scale)
    pr4 = _recorded_fivm_reference(4, scale_name) or {}
    figure = {
        "stream_length": len(updates),
        "features": len(features),
        "pr4_recorded_tuples_per_s": pr4 or None,
        "ivm_batches": {},
    }
    for batch_size in STORAGE_BATCH_SIZES:
        best = 0.0
        for _ in range(rounds):
            maintainer = FIVM(database, query, features)
            started = time.perf_counter()
            if batch_size == 1:
                for update in updates:
                    maintainer.apply(update)
            else:
                for start in range(0, len(updates), batch_size):
                    maintainer.apply_batch(updates[start : start + batch_size])
            best = max(best, len(updates) / (time.perf_counter() - started))
        record = {"tuples_per_s": round(best, 1)}
        baseline_batch = "1" if batch_size in (1, 10) else "100"
        baseline = pr4.get(baseline_batch)
        if baseline:
            record["pr4_baseline_batch"] = int(baseline_batch)
            record["speedup_vs_pr4"] = round(best / baseline, 2)
        figure["ivm_batches"][str(batch_size)] = record

    # CSV ingest: batched columnar path vs a per-row add loop.
    fact = max(query.relation_names, key=lambda name: len(database.relation(name)))
    fact_relation = database.relation(fact)
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = f"{tmp}/{fact}.csv"
        write_csv(fact_relation, csv_path)
        categorical = [
            name
            for name in fact_relation.schema.names
            if fact_relation.schema.is_categorical(name)
        ]
        end_to_end_best = float("inf")
        for _ in range(rounds):
            started = time.perf_counter()
            loaded = read_csv(csv_path, categorical=categorical)
            end_to_end_best = min(end_to_end_best, time.perf_counter() - started)
        # Ingest-only comparison over the same parsed rows: one batched
        # columnar add_batch vs the seed's per-row add loop (parsing is
        # identical for both and excluded).
        parsed = loaded.rows()
        batched_best = float("inf")
        for _ in range(rounds):
            started = time.perf_counter()
            Relation(fact, loaded.schema, rows=parsed)
            batched_best = min(batched_best, time.perf_counter() - started)
        per_row_best = float("inf")
        for _ in range(rounds):
            started = time.perf_counter()
            slow = Relation(fact, loaded.schema)
            for row in parsed:
                slow.add(row, 1)
            per_row_best = min(per_row_best, time.perf_counter() - started)
        rows_loaded = len(loaded)
        figure["csv_ingest"] = {
            "rows": rows_loaded,
            "read_csv_seconds": round(end_to_end_best, 6),
            "read_csv_rows_per_s": round(rows_loaded / max(end_to_end_best, 1e-12), 1),
            "batched_ingest_seconds": round(batched_best, 6),
            "per_row_add_seconds": round(per_row_best, 6),
            "speedup_vs_per_row": round(per_row_best / max(batched_best, 1e-12), 2),
        }

    # Memory footprint: the array-native store vs a dict[tuple, int].
    store_bytes = fact_relation._store.memory_footprint()
    as_dict = dict(fact_relation.items())
    sample = list(as_dict)[:: max(len(as_dict) // 256, 1)] or [()]
    per_row = sum(
        _sys.getsizeof(row) + sum(_sys.getsizeof(value) for value in row)
        for row in sample
    ) / len(sample)
    dict_bytes = int(_sys.getsizeof(as_dict) + per_row * len(as_dict))
    figure["memory"] = {
        "rows": len(fact_relation),
        "tuplestore_bytes": int(store_bytes),
        "dict_bytes": dict_bytes,
        "bytes_per_row": round(store_bytes / max(len(fact_relation), 1), 1),
        "overhead_vs_dict": round(store_bytes / max(dict_bytes, 1), 2),
    }

    # Storage behaviour counters over an insert/delete stream.
    reset_tuplestore_stats()
    maintainer = FIVM(database, query, features)
    half = len(updates) // 2
    for update in updates[:half]:
        maintainer.apply(update)
    maintainer.apply_batch(updates[half:])
    maintainer.apply_batch(
        [Update(u.relation_name, u.row, -1) for u in updates[::2]]
    )
    figure["counters"] = dict(tuplestore_stats)
    return figure


def _retailer_update_stream(scale):
    database, query, spec = load_dataset("retailer", **scale)
    updates = [
        Update(relation.name, row, 1) for relation in database for row in relation
    ]
    random.Random(11).shuffle(updates)
    return database, query, list(spec.continuous_features), updates


def _ivm_throughput_timings(scale, rounds: int, seed_reference):
    """Figure 4 (right): maintenance throughput per strategy and batch size.

    Batch size 1 drives the per-tuple path (the seed architecture); larger
    sizes take the grouped columnar delta propagation.  Speedups are against
    the *seed commit's* per-tuple loop on the same stream (recorded in
    SEED_IVM_REFERENCE, re-measurable with --seed-repo).
    """
    database, query, features, updates = _retailer_update_stream(scale)
    figure = {"stream_length": len(updates), "features": len(features), "strategies": {}}
    for name, strategy in IVM_STRATEGIES.items():
        cap = IVM_STREAM_CAPS[name]
        stream = updates[:cap] if cap else updates
        seed_throughput = (seed_reference or {}).get(name)
        entry = {"stream_length": len(stream), "seed_per_tuple_tuples_per_s": seed_throughput,
                 "batch_sizes": {}}
        for batch_size in IVM_BATCH_SIZES:
            best = 0.0
            for _ in range(rounds):
                maintainer = strategy(database, query, features)
                started = time.perf_counter()
                if batch_size == 1:
                    for update in stream:
                        maintainer.apply(update)
                else:
                    for start in range(0, len(stream), batch_size):
                        maintainer.apply_batch(stream[start : start + batch_size])
                best = max(best, len(stream) / (time.perf_counter() - started))
            record = {"tuples_per_s": round(best, 1)}
            if seed_throughput:
                record["speedup_vs_seed"] = round(best / seed_throughput, 2)
            entry["batch_sizes"][str(batch_size)] = record
        figure["strategies"][name] = entry
    return figure


def _rooting_batch_timings(scales, rounds: int):
    """Batch-aware rooting (cost-batch) vs the static cost model.

    Measured on two batches per dataset: the full covariance batch (where
    the quadratic payload proxy usually agrees with the planned signature
    counts) and a narrow count+sum batch (where it does not — most views
    collapse to counts, so the fact-table root wins).
    """
    figure = {}
    for dataset, scale in scales.items():
        database, query, spec = load_dataset(dataset, **scale)
        batches = {
            "full": covariance_batch(spec.continuous_features, spec.categorical_features),
            "narrow": AggregateBatch(
                "narrow",
                [
                    Aggregate.count(),
                    Aggregate.sum_of([spec.continuous_features[0]]),
                    Aggregate.sum_of([spec.continuous_features[0]] * 2),
                ],
            ),
        }
        figure[dataset] = {}
        for batch_name, batch in batches.items():
            def steady_state(strategy):
                """Evaluation time under the chosen root, decision excluded.

                The engine sees the batch once (root decided and memoised,
                encodings warm), then repeated evaluations are timed with
                the view cache off so real view work is measured.
                """
                engine = LMFAOEngine(
                    database, query,
                    EngineOptions(root_strategy=strategy, cache_views=False),
                )
                started = time.perf_counter()
                engine.evaluate(batch)
                first = time.perf_counter() - started
                best = float("inf")
                for _ in range(rounds):
                    best = min(best, engine.evaluate(batch).elapsed_seconds)
                return engine.join_tree.root.relation_name, best, first

            static_root, static_seconds, _ = steady_state("cost")
            batch_root, dynamic_seconds, first_seconds = steady_state("cost-batch")
            figure[dataset][batch_name] = {
                "static_root": static_root,
                "batch_root": batch_root,
                "static_seconds": round(static_seconds, 6),
                "cost_batch_seconds": round(dynamic_seconds, 6),
                "cost_batch_first_evaluate_seconds": round(first_seconds, 6),
                "speedup": round(static_seconds / max(dynamic_seconds, 1e-12), 2),
            }
    return figure


def _measure_seed_ivm(seed_repo: Path, scale, caps):
    """Re-measure the seed per-tuple IVM reference from a seed checkout."""
    script = r"""
import json, random, sys, time
root = sys.argv[1]
sys.path.insert(0, root + "/src")
from repro.datasets import load_dataset
from repro.ivm import FIVM, FirstOrderIVM, HigherOrderIVM, Update
scale = json.loads(sys.argv[2]); caps = json.loads(sys.argv[3])
database, query, spec = load_dataset("retailer", **scale)
updates = [Update(r.name, row, 1) for r in database for row in r]
random.Random(11).shuffle(updates)
features = list(spec.continuous_features)
strategies = {"first_order": FirstOrderIVM, "higher_order": HigherOrderIVM, "fivm": FIVM}
out = {}
for name, strategy in strategies.items():
    cap = caps.get(name)
    stream = updates[:cap] if cap else updates
    best = 0.0
    for _ in range(2):
        m = strategy(database, query, features)
        t = time.perf_counter()
        m.apply_batch(stream)
        best = max(best, len(stream)/(time.perf_counter()-t))
    out[name] = round(best, 1)
print(json.dumps(out))
"""
    result = subprocess.run(
        [sys.executable, "-c", script, str(seed_repo), json.dumps(scale), json.dumps(caps)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(result.stdout)


def _measure_seed(seed_repo: Path, scales, rounds: int):
    """Re-measure the seed reference from a checkout of the seed commit."""
    script = r"""
import json, sys, time, importlib.util
root = sys.argv[1]
sys.path.insert(0, root + "/src")
spec = importlib.util.spec_from_file_location("bf4", root + "/benchmarks/bench_figure4_batches.py")
bf4 = importlib.util.module_from_spec(spec); spec.loader.exec_module(bf4)
from repro.datasets import load_dataset
from repro.engine import LMFAOEngine
scales = json.loads(sys.argv[2]); rounds = int(sys.argv[3])
out = {}
for name, scale in scales.items():
    database, query, dspec = load_dataset(name, **scale)
    out[name] = {}
    for bname, batch in bf4._build_batches(database, dspec).items():
        best = float("inf")
        for _ in range(rounds):
            best = min(best, LMFAOEngine(database, query).evaluate(batch).elapsed_seconds)
        out[name][bname] = best
print(json.dumps(out))
"""
    result = subprocess.run(
        [sys.executable, "-c", script, str(seed_repo), json.dumps(scales), str(rounds)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(result.stdout)


#: The subprocess harness behind the same-machine rebaseline (PR 8): the
#: F-IVM retailer stream at the given batch sizes, run against whatever
#: repro checkout ``root`` points at.  Running *both* sides (the baseline
#: worktree and the current tree) through this one script makes the ratio a
#: genuine same-machine, same-harness comparison — recorded absolute
#: figures from other machines never enter it.
_REBASELINE_SCRIPT = r"""
import json, random, sys, time
root = sys.argv[1]
sys.path.insert(0, root + "/src")
from repro.datasets import load_dataset
from repro.ivm import FIVM, Update
scale = json.loads(sys.argv[2]); batch_sizes = json.loads(sys.argv[3])
rounds = int(sys.argv[4])
database, query, spec = load_dataset("retailer", **scale)
updates = [Update(r.name, row, 1) for r in database for row in r]
random.Random(11).shuffle(updates)
features = list(spec.continuous_features)
out = {}
for batch_size in batch_sizes:
    best = 0.0
    for _ in range(rounds):
        m = FIVM(database, query, features)
        t = time.perf_counter()
        if batch_size == 1:
            for update in updates:
                m.apply(update)
        else:
            for start in range(0, len(updates), batch_size):
                m.apply_batch(updates[start:start + batch_size])
        best = max(best, len(updates) / (time.perf_counter() - t))
    out[str(batch_size)] = round(best, 1)
print(json.dumps(out))
"""


def _measure_fivm_stream(repo_root: Path, scale, batch_sizes, rounds: int):
    """F-IVM retailer-stream throughput of one checkout (see the script)."""
    result = subprocess.run(
        [sys.executable, "-c", _REBASELINE_SCRIPT, str(repo_root),
         json.dumps(scale), json.dumps(list(batch_sizes)), str(rounds)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(result.stdout)


def _rebaseline_timings(baseline_repo: Path, baseline_pr: int, scale,
                        batch_sizes, rounds: int):
    """Same-machine F-IVM throughput: a baseline checkout vs this tree.

    The figure ``tools/check_perf_trajectory.py`` gates for PR 8+: recorded
    absolute throughputs are machine-bound (the trajectory files span
    containers of very different speeds), so the PR-8 acceptance compares
    the current code against the *baseline PR's code run on the same
    machine in the same process-per-side harness*, and records the ratio.

    Container timing drifts by tens of percent over seconds, so the two
    sides are measured in *interleaved* single-round passes (one fresh
    process per pass, baseline then current per round) and the recorded
    ratio is the **median of the per-round paired ratios**: pairing
    adjacent-in-time passes cancels the common-mode drift, and the median
    discards the rounds where the machine stalled under exactly one side.
    The per-side throughputs recorded alongside are each side's best pass
    (context only — their ratio is *not* the gated figure).
    """
    samples = {str(size): [] for size in batch_sizes}
    baseline = {str(size): 0.0 for size in batch_sizes}
    current = dict(baseline)
    for _ in range(max(rounds, 1)):
        base_pass = _measure_fivm_stream(baseline_repo, scale, batch_sizes, 1)
        current_pass = _measure_fivm_stream(REPO_ROOT, scale, batch_sizes, 1)
        for size in samples:
            samples[size].append(current_pass[size] / max(base_pass[size], 1e-9))
            baseline[size] = max(baseline[size], base_pass[size])
            current[size] = max(current[size], current_pass[size])
    return {
        "baseline_pr": baseline_pr,
        "baseline_repo": str(baseline_repo),
        "scale": scale,
        "rounds": rounds,
        "baseline_tuples_per_s": baseline,
        "current_tuples_per_s": current,
        "ratios": {
            size: round(statistics.median(per_round), 3)
            for size, per_round in samples.items()
        },
    }


def _attach_speedups(figure, reference):
    for dataset, batches in figure.items():
        for batch_name, entry in batches.items():
            seed_seconds = reference.get(dataset, {}).get(batch_name)
            if seed_seconds:
                entry["seed_seconds"] = round(seed_seconds, 6)
                entry["speedup_vs_seed"] = round(
                    seed_seconds / max(entry["lmfao_seconds"], 1e-12), 2
                )


def _geomean(values):
    values = [value for value in values if value and value > 0]
    if not values:
        return None
    log_sum = sum(__import__("math").log(value) for value in values)
    return round(__import__("math").exp(log_sum / len(values)), 2)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    def positive_int(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError("must be >= 1")
        return value

    parser.add_argument("--pr", type=positive_int, default=5,
                        help="PR number recorded in the trajectory file")
    parser.add_argument("--output", default=None,
                        help="defaults to BENCH_PR<pr>.json in the repo root")
    parser.add_argument("--rounds", type=positive_int, default=3)
    parser.add_argument("--seed-repo", default=None,
                        help="checkout of the seed commit to re-measure the reference")
    parser.add_argument("--skip-large", action="store_true",
                        help="only run the small pytest-suite scales")
    parser.add_argument("--rebaseline-repo", default=None,
                        help="checkout of the baseline PR's code for the "
                             "same-machine ivm_rebaseline figure (PR 8+)")
    parser.add_argument("--baseline-pr", type=positive_int, default=5,
                        help="PR number the rebaseline checkout corresponds to")
    arguments = parser.parse_args()

    seed_reference = SEED_REFERENCE
    seed_ivm_reference = SEED_IVM_REFERENCE
    if arguments.seed_repo:
        seed_reference = {
            "bench": _measure_seed(Path(arguments.seed_repo), BENCH_SCALES, arguments.rounds),
        }
        seed_ivm_reference = {
            "bench": _measure_seed_ivm(
                Path(arguments.seed_repo), BENCH_SCALES["retailer"], IVM_STREAM_CAPS
            ),
        }
        if not arguments.skip_large:
            seed_reference["large"] = _measure_seed(
                Path(arguments.seed_repo), LARGE_SCALES, arguments.rounds
            )
            seed_ivm_reference["large"] = _measure_seed_ivm(
                Path(arguments.seed_repo), LARGE_SCALES["retailer"], IVM_STREAM_CAPS
            )

    report = {
        "pr": arguments.pr,
        "description": (
            "array-native multiset storage (tuple store as the canonical "
            "Relation backend) + per-tuple fused delta kernel + columnar "
            "root-view splice + batched CSV ingest"
        ),
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
        },
        "engine_options": {
            "defaults": vars(EngineOptions()),
            "ablation": [name for name, _run in _figure6.CONFIGURATIONS],
        },
        "scales": {"bench": BENCH_SCALES, "large": LARGE_SCALES},
        "figures": {},
    }

    # The acceptance figures run first, on fresh process state: the long
    # tail of figures below leaves the allocator and caches in a measurably
    # worse state (~10% on the single-core reference container), which
    # would understate the metrics the trajectory check gates on.  PR 5's
    # storage sweep (small-batch IVM on the array-native store) leads,
    # followed by PR 4's fused-pass figure.
    report["figures"]["storage_bench"] = _storage_timings(
        BENCH_SCALES["retailer"], "bench", arguments.rounds
    )
    if not arguments.skip_large:
        report["figures"]["storage_large"] = _storage_timings(
            LARGE_SCALES["retailer"], "large", arguments.rounds
        )
    report["figures"]["ivm_fused_bench"] = _ivm_fused_timings(
        BENCH_SCALES["retailer"], "bench", arguments.rounds
    )
    if not arguments.skip_large:
        report["figures"]["ivm_fused_large"] = _ivm_fused_timings(
            LARGE_SCALES["retailer"], "large", arguments.rounds
        )

    for scale_name, scales in [("bench", BENCH_SCALES)] + (
        [] if arguments.skip_large else [("large", LARGE_SCALES)]
    ):
        figure4 = _figure4_timings(scales, arguments.rounds)
        _attach_speedups(figure4, seed_reference.get(scale_name, {}))
        report["figures"][f"figure4_batches_{scale_name}"] = figure4

    report["figures"]["figure6_ablation_bench"] = _figure6_timings(
        BENCH_SCALES, arguments.rounds
    )

    rooting_scales = BENCH_SCALES if arguments.skip_large else LARGE_SCALES
    rooting_label = "bench" if arguments.skip_large else "large"
    report["figures"][f"rooting_{rooting_label}"] = _rooting_timings(
        rooting_scales, arguments.rounds
    )
    report["figures"][f"view_cache_{rooting_label}"] = _view_cache_timings(
        rooting_scales, arguments.rounds
    )

    # PR 3: the IVM update-throughput sweep (Figure 4 right) and batch-aware
    # rooting.  From PR 8 on, the sweep records
    # under a ``_local_`` name the trajectory checker deliberately does not
    # gate — absolute throughputs are machine-bound and this container is
    # far slower than the PR-5 recording's; the gated figure is the
    # same-machine ``ivm_rebaseline`` ratio below.
    throughput_prefix = (
        "ivm_throughput_local" if arguments.pr >= 8 else "ivm_throughput"
    )
    report["figures"][f"{throughput_prefix}_bench"] = _ivm_throughput_timings(
        BENCH_SCALES["retailer"], arguments.rounds, seed_ivm_reference.get("bench")
    )
    if not arguments.skip_large:
        report["figures"][f"{throughput_prefix}_large"] = _ivm_throughput_timings(
            LARGE_SCALES["retailer"], arguments.rounds, seed_ivm_reference.get("large")
        )
    if arguments.rebaseline_repo:
        report["figures"]["ivm_rebaseline_bench"] = _rebaseline_timings(
            Path(arguments.rebaseline_repo), arguments.baseline_pr,
            BENCH_SCALES["retailer"], (1, 100), max(arguments.rounds, 5),
        )
    report["figures"][f"rooting_batch_{rooting_label}"] = _rooting_batch_timings(
        rooting_scales, arguments.rounds
    )

    # PR 8: the per-kernel microbenchmark of the pluggable backends.
    if arguments.pr >= 8:
        bench_kernels = _load_module(
            "bench_kernels", BENCHMARKS_DIR / "bench_kernels.py"
        )
        report["figures"]["kernel_microbench"] = bench_kernels.collect_kernel_timings(
            rounds=arguments.rounds
        )
        from repro import kernels as _kernels

        report["kernel_backend"] = {
            "active": _kernels.current_backend(),
            "available": list(_kernels.available_backends()),
        }

    # PR 9: the durability figures (journaling cost per sync policy,
    # checkpoint write cost, recovery replay throughput).
    if arguments.pr >= 9:
        bench_durability = _load_module(
            "bench_durability", BENCHMARKS_DIR / "bench_durability.py"
        )
        report["figures"]["durability_bench"] = bench_durability.run(
            repeats=arguments.rounds
        )

    # PR 10: the sharding figures (sharded/unsharded throughput ratios per
    # stream shape and executor, Zipf-skew shard imbalance).
    if arguments.pr >= 10:
        bench_sharding = _load_module(
            "bench_sharding", BENCHMARKS_DIR / "bench_sharding.py"
        )
        report["figures"]["sharding_bench"] = bench_sharding.run(
            repeats=arguments.rounds
        )

    large = report["figures"].get("figure4_batches_large", {})
    speedups = [
        entry.get("speedup_vs_seed")
        for batches in large.values()
        for entry in batches.values()
    ]
    rooting = report["figures"][f"rooting_{rooting_label}"]
    view_cache = report["figures"][f"view_cache_{rooting_label}"]
    ivm_label = (
        f"{throughput_prefix}_bench" if arguments.skip_large
        else f"{throughput_prefix}_large"
    )
    ivm = report["figures"][ivm_label]
    fused_label = "ivm_fused_bench" if arguments.skip_large else "ivm_fused_large"
    fused = report["figures"][fused_label]
    storage_label = "storage_bench" if arguments.skip_large else "storage_large"
    storage = report["figures"][storage_label]
    report["headline"] = {
        "storage_small_batch_speedup_vs_pr4": {
            size: record.get("speedup_vs_pr4")
            for size, record in storage["ivm_batches"].items()
        },
        "storage_csv_ingest_speedup": storage["csv_ingest"]["speedup_vs_per_row"],
        "large_scale_speedups_vs_seed": {
            dataset: {name: entry.get("speedup_vs_seed") for name, entry in batches.items()}
            for dataset, batches in large.items()
        },
        "geometric_mean_speedup_vs_seed": _geomean(speedups),
        "rooting_speedup_vs_widest": {
            dataset: entry["speedup_vs_widest"] for dataset, entry in rooting.items()
        },
        "view_cache_warm_speedup": {
            dataset: entry["warm_speedup"] for dataset, entry in view_cache.items()
        },
        "ivm_batched_speedup_vs_seed_per_tuple": {
            name: {
                size: record.get("speedup_vs_seed")
                for size, record in entry["batch_sizes"].items()
            }
            for name, entry in ivm["strategies"].items()
        },
        "ivm_fused_speedup_vs_pr3": {
            size: record.get("speedup_vs_pr3")
            for size, record in fused["modes"]["fused"].items()
        },
    }
    rebaseline = report["figures"].get("ivm_rebaseline_bench")
    if rebaseline is not None:
        report["headline"]["ivm_rebaseline_ratio_vs_pr5"] = rebaseline["ratios"]
    if arguments.pr >= 9:
        durability = report["figures"]["durability_bench"]
        report["headline"]["durability_journal_ratios"] = {
            sync: entry["ratio_vs_no_journal"]
            for sync, entry in durability["sync_policies"].items()
        }
        report["headline"]["durability_recovery_replay_tuples_per_s"] = (
            durability["recovery_replay_tuples_per_s"]
        )
    if arguments.pr >= 10:
        sharding = report["figures"]["sharding_bench"]
        report["headline"]["sharding_ratios_vs_unsharded"] = {
            stream: {
                config: record["ratio_vs_unsharded"]
                for config, record in entry.items()
                if isinstance(record, dict)
            }
            for stream, entry in sharding["streams"].items()
        }
        report["headline"]["sharding_skew_imbalance"] = {
            alpha: entry["imbalance"]
            for alpha, entry in sharding["skew"]["alphas"].items()
        }

    output = Path(
        arguments.output
        if arguments.output
        else REPO_ROOT / f"BENCH_PR{arguments.pr}.json"
    )
    output.write_text(json.dumps(report, indent=2, sort_keys=False) + "\n")
    print(f"wrote {output}")
    if report["headline"]["geometric_mean_speedup_vs_seed"]:
        print(
            "geometric-mean large-scale speedup vs seed: "
            f'{report["headline"]["geometric_mean_speedup_vs_seed"]}x'
        )
    print(f"rooting speedup vs widest: {report['headline']['rooting_speedup_vs_widest']}")
    print(f"view-cache warm speedup: {report['headline']['view_cache_warm_speedup']}")
    print(
        "IVM batched speedups vs seed per-tuple: "
        f"{report['headline']['ivm_batched_speedup_vs_seed_per_tuple']}"
    )
    print(
        "fused pass speedup vs PR-3 recorded F-IVM: "
        f"{report['headline']['ivm_fused_speedup_vs_pr3']}"
    )
    print(
        "array-native storage: small-batch IVM vs PR-4 "
        f"{report['headline']['storage_small_batch_speedup_vs_pr4']}, "
        f"CSV ingest {report['headline']['storage_csv_ingest_speedup']}x vs "
        "per-row add"
    )
    if "ivm_rebaseline_ratio_vs_pr5" in report.get("headline", {}):
        print(
            "same-machine F-IVM ratio vs baseline checkout: "
            f"{report['headline']['ivm_rebaseline_ratio_vs_pr5']}"
        )
    if "durability_journal_ratios" in report.get("headline", {}):
        print(
            "journaled/no-journal throughput ratios: "
            f"{report['headline']['durability_journal_ratios']} "
            "(recovery replay "
            f"{report['headline']['durability_recovery_replay_tuples_per_s']} t/s)"
        )
    if "sharding_ratios_vs_unsharded" in report.get("headline", {}):
        print(
            "sharded/unsharded throughput ratios: "
            f"{report['headline']['sharding_ratios_vs_unsharded']} "
            "(skew imbalance "
            f"{report['headline']['sharding_skew_imbalance']})"
        )


if __name__ == "__main__":
    main()
