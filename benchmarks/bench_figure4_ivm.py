"""Figure 4 (right): covariance-matrix maintenance under a stream of inserts.

Three IVM strategies maintain the continuous-feature covariance matrix of
the retailer join while tuples stream into an initially empty database:
F-IVM (the system, :class:`repro.ivm.FIVM`) and the two strategies the paper
compares it against, which live beside this file in
``figure4_strategies.py``.  The reported metric is throughput
(tuples/second); the shape to check is F-IVM > higher-order IVM > first-order
IVM, with first-order degrading fastest as the number of maintained
aggregates grows.  The comparison is algorithmic, so all three are driven
*per tuple*; F-IVM's batched path is measured against its own per-tuple loop
in a test of its own, and so is the question of whether F-IVM needs a
per-tuple path at all (``test_figure4_right_per_tuple_path_earns_its_keep``).
"""

from __future__ import annotations

import random
import time

import numpy as np
import pytest

from figure4_strategies import FirstOrderIVM, HigherOrderIVM
from repro.ivm import FIVM, Update


@pytest.fixture(scope="module")
def update_stream(retailer_bench):
    database, query, spec = retailer_bench
    updates = [
        Update(relation.name, row, 1) for relation in database for row in relation
    ]
    random.Random(11).shuffle(updates)
    features = [feature for feature in spec.continuous_features]
    return database, query, features, updates


STRATEGIES = {
    "first_order": FirstOrderIVM,
    "higher_order": HigherOrderIVM,
    "fivm": FIVM,
}


def _per_tuple_throughput(strategy, database, query, features, stream):
    maintainer = strategy(database, query, features)
    started = time.perf_counter()
    for update in stream:
        maintainer.apply(update)
    elapsed = time.perf_counter() - started
    return maintainer, len(stream) / max(elapsed, 1e-9)


@pytest.mark.parametrize("strategy_name", list(STRATEGIES))
def test_figure4_right_ivm_throughput(benchmark, update_stream, strategy_name):
    database, query, features, stream = update_stream

    maintainer, throughput = benchmark.pedantic(
        _per_tuple_throughput,
        args=(STRATEGIES[strategy_name], database, query, features, stream),
        rounds=1,
        iterations=1,
    )
    print(
        f"\n=== Figure 4 (right) {strategy_name}: {throughput:,.0f} tuples/s "
        f"({len(stream)} inserts, {len(features)} features; "
        f"maintained count={maintainer.statistics().count:.0f})"
    )
    assert maintainer.statistics().count == len(database.relation("Inventory"))


def test_figure4_right_ordering(benchmark, update_stream):
    """The relative ordering of the three strategies on a common stream."""
    database, query, features, stream = update_stream

    def run_all():
        return {
            name: _per_tuple_throughput(strategy, database, query, features, stream)[1]
            for name, strategy in STRATEGIES.items()
        }

    throughputs = benchmark.pedantic(run_all, rounds=1, iterations=1)

    print(f"\n=== Figure 4 (right) ordering on a common {len(stream)}-insert stream ===")
    for name, value in sorted(throughputs.items(), key=lambda item: -item[1]):
        print(f"  {name:14s} {value:12,.0f} tuples/s")
    assert throughputs["fivm"] > throughputs["higher_order"] > throughputs["first_order"]


class FusedAtBatchOneFIVM(FIVM):
    """F-IVM without its per-tuple path: every update takes the fused pass.

    ``FIVM`` sends a batch that nets to fewer than two rows through
    ``_apply_update``; this is the maintainer that would be left if that path
    were deleted and ``apply(u)`` became ``apply_groups(net_updates([u]))``.
    """

    def apply(self, update):
        self.apply_batch([update])

    def _apply_groups_locked(self, groups):
        self._apply_multi_delta(groups)


def test_figure4_right_per_tuple_path_earns_its_keep(benchmark, update_stream):
    """``apply()`` against the fused pass at batch 1, on Figure 4's stream.

    The measurement that keeps ``FIVM._apply_update``, ``PayloadScratch`` and
    the three ``scratch_*`` kernels: both maintainers end bit-identical, and
    the per-tuple path has to stay well ahead of the fused pass driven one
    update at a time (x3.5 when this was written; the fused pass then runs
    about level with higher-order IVM, so Figure 4's ordering would rest on
    noise without the path).  If a later change makes the fused pass win at
    batch 1, this is the test that says the path can go.
    """
    database, query, features, stream = update_stream
    strategies = {"per_tuple": FIVM, "fused_at_batch_1": FusedAtBatchOneFIVM}

    def run():
        best = dict.fromkeys(strategies, 0.0)
        final = {}
        for _ in range(3):
            for name, strategy in strategies.items():
                final[name], throughput = _per_tuple_throughput(
                    strategy, database, query, features, stream
                )
                best[name] = max(best[name], throughput)
        higher_order = _per_tuple_throughput(HigherOrderIVM, database, query, features, stream)[1]
        return best, final, higher_order

    best, final, higher_order = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        f"\n=== Figure 4 (right) F-IVM at batch 1 ({len(stream)} inserts): "
        f"per-tuple path {best['per_tuple']:,.0f} tuples/s, fused pass "
        f"{best['fused_at_batch_1']:,.0f} tuples/s "
        f"({best['per_tuple'] / best['fused_at_batch_1']:.1f}x), "
        f"higher-order IVM {higher_order:,.0f} tuples/s"
    )
    assert final["fused_at_batch_1"].executor_stats["delta_passes"] == len(stream)
    assert final["per_tuple"].executor_stats.get("delta_passes", 0) == 0
    per_tuple, fused = (final[name].statistics() for name in strategies)
    assert per_tuple.count == fused.count
    assert np.array_equal(per_tuple.sums, fused.sums)
    assert np.array_equal(per_tuple.moments, fused.moments)
    assert best["per_tuple"] >= 1.5 * best["fused_at_batch_1"]


def _stream_with_deletes(database, seed, length):
    """Inserts drawn from ``database``, deletes of rows inserted earlier, and
    insert/delete pairs of one row back to back (the shape of
    ``tests/streams.py::random_update_stream``)."""
    rng = random.Random(seed)
    rows = {relation.name: list(relation) for relation in database}
    inserted = {name: [] for name in rows}
    updates = []
    for _ in range(length):
        name = rng.choice(list(rows))
        if inserted[name] and rng.random() < 0.3:
            row = inserted[name].pop(rng.randrange(len(inserted[name])))
            updates.append(Update(name, row, -1))
        else:
            row = rng.choice(rows[name])
            updates.append(Update(name, row, 1))
            if rng.random() < 0.2:
                updates.append(Update(name, row, -1))
            else:
                inserted[name].append(row)
    return updates


@pytest.mark.parametrize("strategy", [FirstOrderIVM, HigherOrderIVM])
def test_comparison_strategy_matches_recomputation(retailer_bench, strategy):
    """The comparison strategies maintain what a recomputation over their
    base relations finds — per tuple and through ``apply_batch`` alike."""
    database, query, spec = retailer_bench
    features = list(spec.continuous_features)[:4]
    stream = _stream_with_deletes(database, seed=23, length=500)
    assert any(update.multiplicity < 0 for update in stream)
    maintainer = strategy(database, query, features)
    for update in stream[:250]:
        maintainer.apply(update)
    maintainer.apply_batch(stream[250:])
    maintained, reference = maintainer.statistics(), maintainer.recompute_statistics()
    assert reference.count > 0
    assert np.isclose(maintained.count, reference.count, rtol=1e-9, atol=1e-6)
    assert np.allclose(maintained.sums, reference.sums, rtol=1e-9, atol=1e-6)
    assert np.allclose(maintained.moments, reference.moments, rtol=1e-9, atol=1e-6)


@pytest.mark.parametrize("batch_size", [100, 1000])
def test_figure4_right_batched_throughput(benchmark, update_stream, batch_size):
    """F-IVM's ``apply_batch`` vs its own per-tuple loop on the same stream.

    A batch is netted, grouped per relation and carried through the view
    tree in one fused, vectorised pass; the per-tuple loop is the seed
    architecture.  The batched path must not be slower, and is typically
    several times faster.
    """
    database, query, features, stream = update_stream

    def run():
        per_tuple = FIVM(database, query, features)
        started = time.perf_counter()
        for update in stream:
            per_tuple.apply(update)
        per_tuple_elapsed = time.perf_counter() - started

        batched = FIVM(database, query, features)
        started = time.perf_counter()
        for start in range(0, len(stream), batch_size):
            batched.apply_batch(stream[start : start + batch_size])
        batched_elapsed = time.perf_counter() - started
        return per_tuple, batched, per_tuple_elapsed, batched_elapsed

    per_tuple, batched, per_tuple_elapsed, batched_elapsed = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    speedup = per_tuple_elapsed / max(batched_elapsed, 1e-9)
    print(
        f"\n=== Figure 4 (right) F-IVM batched: batch={batch_size} "
        f"{len(stream) / max(batched_elapsed, 1e-9):,.0f} tuples/s vs per-tuple "
        f"{len(stream) / max(per_tuple_elapsed, 1e-9):,.0f} tuples/s "
        f"({speedup:.1f}x)"
    )
    # Both paths maintain the same statistics (the hard guarantee); the
    # timing assertion stays loose — single-round timings vary ~2x on noisy
    # machines.
    assert abs(per_tuple.statistics().count - batched.statistics().count) < 1e-6
    assert speedup > 0.5
