"""The concurrent serving layer, proven differentially (PR 7).

The headline suite: randomized N-reader/1-writer schedules where every
concurrent read must be **bit-identical** to a serial replay of the same
update prefix — not close, identical, because a pinned snapshot is by
construction an exact past state, and any tearing (a reader observing a
half-applied batch, a compaction moving rows under a pinned view, a netting
write mutating a pinned multiplicity) shows up as a bitwise mismatch long
before it would trip a tolerance.

Alongside the differential schedules: hypothesis property tests that
netting and a sweep executed under the pin can never change a pinned
snapshot, the threshold sweep running under a pin, the thread-safe stats
counters, and the maintainer's single-writer gate.

No ``pytest-timeout`` locally — every helper thread is joined with an
explicit timeout and asserted dead, so a deadlocked schedule fails instead
of hanging.
"""

from __future__ import annotations

import math
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregates import Aggregate, AggregateBatch, InequalityCondition, covariance_batch
from repro.data import Database, Relation, Schema
from repro.data.colstore import ColumnStore
from repro.data.tuplestore import (
    COMPACT_MIN_ZEROS,
    StatsCounters,
    reset_tuplestore_stats,
    tuplestore_stats,
)
from repro.datasets import retailer_database, retailer_query
from repro.engine import LMFAOEngine
from repro.ivm import FIVM, Update
from repro.serving import QueryServer, SnapshotManager
from repro.serving.metrics import ServingStats
from streams import random_row_events, random_update_stream

FEATURES = ["inventoryunits", "prize", "maxtemp"]
JOIN_TIMEOUT_S = 120.0
SCHEMA = Schema.from_names(["k", "v"], categorical_names=["k"])


@pytest.fixture(scope="module")
def serving_source():
    database = retailer_database(inventory_rows=120, stores=4, items=8, dates=6, seed=21)
    return database, retailer_query()


def _join_or_fail(threads):
    for thread in threads:
        thread.join(timeout=JOIN_TIMEOUT_S)
    stuck = [thread.name for thread in threads if thread.is_alive()]
    assert not stuck, f"deadlocked schedule: threads still alive: {stuck}"


def _payloads_identical(left, right):
    return (
        left.count == right.count
        and np.array_equal(left.sums, right.sums)
        and np.array_equal(left.moments, right.moments)
    )


def _serial_expectations(source, query, batches):
    """Replay the batch stream serially; record (statistics, values) per prefix.

    One maintainer and one engine advance batch by batch — the engine is
    rooted where the server's per-read engines are (at the maintainer's
    root), so the arithmetic on both sides is the same down to the last bit.
    """
    replay = FIVM(source, query, FEATURES)
    engine = LMFAOEngine(
        replay.database, query, root_relation=replay.join_tree.root.relation_name
    )
    batch = covariance_batch(FEATURES)
    expected = {0: (replay.statistics(), dict(engine.evaluate(batch).values))}
    for prefix, updates in enumerate(batches, start=1):
        replay.apply_batch(updates)
        expected[prefix] = (replay.statistics(), dict(engine.evaluate(batch).values))
    return expected


def _run_schedule(source, query, seed, readers=3, batch_size=10, length=140):
    """One randomized concurrent schedule; returns (reads, expected, server stats)."""
    stream = random_update_stream(source, seed=seed, length=length)
    batches = [stream[start : start + batch_size] for start in range(0, len(stream), batch_size)]
    maintainer = FIVM(source, query, FEATURES)
    server = QueryServer(maintainer, readers=readers)
    aggregate_batch = covariance_batch(FEATURES)
    results = []
    errors = []
    done = threading.Event()
    lock = threading.Lock()

    def reader(index):
        try:
            turn = 0
            while not done.is_set():
                if (turn + index) % 2 == 0:
                    read = server.query(aggregate_batch)
                else:
                    read = server.statistics()
                with lock:
                    results.append(read)
                turn += 1
            # One final read after the writer finished: must see the full
            # prefix (the last generation) and still compare bit-identical.
            read = server.statistics()
            with lock:
                results.append(read)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)
            done.set()

    def writer():
        try:
            for updates in batches:
                server.apply_batch(updates)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)
        finally:
            done.set()

    threads = [
        threading.Thread(target=reader, args=(index,), name=f"reader-{index}")
        for index in range(readers)
    ]
    threads.append(threading.Thread(target=writer, name="writer"))
    for thread in threads:
        thread.start()
    _join_or_fail(threads)
    assert not errors, f"schedule raised: {errors!r}"
    stats = server.serving_stats()
    server.close()
    expected = _serial_expectations(source, query, batches)
    return results, expected, stats, len(batches)


def _check_reads(results, expected):
    for read in results:
        want_statistics, want_values = expected[read.prefix]
        if read.kind == "statistics":
            assert _payloads_identical(read.value, want_statistics), (
                f"statistics read at prefix {read.prefix} is not bit-identical "
                f"to the serial replay"
            )
        else:
            assert read.value == want_values, (
                f"query read at prefix {read.prefix} is not bit-identical "
                f"to the serial replay"
            )


# -- the differential concurrency harness ----------------------------------------------


@pytest.mark.parametrize("seed", [101, 202, 303])
def test_concurrent_reads_bit_identical_to_serial_replay(serving_source, seed):
    source, query = serving_source
    results, expected, stats, batches = _run_schedule(source, query, seed)
    assert results, "schedule produced no reads"
    # Every read must land on a published prefix and match its replay exactly.
    assert all(0 <= read.prefix <= batches for read in results)
    _check_reads(results, expected)
    # The final post-writer reads must have observed the full prefix.
    assert max(read.prefix for read in results) == batches
    assert stats["reads"] == len(results)
    assert stats["writes"] == batches


def _pinned_items(relation):
    """The ``(row, multiplicity)`` pairs of a generation's relation, its rows
    decoded from the pinned codes."""
    snapshot = relation.column_store()
    return list(zip(snapshot.rows, snapshot.multiplicities.tolist()))


def test_snapshot_held_across_writes_stays_frozen(serving_source):
    """A generation pinned before a burst of writes answers from the past."""
    source, query = serving_source
    stream = random_update_stream(source, seed=55, length=120)
    maintainer = FIVM(source, query, FEATURES)
    server = QueryServer(maintainer, readers=2)
    server.apply_batch(stream[:40])
    held = server.manager.acquire()
    frozen_statistics = held.statistics.copy()
    frozen_items = {relation.name: dict(_pinned_items(relation)) for relation in held.database}
    for start in range(40, len(stream), 10):
        server.apply_batch(stream[start : start + 10])
    # The held generation is bitwise frozen: same payload, same rows.
    assert _payloads_identical(held.statistics, frozen_statistics)
    for relation in held.database:
        assert dict(_pinned_items(relation)) == frozen_items[relation.name]
    # Current reads meanwhile moved on to the full prefix.
    assert server.statistics().prefix == server.prefix
    server.manager.release(held)
    server.close()
    # All pins returned: the maintained stores can compact freely again.
    for relation in maintainer.database:
        assert relation._store.pins == 0


def test_manager_refcounts_and_retires_generations(serving_source):
    source, query = serving_source
    maintainer = FIVM(source, query, FEATURES)
    manager = SnapshotManager(maintainer.database)
    manager.publish(maintainer.statistics(), prefix=0)
    first = manager.acquire()
    maintainer.apply_batch(random_update_stream(source, seed=5, length=30))
    manager.publish(maintainer.statistics(), prefix=1)
    second = manager.acquire()
    assert second.generation != first.generation
    assert manager.active_generations == 2
    manager.release(first)           # superseded + last reader -> retired
    assert manager.active_generations == 1
    manager.release(second)          # current: stays pinned via the manager
    assert manager.active_generations == 1
    with pytest.raises(RuntimeError):
        manager.release(second)
    manager.close()
    for relation in maintainer.database:
        assert relation._store.pins == 0


# -- pinned snapshots vs netting and compaction ----------------------------------------


def _frozen_copy(snapshot):
    """Everything a reader can see of a snapshot, copied out."""
    return (
        np.asarray(snapshot.multiplicities).copy(),
        list(snapshot.rows[: snapshot.row_count]),
        [snapshot.encoding(name).codes.copy() for name in snapshot.schema.names],
        [
            [snapshot.encoding(name).values[code] for code in snapshot.encoding(name).codes]
            for name in snapshot.schema.names
        ],
    )


def _assert_frozen(snapshot, frozen):
    multiplicities, rows, codes, decoded = _frozen_copy(snapshot)
    assert np.array_equal(multiplicities, frozen[0]), (
        "netting tore a pinned multiplicity in place"
    )
    assert rows == frozen[1]
    assert all(np.array_equal(now, then) for now, then in zip(codes, frozen[2]))
    assert decoded == frozen[3]
    assert [tuple(values) for values in zip(*decoded)] == rows


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.booleans(),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=11),
            st.sampled_from([1, 1, -1, 2, -2]),
        ),
        max_size=80,
    ),
)
def test_pinned_snapshot_survives_netting_and_a_sweep_under_the_pin(
    seed, swept_first, later_events
):
    """Property: no post-pin mutation — netting, appends, a real sweep run
    while the pin is held, netting into the swept buffers — can change a
    pinned snapshot's multiplicities, codes or rows.  Both snapshot forms:
    the zero-copy alias (store swept first) and the gather over tombstones.
    """
    relation = Relation("R", SCHEMA)
    for row, multiplicity in random_row_events(seed % 1000, length=200):
        relation.add(row, multiplicity)
    if swept_first:
        relation.compact_storage()
    store = relation._store
    snapshot = relation.column_store()
    assert (store.zeros == 0) == np.shares_memory(
        snapshot.multiplicities, store.multiplicities_view()
    )
    relation.pin()
    try:
        universe = [(f"k{index % 6}", index % 4) for index in range(12)]
        frozen = _frozen_copy(snapshot)
        half = len(later_events) // 2
        for index, multiplicity in later_events[:half]:
            relation.add(universe[index], multiplicity)
        epoch, tombstones = store.epoch, store.zeros
        relation.compact_storage()      # a real sweep, pin or no pin
        assert store.zeros == 0
        assert store.epoch == epoch + (1 if tombstones else 0)
        _assert_frozen(snapshot, frozen)
        for index, multiplicity in later_events[half:]:
            relation.add(universe[index], multiplicity)
        _assert_frozen(snapshot, frozen)
    finally:
        relation.unpin()


def test_threshold_sweep_runs_under_a_pin():
    """The amortised sweep does not wait for readers: it replaces the
    store's arrays, so the generation pinned on the old ones stays frozen."""
    reset_tuplestore_stats()
    count = COMPACT_MIN_ZEROS * 4
    rows = [(f"k{index % 7}", index) for index in range(count)]
    relation = Relation("R", SCHEMA)
    relation.add_batch(rows, [1] * count)
    store = relation._store
    snapshot = relation.column_store()
    relation.pin()
    frozen = _frozen_copy(snapshot)
    epoch = store.epoch
    relation.add_batch(rows[::2], [-1] * (count // 2))   # half the store dies
    assert store.pins == 1
    assert store.epoch == epoch + 1, "the sweep waited for the pin"
    assert store.zeros == 0 and store.row_count == count // 2
    assert tuplestore_stats["compactions"] == 1
    # The netting detached the pinned multiplicity buffer before the sweep.
    assert tuplestore_stats["mult_copy_on_write"] == 1
    _assert_frozen(snapshot, frozen)
    assert dict(relation.items()) == {row: 1 for row in rows[1::2]}
    relation.unpin()
    assert store.epoch == epoch + 1     # unpin never runs physical work


def _relation_with_tombstones():
    """A store holding tombstones, too few to trigger the amortised sweep."""
    rows = [(f"k{index % 7}", index) for index in range(COMPACT_MIN_ZEROS * 2)]
    relation = Relation("R", SCHEMA)
    relation.add_batch(rows, [1] * len(rows))
    relation.add_batch(rows[1::5], [-1] * len(rows[1::5]))
    assert relation._store.zeros == len(rows[1::5]) < COMPACT_MIN_ZEROS
    return relation, rows


def test_a_generation_gathers_on_first_read_what_was_published():
    """Published over tombstones, a generation gathers nothing until read;
    read only after the writer netted deletes into its slots, swept and
    appended, it still equals a gather taken at publish."""
    relation, rows = _relation_with_tombstones()
    store = relation._store
    manager = SnapshotManager(Database([relation]))
    published = manager.publish().database.relation("R").column_store()
    eager = _frozen_copy(ColumnStore.from_tuplestore("R", SCHEMA, store))
    assert published._dense is None and published._rows is None
    relation.add_batch(rows[::5], [-1] * len(rows[::5]))   # deaths in pinned slots
    relation.add_batch(rows[2::5], [2] * len(rows[2::5]))  # netting that stays live
    relation.compact_storage()
    relation.add_batch([("new", index) for index in range(9)], [1] * 9)
    assert store.zeros == 0 and store.epoch == 1
    _assert_frozen(published, eager)
    manager.close()


def test_racing_first_reads_of_a_generation_see_identical_arrays():
    relation, rows = _relation_with_tombstones()
    manager = SnapshotManager(Database([relation]))
    for round_ in range(20):
        snapshot = manager.publish(prefix=round_).database.relation("R").column_store()
        assert snapshot._dense is None
        start = threading.Barrier(2)
        seen = []

        def first_read():
            start.wait()
            seen.append(_frozen_copy(snapshot))

        readers = [threading.Thread(target=first_read, name=f"first-read-{i}") for i in range(2)]
        for reader in readers:
            reader.start()
        _join_or_fail(readers)
        for frozen in seen:
            _assert_frozen(snapshot, frozen)
        relation.add_batch([("race", round_)], [1])       # the next generation differs
    manager.close()


def test_an_unread_generation_never_gathers(monkeypatch):
    gathered = []
    gather = ColumnStore._gathered

    def spy(snapshot):
        if snapshot._dense is None:
            gathered.append(snapshot)
        return gather(snapshot)

    monkeypatch.setattr(ColumnStore, "_gathered", spy)
    relation, _rows = _relation_with_tombstones()
    manager = SnapshotManager(Database([relation]))
    unread = manager.publish(prefix=1).database.relation("R").column_store()
    relation.add_batch([("late", 0)], [1])
    read = manager.publish(prefix=2)
    assert manager.active_generations == 1, "the unread generation was not retired"
    assert gathered == []
    snapshot = manager.acquire()
    assert snapshot is read
    assert dict(_pinned_items(snapshot.database.relation("R")))[("late", 0)] == 1
    manager.release(snapshot)
    assert gathered == [read.database.relation("R").column_store()]
    assert unread._dense is None
    manager.close()


def _typed_items(items):
    """Rows with each value's type and, for a float, its sign."""
    return [
        (row, multiplicity, [(type(value), math.copysign(1.0, value) if isinstance(value, float)
                              else None) for value in row])
        for row, multiplicity in items
    ]


def test_a_reader_decodes_a_pinned_generation_while_the_writer_appends():
    """A reader thread decodes the rows of each pinned generation while
    the writer appends rows, among them values that add per-column
    exceptions (an ``int`` under the entry ``1.0``, ``-0.0`` under ``0.0``)
    to the exception tables the reader's decode copies: every read equals
    the rows, types and signs the writer saw when it published."""
    relation = Relation("R", SCHEMA)
    relation.add_batch([("a", 1.0), ("b", 0.0), ("c", 2.5)], [1, 1, 1])
    manager = SnapshotManager(Database([relation]))
    expected = {0: _typed_items(relation.items())}
    manager.publish(prefix=0)
    stop = threading.Event()
    mismatches, reads = [], []

    def reader():
        while not stop.is_set():
            held = manager.acquire()
            try:
                seen = _typed_items(_pinned_items(held.database.relation("R")))
                if seen != expected[held.prefix]:
                    mismatches.append(held.prefix)
                reads.append(held.prefix)
            except Exception as error:      # noqa: BLE001 - reported below
                mismatches.append(repr(error))
            finally:
                manager.release(held)

    thread = threading.Thread(target=reader, name="decoding-reader")
    thread.start()
    try:
        for step in range(1, 400):
            value = (1, -0.0, float(step))[step % 3]
            relation.add_batch([(f"k{step}", value), (f"j{step}", value)], [1, 1])
            expected[step] = _typed_items(relation.items())
            manager.publish(prefix=step)
    finally:
        stop.set()
        _join_or_fail([thread])
    assert mismatches == [] and len(set(reads)) > 1
    exceptions = relation.store.encoded_columns()[1][2]
    assert {type(value) for value in exceptions.values()} == {int, float}
    manager.close()


def test_snapshot_age_is_never_negative(serving_source):
    """A generation published between a read's start and its pin is not
    younger than the read: the age is stamped after the pin."""
    source, query = serving_source
    server = QueryServer(FIVM(source, query, FEATURES), readers=1)
    stream = random_update_stream(source, seed=17, length=20)
    acquire = server.manager.acquire

    def acquire_after_a_publish():
        server.apply_batch(stream)
        return acquire()

    server.manager.acquire = acquire_after_a_publish
    read = server.statistics()
    server.close()
    assert read.prefix == 1
    assert read.snapshot_age_s >= 0
    results, _expected, stats, _batches = _run_schedule(source, query, seed=505)
    assert all(read.snapshot_age_s >= 0 for read in results)
    assert stats["snapshot_age_p50_s"] >= 0


# -- stats counters and the single-writer gate -----------------------------------------


def test_stats_counters_are_thread_safe():
    counters = StatsCounters({"hits": 0})
    threads_n, bumps = 8, 5000

    def hammer():
        for _ in range(bumps):
            counters.bump("hits")
            counters.bump("misses", 2)

    threads = [threading.Thread(target=hammer, name=f"bump-{i}") for i in range(threads_n)]
    for thread in threads:
        thread.start()
    _join_or_fail(threads)
    assert counters["hits"] == threads_n * bumps
    assert counters["misses"] == 2 * threads_n * bumps


def test_tuplestore_stats_is_a_stats_counters():
    assert isinstance(tuplestore_stats, StatsCounters)


def test_concurrent_writers_are_rejected(serving_source):
    source, query = serving_source

    entered = threading.Event()
    release = threading.Event()

    class _SlowFIVM(FIVM):
        def _apply_multi_delta(self, groups):
            entered.set()
            assert release.wait(timeout=JOIN_TIMEOUT_S)
            super()._apply_multi_delta(groups)

    maintainer = _SlowFIVM(source, query, FEATURES)
    stream = random_update_stream(source, seed=77, length=20)
    failure = []

    def writer():
        try:
            maintainer.apply_batch(stream)
        except Exception as exc:  # pragma: no cover - failure path
            failure.append(exc)

    thread = threading.Thread(target=writer, name="writer")
    thread.start()
    try:
        assert entered.wait(timeout=JOIN_TIMEOUT_S)
        with pytest.raises(RuntimeError, match="single-writer"):
            maintainer.apply(stream[0])
        with pytest.raises(RuntimeError, match="single-writer"):
            maintainer.apply_batch(stream[:5])
    finally:
        release.set()
        _join_or_fail([thread])
    assert not failure
    # The gate releases cleanly: the same (single) writer can continue.
    release.set()
    entered.clear()
    maintainer.apply(stream[0])


# -- serving metrics -------------------------------------------------------------------


def test_serving_stats_block_shape(serving_source):
    source, query = serving_source
    maintainer = FIVM(source, query, FEATURES)
    with QueryServer(maintainer, readers=2) as server:
        server.apply_batch(random_update_stream(source, seed=31, length=30))
        batch = covariance_batch(FEATURES)
        for _ in range(6):
            server.query(batch)
            server.statistics()
        block = server.serving_stats()
    for key in (
        "reads", "writes", "read_latency_p50_s", "read_latency_p99_s",
        "snapshot_age_p50_s", "snapshot_age_max_s", "writer_batch_lag_p50_s",
        "writer_batch_lag_p99_s", "reads_per_epoch_mean", "reads_per_epoch_max",
        "active_generations", "current_generation", "current_prefix",
    ):
        assert key in block, f"serving_stats missing {key!r}"
    assert block["reads"] == 12
    assert block["writes"] == 1
    assert block["read_latency_p99_s"] >= block["read_latency_p50_s"] >= 0.0
    assert block["reads_per_epoch_max"] >= block["reads_per_epoch_mean"] > 0


def test_readers_recompute_stale_views_and_stay_single_threaded(serving_source, monkeypatch):
    """What the reader engines must do without being configured to.

    Every read computes every view its plan needs — nothing is kept from an
    earlier generation but what lives on the snapshots it shares with it —
    by an engine rooted at the maintainer's root, on the reader pool's own
    thread.
    """
    source, query = serving_source
    reader_stats, reader_roots, reader_threads = [], set(), set()
    evaluate = LMFAOEngine.evaluate

    def recording_evaluate(self, batch):
        result = evaluate(self, batch)
        reader_stats.append((dict(result.executor_stats), result.views_computed))
        reader_roots.add(self.join_tree.root.relation_name)
        reader_threads.add(threading.current_thread().name.rsplit("_", 1)[0])
        return result

    monkeypatch.setattr(LMFAOEngine, "evaluate", recording_evaluate)
    maintainer = FIVM(source, query, FEATURES)
    stream = random_update_stream(source, seed=37, length=40)
    batch = covariance_batch(FEATURES)
    with QueryServer(maintainer, readers=1) as server:
        generations = set()
        for start in range(0, len(stream), 10):
            server.apply_batch(stream[start : start + 10])
            generations.add(server.query(batch).generation)
    assert len(generations) >= 3
    assert len(reader_stats) == len(generations)
    assert reader_roots == {maintainer.join_tree.root.relation_name}
    assert reader_threads == {"serving-reader"}
    for stats, planned in reader_stats:
        assert set(stats) == {"views_columnar", "view_pipelines"}
        assert stats["views_columnar"] == planned > 0


def _loaded_retailer_maintainer(maintainer_class=FIVM):
    database = retailer_database(inventory_rows=300, seed=1)
    maintainer = maintainer_class(database, retailer_query(), FEATURES)
    maintainer.apply_batch(
        [
            Update(relation.name, row, count)
            for relation in database
            for row, count in relation.items()
        ]
    )
    return maintainer


def test_a_served_inequality_aggregate_is_evaluated_over_the_pinned_snapshot():
    """The engine's join fallback for additive inequalities reads a snapshot too."""
    maintainer = _loaded_retailer_maintainer()
    cheap = InequalityCondition.of({"prize": 1.0}, 100.0)
    batch = AggregateBatch(
        "inequalities",
        [
            Aggregate.count(name="rows"),
            Aggregate(product=(), group_by=(), filters=(), inequality=cheap, name="dear"),
            Aggregate(
                product=("inventoryunits",), group_by=(), filters=(), inequality=cheap,
                name="dear_units",
            ),
        ],
    )
    expected = LMFAOEngine(maintainer.database, maintainer.query).evaluate(batch).values
    assert 0 < expected["dear"] < expected["rows"]
    with QueryServer(maintainer, readers=1) as server:
        assert server.query(batch).value == expected


def test_close_during_an_inflight_batch_leaves_no_generation_pinned():
    """close() waits for the writer, so the batch's generation is retired too."""
    armed = threading.Event()
    release = threading.Event()

    class _BlockingFIVM(FIVM):
        def _apply_multi_delta(self, groups):
            if armed.is_set():
                assert release.wait(timeout=JOIN_TIMEOUT_S)
            super()._apply_multi_delta(groups)

    maintainer = _loaded_retailer_maintainer(_BlockingFIVM)
    server = QueryServer(maintainer, readers=1)
    stream = random_update_stream(maintainer.database, seed=5, length=20)
    armed.set()
    writer = threading.Thread(target=server.apply_batch, args=(stream,), name="writer")
    closer = threading.Thread(target=server.close, name="closer")
    writer.start()
    while not server._writer_lock.locked():
        time.sleep(0.001)
    closer.start()
    closer.join(timeout=0.2)
    release.set()
    _join_or_fail([writer, closer])
    assert server.manager.active_generations == 0
    assert all(relation.store.pins == 0 for relation in maintainer.database)
    with pytest.raises(RuntimeError, match="closed"):
        server.apply_batch(stream)


def test_reads_per_generation_keep_a_window_and_a_running_total():
    stats = ServingStats(window=4)
    for generation in range(10):
        for _ in range(generation % 3 + 1):
            stats.record_read(generation, 0.001, 0.0)
    block = stats.snapshot()
    assert block["reads"] == sum(generation % 3 + 1 for generation in range(10))
    assert block["generations_read"] == 10
    assert len(stats._reads_per_generation) == 4
    # Generations 6-9 read 1, 2, 3 and 1 times.
    assert block["reads_per_epoch_max"] == 3
    assert block["reads_per_epoch_mean"] == pytest.approx(7 / 4)
