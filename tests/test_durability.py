"""The durability subsystem in-process: journal, checkpoints, quarantine, pins.

The crash half of the story (kill -9 at every labeled fault point) lives in
``test_fault_matrix.py``; this module covers everything provable without
leaving the process: journal framing round-trips (hypothesis), torn-tail
truncation, abort records, checkpoint atomicity and corruption tolerance,
the ``apply_batch ≡ net_updates + apply_groups`` bit-identity the journal
relies on, recovery equivalence, the all-or-nothing batch contract, the
exception-safe writer gate, poison-batch quarantine through the server, and
reader pin/error isolation.
"""

import os
import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import retailer_database, retailer_query
from repro.durability import (
    BatchJournal,
    CheckpointStore,
    DurabilityOptions,
    FaultInjected,
    FaultPlan,
    FaultSpec,
    JournalError,
    clear_fault_plan,
    decode_record,
    encode_record,
    install_fault_plan,
    recover,
)
from repro.durability.journal import FILE_MAGIC, KIND_ABORT, KIND_BATCH
from repro.ivm import FIVM, CovarianceMaintainer, Update
from repro.serving import PoisonBatchError, QueryServer
from streams import random_update_stream

FEATURES = ["inventoryunits", "prize", "maxtemp"]


@pytest.fixture(scope="module")
def source():
    database = retailer_database(inventory_rows=120, stores=4, items=8, dates=6, seed=21)
    return database, retailer_query()


@pytest.fixture(autouse=True)
def _no_fault_plan():
    clear_fault_plan()
    yield
    clear_fault_plan()


def _payloads_equal(left, right):
    return (
        left.count == right.count
        and np.array_equal(left.sums, right.sums)
        and np.array_equal(left.moments, right.moments)
    )


def _groups(*entries):
    return [(name, list(rows), list(mults)) for name, rows, mults in entries]


# -- journal framing -------------------------------------------------------------------


def test_journal_append_and_replay(tmp_path):
    path = tmp_path / "journal.wal"
    groups = _groups(("R", [(1, 2), (3, 4)], [1, -1]), ("S", [("a",)], [2]))
    with BatchJournal(path, sync="fsync") as journal:
        assert journal.last_seq == -1
        assert journal.append(groups) == 0
        assert journal.append(groups) == 1
        assert journal.last_seq == 1
    with BatchJournal(path, sync="none") as journal:
        records = list(journal.replay())
        assert [record.seq for record in records] == [0, 1]
        assert records[0].groups == groups
        assert journal.last_seq == 1
        assert journal.next_seq == 2


def test_journal_replay_after_seq_and_aborts(tmp_path):
    path = tmp_path / "journal.wal"
    with BatchJournal(path) as journal:
        for value in range(4):
            journal.append(_groups(("R", [(value,)], [1])))
        journal.abort(2)
        assert journal.last_seq == 3
        assert [record.seq for record in journal.replay()] == [0, 1, 3]
        assert [record.seq for record in journal.replay(after_seq=1)] == [3]
    # Abort records survive reopen.
    with BatchJournal(path) as journal:
        assert [record.seq for record in journal.replay()] == [0, 1, 3]


def test_journal_abort_of_latest_batch_rolls_last_seq_back(tmp_path):
    with BatchJournal(tmp_path / "journal.wal") as journal:
        journal.append(_groups(("R", [(1,)], [1])))
        seq = journal.append(_groups(("R", [(2,)], [1])))
        journal.abort(seq)
        assert journal.last_seq == 0


@pytest.mark.parametrize("cut", [1, 5, 12, 16, 17])
def test_journal_torn_tail_truncates(tmp_path, cut):
    path = tmp_path / "journal.wal"
    with BatchJournal(path, sync="fsync") as journal:
        journal.append(_groups(("R", [(1, "x")], [1])))
        journal.append(_groups(("R", [(2, "y")], [-1])))
    raw = path.read_bytes()
    path.write_bytes(raw[:-cut])
    journal = BatchJournal(path)
    try:
        assert journal.truncated_bytes > 0
        assert journal.last_seq == 0
        assert [record.seq for record in journal.replay()] == [0]
        # The journal is append-ready again at the truncation point.
        journal.append(_groups(("S", [(3,)], [1])))
        assert [record.seq for record in journal.replay()] == [0, 1]
    finally:
        journal.close()


def test_journal_corrupt_middle_record_drops_the_rest(tmp_path):
    path = tmp_path / "journal.wal"
    with BatchJournal(path, sync="fsync") as journal:
        first = journal.append(_groups(("R", [(1,)], [1])))
        journal.append(_groups(("R", [(2,)], [1])))
    raw = bytearray(path.read_bytes())
    # Flip one payload byte of the second record (the tail byte).
    raw[-1] ^= 0xFF
    path.write_bytes(bytes(raw))
    with BatchJournal(path) as journal:
        assert journal.last_seq == first
        assert [record.seq for record in journal.replay()] == [first]


def test_journal_rejects_foreign_file_and_bad_sync(tmp_path):
    path = tmp_path / "not-a-journal"
    path.write_bytes(b"BOGUS!!!" + b"\x00" * 32)
    with pytest.raises(JournalError, match="magic"):
        BatchJournal(path)
    with pytest.raises(JournalError, match="sync"):
        BatchJournal(tmp_path / "journal.wal", sync="sometimes")


@settings(max_examples=50, deadline=None)
@given(
    seq=st.integers(min_value=0, max_value=2**63 - 1),
    groups=st.lists(
        st.tuples(
            st.text(min_size=1, max_size=8),
            st.lists(
                st.tuples(
                    st.integers(min_value=-(2**31), max_value=2**31),
                    st.text(max_size=6),
                ),
                min_size=1,
                max_size=5,
            ),
        ),
        max_size=4,
    ),
)
def test_journal_record_roundtrip(seq, groups):
    """encode_record/decode_record invert each other for any batch payload."""
    batch = [
        (name, rows, [1] * len(rows)) for name, rows in groups
    ]
    payload = pickle.dumps(batch, protocol=4)
    framed = encode_record(seq, KIND_BATCH, payload)
    decoded = decode_record(framed, 0)
    assert decoded is not None
    record, offset = decoded
    assert offset == len(framed)
    assert record.seq == seq
    assert record.kind == KIND_BATCH
    assert record.groups == batch
    # Any strict prefix is a torn tail, never a parse error.
    for cut in (1, len(framed) // 2, len(framed) - 1):
        assert decode_record(framed[:cut], 0) is None


def test_decode_record_rejects_unknown_kind_and_bad_abort_length():
    framed = encode_record(0, 7, b"payload")
    assert decode_record(framed, 0) is None
    framed = encode_record(0, KIND_ABORT, b"short")
    assert decode_record(framed, 0) is None
    framed = encode_record(3, KIND_ABORT, struct.pack("<Q", 2))
    record, _offset = decode_record(framed, 0)
    assert record.aborts == 2 and not record.is_batch


# -- checkpoints -----------------------------------------------------------------------


def test_checkpoint_write_load_and_prune(tmp_path, source):
    database, query = source
    maintainer = FIVM(database, query, FEATURES)
    maintainer.apply_batch(random_update_stream(database, seed=3, length=60))
    store = CheckpointStore(tmp_path, keep=2)
    for step, seq in enumerate([0, 5, 9]):
        store.write(maintainer, seq, prefix=step + 1)
    assert len(store.checkpoints()) == 2  # pruned to keep=2
    loaded = store.latest()
    assert loaded is not None
    assert loaded.seq == 9 and loaded.prefix == 3
    assert _payloads_equal(loaded.maintainer.statistics(), maintainer.statistics())
    # The restored maintainer is immediately writable (fresh writer gate).
    loaded.maintainer.apply(Update("Inventory", next(iter(database.relation("Inventory"))), 1))


def test_checkpoint_latest_skips_corrupt_files(tmp_path, source):
    database, query = source
    maintainer = FIVM(database, query, FEATURES)
    store = CheckpointStore(tmp_path, keep=4)
    store.write(maintainer, 1, prefix=1)
    maintainer.apply_batch(random_update_stream(database, seed=4, length=40))
    good = maintainer.statistics()
    newest = store.write(maintainer, 7, prefix=2)
    # Corrupt the newest file: latest() must fall back to the previous one.
    raw = bytearray(newest.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    newest.write_bytes(bytes(raw))
    loaded = store.latest()
    assert loaded is not None and loaded.seq == 1
    assert not _payloads_equal(loaded.maintainer.statistics(), good)
    # A stray .tmp from a crashed write is invisible to loaders.
    (tmp_path / "checkpoint-000000000099.tmp").write_bytes(b"garbage")
    assert store.latest().seq == 1


def test_checkpoint_pickle_sheds_process_local_state(source):
    database, query = source
    maintainer = FIVM(database, query, FEATURES)
    maintainer.apply_batch(random_update_stream(database, seed=8, length=50))
    relation = maintainer.database.relation("Inventory")
    relation.pin()  # a reader holds a snapshot while we checkpoint
    try:
        relation.column_store()  # populate the zero-copy cache
        clone = pickle.loads(pickle.dumps(maintainer, protocol=4))
    finally:
        relation.unpin()
    restored = clone.database.relation("Inventory")
    assert restored._store.pins == 0
    assert restored._column_store is None
    # Slot maps are caches over stores and views: not in the file.
    assert maintainer._slot_maps and not clone._slot_maps
    assert _payloads_equal(clone.statistics(), maintainer.statistics())
    # Derived structures are absent from the pickled state, not merely equal
    # after the load: each class names what it persists.  A key index holds
    # its columns and, for a combination, the numbering (one code array per
    # column); codes and buckets are rebuilt.
    index_states = [
        index.__getstate__()
        for other in maintainer.database
        for index in other.store.__getstate__()["_indexes"].values()
    ]
    assert index_states and all(set(state) == {"positions", "parts"} for state in index_states)
    assert sorted(len(state["parts"]) for state in index_states) == [0, 0, 0, 0, 2, 2]
    for view in maintainer._views.values():
        state = view.__getstate__()
        assert "_slots" not in state and len(state["counts"]) == len(view)
    state = relation._store.__getstate__()
    assert not {"_row_index", "pins"} & set(state)
    blob = pickle.dumps(maintainer, protocol=4)
    for name in (b"order", b"starts", b"_slots", b"_row_index"):
        assert name not in blob


# -- the grouped apply path ------------------------------------------------------------


class _PerTupleFIVM(FIVM):
    """No fused-pass override: every batch takes the per-tuple fallback."""

    _apply_multi_delta = CovarianceMaintainer._apply_multi_delta


@pytest.mark.parametrize("strategy", [FIVM, _PerTupleFIVM])
def test_apply_groups_bit_identical_to_apply_batch(source, strategy):
    """The journal's replay contract: netting + grouped apply retraces
    apply_batch exactly, float for float — on the fused pass and on the
    per-tuple fallback alike."""
    database, query = source
    stream = random_update_stream(database, seed=97, length=200, cancel_fraction=0.4)
    direct = strategy(database, query, FEATURES)
    replayed = strategy(database, query, FEATURES)
    for start in range(0, len(stream), 30):
        batch = stream[start : start + 30]
        direct.apply_batch(batch)
        replayed.apply_groups(replayed.net_updates(batch))
    assert _payloads_equal(direct.statistics(), replayed.statistics())
    assert direct.database.relation("Inventory") == replayed.database.relation("Inventory")


def test_recover_matches_uninterrupted_run(tmp_path, source):
    database, query = source
    stream = random_update_stream(database, seed=41, length=240, cancel_fraction=0.3)
    batches = [stream[start : start + 20] for start in range(0, len(stream), 20)]
    opts = DurabilityOptions(tmp_path, sync="fsync", checkpoint_interval=4)
    journal = BatchJournal(opts.journal_path, sync="fsync")
    store = CheckpointStore(tmp_path)
    maintainer = FIVM(database, query, FEATURES)
    store.write(maintainer, -1, prefix=0)
    for position, batch in enumerate(batches):
        groups = maintainer.net_updates(batch)
        seq = journal.append(groups)
        maintainer.apply_groups(groups)
        if (position + 1) % 4 == 0:
            store.write(maintainer, seq, prefix=position + 1)
    journal.close()
    result = recover(opts)
    assert result.prefix == len(batches)
    assert result.quarantined == []
    assert _payloads_equal(result.maintainer.statistics(), maintainer.statistics())


def test_dimension_update_right_after_recover_reads_rebuilt_slot_maps(tmp_path, source):
    """A checkpoint carries no slot maps; the first hop after ``recover()``
    rebuilds them from the stores and views and lands bit for bit where the
    process that never stopped does."""
    database, query = source
    stream = random_update_stream(database, seed=43, length=160, cancel_fraction=0.3)
    opts = DurabilityOptions(tmp_path, sync="fsync")
    journal = BatchJournal(opts.journal_path, sync="fsync")
    maintainer = FIVM(database, query, FEATURES)
    for start in range(0, len(stream), 40):
        groups = maintainer.net_updates(stream[start : start + 40])
        seq = journal.append(groups)
        maintainer.apply_groups(groups)
    CheckpointStore(tmp_path).write(maintainer, seq, prefix=4)
    journal.close()
    recovered = recover(opts).maintainer
    assert maintainer._slot_maps and not recovered._slot_maps
    item = next(iter(database.relation("Items")))
    store = next(iter(database.relation("Stores")))
    repriced = item[:-1] + (item[-1] + 1.0,)
    for batch in (
        [Update("Items", item, -1), Update("Items", repriced, 1)],
        [Update("Stores", store, -1), Update("Items", repriced, -1)],
        [Update("Stores", store, 1), Update("Items", item, 1)] + stream[:30],
    ):
        maintainer.apply_batch(batch)
        recovered.apply_batch(batch)
        assert _payloads_equal(recovered.statistics(), maintainer.statistics())
    assert recovered._slot_maps and recovered._slot_maps.keys() <= maintainer._slot_maps.keys()
    for pair, slot_map in recovered._slot_maps.items():
        assert slot_map.lookup().tolist() == maintainer._slot_maps[pair].lookup().tolist()


def test_recover_without_checkpoint_needs_factory(tmp_path, source):
    database, query = source
    opts = DurabilityOptions(tmp_path)
    maintainer = FIVM(database, query, FEATURES)
    batch = random_update_stream(database, seed=6, length=30)
    with BatchJournal(opts.journal_path) as journal:
        groups = maintainer.net_updates(batch)
        journal.append(groups)
        maintainer.apply_groups(groups)
    with pytest.raises(JournalError, match="maintainer_factory"):
        recover(opts)
    result = recover(opts, maintainer_factory=lambda: FIVM(database, query, FEATURES))
    assert result.checkpoint_seq == -1 and result.replayed_batches == 1
    assert _payloads_equal(result.maintainer.statistics(), maintainer.statistics())


def test_recover_quarantines_poison_journal_record(tmp_path, source):
    """A journaled batch whose replay raises (no abort record survived) is
    excluded and the replay restarted — later batches still land."""
    database, query = source
    opts = DurabilityOptions(tmp_path)
    maintainer = FIVM(database, query, FEATURES)
    store = CheckpointStore(tmp_path)
    store.write(maintainer, -1, prefix=0)
    good = random_update_stream(database, seed=12, length=40)
    row = next(iter(database.relation("Inventory")))
    poison_row = row[:-1] + ("poison",)
    with BatchJournal(opts.journal_path) as journal:
        groups = maintainer.net_updates(good[:20])
        journal.append(groups)
        maintainer.apply_groups(groups)
        journal.append([("Inventory", [poison_row, row], [1, 1])])
        groups = maintainer.net_updates(good[20:])
        journal.append(groups)
        maintainer.apply_groups(groups)
    result = recover(opts)
    assert result.quarantined == [1]
    assert result.replayed_batches == 2
    assert _payloads_equal(result.maintainer.statistics(), maintainer.statistics())


# -- the fault harness -----------------------------------------------------------------


def test_fault_plan_fires_on_nth_call():
    plan = FaultPlan([FaultSpec("journal.append", at_call=3)])
    install_fault_plan(plan)
    from repro.durability.faults import fault_point

    fault_point("journal.append")
    fault_point("journal.append")
    fault_point("checkpoint.write")  # other labels count independently
    with pytest.raises(FaultInjected) as excinfo:
        fault_point("journal.append")
    assert excinfo.value.point == "journal.append" and excinfo.value.call == 3
    # Fires exactly once.
    fault_point("journal.append")
    assert plan.calls == {"journal.append": 4, "checkpoint.write": 1}
    assert plan.fired == [("journal.append", 3)]


def test_fault_spec_validation():
    with pytest.raises(ValueError, match="action"):
        FaultSpec("journal.append", action="explode")
    with pytest.raises(ValueError, match="at_call"):
        FaultSpec("journal.append", at_call=0)


def test_injected_journal_fault_leaves_no_record(tmp_path):
    install_fault_plan(FaultPlan([FaultSpec("journal.append", at_call=2)]))
    with BatchJournal(tmp_path / "journal.wal", sync="fsync") as journal:
        journal.append(_groups(("R", [(1,)], [1])))
        with pytest.raises(FaultInjected):
            journal.append(_groups(("R", [(2,)], [1])))
        assert journal.last_seq == 0
    clear_fault_plan()
    with BatchJournal(tmp_path / "journal.wal") as journal:
        assert [record.seq for record in journal.replay()] == [0]


# -- all-or-nothing batches & the writer gate (satellites 1 + 2) -----------------------


@pytest.mark.parametrize("force_per_tuple", [False, True])
def test_poisoned_batch_leaves_maintainer_untouched(source, force_per_tuple):
    """Validation failure anywhere in a batch must be all-or-nothing, on the
    batched path and on the per-tuple fallback alike."""
    database, query = source
    maintainer = (_PerTupleFIVM if force_per_tuple else FIVM)(database, query, FEATURES)
    maintainer.apply_batch(random_update_stream(database, seed=7, length=60))
    assert ("delta_passes" in maintainer.executor_stats) != force_per_tuple
    before = maintainer.statistics()
    inventory_before = maintainer.database.relation("Inventory").copy()
    good = random_update_stream(database, seed=8, length=20)
    poisoned = good[:10] + [Update("Inventory", (1, 2), 1)] + good[10:]
    with pytest.raises(ValueError, match="arity"):
        maintainer.apply_batch(poisoned)
    # Bit-identical pre-batch state: nothing was applied.
    assert _payloads_equal(maintainer.statistics(), before)
    assert maintainer.database.relation("Inventory") == inventory_before
    # ...and still queryable/writable: the gate was not wedged.
    maintainer.apply_batch(good)
    assert _payloads_equal(maintainer.statistics(), maintainer.recompute_statistics())


def test_raising_batch_does_not_wedge_the_writer_gate(source):
    """A propagation-level raise (not just validation) releases the gate."""
    database, query = source
    maintainer = FIVM(database, query, FEATURES)
    maintainer.apply_batch(random_update_stream(database, seed=9, length=40))
    row = next(iter(database.relation("Inventory")))
    poison_row = row[:-1] + ("poison",)  # passes arity, fails float lift
    with pytest.raises(Exception):
        maintainer.apply_batch([Update("Inventory", poison_row, 1), Update("Inventory", row, 1)])
    # The gate must be free again — a wedged gate raises "single-writer".
    maintainer.apply_batch(random_update_stream(database, seed=10, length=20))


# -- the server: quarantine, read errors, pin leaks ------------------------------------


def _server_source():
    database = retailer_database(inventory_rows=120, stores=4, items=8, dates=6, seed=21)
    return database, retailer_query()


def test_server_quarantines_poison_batch_with_durability(tmp_path):
    database, query = _server_source()
    stream = random_update_stream(database, seed=31, length=150)
    batches = [stream[start : start + 25] for start in range(0, len(stream), 25)]
    opts = DurabilityOptions(tmp_path, sync="batch", checkpoint_interval=2)
    with QueryServer(FIVM(database, query, FEATURES), durability=opts, readers=2) as server:
        for batch in batches[:3]:
            server.apply_batch(batch)
        before = server.statistics().value
        generations_before = server.manager.published_generations
        row = next(iter(database.relation("Inventory")))
        poison = batches[3][:5] + [Update("Inventory", row[:-1] + ("poison",), 1)]
        with pytest.raises(PoisonBatchError) as excinfo:
            server.apply_batch(poison)
        assert excinfo.value.seq == 3
        # Rolled back bit-identically; snapshot stream untouched.
        assert _payloads_equal(server.statistics().value, before)
        assert server.manager.published_generations == generations_before
        assert server.serving_stats()["quarantined_batches"] == 1
        # The writer is not wedged and later batches land on the recovered state.
        for batch in batches[3:]:
            server.apply_batch(batch)
        final = server.statistics().value
        reference = FIVM(database, query, FEATURES)
        for batch in batches:
            reference.apply_batch(batch)
        assert _payloads_equal(final, reference.statistics())


def test_server_quarantines_invalid_batch_without_durability():
    database, query = _server_source()
    with QueryServer(FIVM(database, query, FEATURES), readers=2) as server:
        server.apply_batch(random_update_stream(database, seed=33, length=40))
        before = server.statistics().value
        with pytest.raises(PoisonBatchError) as excinfo:
            server.apply_batch([Update("Inventory", (1,), 1)])
        assert excinfo.value.seq == -1
        assert _payloads_equal(server.statistics().value, before)
        stats = server.serving_stats()
        assert stats["quarantined_batches"] == 1
        assert stats["durability_enabled"] is False
        server.apply_batch(random_update_stream(database, seed=34, length=20))


def test_reader_exception_releases_pin_and_counts(tmp_path):
    """Satellite 3: a raising read must not leak its generation pin."""
    database, query = _server_source()
    from repro.aggregates import covariance_batch

    with QueryServer(FIVM(database, query, FEATURES), readers=2) as server:
        server.apply_batch(random_update_stream(database, seed=35, length=40))
        batch = covariance_batch(FEATURES, [])
        server.query(batch)  # warm: one healthy read
        baseline_active = server.manager.active_generations
        install_fault_plan(FaultPlan([FaultSpec("reader.query", at_call=1)]))
        with pytest.raises(FaultInjected):
            server.query(batch)
        clear_fault_plan()
        stats = server.serving_stats()
        assert stats["read_errors"] == 1
        # The pin was released in the finally: active generations unchanged,
        # and the writer can retire the generation by superseding it.
        assert server.manager.active_generations == baseline_active
        server.apply_batch(random_update_stream(database, seed=36, length=30))
        server.query(batch)
        assert server.manager.active_generations == 1
        assert server.serving_stats()["reads"] == 2


def test_checkpoint_lag_counts_every_committed_batch(tmp_path):
    """The lag is the replay debt of a crash right now — also on a server
    that never checkpoints periodically; a close with no debt writes nothing."""
    database, query = _server_source()
    stream = random_update_stream(database, seed=37, length=120)
    batches = [stream[start : start + 20] for start in range(0, len(stream), 20)]

    def lag(server):
        return server.serving_stats()["checkpoint_lag_batches"]

    never = DurabilityOptions(tmp_path / "never", checkpoint_interval=0)
    with QueryServer(FIVM(database, query, FEATURES), durability=never) as server:
        for count, batch in enumerate(batches[:3], 1):
            server.apply_batch(batch)
            assert lag(server) == count
        written = server._checkpoints.written
    assert server._checkpoints.written == written + 1      # close folded the debt
    assert server._batches_since_checkpoint == 0 and recover(never).replayed_batches == 0

    every_two = DurabilityOptions(tmp_path / "two", checkpoint_interval=2)
    with QueryServer(FIVM(database, query, FEATURES), durability=every_two) as server:
        lags = []
        for batch in batches[:4]:
            server.apply_batch(batch)
            lags.append(lag(server))
        assert lags == [1, 0, 1, 0]
        written = server._checkpoints.written
        assert written == 3                                 # seed + two periodic
    assert server._checkpoints.written == written           # nothing to fold
    result = recover(every_two)
    assert result.prefix == 4 and result.replayed_batches == 0


def test_server_recover_resumes_serving(tmp_path):
    database, query = _server_source()
    stream = random_update_stream(database, seed=39, length=120)
    opts = DurabilityOptions(tmp_path, sync="fsync", checkpoint_interval=3)
    with QueryServer(FIVM(database, query, FEATURES), durability=opts) as server:
        for start in range(0, len(stream), 20):
            server.apply_batch(stream[start : start + 20])
        expected = server.statistics().value
        prefix = server.prefix
    with QueryServer.recover(opts, readers=2) as revived:
        assert revived.prefix == prefix
        assert _payloads_equal(revived.statistics().value, expected)
        assert revived.serving_stats()["durability_enabled"] is True
        # And it keeps accepting writes.
        revived.apply_batch(random_update_stream(database, seed=40, length=20))
        assert revived.prefix == prefix + 1
