"""Checkpoints carry state, not the object graph — and say why a file is skipped.

Two halves.  *State*: what the pickle hooks persist is enough to continue
(a restored twin and the original agree batch for batch — payloads,
relations, snapshot dictionaries and codes, key indexes), depends on the
update history only (byte-identical files whatever was swept or flushed
when), and comes back in memory the restored objects own.  *File*: format v2
(``docs/architecture.md``, "Epoch checkpoints") rejects every single-byte
corruption, truncation and inconsistent section table, falls back to the
previous checkpoint, and names the reason.
"""

import math
import random
import shutil
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import retailer_database, retailer_query
from repro.durability import BatchJournal, CheckpointStore, DurabilityOptions, recover
from repro.durability import checkpoint as checkpoint_module
from repro.durability.checkpoint import CHECKPOINT_MAGIC
from repro.ivm import FIVM
from streams import facts_first_batches, random_update_stream

FEATURES = ["inventoryunits", "prize", "maxtemp"]
HEADER = len(CHECKPOINT_MAGIC) + 24 + 4     # magic, <QQQ fields, <I crc


def _database():
    return retailer_database(inventory_rows=160, stores=4, items=8, dates=6, seed=21)


def _cancel_heavy(database, length=600, size=40):
    stream = random_update_stream(database, seed=5, length=length, cancel_fraction=0.4)
    return [stream[start : start + size] for start in range(0, len(stream), size)]


def _dimensions_after_facts(database):
    return facts_first_batches(database, "Inventory", seed=7, fact_batch=25)


def _payloads_equal(left, right):
    return (
        left.count == right.count
        and np.array_equal(left.sums, right.sums)
        and np.array_equal(left.moments, right.moments)
    )


def _roundtrip(maintainer, directory):
    store = CheckpointStore(directory)
    store.write(maintainer, 0, prefix=0)
    loaded = store.latest()
    assert loaded is not None and store.last_skipped == []
    return loaded.maintainer


# -- state -----------------------------------------------------------------------------


def _assert_same_state(original, restored):
    assert _payloads_equal(restored.statistics(), original.statistics())
    for relation in original.database:
        twin = restored.database.relation(relation.name)
        assert twin == relation
        one, other = relation.column_store(), twin.column_store()
        assert one.rows[: one.row_count] == other.rows[: other.row_count]
        assert np.array_equal(one.multiplicities, other.multiplicities)
        for name in relation.schema.names:
            left, right = one.encoding(name), other.encoding(name)
            assert left.values == right.values
            assert list(map(type, left.values)) == list(map(type, right.values))
            assert np.array_equal(left.codes, right.codes)
    for node in original.join_tree.nodes():
        one = original.database.relation(node.relation_name).store
        other = restored.database.relation(node.relation_name).store
        for child in node.children:
            _assert_same_index(one, other, original._conn_attrs[child.relation_name])


def _assert_same_index(one, other, attributes):
    """Same key numbering and, per code, the same live rows in the same
    order — whatever tombstones either store still holds."""
    size = one.index_size(attributes)
    assert other.index_size(attributes) == size
    assert one.index_keys(attributes, range(size)) == other.index_keys(attributes, range(size))
    assert np.array_equal(
        one.index_codes(attributes)[one.live_slots()],
        other.index_codes(attributes)[other.live_slots()],
    )
    requested = np.arange(size)
    (items, slots), (twin_items, twin_slots) = (
        store.index_lookup(attributes, requested) for store in (one, other)
    )
    assert np.array_equal(items, twin_items)
    rows, twin_rows = one.rows_list(), other.rows_list()
    assert [rows[slot] for slot in slots.tolist()] == [
        twin_rows[slot] for slot in twin_slots.tolist()
    ]


@pytest.mark.parametrize("batches_of", [_cancel_heavy, _dimensions_after_facts])
def test_restored_twin_tracks_the_original_batch_for_batch(tmp_path, batches_of):
    """The dense-snapshot contract continues across a restore: driven through
    the rest of the stream, twin and original agree after every batch."""
    database = _database()
    batches = batches_of(database)
    original = FIVM(database, retailer_query(), FEATURES)
    cut = len(batches) // 2
    for batch in batches[:cut]:
        original.apply_batch(batch)
    versions = {relation.name: relation.version for relation in original.database}
    restored = _roundtrip(original, tmp_path)
    for relation in restored.database:
        assert relation.version == versions[relation.name]
    _assert_same_state(original, restored)
    for batch in batches[cut:]:
        original.apply_batch(batch)
        restored.apply_batch(batch)
        _assert_same_state(original, restored)
    np.testing.assert_allclose(
        restored.statistics().moments, restored.recompute_statistics().moments
    )


def test_per_tuple_updates_continue_after_a_restore(tmp_path):
    """The ring scratch is a workspace whose one-row view must alias its own
    buffers: pickled as an object graph (the parent) the view came back
    detached and every later ``apply`` propagated a stale payload."""
    database = _database()
    stream = random_update_stream(database, seed=3, length=400)
    original = FIVM(database, retailer_query(), FEATURES)
    for update in stream[:200]:
        original.apply(update)
    restored = _roundtrip(original, tmp_path)
    for update in stream[200:]:
        original.apply(update)
        restored.apply(update)
    assert original.statistics().count > 0
    _assert_same_state(original, restored)


def test_checkpoint_bytes_are_a_function_of_the_update_history(tmp_path):
    """PR 13's "bytes are history-determined", now without anything
    cache-dependent in the file: one history into two maintainers — one
    swept, flushed and probed at random, one left alone — byte-identical
    checkpoint files at every cut."""
    database = _database()
    batches = _cancel_heavy(database)
    touched = FIVM(database, retailer_query(), FEATURES)
    never = FIVM(database, retailer_query(), FEATURES)
    rng = random.Random(11)
    stores = CheckpointStore(tmp_path / "touched"), CheckpointStore(tmp_path / "never")
    for position, batch in enumerate(batches):
        touched.apply_batch(batch)
        never.apply_batch(batch)
        for relation in touched.database:
            if rng.random() < 0.4:
                relation.column_store()         # flush the pending encodings
            if rng.random() < 0.3:
                relation.compact_storage()      # sweep the tombstones
        for node in touched.join_tree.nodes():  # build and extend the buckets
            store = touched.database.relation(node.relation_name).store
            for child in node.children:
                attributes = touched._conn_attrs[child.relation_name]
                store.index_lookup(attributes, np.arange(store.index_size(attributes))[::2])
        if position % 4 == 3:
            files = [
                store.write(maintainer, position, position + 1)
                for store, maintainer in zip(stores, (touched, never))
            ]
            assert files[0].read_bytes() == files[1].read_bytes()
    assert any(relation._store.zeros for relation in never.database), (
        "the stream left no tombstone to sweep"
    )


# -- exact rows from codes ---------------------------------------------------------------

#: Values Python equality folds together (``1``/``1.0``/``True``, ``0.0``/
#: ``-0.0``/``0``/``False``) or keeps apart although they print alike (NaN
#: objects), ints past int64, ``None`` and strings: a file holds codes, so the
#: rows must come back from the dictionaries plus the recorded exceptions.
ADVERSARIAL = [
    1, 1.0, True, 0.0, -0.0, 0, False, float("nan"), float("nan"), float("nan"),
    2 ** 70, -(2 ** 70), None, "a", "1", 1.5,
]
MIXED = ("id", "x", "m", "n")


def _mixed_maintainer():
    from repro.data import Database, Relation, Schema
    from repro.query import ConjunctiveQuery

    schema = Schema.from_names(list(MIXED), categorical_names=["m", "n"])
    database = Database([Relation("R", schema)], name="mixed")
    return FIVM(database, ConjunctiveQuery(["R"], name="Q"), ["x"])


def _apply(maintainer, rows, multiplicity):
    from repro.ivm import Update

    maintainer.apply_batch([Update("R", row, multiplicity) for row in rows])


def _exact_form(rows):
    return [
        [(type(value), repr(value)) + (
            (math.copysign(1.0, value),) if isinstance(value, float) else ()
        ) for value in row]
        for row in rows
    ]


def _assert_exact_recovery(maintainer, directory):
    """Checkpoint, ``recover()``, compare slot for slot, re-checkpoint."""
    options = DurabilityOptions(directory / "live")
    BatchJournal(options.journal_path).close()
    written = CheckpointStore(options.checkpoint_directory).write(maintainer, 3, prefix=4)
    restored = recover(options).maintainer
    original = maintainer.database.relation("R")
    twin = restored.database.relation("R")
    assert _exact_form(twin.rows()) == _exact_form(original.rows())
    assert twin._store.version == original._store.version
    ours, theirs = maintainer.statistics(), restored.statistics()
    assert ours.count == theirs.count
    assert ours.sums.tobytes() == theirs.sums.tobytes()
    assert ours.moments.tobytes() == theirs.moments.tobytes()
    again = CheckpointStore(directory / "again").write(restored, 3, prefix=4)
    assert again.read_bytes() == written.read_bytes()
    return restored


@pytest.mark.parametrize("tombstones", [True, False])
def test_rows_come_back_exactly_from_codes(tmp_path, tombstones):
    maintainer = _mixed_maintainer()
    rows = [
        (index, float(index % 7) - 3.0, ADVERSARIAL[index % len(ADVERSARIAL)],
         ADVERSARIAL[(5 * index + 3) % len(ADVERSARIAL)])
        for index in range(400)
    ]
    rows[7] = (7, -0.0, -0.0, 0.0)                  # -0.0 stored before 0.0 too
    _apply(maintainer, rows[:150], 1)
    _apply(maintainer, rows[20:110], -1)            # enough deaths to sweep ...
    relation = maintainer.database.relation("R")
    relation.compact_storage()
    assert relation._store.zeros == 0
    _apply(maintainer, rows[150:], 1)               # ... then more codes after it
    if tombstones:
        _apply(maintainer, rows[200:230], -1)
        assert relation._store.zeros == 30
    exceptions = sum(len(column.exceptions) for column in relation._store._columns)
    assert exceptions > 30, "the history recorded too few inexact slots to test"
    restored = _assert_exact_recovery(maintainer, tmp_path)
    # The restored twin keeps encoding exactly: the same batch on both sides.
    for side in (maintainer, restored):
        _apply(side, [(1000, 0.0, -0.0, True), (1001, -0.0, 1, 1.0)], 1)
    assert _exact_form(restored.database.relation("R").rows()) == _exact_form(relation.rows())


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(ADVERSARIAL), st.sampled_from(ADVERSARIAL)),
        min_size=1, max_size=60,
    ),
    st.lists(st.booleans(), max_size=60),
    st.booleans(),
)
def test_rows_come_back_exactly_from_codes_for_any_mix(pairs, deaths, sweep):
    import tempfile
    from pathlib import Path

    maintainer = _mixed_maintainer()
    rows = [(index, 1.0, m, n) for index, (m, n) in enumerate(pairs)]
    _apply(maintainer, rows, 1)
    dead = [row for row, dies in zip(rows, deaths) if dies]
    if dead:
        _apply(maintainer, dead, -1)
    if sweep:
        maintainer.database.relation("R").compact_storage()
    with tempfile.TemporaryDirectory() as directory:
        _assert_exact_recovery(maintainer, Path(directory))


def _arrays_of(root):
    """Every ndarray reachable from ``root`` through containers and attributes."""
    seen, found, stack = set(), [], [root]
    while stack:
        item = stack.pop()
        if id(item) in seen or isinstance(item, (str, bytes, int, float, type(None))):
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            found.append(item)
        elif isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, (list, tuple, set)):
            stack.extend(item)
        else:
            stack.extend(getattr(item, "__dict__", {}).values())
            for klass in type(item).__mro__:
                stack.extend(
                    getattr(item, name)
                    for name in getattr(klass, "__slots__", ())
                    if hasattr(item, name)
                )
    return found


def test_restored_arrays_own_their_memory(tmp_path, monkeypatch):
    """With *every* array buffer sent out-of-band, nothing reachable from the
    restored maintainer aliases the file's read buffer."""
    monkeypatch.setattr(checkpoint_module, "OUT_OF_BAND_MIN_BYTES", 1)
    sections = []
    loads = checkpoint_module.pickle.loads

    def spying_loads(stream, buffers):
        sections.extend(buffers)
        return loads(stream, buffers=buffers)

    monkeypatch.setattr(checkpoint_module.pickle, "loads", spying_loads)
    database = _database()
    maintainer = FIVM(database, retailer_query(), FEATURES)
    for batch in _cancel_heavy(database)[:8]:
        maintainer.apply_batch(batch)
    restored = _roundtrip(maintainer, tmp_path)
    assert len(sections) > 20
    read_buffer = np.frombuffer(sections[0].obj, dtype=np.uint8)
    arrays = _arrays_of(restored)
    assert len(arrays) > 20
    for array in arrays:
        assert array.flags.writeable
        assert not np.may_share_memory(array, read_buffer)
    restored.apply_batch(_cancel_heavy(database)[8])


# -- files -----------------------------------------------------------------------------


def _reseal(raw: bytes, body: bytes) -> bytes:
    """``raw``'s header over a new body, length and checksum made consistent."""
    seq, prefix, _length = struct.unpack_from("<QQQ", raw, len(CHECKPOINT_MAGIC))
    fields = struct.pack("<QQQ", seq, prefix, len(body))
    crc = zlib.crc32(body, zlib.crc32(fields))
    return CHECKPOINT_MAGIC + fields + struct.pack("<I", crc) + body


@pytest.fixture(scope="module")
def two_checkpoints(tmp_path_factory):
    """A directory holding an older (seq 1) and a newer (seq 7) checkpoint."""
    directory = tmp_path_factory.mktemp("checkpoints")
    database = _database()
    batches = _cancel_heavy(database, length=1600, size=200)
    maintainer = FIVM(database, retailer_query(), FEATURES)
    store = CheckpointStore(directory, keep=4)
    for batch in batches[:4]:
        maintainer.apply_batch(batch)
    older = maintainer.statistics()
    store.write(maintainer, 1, prefix=4)
    for batch in batches[4:]:
        maintainer.apply_batch(batch)
    assert not _payloads_equal(older, maintainer.statistics())
    newest = store.write(maintainer, 7, prefix=8)
    return store, newest, newest.read_bytes(), older


def _assert_falls_back(two_checkpoints, damaged: bytes):
    store, newest, raw, older = two_checkpoints
    try:
        newest.write_bytes(damaged)
        loaded = store.latest()
        assert loaded is not None and loaded.seq == 1 and loaded.prefix == 4
        assert _payloads_equal(loaded.maintainer.statistics(), older)
        ((path, reason),) = store.last_skipped
        assert path == newest
        return reason
    finally:
        newest.write_bytes(raw)


def test_every_header_byte_is_covered(two_checkpoints):
    """At the parent the CRC covered the payload only: a flipped bit of the
    stored ``seq`` loaded as a valid checkpoint of another sequence number."""
    _store, _newest, raw, _older = two_checkpoints
    reasons = []
    for offset in range(HEADER):
        damaged = bytearray(raw)
        damaged[offset] ^= 0x04
        reasons.append(_assert_falls_back(two_checkpoints, bytes(damaged)))
    magic = len(CHECKPOINT_MAGIC)
    assert set(reasons[:magic]) == {"bad magic"}
    assert set(reasons[magic : magic + 16]) == {"crc"}              # seq, prefix
    assert set(reasons[magic + 16 : magic + 24]) <= {"short", "trailing bytes"}
    assert set(reasons[magic + 24 :]) == {"crc"}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_flipped_byte_or_truncation_falls_back(two_checkpoints, data):
    _store, _newest, raw, _older = two_checkpoints
    if data.draw(st.booleans(), label="truncate"):
        damaged = raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        offset = data.draw(st.integers(0, len(raw) - 1), label="offset")
        flipped = bytearray(raw)
        flipped[offset] ^= data.draw(st.integers(1, 255), label="mask")
        damaged = bytes(flipped)
    assert _assert_falls_back(two_checkpoints, damaged) in {
        "bad magic", "short", "trailing bytes", "crc",
    }


def test_hostile_section_tables_and_streams_are_named(two_checkpoints):
    store, newest, raw, _older = two_checkpoints
    body = raw[HEADER:]
    count, stream_length = struct.unpack_from("<QQ", body)
    assert count > 0, "the fixture wrote no out-of-band section"
    table_end = 16 + 8 * count
    cases = {
        # A section count that runs past the end of the file.
        "count": struct.pack("<QQ", len(body), stream_length) + body[16:],
        # Lengths that leave bytes of the body unaccounted for ...
        "slack": body + b"\0" * 8,
        # ... or claim more than it holds.
        "greedy": body[:16] + struct.pack("<Q", 2 ** 40) + body[24:],
        "no table": b"\0" * 8,
    }
    for name, hostile in cases.items():
        assert _assert_falls_back(two_checkpoints, _reseal(raw, hostile)) == "section table", name
    garbage = body[:table_end] + b"\xff" * stream_length + body[table_end + stream_length :]
    reason = _assert_falls_back(two_checkpoints, _reseal(raw, garbage))
    assert reason.startswith("unpickle: ")
    # A file of the previous format is passed over, not read by a second loader.
    reason = _assert_falls_back(two_checkpoints, b"REPROCK1" + raw[len(CHECKPOINT_MAGIC) :])
    assert reason == "bad magic"
    # A stray temp file of a crashed write is invisible to loaders.
    stray = newest.with_name("checkpoint-000000000099.tmp")
    stray.write_bytes(raw)
    try:
        assert store.latest().seq == 7 and store.last_skipped == []
    finally:
        stray.unlink()


def test_recover_reports_the_checkpoints_it_skipped(two_checkpoints, tmp_path):
    store, newest, raw, older = two_checkpoints
    for path in store.checkpoints():
        shutil.copy(path, tmp_path / path.name)
    damaged = bytearray(raw)
    damaged[-1] ^= 0xFF
    (tmp_path / newest.name).write_bytes(bytes(damaged))
    options = DurabilityOptions(tmp_path)
    BatchJournal(options.journal_path).close()
    result = recover(options)
    assert result.checkpoint_seq == 1 and result.prefix == 4
    assert result.skipped_checkpoints == [(tmp_path / newest.name, "crc")]
    assert _payloads_equal(result.maintainer.statistics(), older)
