"""The array-native tuple store vs the old dict semantics.

Property-style suite: randomized insert/delete streams with cancelling
multiplicities are applied both to a :class:`~repro.data.relation.Relation`
(backed by :class:`~repro.data.tuplestore.TupleStore`) and to a plain
``dict[tuple, int]`` reference model, and every observable — netting,
deletion-to-zero, membership, totals, version bumps — must agree.  Compaction and the dense-snapshot contract (history-determined
snapshots whether or not a sweep ran, the tombstone space bound, restored
stores) are covered explicitly, and a regression test runs
a full IVM insert/delete stream over the store on all three strategies.
"""

from __future__ import annotations

import math
import operator
import pickle
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.data import Database, Relation, Schema
from repro.data.colstore import ColumnStore
from repro.data.tuplestore import (
    COMPACT_MIN_ZEROS,
    TupleStore,
    tuplestore_stats,
)
from streams import random_event_batches, random_row_events

SCHEMA = Schema.from_names(["k", "v"], categorical_names=["k"])


def _reference_apply(model, row, multiplicity):
    updated = model.get(row, 0) + multiplicity
    if updated == 0:
        model.pop(row, None)
    else:
        model[row] = updated


def _assert_matches_model(relation, model):
    assert len(relation) == len(model)
    assert relation.total_multiplicity() == sum(model.values())
    assert dict(relation.items()) == model
    assert set(relation) == set(model)
    for row, multiplicity in model.items():
        assert relation.multiplicity(row) == multiplicity
        assert row in relation


# -- randomized streams ----------------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 7, 23])
def test_randomized_cancel_heavy_stream_matches_dict_model(seed):
    relation = Relation("R", SCHEMA)
    model: dict = {}
    for row, multiplicity in random_row_events(seed, length=600):
        _reference_apply(model, row, multiplicity)
        relation.add(row, multiplicity)
    _assert_matches_model(relation, model)


@pytest.mark.parametrize("seed", [3, 11])
def test_randomized_batches_match_dict_model(seed):
    relation = Relation("R", SCHEMA)
    model: dict = {}
    for rows, multiplicities in random_event_batches(seed, batches=40):
        for row, multiplicity in zip(rows, multiplicities):
            _reference_apply(model, row, multiplicity)
        relation.add_batch(rows, multiplicities)
        _assert_matches_model(relation, model)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),
            st.integers(min_value=0, max_value=2),
            st.sampled_from([1, 1, -1, 2, -2]),
        ),
        max_size=60,
    )
)
def test_hypothesis_streams_net_like_a_dict(events):
    relation = Relation("R", Schema.from_names(["a", "b"]))
    model: dict = {}
    for a, b, multiplicity in events:
        row = (a, b)
        _reference_apply(model, row, multiplicity)
        relation.add(row, multiplicity)
    _assert_matches_model(relation, model)


# -- netting, compaction and snapshots -------------------------------------------------


def test_deletion_to_zero_leaves_no_observable_row():
    relation = Relation("R", SCHEMA)
    relation.add(("a", 1), 2)
    relation.add(("a", 1), -2)
    assert ("a", 1) not in relation
    assert len(relation) == 0
    assert list(relation.items()) == []
    # The columnar snapshot is dense: the cancelled row is not in it.
    store = relation.column_store()
    assert store.row_count == 0


def test_compaction_triggers_and_preserves_content():
    relation = Relation("R", SCHEMA)
    store = relation._store
    count = COMPACT_MIN_ZEROS * 4
    rows = [(f"k{index}", index) for index in range(count)]
    relation.add_batch(rows, [1] * count)
    epoch = store.epoch
    version = relation.version
    survivors = {}
    deletions, kept = [], []
    for index, row in enumerate(rows):
        if index % 2:
            deletions.append(row)
        else:
            kept.append(row)
            survivors[row] = 1
    relation.add_batch(deletions, [-1] * len(deletions))
    # Half the rows are tombstones -> the store must have compacted.
    assert store.epoch > epoch
    assert store.zeros == 0
    assert store.row_count == len(kept)
    assert dict(relation.items()) == survivors
    # Compaction is physical only: exactly one logical version bump happened.
    assert relation.version == version + 1
    assert tuplestore_stats["compactions"] >= 1


def test_column_store_is_zero_copy_and_epoch_guarded():
    relation = Relation("R", SCHEMA, rows=[("a", 1), ("b", 2), ("a", 1)])
    store = relation.column_store()
    assert relation.column_store() is store           # cached while unchanged
    inner = relation._store
    assert np.shares_memory(
        store.multiplicities, inner.multiplicities_view()
    )
    assert np.shares_memory(
        store.encoding("v").codes, inner.encoded_columns()[1][1]
    )
    # A mutation invalidates the wrapper; the replacement re-wraps the
    # (already encoded) arrays.
    relation.add(("c", 3), 1)
    fresh = relation.column_store()
    assert fresh is not store
    assert fresh.row_count == len(relation)
    assert np.shares_memory(fresh.encoding("v").codes, inner.encoded_columns()[1][1])
    relation.add(("c", 3), -1)
    # Over a tombstone the snapshot is a gather: dense, and not an alias.
    handoffs = tuplestore_stats["zero_copy_snapshots"]
    masked = relation.column_store()
    assert masked is not fresh and tuplestore_stats["zero_copy_snapshots"] == handoffs + 1
    assert inner.zeros == 1 and masked.row_count == len(relation) == 2
    assert not np.shares_memory(masked.multiplicities, inner.multiplicities_view())


def test_snapshot_codes_round_trip_after_mixed_mutations():
    relation = Relation("R", SCHEMA)
    rng = random.Random(5)
    model: dict = {}
    for _ in range(300):
        row = (f"k{rng.randint(0, 9)}", rng.randint(0, 3))
        multiplicity = rng.choice([1, 1, -1])
        _reference_apply(model, row, multiplicity)
        relation.add(row, multiplicity)
        if rng.random() < 0.1:
            store = relation.column_store()
            codes, keys = store.codes_for(("k", "v"))
            decoded = {}
            for position, code in enumerate(codes.tolist()):
                decoded_row = keys[code]
                decoded[decoded_row] = decoded.get(decoded_row, 0) + int(
                    store.multiplicities[position]
                )
            assert decoded == model


def test_distinct_count_ignores_dictionary_ghosts():
    """Values surviving only in the (append-only) dictionary don't count."""
    relation = Relation("R", SCHEMA)
    relation.add(("a", 1), 1)
    relation.add(("b", 2), 1)
    relation.column_store()          # encode both rows
    relation.add(("b", 2), -1)       # tombstone -> "b"/2 stay in dictionaries
    store = relation.column_store()
    assert store.distinct_count(("k",)) == 1
    assert store.distinct_count(("k", "v")) == 1


# -- the dense-snapshot contract -------------------------------------------------------
#
# Dense snapshot = live rows in first-insertion-since-last-death order, a
# function of the applied deltas alone; physical compaction is amortised
# space reclamation and never observable.

UNIVERSE = [(f"k{index % 4}", index) for index in range(10)]

_DELTAS = st.lists(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=len(UNIVERSE) - 1),
            # Deletes, re-inserts, in-delta cancellations (+1/-1 of one row
            # in one list) and out-of-order delete-before-insert (a negative
            # multiplicity on an absent row) all come out of this alphabet.
            st.sampled_from([1, 1, -1, -1, 2, -2]),
        ),
        min_size=1,
        max_size=6,
    ),
    max_size=40,
)


def _model_apply(model: dict, delta) -> None:
    """The contract, executably: a dict keeps first-insertion order and a
    deleted-then-reinserted key goes to the end.  A delta is netted first."""
    netted: dict = {}
    for row, multiplicity in delta:
        netted[row] = netted.get(row, 0) + multiplicity
    for row, multiplicity in netted.items():
        if multiplicity:
            _reference_apply(model, row, multiplicity)


def _dense(relation):
    """What a reader sees: rows, multiplicities, per-column decoded values."""
    store = relation.column_store()
    decoded = [
        [store.encoding(name).values[code] for code in store.encoding(name).codes]
        for name in store.schema.names
    ]
    assert store.row_count == len(store.multiplicities) == len(decoded[0])
    return list(store.rows[: store.row_count]), store.multiplicities.tolist(), decoded


@settings(max_examples=60, deadline=None)
@given(_DELTAS, st.randoms(use_true_random=False))
def test_dense_snapshot_is_a_function_of_the_update_history(deltas, rng):
    """One signed stream into two relations — one swept at random points,
    one never — gives identical dense snapshots at every step, equal to the
    first-insertion-since-last-death order of the model."""
    swept, never = Relation("R", SCHEMA), Relation("R", SCHEMA)
    model: dict = {}
    for delta in deltas:
        delta = [(UNIVERSE[index], multiplicity) for index, multiplicity in delta]
        _model_apply(model, delta)
        for relation in (swept, never):
            if len(delta) == 1:
                relation.add(*delta[0])
            else:
                relation.add_batch([row for row, _m in delta], [m for _r, m in delta])
        if rng.random() < 0.3:
            swept.compact_storage()
            assert swept._store.zeros == 0
        rows, multiplicities, decoded = _dense(swept)
        assert (rows, multiplicities, decoded) == _dense(never)
        assert list(zip(rows, multiplicities)) == list(model.items())
        assert [tuple(values) for values in zip(*decoded)] == rows
        _assert_matches_model(never, model)


#: Rows whose columns exercise every dictionary: a numeric column mixing ints
#: and floats (in neither sorted nor type order), strings, and small ints.
MIXED_SCHEMA = Schema.from_names(["n", "s", "i"], categorical_names=["s", "i"])
MIXED_UNIVERSE = [
    ((97 * index) % 120 if index % 3 else (97 * index) % 120 + 0.5, f"s{index % 7}", index % 5)
    for index in range(120)
]

_CHUNKED_DELTAS = st.lists(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=len(MIXED_UNIVERSE) - 1),
            st.sampled_from([1, 1, 1, -1, 2]),
        ),
        min_size=1,
        max_size=80,     # flushed tails both below and above 32 rows
    ),
    max_size=10,
)


@settings(max_examples=60, deadline=None)
@given(_CHUNKED_DELTAS)
@example([[(index, 1) for index in range(10)], [(index, 1) for index in range(5, 60)]])
@example([[(index, 1) for index in range(40)], [(3, -1)], [(index, 1) for index in range(30, 90)]])
def test_snapshot_codes_do_not_depend_on_when_the_store_was_flushed(deltas):
    """The strengthened contract: dictionaries *and* codes are a function of
    the update history.  One stream into two relations — one snapshotted (so
    its pending tail is encoded) after every delta, one only at the end —
    gives equal values, value types and code arrays, column for column."""
    eager, lazy = Relation("R", MIXED_SCHEMA), Relation("R", MIXED_SCHEMA)
    for delta in deltas:
        rows = [MIXED_UNIVERSE[index] for index, _m in delta]
        multiplicities = [m for _index, m in delta]
        for relation in (eager, lazy):
            relation.add_batch(rows, multiplicities)
        eager.column_store()
    one, other = eager.column_store(), lazy.column_store()
    assert one.rows[: one.row_count] == other.rows[: other.row_count]
    for name in MIXED_SCHEMA.names:
        left, right = one.encoding(name), other.encoding(name)
        assert left.values == right.values
        assert list(map(type, left.values)) == list(map(type, right.values))
        assert np.array_equal(left.codes, right.codes)
        # First occurrence in the history, whatever was flushed when.
        assert len(set(left.values)) == len(left.values)


def test_tombstones_stay_below_the_space_bound():
    """After every mutation of a delete-heavy stream the tombstones number
    fewer than COMPACT_MIN_ZEROS or a quarter of the stored rows."""
    relation = Relation("R", SCHEMA)
    store = relation._store
    rng = random.Random(13)
    live: list = []
    fresh = iter(range(10**6))
    swept = store.epoch
    for _step in range(400):
        if live and rng.random() < 0.55:
            rng.shuffle(live)
            victims = [live.pop() for _ in range(min(len(live), rng.randint(1, 9)))]
            relation.add_batch(victims, [-1] * len(victims))
        elif rng.random() < 0.5:
            row = (f"k{rng.randint(0, 5)}", next(fresh))
            live.append(row)
            relation.add(row, 1)
        else:
            rows = [(f"k{rng.randint(0, 5)}", next(fresh)) for _ in range(rng.randint(2, 12))]
            live.extend(rows)
            relation.add_batch(rows, [1] * len(rows))
        assert store.zeros < max(COMPACT_MIN_ZEROS, store.row_count / 4 + 1)
        assert store.live == len(live) == store.row_count - store.zeros
    assert store.epoch > swept, "the stream never reached the sweep threshold"
    assert sorted(relation) == sorted(live)


def _masked_relation():
    """A relation whose store carries tombstones in the middle and a
    re-inserted row at the end."""
    relation = Relation("R", SCHEMA)
    relation.add_batch([("a", 1), ("b", 2), ("a", 3), ("c", 4), ("b", 5)], [1, 2, 3, 4, 5])
    relation.add(("b", 2), -2)
    relation.add_batch([("c", 4), ("b", 2)], [-4, 7])
    assert relation._store.zeros == 2 and relation._store.row_count == 6
    expected = [(("a", 1), 1), (("a", 3), 3), (("b", 5), 5), (("b", 2), 7)]
    return relation, expected


def test_consumers_of_a_masked_snapshot_see_dense_aligned_rows():
    from repro.serving import SnapshotManager

    relation, expected = _masked_relation()
    snapshot = relation.column_store()
    # ColumnStore.rows: gathered on first touch, aligned with multiplicities.
    assert snapshot._rows is None
    assert list(zip(snapshot.rows, snapshot.multiplicities.tolist())) == expected
    assert snapshot.rows is snapshot.rows
    assert snapshot.float_column("v").tolist() == [1.0, 3.0, 5.0, 2.0]
    # The published generation's rows, read through its pinned snapshot.
    manager = SnapshotManager(Database([relation]))
    published = manager.publish().database.relation("R")
    pinned = published.column_store()
    assert relation._store.zeros == 2, "publish must not sweep"
    assert list(zip(pinned.rows, pinned.multiplicities.tolist())) == expected
    assert len(published) == 4
    # The writer moves on (and sweeps); the generation does not.
    relation.add(("a", 1), -1)
    relation.compact_storage()
    assert list(zip(pinned.rows, pinned.multiplicities.tolist())) == expected
    manager.close()
    # A row mask over one column selects aligned rows and multiplicities.
    relation, expected = _masked_relation()
    snapshot = relation.column_store()
    picked = np.nonzero(snapshot.float_column("v") > 2.5)[0].tolist()
    assert [
        (snapshot.rows[position], int(snapshot.multiplicities[position])) for position in picked
    ] == [(("a", 3), 3), (("b", 5), 5)]


def test_restored_stores_never_revive_a_dead_slot():
    """Pickle round trip of a store holding tombstones: the restored store
    indexes live slots only, so a later delete + re-insert lays rows out
    exactly like the never-pickled twin."""

    def churn(relation):
        relation.add(("a", 3), -3)                      # another death
        relation.add_batch([("c", 4), ("a", 3), ("b", 2)], [1, 1, -7])
        relation.add(("b", 2), 2)                       # dead again, re-inserted again
        return _dense(relation)

    twin, _expected = _masked_relation()
    want = churn(twin)

    relation, expected = _masked_relation()
    restored = pickle.loads(pickle.dumps(relation))
    assert relation._store.zeros == 2                   # pickling left the store alone
    assert restored._store.zeros == 0                   # ... and persisted the dense form
    assert list(restored.items()) == expected
    assert restored.version == relation.version
    assert churn(restored) == want


# -- version bumps ---------------------------------------------------------------------


def test_version_bumps_once_per_mutation_group():
    relation = Relation("R", SCHEMA)
    version = relation.version
    relation.add(("a", 1), 1)
    assert relation.version == version + 1
    relation.add_batch([("b", 1), ("c", 1)], [1, 1])
    assert relation.version == version + 2
    relation.clear()
    assert relation.version == version + 3


# -- round trips -----------------------------------------------------------------------


def test_relation_constructors_round_trip():
    by_rows = Relation("R", SCHEMA, rows=[("a", 1), ("b", 2), ("a", 1)])
    by_mults = Relation("R", SCHEMA, multiplicities={("a", 1): 2, ("b", 2): 1})
    assert by_rows == by_mults
    clone = by_rows.copy("Clone")
    assert clone == by_rows
    clone.add(("c", 9))
    assert clone != by_rows


@pytest.mark.parametrize("tombstones", [False, True])
def test_store_copy_is_independent(tombstones):
    """Mutating a clone — netting in place, killing rows, appending,
    sweeping — leaves the source's rows, dictionaries, multiplicity buffer
    and row index as they were, whichever way the copy was taken."""
    store = TupleStore(SCHEMA)
    store.add_batch([("a", 1)], [2])
    store.add_batch([(f"k{index}", index) for index in range(8)], [1] * 8)
    if tombstones:
        store.add_batch([("k3", 3)], [-1])
        assert store.zeros == 1
    rows, index = store.rows_at(), store._content().copy()
    dictionaries = [column.values[:] for column in store._columns]
    mults, buffer = store.multiplicities_view().copy(), store._mults.data
    clone = store.copy()
    clone.add_batch([("a", 1)], [-2])
    clone.add_batch([("k5", 5)], [3])
    clone.add_batch([("new", 0), ("k6", 6)], [1, -1])
    clone.compact()
    assert store.multiplicity(("a", 1)) == 2
    assert clone.multiplicity(("a", 1)) == 0
    assert store.rows_at() == rows and store._content() == index
    assert [column.values for column in store._columns] == dictionaries
    assert store._mults.data is buffer
    assert np.array_equal(store.multiplicities_view(), mults)


#: Stored values Python equality folds together (``1``/``1.0``/``True``,
#: ``0.0``/``-0.0``) or keeps apart although they print alike (NaN objects):
#: the copies and flushes below must keep every one where it was.
NAN_A, NAN_B = float("nan"), float("nan")
FOLDED = [1, 1.0, True, 0.0, -0.0, NAN_A, NAN_B, "a", "b", 2]


def _values(rows):
    return [value for row in rows for value in row]


def _slots_by_row(store):
    """The slot the row index finds for each stored row (-1: not found)."""
    return [store._slot_of(row) for row in store.rows_at()]


def _snapshot_of(store):
    """Values (by identity), codes and exceptions of every column after one
    ``column_store()``, with the rows and multiplicities."""
    snapshot = ColumnStore.from_tuplestore("R", store.schema, store)
    columns = []
    for position, name in enumerate(store.schema.names):
        encoding = snapshot.encoding(name)
        exceptions = store._columns[position].exceptions
        columns.append((
            [id(value) for value in encoding.values],
            encoding.codes.tolist(),
            {slot: id(value) for slot, value in exceptions.items()},
        ))
    return snapshot.rows[: snapshot.row_count], snapshot.multiplicities.tolist(), columns


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    sweep=st.booleans(),
    pinned=st.booleans(),
    indexed=st.booleans(),
)
@example(seed=3, sweep=False, pinned=False, indexed=False)
@example(seed=3, sweep=True, pinned=True, indexed=True)
def test_a_copy_is_its_live_rows_reappended(seed, sweep, pinned, indexed):
    """``copy()`` equals a fresh store fed the source's ``iter_items()``:
    same live rows in slot order, multiplicities and counters, a row index
    of exactly the live rows at their slots, and the same dictionaries,
    codes and exceptions, whatever the source held: tombstones, a sweep
    (whose dictionaries keep the swept values), a pin, key indexes."""
    schema = Schema.from_names(["k", "v"], categorical_names=["k"])
    store = TupleStore(schema)
    if indexed:
        store.add_index(["k"])
        store.add_index(["k", "v"])
    for rows, multiplicities in random_event_batches(seed, values=7):
        store.add_batch([(key, FOLDED[value]) for key, value in rows], multiplicities)
    if sweep:
        store.compact()
    if pinned:
        store.pin()
    clone = store.copy()
    items = list(store.iter_items())
    twin = TupleStore(schema)
    twin.add_batch([row for row, _m in items], [m for _row, m in items])

    assert clone.rows_at() == twin.rows_at() == [row for row, _m in items]
    assert all(map(operator.is_, _values(clone.rows_at()), _values(twin.rows_at())))
    assert clone.multiplicities_view().tolist() == twin.multiplicities_view().tolist()
    assert (clone.live, clone.zeros, clone.total) == (twin.live, twin.zeros, twin.total)
    assert (clone.live, clone.total) == (store.live, store.total) and clone.zeros == 0
    assert _slots_by_row(clone) == list(range(clone.row_count))
    if clone.live:
        assert clone._content() == twin._content()
    assert (clone.pins, clone.version, clone.epoch, clone._indexes) == (0, 0, 0, {})
    assert _snapshot_of(clone) == _snapshot_of(twin)


@pytest.mark.parametrize("arity", [0, 1, 3])
@settings(max_examples=40, deadline=None)
@given(
    picks=st.lists(st.lists(st.integers(0, len(FOLDED) - 1), min_size=3, max_size=3),
                   max_size=60),
    chunk=st.integers(min_value=2, max_value=17),
)
def test_one_batch_equals_many(arity, picks, chunk):
    """Rows written in one batch, in chunks or row by row come out with the
    same dictionaries (the very value objects), codes and exceptions, and
    decode to the stored values themselves (a repeated row keeps its first
    occurrence)."""
    schema = Schema.from_names([f"c{position}" for position in range(arity)])
    rows = [tuple(FOLDED[pick] for pick in row[:arity]) for row in picks]
    once, chunked, single = TupleStore(schema), TupleStore(schema), TupleStore(schema)
    once.add_batch(rows, [1] * len(rows))
    for start in range(0, len(rows), chunk):
        part = rows[start : start + chunk]
        chunked.add_batch(part, [1] * len(part))
    for row in rows:
        single.add_batch([row], [1])
    stored = list(dict.fromkeys(rows))
    assert once.rows_at() == chunked.rows_at() == single.rows_at() == stored
    for left, other in ((once, chunked), (once, single)):
        for mine, theirs in zip(left._columns, other._columns):
            assert all(map(operator.is_, mine.values, theirs.values))
            assert len(mine.values) == len(theirs.values)
            assert np.array_equal(mine.codes.view(), theirs.codes.view())
            assert mine.exceptions.keys() == theirs.exceptions.keys()
            assert all(map(operator.is_, mine.exceptions.values(), theirs.exceptions.values()))
    for store in (once, chunked, single):
        assert all(map(operator.is_, _values(store.rows_at()), _values(stored)))


# -- a row is its codes ----------------------------------------------------------------

#: Values Python equality folds together (``1``/``1.0``/``True``, ``0.0``/
#: ``-0.0``), one it keeps apart although it prints alike (``"1"``) and one
#: NaN object, equal to itself only by identity.
NAN = float("nan")
EQUAL_UNDER_PYTHON = [1, 1.0, True, 0.0, -0.0, "1", NAN]


def _same_value(mine, theirs) -> bool:
    """Equal in type, value and sign (NaN: both NaN)."""
    if type(mine) is not type(theirs):
        return False
    if isinstance(mine, float):
        if math.isnan(mine) or math.isnan(theirs):
            return math.isnan(mine) and math.isnan(theirs)
        return mine == theirs and math.copysign(1.0, mine) == math.copysign(1.0, theirs)
    return mine == theirs


def _same_items(store, expected) -> bool:
    items = list(store.iter_items())
    return len(items) == len(expected) and all(
        multiplicity == want and all(map(_same_value, row, wanted))
        for (row, multiplicity), (wanted, want) in zip(items, expected)
    )


@settings(max_examples=80, deadline=None)
@given(
    batches=st.lists(
        st.lists(
            st.tuples(st.integers(0, len(EQUAL_UNDER_PYTHON) - 1),
                      st.integers(0, len(EQUAL_UNDER_PYTHON) - 1),
                      st.sampled_from([1, 1, -1, 2])),
            max_size=12,
        ),
        max_size=14,
    ),
)
@example(batches=[[(0, 0, 1)], [(1, 0, -1)], [(2, 0, 1), (4, 5, 1)], [(3, 6, 1), (4, 6, 1)]])
def test_rows_are_their_codes_under_python_equality(batches):
    """Streams mixing ``1``, ``1.0``, ``True``, ``0.0``, ``-0.0``, ``"1"`` and
    one reused NaN net like a dict of rows (each batch netted first, a
    netted row keeping its first occurrence) and decode every stored value
    with its type and sign: after the writes, in a copy, after a sweep and
    across a pickle round trip.  The row index holds one key per live row,
    each mapping to that row's slot."""
    schema = Schema.from_names(["a", "b"])
    store = TupleStore(schema)
    model: dict = {}
    expected: list = []
    for batch in batches:
        rows = [(EQUAL_UNDER_PYTHON[a], EQUAL_UNDER_PYTHON[b]) for a, b, _m in batch]
        multiplicities = [m for _a, _b, m in batch]
        store.add_batch(rows, multiplicities)
        netted: dict = {}
        for row, multiplicity in zip(rows, multiplicities):
            netted[row] = netted.get(row, 0) + multiplicity
        for row, multiplicity in netted.items():
            _reference_apply(model, row, multiplicity)
        expected = list(model.items())
        assert _same_items(store, expected)
        # Identity too: a decoded value is the very object stored.
        assert all(map(operator.is_, _values(store.iter_rows()), _values(model)))
        for row, multiplicity in expected:
            assert store.multiplicity(row) == multiplicity and row in store
        if store.live:
            assert sorted(store._content().values()) == store.live_slots().tolist()
    clone = store.copy()
    assert _same_items(clone, expected)
    assert all(map(operator.is_, _values(clone.iter_rows()), _values(model)))
    store.compact()
    assert _same_items(store, expected)
    for row, multiplicity in expected:
        assert clone.multiplicity(row) == store.multiplicity(row) == multiplicity
    assert _same_items(pickle.loads(pickle.dumps(store)), expected)
    assert _same_items(pickle.loads(pickle.dumps(clone)), expected)


def test_memory_footprint_counts_what_the_store_holds():
    """The footprint grows with appends and key indexes and drops when a
    sweep frees the slots of dead rows; the arrays count exactly."""
    store = TupleStore(SCHEMA)
    empty = store.memory_footprint()
    rows = [(f"k{index % 13}", index) for index in range(2000)]
    store.add_batch(rows[:1000], [1] * 1000)
    first = store.memory_footprint()
    store.add_batch(rows[1000:], [1] * 1000)
    assert store.multiplicity(rows[0]) == 1          # builds the row index
    second = store.memory_footprint()
    store.add_index(["k", "v"])
    store.index_size(["k", "v"])                     # numbers the combinations
    indexed = store.memory_footprint()
    assert empty < first < second < indexed
    arrays = store._mults.data.nbytes + sum(
        column.codes.data.nbytes for column in store._columns
    )
    assert indexed > arrays
    epoch = store.epoch
    store.add_batch(rows[:1800], [-1] * 1800)        # crosses the sweep threshold
    assert store.epoch == epoch + 1 and store.row_count == 200
    assert store.memory_footprint() < indexed
    assert store.memory_footprint() == store.memory_footprint()


@pytest.mark.parametrize("history", ["inserts", "deletes", "swept"])
def test_copying_a_written_database_encodes_nothing(monkeypatch, history):
    """``Database.copy()`` of a written database calls no encoder and grows
    no dictionary, yet every copied store equals a store fed the source's
    ``iter_items()`` — also over tombstones, and after a sweep that left the
    swept rows' values in the source's dictionaries."""
    from repro.data.tuplestore import _ColumnCodes
    from repro.datasets import retailer_database

    database = retailer_database(inventory_rows=300, stores=4, items=8, dates=6, seed=5)
    for relation in database:
        rows = relation.rows()
        relation.add_batch(rows[: len(rows) // 2], [1] * (len(rows) // 2))
        if history != "inserts":
            doomed = rows[len(rows) // 2 :: 2]      # multiplicity 1: they die
            relation.add_batch(doomed, [-1] * len(doomed))
        if history == "swept":
            relation.compact_storage()
    sizes = {
        relation.name: [len(column.values) for column in relation.store._columns]
        for relation in database
    }
    encodes = []
    encode = _ColumnCodes.extend_values
    monkeypatch.setattr(
        _ColumnCodes, "extend_values",
        lambda column, *args: encodes.append(column) or encode(column, *args),
    )
    copied = database.copy()
    for relation in copied:
        relation.column_store()
    assert encodes == []
    for relation in copied:
        source = database.relation(relation.name)
        clone = relation.store
        assert [len(column.values) for column in source.store._columns] == sizes[relation.name]
        assert all(
            len(mine.values) <= theirs
            for mine, theirs in zip(clone._columns, sizes[relation.name])
        )
        assert source.store._lost == (history != "inserts")
        monkeypatch.setattr(_ColumnCodes, "extend_values", encode)
        items = list(source.items())
        twin = TupleStore(relation.schema)
        twin.add_batch([row for row, _m in items], [m for _row, m in items])
        assert _snapshot_of(clone) == _snapshot_of(twin)
        assert list(relation.items()) == items


# -- deterministic canonical orders ----------------------------------------------------


def test_expanded_and_sampled_rows_ignore_insertion_history():
    straight = Relation("R", SCHEMA, rows=[("a", 1), ("b", 2), ("c", 3)])
    detoured = Relation("R", SCHEMA)
    # Same multiset via a different history: extra rows inserted and
    # cancelled, survivors inserted in reverse order.
    detoured.add(("z", 9), 1)
    for row in [("c", 3), ("b", 2), ("a", 1)]:
        detoured.add(row, 1)
    detoured.add(("z", 9), -1)
    assert list(straight.expanded_rows()) == list(detoured.expanded_rows())
    assert straight.sample_rows(2, seed=3) == detoured.sample_rows(2, seed=3)


# -- the headline storage regression ---------------------------------------------------


def test_ivm_streams_over_the_tuple_store_match_recomputation():
    """An insert/delete IVM stream (per-tuple, batched, cancelling) lands on
    the recomputed statistics."""
    from repro.datasets import retailer_database, retailer_query
    from repro.ivm import FIVM, Update

    database = retailer_database(inventory_rows=150, stores=4, items=10, dates=6, seed=3)
    query = retailer_query()
    features = ["inventoryunits", "prize", "maxtemp"]
    inserts = [
        Update(relation.name, row, 1) for relation in database for row in relation
    ]
    random.Random(17).shuffle(inserts)
    deletes = [Update(u.relation_name, u.row, -1) for u in inserts[::2]]
    maintainer = FIVM(database, query, features)
    for update in inserts[: len(inserts) // 2]:          # per-tuple path
        maintainer.apply(update)
    maintainer.apply_batch(inserts[len(inserts) // 2 :])  # batched path
    maintainer.apply_batch(deletes)                       # cancelling deltas
    reference = maintainer.recompute_statistics()
    maintained = maintainer.statistics()
    assert np.isclose(maintained.count, reference.count)
    assert np.allclose(maintained.sums, reference.sums)
    assert np.allclose(maintained.moments, reference.moments)
