"""Batched IVM maintenance (PR 3).

Covers the columnar delta path end-to-end: randomized insert/delete streams
(including multiplicities that cancel inside one batch and batches spanning
several relations) checked against full recomputation at several batch
sizes, the vectorised ring-block algebra, and the tuple store's key indexes
the propagation reads.
"""

import pickle
import random

import numpy as np
import pytest

from repro.data import Relation, Schema, tuplestore
from repro.datasets import retailer_database, retailer_query
from repro.ivm import FIVM, Update
from repro.rings.covariance import CovarianceBlock, CovarianceRing
from streams import random_update_stream

FEATURES = ["inventoryunits", "prize", "maxtemp"]
STRATEGIES = [FIVM]


@pytest.fixture(scope="module")
def ivm_source():
    database = retailer_database(inventory_rows=160, stores=4, items=8, dates=6, seed=21)
    return database, retailer_query()


def _payloads_match(left, right):
    return (
        np.isclose(left.count, right.count)
        and np.allclose(left.sums, right.sums)
        and np.allclose(left.moments, right.moments)
    )


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("batch_size", [1, 7, 1000])
def test_batched_stream_matches_recomputation(ivm_source, strategy, batch_size):
    database, query = ivm_source
    stream = random_update_stream(database, seed=5, length=300)
    maintainer = strategy(database, query, FEATURES)
    for start in range(0, len(stream), batch_size):
        maintainer.apply_batch(stream[start : start + batch_size])
    assert _payloads_match(maintainer.statistics(), maintainer.recompute_statistics())


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_batched_equals_per_tuple(ivm_source, strategy):
    """The batched path lands on exactly the per-tuple result."""
    database, query = ivm_source
    stream = random_update_stream(database, seed=9, length=250)
    per_tuple = strategy(database, query, FEATURES)
    for update in stream:
        per_tuple.apply(update)
    batched = strategy(database, query, FEATURES)
    batched.apply_batch(stream)
    assert _payloads_match(per_tuple.statistics(), batched.statistics())
    assert per_tuple.database.relation("Inventory") == batched.database.relation("Inventory")


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_interleaved_batched_and_per_tuple(ivm_source, strategy):
    """Switching between apply() and apply_batch() maintains one shared state."""
    database, query = ivm_source
    stream = random_update_stream(database, seed=13, length=240)
    maintainer = strategy(database, query, FEATURES)
    cursor = 0
    rng = random.Random(3)
    while cursor < len(stream):
        if rng.random() < 0.5:
            maintainer.apply(stream[cursor])
            cursor += 1
        else:
            step = rng.choice([5, 17, 40])
            maintainer.apply_batch(stream[cursor : cursor + step])
            cursor += step
    assert _payloads_match(maintainer.statistics(), maintainer.recompute_statistics())


def test_cancelling_batch_is_a_noop(ivm_source):
    database, query = ivm_source
    maintainer = FIVM(database, query, FEATURES)
    warmup = random_update_stream(database, seed=2, length=80, delete_fraction=0.0,
                            cancel_fraction=0.0)
    maintainer.apply_batch(warmup)
    before = maintainer.statistics()
    row = next(iter(database.relation("Inventory")))
    maintainer.apply_batch(
        [Update("Inventory", row, 1), Update("Inventory", row, -1)] * 3
    )
    assert _payloads_match(maintainer.statistics(), before)
    assert _payloads_match(maintainer.statistics(), maintainer.recompute_statistics())


def test_update_arity_is_validated(ivm_source):
    database, query = ivm_source
    maintainer = FIVM(database, query, FEATURES)
    bad = Update("Inventory", (1, 2), 1)
    with pytest.raises(ValueError, match="arity"):
        maintainer.apply(bad)
    with pytest.raises(ValueError, match="Inventory"):
        maintainer.apply_batch([bad, bad])


# -- ring blocks -----------------------------------------------------------------------


def test_covariance_block_matches_scalar_ring():
    rng = np.random.default_rng(7)
    ring = CovarianceRing(3)
    size = 13
    left = CovarianceBlock(
        rng.normal(size=size), rng.normal(size=(size, 3)), rng.normal(size=(size, 3, 3))
    )
    right = CovarianceBlock(
        rng.normal(size=size), rng.normal(size=(size, 3)), rng.normal(size=(size, 3, 3))
    )
    product = left.multiply(right)
    total = product.add(left).scale(rng.normal(size=size))
    for position in range(size):
        expected = ring.multiply(left.payload_at(position), right.payload_at(position))
        assert _payloads_match(product.payload_at(position), expected)
    codes = rng.integers(0, 4, size=size)
    summed = total.segment_sum(codes, 4)
    for code in range(4):
        expected = ring.zero()
        for position in np.nonzero(codes == code)[0]:
            expected = ring.add(expected, total.payload_at(int(position)))
        assert _payloads_match(summed.payload_at(code), expected)


def test_covariance_block_multiply_lifted_matches_general():
    rng = np.random.default_rng(11)
    size, dimension = 9, 4
    block = CovarianceBlock(
        rng.normal(size=size),
        rng.normal(size=(size, dimension)),
        rng.normal(size=(size, dimension, dimension)),
    )
    positions = [1, 3]
    features = np.zeros((size, dimension))
    for position in positions:
        features[:, position] = rng.normal(size=size)
    multiplicities = rng.integers(-2, 3, size=size).astype(float)
    fused = block.multiply_lifted(features, multiplicities, positions)
    general = block.multiply(CovarianceBlock.lift(features, multiplicities))
    assert np.allclose(fused.counts, general.counts)
    assert np.allclose(fused.sums, general.sums)
    assert np.allclose(fused.moments, general.moments)


# -- the tuple store's key indexes -------------------------------------------------------


def _grouped_from_scratch(store, attributes):
    """Key -> live slots in slot order, by a plain loop over the stored rows."""
    positions = [store.schema.index_of(attribute) for attribute in attributes]
    multiplicities = store.multiplicities_view()
    grouped = {}
    for slot, row in enumerate(store.rows_list()):
        if multiplicities[slot] != 0:
            grouped.setdefault(tuple(row[p] for p in positions), []).append(slot)
    return grouped


def _grouped_by_index(store, attributes):
    """The same grouping read through the index: every code looked up at once."""
    size = store.index_size(attributes)
    keys = store.index_keys(attributes, range(size))
    codes = store.index_codes(attributes)
    for slot, row in enumerate(store.rows_list()):
        assert keys[codes[slot]] == tuple(
            row[store.schema.index_of(attribute)] for attribute in attributes
        )
    requested = np.arange(size - 1, -2, -1)         # backwards, and one unknown (-1)
    items, slots = store.index_lookup(attributes, requested)
    assert np.all(np.diff(items) >= 0)
    grouped = {}
    for item, slot in zip(items.tolist(), slots.tolist()):
        grouped.setdefault(keys[requested[item]], []).append(slot)
    return grouped


@pytest.mark.parametrize("tail_min", [4, 1024])
def test_key_index_buckets_equal_a_grouping_of_the_live_slots(monkeypatch, tail_min):
    """After appends, deletes netted in place, a sweep and a load, the index
    hands out exactly the live slots of each key, in slot order — whether
    the slots sit in merged buckets (a small tail bound) or in the scanned
    tail."""
    monkeypatch.setattr(tuplestore, "INDEX_TAIL_MIN", tail_min)
    schema = Schema.from_names(["k", "j", "x"], categorical_names=["k", "j"])
    relation = Relation("R", schema)
    store = relation.store
    indexes = [("k",), ("j", "k")]
    for attributes in indexes:
        store.add_index(attributes)
    rng = random.Random(17)

    def check(target):
        for attributes in indexes:
            assert _grouped_by_index(target, attributes) == _grouped_from_scratch(
                target, attributes
            )

    rows = [(f"k{rng.randrange(30)}", rng.randrange(4), float(n)) for n in range(600)]
    for start in range(0, 400, 40):                 # appends, and a netting add
        relation.add_batch(rows[start : start + 40], [1] * 40)
        relation.add(rows[start + 35], 1)
        check(store)
    doomed = rng.sample(rows[:400], 90)
    relation.add_batch(doomed[:60], [-1] * 60)      # deaths net in place ...
    for row in doomed[60:]:
        relation.add(row, -relation.multiplicity(row))
    assert store.zeros >= 80
    check(store)
    relation.add_batch(doomed[:10], [1] * 10)       # ... and come back in new slots
    check(store)
    before = {attributes: store.index_keys(attributes, range(store.index_size(attributes)))
              for attributes in indexes}
    relation.compact_storage()
    assert store.zeros == 0
    check(store)
    relation.add_batch(rows[400:], [1] * 200)
    relation.add_batch(rows[400:450], [-1] * 50)
    check(store)
    restored = pickle.loads(pickle.dumps(relation, protocol=5)).store
    check(restored)
    for attributes in indexes:
        keys = store.index_keys(attributes, range(store.index_size(attributes)))
        # Codes are never renumbered: not by a sweep, not by a load.
        assert keys[: len(before[attributes])] == before[attributes]
        assert restored.index_keys(attributes, range(restored.index_size(attributes))) == keys
        live = store.live_slots()
        assert np.array_equal(store.index_codes(attributes)[live], restored.index_codes(attributes))
        probe = {"j": [2, 2], "k": ["k3", "nope"]}
        columns = [probe[attribute] for attribute in attributes]
        codes = store.index_probe(attributes, columns, 2).tolist()
        assert codes == restored.index_probe(attributes, columns, 2).tolist()
        assert codes[0] >= 0 and codes[1] == -1


def test_key_index_floats_read_the_stored_values():
    """Feature floats come from the column dictionary, decoded once per
    entry, with the exceptions put back: ``-0.0`` stored under ``0.0`` reads
    ``-0.0``, and ``1``/``1.0``/``True`` under one code all read 1.0."""
    schema = Schema.from_names(["k", "x"], categorical_names=["k"])
    relation = Relation("R", schema)
    store = relation.store
    values = [0.0, -0.0, 1, 1.0, True, 2.5, -0.0, 0.0]
    relation.add_batch([(f"k{n}", value) for n, value in enumerate(values)], [1] * 8)
    relation.add(("k8", -0.0), 1)
    read = store.floats_at("x", np.arange(9))
    stored = values + [-0.0]
    assert read.tolist() == [float(value) for value in stored]
    assert [np.signbit(value) for value in read] == [
        np.signbit(float(value)) for value in stored
    ]
    assert len(store._columns[1].values) == 3       # 0.0, 1, 2.5: one entry each
