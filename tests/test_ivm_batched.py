"""Batched IVM maintenance (PR 3).

Covers the columnar delta path end-to-end: randomized insert/delete streams
(including multiplicities that cancel inside one batch and batches spanning
several relations) checked against full recomputation at several batch
sizes, the vectorised ring-block algebra, and the append-only delta column
store.
"""

import random

import numpy as np
import pytest

from repro.data import Schema
from repro.data.colstore import DeltaColumnStore
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


# -- the delta column store ------------------------------------------------------------


def test_delta_column_store_appends_and_buckets():
    schema = Schema.from_names(["k", "x"], categorical_names=["k"])
    store = DeltaColumnStore("R", schema)
    store.register_float("x")
    store.register_key(("k",))
    store.append_rows([("a", 1.0), ("b", 2.0), ("a", 3.0)], [1, 1, 2])
    store.append_rows([("b", 4.0)], [-1])
    assert len(store) == 4
    assert np.allclose(store.float_column("x"), [1.0, 2.0, 3.0, 4.0])
    assert np.allclose(store.multiplicities, [1.0, 1.0, 2.0, -1.0])
    codes, keys = store.key_codes(("k",))
    assert keys == [("a",), ("b",)]
    assert codes.tolist() == [0, 1, 0, 1]
    offsets, positions = store.buckets_for(("k",), [("b",), ("missing",), ("a",)])
    assert offsets.tolist() == [0, 2, 2, 4]
    assert positions.tolist() == [1, 3, 0, 2]


def test_delta_column_store_stage_is_invisible_until_commit():
    """A staged delta has its key codes (unseen keys registered) but no entry:
    no reader sees it before the commit, and the commit lands exactly what
    ``append_rows`` would have."""
    schema = Schema.from_names(["k", "j", "x"], categorical_names=["k", "j"])

    def build():
        store = DeltaColumnStore("R", schema)
        store.register_float("x")
        store.register_key(("k",))
        store.register_key(("j", "k"), track_buckets=False)
        store.append_rows([("a", 1, 1.0), ("b", 1, 2.0)], [1, 1])
        store.append_rows([("b", 2, 3.0)], [1])     # still pending at stage time
        return store

    delta = [("c", 1, 5.0), ("a", 2, 6.0), ("c", 1, 7.0)], [1, -1, 2]
    store, appended = build(), build()
    staged = store.stage(*delta)
    assert staged.columns[0] == ("c", "a", "c")
    assert staged.codes[("k",)].tolist() == [2, 0, 2]
    assert staged.codes[("j", "k")].tolist() == [3, 4, 3]
    # Registered, so the codes stay valid — but nothing is there yet.
    assert len(store) == store.entry_count == 3
    codes, keys = store.key_codes(("k",))
    assert codes.tolist() == [0, 1, 1] and keys == [("a",), ("b",), ("c",)]
    assert store.probe_keys(("k",), [("c",), ("zz",)]) == [2, None]
    offsets, positions = store.buckets_for(("k",), [("c",), ("a",)])
    assert offsets.tolist() == [0, 0, 1] and positions.tolist() == [0]
    assert store.multiplicities.tolist() == [1.0, 1.0, 1.0]
    # A per-tuple append slipping in between lands before the staged entries.
    store.append_rows([("a", 1, 4.0)], [1])
    appended.append_rows([("a", 1, 4.0)], [1])
    store.commit(staged)
    appended.append_rows(*delta)
    assert len(store) == len(appended) == 7
    for attributes in (("k",), ("j", "k")):
        codes, keys = store.key_codes(attributes)
        expected_codes, expected_keys = appended.key_codes(attributes)
        assert codes.tolist() == expected_codes.tolist() and keys == expected_keys
    offsets, positions = store.buckets_for(("k",), [("c",), ("a",)])
    assert offsets.tolist() == [0, 2, 5] and positions.tolist() == [4, 6, 0, 3, 5]
    assert store.float_column("x").tolist() == appended.float_column("x").tolist()
    assert store.multiplicities.tolist() == appended.multiplicities.tolist()


def test_delta_column_store_requires_registration_before_append():
    schema = Schema.from_names(["k", "x"], categorical_names=["k"])
    store = DeltaColumnStore("R", schema)
    store.register_key(("k",))
    store.append_rows([("a", 1.0)], [1])
    with pytest.raises(ValueError, match="before the first append"):
        store.register_float("x")
    with pytest.raises(ValueError, match="before the first append"):
        store.register_key(("x",))
    # Re-registering an existing key is a no-op, not an error.
    store.register_key(("k",))
