"""The sharding suite: routing determinism, merge correctness, executors.

The load-bearing claims, each pinned here:

- **Equivalence** — a :class:`ShardedMaintainer` over 1/2/8 shards replaying
  randomized cancel-heavy multi-relation streams (``tests/streams.py``)
  matches the unsharded maintainer's root payload under the documented
  float-tolerance contract (1 shard and serial-vs-processpool are bitwise).
- **Routing determinism** — placement is a pure function of the shard-key
  values: stable across calls and processes (no builtin ``hash``); a
  hypothesis invariant checks a netted batch never splits one key across
  shards.
- **Process-pool contract** — each worker receives its maintainer exactly
  once (``maintainer_ships``), then only netted delta groups per batch; a
  pool that fails to start leaves no worker behind.
- **Aggregation** — per-shard kernel/executor counters sum into
  ``executor_stats``; ``serving_stats()`` gains the sharding block.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import datasets
from repro.aggregates import covariance_batch
from repro.datasets import RETAILER_FEATURES, retailer_database, retailer_query
from repro.datasets._synthetic import ZipfSampler, skewed_update_stream
from repro.durability import DurabilityOptions, recover
from repro.ivm import FIVM, Update
from repro.kernels import enable_kernel_stats, reset_kernel_stats
from repro.serving import QueryServer
from repro.sharding import ShardedMaintainer, ShardRouter, merge_payloads, stable_hash
from repro.sharding import maintainer as sharded_module
from streams import random_update_stream

FEATURES = RETAILER_FEATURES["continuous"]


@pytest.fixture(scope="module")
def retailer_source():
    database = retailer_database(inventory_rows=300, stores=5, items=12, dates=6, seed=7)
    return database, retailer_query()


def _payloads_close(left, right):
    # The documented float-tolerance contract (docs/architecture.md): the
    # sharded merge reassociates float additions, so equivalence is relative
    # tolerance, not bitwise.
    assert np.isclose(left.count, right.count, rtol=1e-9, atol=1e-6)
    assert np.allclose(left.sums, right.sums, rtol=1e-9, atol=1e-6)
    assert np.allclose(left.moments, right.moments, rtol=1e-9, atol=1e-6)


def _payloads_identical(left, right):
    return (
        left.count == right.count
        and np.array_equal(left.sums, right.sums)
        and np.array_equal(left.moments, right.moments)
    )


def _replay(maintainer, stream, batch_size=60):
    for start in range(0, len(stream), batch_size):
        maintainer.apply_batch(stream[start : start + batch_size])


# -- equivalence: sharded vs unsharded on cancel-heavy streams -------------------------


@pytest.mark.parametrize("shards", [1, 2, 8])
@pytest.mark.parametrize("executor", ["serial", "processpool"])
def test_sharded_matches_unsharded(retailer_source, shards, executor):
    database, query = retailer_source
    stream = random_update_stream(
        database, seed=101 + shards, length=600, delete_fraction=0.35, cancel_fraction=0.25
    )
    plain = FIVM(database, query, FEATURES)
    _replay(plain, stream)
    with ShardedMaintainer(
        database, query, FEATURES, shards=shards, executor=executor
    ) as sharded:
        _replay(sharded, stream)
        merged = sharded.statistics()
        _payloads_close(merged, plain.statistics())
        # The facade's base-relation copy tracks the same netted groups, so
        # its from-scratch recompute agrees too.
        _payloads_close(merged, sharded.recompute_statistics())
        if shards == 1:
            # One shard applies exactly the groups the unsharded maintainer
            # applies, in the same order: bitwise, not just tolerance.
            assert _payloads_identical(
                sharded.shard_statistics()[0], plain.statistics()
            )


def test_processpool_bitwise_matches_serial(retailer_source):
    """Same shards, same routed groups, same kernels — modes agree bitwise."""
    database, query = retailer_source
    stream = random_update_stream(database, seed=5, length=400, delete_fraction=0.4)
    serial = ShardedMaintainer(database, query, FEATURES, shards=2)
    _replay(serial, stream)
    with ShardedMaintainer(
        database, query, FEATURES, shards=2, executor="processpool"
    ) as pooled:
        _replay(pooled, stream)
        assert _payloads_identical(pooled.statistics(), serial.statistics())
        for left, right in zip(pooled.shard_statistics(), serial.shard_statistics()):
            assert _payloads_identical(left, right)


def test_processpool_ships_maintainer_once(retailer_source):
    database, query = retailer_source
    stream = random_update_stream(database, seed=9, length=300)
    with ShardedMaintainer(
        database, query, FEATURES, shards=2, executor="processpool"
    ) as pooled:
        assert pooled.sharding_stats()["maintainer_ships"] == 2
        _replay(pooled, stream, batch_size=50)
        stats = pooled.sharding_stats()
        # Warm-up shipped each maintainer exactly once; every batch after
        # that travelled as netted delta groups only.
        assert stats["maintainer_ships"] == 2
        assert stats["group_messages"] >= len(stream) // 50
        assert sum(stats["fact_rows_per_shard"]) == len(
            pooled.database.relation(pooled.fact_relation)
        )


def test_processpool_start_failure_leaves_no_worker(retailer_source, monkeypatch):
    """A maintainer that cannot be shipped stops the whole pool, fail-stop."""
    database, query = retailer_source
    built = []

    def build(*args, **kwargs):
        maintainer = FIVM(*args, **kwargs)
        built.append(maintainer)
        if len(built) == 2:
            maintainer.unshippable = lambda: None
        return maintainer

    monkeypatch.setattr(sharded_module, "FIVM", build)
    before = set(multiprocessing.active_children())
    with pytest.raises((pickle.PicklingError, AttributeError)):
        ShardedMaintainer(database, query, FEATURES, shards=2, executor="processpool")
    assert len(built) == 2
    assert set(multiprocessing.active_children()) <= before


def test_processpool_first_shard_start_failure_leaves_no_worker(retailer_source, monkeypatch):
    """Failing on the first ship still closes every worker already started."""
    database, query = retailer_source
    built = []

    def build(*args, **kwargs):
        maintainer = FIVM(*args, **kwargs)
        built.append(maintainer)
        if len(built) == 1:
            maintainer.unshippable = lambda: None
        return maintainer

    monkeypatch.setattr(sharded_module, "FIVM", build)
    before = set(multiprocessing.active_children())
    with pytest.raises((pickle.PicklingError, AttributeError)):
        ShardedMaintainer(database, query, FEATURES, shards=3, executor="processpool")
    assert len(built) == 3
    assert set(multiprocessing.active_children()) <= before


class _ExitOnLoad:
    """Pickles fine here; unpickling it ends the receiving process."""

    def __reduce__(self):
        return os._exit, (3,)


def test_processpool_worker_dying_at_load_leaves_no_worker(retailer_source, monkeypatch):
    """A worker that dies before its load reply fails the start, fail-stop."""
    database, query = retailer_source
    built = []

    def build(*args, **kwargs):
        maintainer = FIVM(*args, **kwargs)
        built.append(maintainer)
        if len(built) == 2:
            maintainer.exit_on_load = _ExitOnLoad()
        return maintainer

    monkeypatch.setattr(sharded_module, "FIVM", build)
    before = set(multiprocessing.active_children())
    with pytest.raises(EOFError):
        ShardedMaintainer(database, query, FEATURES, shards=2, executor="processpool")
    assert set(multiprocessing.active_children()) <= before


@pytest.mark.parametrize("shards", [1, 3])
def test_processpool_ships_each_shard_once_and_matches_serial(retailer_source, shards):
    database, query = retailer_source
    stream = random_update_stream(database, seed=61 + shards, length=240)
    serial = ShardedMaintainer(database, query, FEATURES, shards=shards)
    _replay(serial, stream)
    with ShardedMaintainer(
        database, query, FEATURES, shards=shards, executor="processpool"
    ) as pooled:
        assert pooled.shard_count == shards
        assert pooled.sharding_stats()["maintainer_ships"] == shards
        _replay(pooled, stream)
        assert pooled.sharding_stats()["maintainer_ships"] == shards
        assert _payloads_identical(pooled.statistics(), serial.statistics())
        assert (
            pooled.sharding_stats()["fact_rows_per_shard"]
            == serial.sharding_stats()["fact_rows_per_shard"]
        )


@pytest.mark.parametrize("executor", ["serial", "processpool"])
def test_a_batch_messages_only_the_shards_it_touches(retailer_source, executor):
    database, query = retailer_source
    row = next(iter(database.relation("Inventory")))
    with ShardedMaintainer(
        database, query, FEATURES, shards=2, executor=executor
    ) as maintainer:
        before = maintainer.sharding_stats()["group_messages"]
        maintainer.apply_batch([Update("Inventory", row, 1)])
        assert maintainer.sharding_stats()["group_messages"] == before + 1
        maintainer.apply_batch([])
        assert maintainer.sharding_stats()["group_messages"] == before + 1


def test_a_closed_processpool_refuses_work_and_closes_once(retailer_source):
    database, query = retailer_source
    before = set(multiprocessing.active_children())
    pooled = ShardedMaintainer(database, query, FEATURES, shards=2, executor="processpool")
    row = next(iter(database.relation("Inventory")))
    pooled.close()
    assert set(multiprocessing.active_children()) <= before
    pooled.close()
    with pytest.raises(RuntimeError, match="closed"):
        pooled.apply_batch([Update("Inventory", row, 1)])


# -- routing determinism ---------------------------------------------------------------


def test_routing_is_deterministic(retailer_source):
    database, query = retailer_source
    fact = database.relation("Inventory")
    router = ShardRouter(4, "Inventory", ("locn",), fact.schema.indices_of(("locn",)))
    rows = fact.rows()
    first = [router.shard_of_row(row) for row in rows]
    assert first == [router.shard_of_row(row) for row in rows]
    # And stable_hash itself is salt-free: fixed reference values pin it.
    assert stable_hash(1) == stable_hash(True) == stable_hash(1.0)
    assert stable_hash("1") != stable_hash(1)


@settings(deadline=None, max_examples=60)
@given(
    keys=st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=60),
    shards=st.integers(min_value=1, max_value=7),
    data=st.data(),
)
def test_routing_never_splits_a_key_across_shards(keys, shards, data):
    """Re-routing a netted batch keeps every shard-key value on one shard."""
    router = ShardRouter(shards, "F", ("k",), (0,))
    rows = [
        (key, data.draw(st.integers(min_value=0, max_value=3), label="v"))
        for key in keys
    ]
    netted = [data.draw(st.sampled_from([-2, -1, 1, 2]), label="m") for _ in rows]
    groups = [("F", rows, netted), ("D", [(1, 2)], [1])]
    per_shard = router.route_groups(groups)
    assert len(per_shard) == shards
    key_home: dict = {}
    seen_rows = 0
    for shard_id, shard_groups in enumerate(per_shard):
        # The dimension group replicates to every shard, by reference.
        dims = [group for group in shard_groups if group[0] == "D"]
        assert len(dims) == 1 and dims[0] is groups[1]
        for name, shard_rows, shard_netted in shard_groups:
            if name != "F":
                continue
            assert len(shard_rows) == len(shard_netted)
            seen_rows += len(shard_rows)
            for row in shard_rows:
                home = key_home.setdefault(row[0], shard_id)
                assert home == shard_id, f"key {row[0]} split across shards"
    assert seen_rows == len(rows)


# -- merge -----------------------------------------------------------------------------


def test_merge_payloads_is_the_ring_sum(retailer_source):
    database, query = retailer_source
    maintainer = ShardedMaintainer(database, query, FEATURES, shards=3)
    _replay(maintainer, random_update_stream(database, seed=21, length=300))
    parts = maintainer.shard_statistics()
    expected = maintainer.ring.zero()
    for part in parts:
        expected = maintainer.ring.add(expected, part)
    merged = merge_payloads(parts, maintainer.ring)
    _payloads_close(merged, expected)


# -- stats aggregation -----------------------------------------------------------------


def test_executor_stats_sum_per_shard_counters(retailer_source):
    database, query = retailer_source
    reset_kernel_stats()
    enable_kernel_stats()
    try:
        sharded = ShardedMaintainer(database, query, FEATURES, shards=2)
        _replay(sharded, random_update_stream(database, seed=33, length=300))
        aggregated = sharded.executor_stats
        per_shard = sharded._executor.executor_stats()
        assert aggregated["delta_passes"] == sum(
            stats.get("delta_passes", 0) for stats in per_shard
        )
        kernel_keys = [key for key in aggregated if key.startswith("kernel_")]
        assert kernel_keys, "kernel counters were dropped by the aggregation"
        for key in kernel_keys:
            assert aggregated[key] == sum(stats.get(key, 0) for stats in per_shard)
        assert aggregated["routed_batches"] > 0
        assert aggregated["routed_fact_rows"] > 0
    finally:
        enable_kernel_stats(False)
        reset_kernel_stats()


def test_serving_stats_sharding_block(retailer_source):
    database, query = retailer_source
    stream = random_update_stream(database, seed=44, length=200)
    maintainer = ShardedMaintainer(database, query, FEATURES, shards=2)
    plain = FIVM(database, query, FEATURES)
    with QueryServer(maintainer, readers=2) as server:
        for start in range(0, len(stream), 50):
            server.apply_batch(stream[start : start + 50])
            plain.apply_batch(stream[start : start + 50])
        read = server.statistics()
        _payloads_close(read.value, plain.statistics())
        # Ad-hoc aggregate reads evaluate against the facade's base copy.
        query_read = server.query(covariance_batch(FEATURES[:3]))
        assert query_read.value
        block = server.serving_stats()
    sharding = block["sharding"]
    assert sharding["shard_count"] == 2
    assert sharding["executor"] == "serial"
    assert len(sharding["fact_rows_per_shard"]) == 2
    assert sharding["imbalance"] >= 1.0
    assert sharding["maintainer_ships"] == 0


# -- lifecycle / contract edges --------------------------------------------------------


def test_serial_sharded_maintainer_pickles(retailer_source):
    database, query = retailer_source
    maintainer = ShardedMaintainer(database, query, FEATURES, shards=2)
    _replay(maintainer, random_update_stream(database, seed=55, length=200))
    clone = pickle.loads(pickle.dumps(maintainer))
    assert _payloads_identical(clone.statistics(), maintainer.statistics())
    extra = random_update_stream(database, seed=56, length=100)
    maintainer.apply_batch(extra)
    clone.apply_batch(extra)
    assert _payloads_identical(clone.statistics(), maintainer.statistics())


def test_processpool_maintainer_refuses_pickle(retailer_source):
    database, query = retailer_source
    with ShardedMaintainer(
        database, query, FEATURES, shards=2, executor="processpool"
    ) as pooled:
        with pytest.raises(TypeError, match="serial"):
            pickle.dumps(pooled)


def test_a_raising_shard_leaves_the_base_copy_untouched(retailer_source):
    """The facade's base copy takes a batch only after every shard applied it."""
    database, query = retailer_source
    maintainer = ShardedMaintainer(database, query, FEATURES, shards=2)
    _replay(maintainer, random_update_stream(database, seed=57, length=120))

    def contents():
        return {relation.name: dict(relation.items()) for relation in maintainer.database}

    before = contents()
    fact = list(database.relation("Inventory"))
    unliftable = fact[1][:-1] + ("not a number",)  # inventoryunits is a feature
    with pytest.raises(ValueError, match="could not convert"):
        maintainer.apply_batch(
            [Update("Inventory", fact[0], 1), Update("Inventory", unliftable, 1)]
        )
    assert contents() == before


@pytest.mark.parametrize("shards", [1, 2])
def test_apply_lands_where_a_one_update_batch_does(retailer_source, shards):
    database, query = retailer_source
    stream = random_update_stream(database, seed=58, length=90, cancel_fraction=0.3)
    single = ShardedMaintainer(database, query, FEATURES, shards=shards)
    batched = ShardedMaintainer(database, query, FEATURES, shards=shards)
    for update in stream:
        single.apply(update)
        batched.apply_batch([update])
    assert _payloads_identical(single.statistics(), batched.statistics())
    for relation in single.database:
        assert dict(relation.items()) == dict(batched.database.relation(relation.name).items())


@pytest.mark.parametrize("shards", [1, 2])
def test_durable_sharded_server_recovers_bitwise(tmp_path, retailer_source, shards):
    """A durable QueryServer over the sharded facade, dropped without
    close(), recovers to the bits of an uninterrupted sharded run."""
    database, query = retailer_source

    def sharded():
        return ShardedMaintainer(database, query, FEATURES, shards=shards)

    stream = random_update_stream(
        database, seed=60 + shards, length=300, delete_fraction=0.35, cancel_fraction=0.3
    )[:300]
    batches = [stream[start : start + 30] for start in range(0, len(stream), 30)]
    uninterrupted = sharded()
    for batch in batches:
        uninterrupted.apply_batch(batch)

    options = DurabilityOptions(tmp_path, sync="batch", checkpoint_interval=3)
    server = QueryServer(sharded(), readers=1, durability=options)
    for batch in batches:
        server.apply_batch(batch)
    # The unclean stop: the last periodic checkpoint is after batch 9, so
    # recovery replays batch 10 from the journal on top of it.
    del server
    gc.collect()
    assert recover(options).replayed_batches == len(batches) % 3 == 1
    revived = QueryServer.recover(options, maintainer_factory=sharded, readers=1)
    try:
        assert revived.prefix == len(batches)
        assert isinstance(revived.maintainer, ShardedMaintainer)
        assert _payloads_identical(revived.statistics().value, uninterrupted.statistics())
    finally:
        revived.close()


@pytest.mark.parametrize(
    "dataset, build",
    [
        ("retailer", lambda: datasets.retailer_database(inventory_rows=300, seed=7)),
        ("favorita", lambda: datasets.favorita_database(sales_rows=300)),
        ("yelp", lambda: datasets.yelp_database(review_rows=300)),
        ("tpcds", lambda: datasets.tpcds_database(sales_rows=300)),
    ],
)
def test_default_fact_relation_is_the_maintainers_root(dataset, build):
    """The facade routes by the relation its shards are rooted at."""
    database = build()
    query = getattr(datasets, f"{dataset}_query")()
    features = getattr(datasets, f"{dataset.upper()}_FEATURES")["continuous"]
    facade = ShardedMaintainer(database, query, features, shards=2)
    root = FIVM(database, query, features).join_tree.root.relation_name
    assert facade.fact_relation == root == facade.join_tree.root.relation_name


def test_bad_configuration_raises(retailer_source):
    database, query = retailer_source
    with pytest.raises(ValueError, match="shards"):
        ShardedMaintainer(database, query, FEATURES, shards=0)
    with pytest.raises(ValueError, match="executor"):
        ShardedMaintainer(database, query, FEATURES, executor="threads")
    with pytest.raises(ValueError, match="shard key"):
        ShardedMaintainer(database, query, FEATURES, shard_key=("nope",))


# -- synthetic skew knobs --------------------------------------------------------------


def test_zipf_sampler_is_skewed_and_deterministic():
    import random

    draws_a = [ZipfSampler(50, 1.4, random.Random(3)).sample() for _ in range(500)]
    draws_b = [ZipfSampler(50, 1.4, random.Random(3)).sample() for _ in range(500)]
    assert draws_a == draws_b
    top_share = draws_a.count(0) / len(draws_a)
    assert top_share > 0.2, f"rank 0 drew only {top_share:.0%} under alpha=1.4"
    uniform = [ZipfSampler(50, 0.0, random.Random(3)).sample() for _ in range(500)]
    assert uniform.count(0) / len(uniform) < top_share


def test_skewed_stream_imbalances_shards(retailer_source):
    database, query = retailer_source
    skewed = skewed_update_stream(
        database, "Inventory", length=400, seed=8,
        key_attributes=("locn",), skew_alpha=1.5, delete_fraction=0.2,
    )
    uniform = skewed_update_stream(
        database, "Inventory", length=400, seed=8,
        key_attributes=("locn",), skew_alpha=0.0, delete_fraction=0.2,
    )
    def imbalance(stream):
        maintainer = ShardedMaintainer(
            database, query, FEATURES, shards=4, shard_key=("locn",)
        )
        _replay(maintainer, stream)
        return maintainer.sharding_stats()["imbalance"]

    assert imbalance(skewed) > imbalance(uniform)


def test_skewed_stream_mixes_deletes_and_dimensions(retailer_source):
    database, query = retailer_source
    stream = skewed_update_stream(
        database, "Inventory", length=300, seed=12,
        skew_alpha=1.0, delete_fraction=0.5, dimension_fraction=0.3, fanout=3,
    )
    assert len(stream) == 300
    names = {update.relation_name for update in stream}
    assert "Inventory" in names and len(names) > 1
    assert any(update.multiplicity < 0 for update in stream)
    # The stream replays cleanly through a sharded maintainer and matches
    # the unsharded result (delete-heavy netting included).
    plain = FIVM(database, query, FEATURES)
    sharded = ShardedMaintainer(database, query, FEATURES, shards=2)
    _replay(plain, stream)
    _replay(sharded, stream)
    _payloads_close(sharded.statistics(), plain.statistics())
