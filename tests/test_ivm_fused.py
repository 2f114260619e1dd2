"""The fused multi-delta pass (PR 4).

Equivalence guarantees of the one-pass propagation:

- the fused pass vs. the per-tuple path vs. the journal's replay on
  randomized multi-relation insert/delete batches (including multiplicities
  that cancel inside one batch) — identical payloads up to float
  reassociation, bit-identical for the replay.

Plus units for the primitives: keyed-delta merging, the traversal schedule,
sparse lifts, single-support ring products, update-mass rooting, and the
maintainers' constructor surface.
"""

import inspect
import pickle
import random

import numpy as np
import pytest

from repro.data import Database, Relation
from repro.data.tuplestore import COMPACT_MIN_ZEROS
from repro.datasets import retailer_database, retailer_query
from repro.durability import CheckpointStore
from repro.engine.deltas import merge_keyed_deltas, subtree_schedule
from repro.ivm import FIVM, CovarianceMaintainer, Update
from repro.rings.covariance import CovarianceBlock, CovarianceRing
from repro.sharding import ShardedMaintainer
from streams import facts_first_batches, random_update_stream

FEATURES = ["inventoryunits", "prize", "maxtemp"]


@pytest.fixture(scope="module")
def ivm_source():
    database = retailer_database(inventory_rows=200, stores=5, items=10, dates=8, seed=33)
    return database, retailer_query()


def _payloads_match(left, right, rtol=1e-5, atol=1e-8):
    return (
        np.isclose(left.count, right.count, rtol=rtol, atol=atol)
        and np.allclose(left.sums, right.sums, rtol=rtol, atol=atol)
        and np.allclose(left.moments, right.moments, rtol=rtol, atol=atol)
    )


def _payloads_identical(left, right):
    """Bit for bit: a zero's sign counts."""
    return (
        np.float64(left.count).tobytes() == np.float64(right.count).tobytes()
        and left.sums.tobytes() == right.sums.tobytes()
        and left.moments.tobytes() == right.moments.tobytes()
    )


# -- fused vs. per-tuple propagation ----------------------------------------------------


@pytest.mark.parametrize("batch_size", [5, 23, 400])
def test_fused_matches_per_tuple(ivm_source, batch_size):
    database, query = ivm_source
    stream = random_update_stream(database, seed=7, length=400)
    fused = FIVM(database, query, FEATURES)
    per_tuple = FIVM(database, query, FEATURES)
    for start in range(0, len(stream), batch_size):
        fused.apply_batch(stream[start : start + batch_size])
    for update in stream:
        per_tuple.apply(update)
    assert fused.executor_stats["delta_passes"] > 0
    assert "delta_passes" not in per_tuple.executor_stats
    assert _payloads_match(fused.statistics(), per_tuple.statistics())
    assert _payloads_match(fused.statistics(), fused.recompute_statistics())
    # The maintained per-node views agree too, not just the root payload;
    # the per-tuple path also keeps the (zeroed) keys of rows a batch nets away.
    for name, view in fused._views.items():
        other = per_tuple._views[name]
        assert set(view.keys()) <= set(other.keys())
        for key in other.keys():
            payload = view.get(key)
            assert _payloads_match(
                other.get(key), payload if payload is not None else fused.ring.zero(),
                atol=1e-6,
            )


def test_fused_matches_recomputation_under_cancellation(ivm_source):
    database, query = ivm_source
    stream = random_update_stream(database, seed=19, length=300, cancel_fraction=0.5)
    maintainer = FIVM(database, query, FEATURES)
    for start in range(0, len(stream), 50):
        maintainer.apply_batch(stream[start : start + 50])
    assert _payloads_match(maintainer.statistics(), maintainer.recompute_statistics())
    assert maintainer.executor_stats["delta_passes"] > 0
    assert maintainer.executor_stats["delta_pass_ns"] > 0


def test_fused_interleaves_with_per_tuple(ivm_source):
    database, query = ivm_source
    stream = random_update_stream(database, seed=3, length=240)
    maintainer = FIVM(database, query, FEATURES)
    cursor = 0
    rng = random.Random(8)
    while cursor < len(stream):
        if rng.random() < 0.4:
            maintainer.apply(stream[cursor])
            cursor += 1
        else:
            step = rng.choice([4, 30, 77])
            maintainer.apply_batch(stream[cursor : cursor + step])
            cursor += step
    assert _payloads_match(maintainer.statistics(), maintainer.recompute_statistics())


# -- adversarial arrival orders ---------------------------------------------------------
#
# The insert path reads a batch row's key codes off its relation's store: a
# group lands at its node's turn in the pass, the own-delta join and every
# later hop read the codes through shared (parent, child) slot maps, and a
# slot map resolves a miss only when the child view gains the key.  These
# streams aim at exactly that machinery; every one is checked after every
# batch on all three routes to the same state.

#: The documented agreement of float results summed in different orders
#: (docs/architecture.md, "Horizontal sharding").
RTOL, ATOL = 1e-9, 1e-6


def _payloads_close(left, right):
    return _payloads_match(left, right, rtol=RTOL, atol=ATOL)


class _ThreeRoutes:
    """One stream into the fused pass, the per-tuple path and the journal's
    ``apply_groups(net_updates(U))`` replay."""

    def __init__(self, database, query):
        self.fused = FIVM(database, query, FEATURES)
        self.per_tuple = FIVM(database, query, FEATURES)
        self.replayed = FIVM(database, query, FEATURES)

    def apply(self, batch):
        self.fused.apply_batch(batch)
        for update in batch:
            self.per_tuple.apply(update)
        self.replayed.apply_groups(self.replayed.net_updates(batch))
        fused = self.fused.statistics()
        # Replay retraces the batch float for float; the per-tuple route
        # sums in another order.
        assert _payloads_identical(fused, self.replayed.statistics())
        assert _payloads_close(fused, self.per_tuple.statistics())
        assert _payloads_close(fused, self.fused.recompute_statistics())
        return fused


def _all_rows(database, keep=lambda name, row: True):
    return [
        Update(relation.name, row, multiplicity)
        for relation in database
        for row, multiplicity in relation.items()
        if keep(relation.name, row)
    ]


def test_dimensions_trickling_in_after_every_fact(ivm_source):
    database, query = ivm_source
    batches = facts_first_batches(database, "Inventory", seed=5)
    routes = _ThreeRoutes(database, query)
    with ShardedMaintainer(
        database, query, FEATURES, shards=2, executor="serial"
    ) as sharded:
        for batch in batches:
            fused = routes.apply(batch)
            sharded.apply_batch(batch)
            assert _payloads_close(sharded.statistics(), fused)
    # Nothing joined until the last dimension arrived; by the end all does.
    assert fused.count == len(database.relation("Inventory"))


def test_slot_maps_probe_each_key_once(ivm_source):
    """The algorithmic claim, as a count: resolving a parent's key codes to
    view slots costs one dictionary probe per index key and one per view key — not one
    per outstanding miss and hop, which is what facts-before-dimensions made
    of the re-probing lookup."""
    database, query = ivm_source
    maintainer = FIVM(database, query, FEATURES)
    for batch in facts_first_batches(database, "Inventory", seed=5):
        maintainer.apply_batch(batch)
    assert maintainer._slot_maps
    # Every batch here ran the fused pass, which is what the stat counts.
    assert maintainer.executor_stats["slot_map_probes"] == sum(
        slot_map.probes for slot_map in maintainer._slot_maps.values()
    )
    for (parent, child), slot_map in maintainer._slot_maps.items():
        view = maintainer._views[child]
        store = maintainer.database.relation(parent).store
        attributes = maintainer._conn_attrs[child]
        store_keys = store.index_keys(attributes, range(store.index_size(attributes)))
        # Resolved in full (this lookup picks up what the last batch added):
        # every key of the parent's index the view holds has its slot ...
        assert slot_map.lookup().tolist() == [view.slot_of(key) for key in store_keys]
        # ... for one probe per key on either side, at most.
        assert 0 < slot_map.probes <= len(store_keys) + len(view)
        settled = slot_map.probes
        slot_map.lookup()
        assert slot_map.probes == settled


def test_dimension_row_deleted_and_reinserted(ivm_source):
    database, query = ivm_source
    routes = _ThreeRoutes(database, query)
    loaded = routes.apply(_all_rows(database))
    store = next(iter(database.relation("Stores")))
    item = next(iter(database.relation("Items")))
    weather = next(iter(database.relation("Weather")))
    census = next(iter(database.relation("Demographics")))
    gone = routes.apply([Update("Stores", store, -1), Update("Items", item, -1)])
    assert gone.count < loaded.count
    # Back in a later batch: the views kept the keys, the slot maps their slots.
    back = routes.apply([Update("Items", item, 1), Update("Stores", store, 1)])
    assert back.count == loaded.count
    # Out and in again inside one batch nets to nothing for those rows.
    same = routes.apply(
        [
            Update("Weather", weather, -1),
            Update("Demographics", census, -1),
            Update("Weather", weather, 1),
            Update("Demographics", census, 1),
            Update("Items", item, -1),
            Update("Items", item[:-1] + (item[-1] + 1.0,), 1),
        ]
    )
    assert same.count == loaded.count


def test_parent_and_child_rows_of_one_key_in_one_batch(ivm_source):
    """A batch brings a store, its census row, its weather and its inventory
    at once.  The parent's new rows are invisible to the child's hop (they
    land at the parent's own turn, after the hop); the pair is counted once,
    by the parent's own delta against the updated child view."""
    database, query = ivm_source
    stores = database.relation("Stores")
    locn, zipcode = next(iter(stores))[:2]
    other_zips = {row[1] for row in stores if row[0] != locn}

    def of_the_store(name, row):
        if name in ("Stores", "Inventory", "Weather"):
            return row[0] == locn
        if name == "Demographics":
            return row[0] == zipcode and zipcode not in other_zips
        return False

    routes = _ThreeRoutes(database, query)
    before = routes.apply(_all_rows(database, lambda name, row: not of_the_store(name, row)))
    batch = _all_rows(database, of_the_store)
    assert {update.relation_name for update in batch} >= {"Stores", "Inventory", "Weather"}
    random.Random(2).shuffle(batch)
    after = routes.apply(batch)
    assert after.count == len(database.relation("Inventory")) > before.count
    # And the whole database as one batch: every parent row with its children.
    assert _payloads_close(_ThreeRoutes(database, query).apply(_all_rows(database)), after)


def test_duplicates_cancelling_pairs_and_zero_multiplicities_in_one_batch(ivm_source):
    database, query = ivm_source
    rng = random.Random(13)
    rows = _all_rows(database)
    rng.shuffle(rows)
    routes = _ThreeRoutes(database, query)
    for start in range(0, len(rows), 40):
        batch = []
        for update in rows[start : start + 40]:
            batch.append(update)
            kind = rng.randrange(5)
            if kind == 0:    # a duplicate: the row nets to multiplicity 2 ...
                batch.append(update)
            elif kind == 1:  # ... a pair that cancels inside the batch ...
                batch.extend([update, Update(update.relation_name, update.row, -1)])
            elif kind == 2:  # ... a no-op ...
                batch.append(Update(update.relation_name, update.row, 0))
            elif kind == 3:  # ... and a row that nets to nothing at all.
                ghost = update.row[:-1] + (-7.5,)
                batch.extend(
                    [
                        Update(update.relation_name, ghost, 2),
                        Update(update.relation_name, ghost, -2),
                    ]
                )
        rng.shuffle(batch)
        routes.apply(batch)
    assert routes.fused.statistics().count > len(database.relation("Inventory"))


def _stored_rows(maintainer):
    """Slots per relation (tombstones included), and the key codes of the
    index each child's hop reads on it."""
    state = {}
    for node in maintainer.join_tree.nodes():
        store = maintainer.database.relation(node.relation_name).store
        state[node.relation_name] = (store.row_count, [
            store.index_size(maintainer._conn_attrs[child.relation_name])
            for child in node.children
        ])
    return state


class _PerTupleFIVM(FIVM):
    """No fused-pass override: every batch takes the per-tuple fallback."""

    _apply_multi_delta = CovarianceMaintainer._apply_multi_delta


@pytest.mark.parametrize("position", ["first", "middle", "last"])
@pytest.mark.parametrize("fused", [True, False])
def test_bad_arity_anywhere_in_a_batch_leaves_the_maintainer_untouched(
    ivm_source, position, fused
):
    database, query = ivm_source
    stream = random_update_stream(database, seed=29, length=160)
    strategy = FIVM if fused else _PerTupleFIVM
    maintainer = strategy(database, query, FEATURES)
    twin = strategy(database, query, FEATURES)
    maintainer.apply_batch(stream[:80])
    twin.apply_batch(stream[:80])
    poisoned = list(stream[80:])
    bad = Update("Items", next(iter(database.relation("Items")))[:-1], 1)
    poisoned.insert({"first": 0, "middle": 40, "last": len(poisoned)}[position], bad)
    versions = {relation.name: relation.version for relation in maintainer.database}
    stored = _stored_rows(maintainer)
    with pytest.raises(ValueError, match="arity"):
        maintainer.apply_batch(poisoned)
    assert {r.name: r.version for r in maintainer.database} == versions
    assert _stored_rows(maintainer) == stored
    assert maintainer.view_sizes() == twin.view_sizes()
    assert _payloads_identical(maintainer.statistics(), twin.statistics())
    # The batch without the bad row then lands exactly as if nothing happened.
    maintainer.apply_batch(stream[80:])
    twin.apply_batch(stream[80:])
    assert _payloads_identical(maintainer.statistics(), twin.statistics())


# -- zero-multiplicity updates ----------------------------------------------------------


def test_zero_multiplicity_apply_changes_nothing(ivm_source):
    """``apply(u)`` with multiplicity 0 is the no-op ``apply_batch([u])`` nets
    it to: no stored row, no key code, no view key, no growth of the pickled state —
    for rows the maintainer holds and rows it never saw alike."""
    database, query = ivm_source
    maintainer = FIVM(database, query, FEATURES)
    maintainer.apply_batch(_all_rows(database))
    maintainer.executor_stats.clear()  # wall-clock counters, not state
    stored = _stored_rows(maintainer)
    assert all(rows for rows, _codes in stored.values())
    view_sizes = maintainer.view_sizes()
    versions = {relation.name: relation.version for relation in maintainer.database}
    before = maintainer.statistics()
    pickled = len(pickle.dumps(maintainer, protocol=4))
    rows = {relation.name: list(relation) for relation in database}
    rng = random.Random(41)
    for step in range(1000):
        name = rng.choice(list(rows))
        row = rng.choice(rows[name])
        if step % 2:  # a ghost: a key no view holds
            row = (f"ghost-{step}",) + row[1:]
        maintainer.apply(Update(name, row, 0))
    assert _stored_rows(maintainer) == stored
    assert maintainer.view_sizes() == view_sizes
    assert {r.name: r.version for r in maintainer.database} == versions
    assert _payloads_identical(maintainer.statistics(), before)
    assert len(pickle.dumps(maintainer, protocol=4)) == pickled
    # Validation still comes first.
    with pytest.raises(ValueError, match="arity"):
        maintainer.apply(Update("Stores", rows["Stores"][0][:-1], 0))


# -- state follows the live data ---------------------------------------------------------


def _delete_and_reinsert(database, seed):
    """One cycle: every fact row deleted in one batch, back in the next."""
    facts = _all_rows(database, lambda name, row: name == "Inventory")
    return [[Update(u.relation_name, u.row, -u.multiplicity) for u in facts], facts]


def _cancel_heavy_cycle(database, seed):
    """One cycle in Figure 4's cancel-heavy shape: the shuffled facts in
    slices, each batch deleting one slice and bringing back the slice the
    batch before deleted, beside a dimension row inserted and deleted again
    inside the batch; the last batch brings back the last slice."""
    rng = random.Random(seed)
    facts = _all_rows(database, lambda name, row: name == "Inventory")
    rng.shuffle(facts)
    slices = [facts[start : start + 20] for start in range(0, len(facts), 20)]
    dimensions = _all_rows(database, lambda name, row: name != "Inventory")
    batches, back = [], []
    for piece in slices + [[]]:
        ghost = rng.choice(dimensions)
        batches.append(
            [Update(u.relation_name, u.row, -u.multiplicity) for u in piece]
            + back + [ghost, Update(ghost.relation_name, ghost.row, -1)]
        )
        back = piece
    return batches


@pytest.mark.parametrize("cycle", [_delete_and_reinsert, _cancel_heavy_cycle])
def test_maintainer_state_follows_the_live_data(ivm_source, cycle):
    """Deleting and reinserting every fact row k times leaves the maintainer
    the size one cycle left it: deletes net in place, sweeps reclaim the
    slots, and the key indexes cover the stored slots only (a second,
    append-only copy of the rows grew by two entries per fact per cycle)."""
    database, query = ivm_source
    maintainer = FIVM(database, query, FEATURES)
    maintainer.apply_batch(_all_rows(database))
    inventory = maintainer.database.relation("Inventory")
    store = inventory.store
    pickled = {}
    for k in range(1, 6):
        for batch in cycle(database, seed=k):
            maintainer.apply_batch(batch)
        live = len(inventory)
        assert live == len(database.relation("Inventory"))
        assert store.row_count <= live + max(COMPACT_MIN_ZEROS, store.row_count // 4)
        for child in maintainer.join_tree.root.children:
            attributes = maintainer._conn_attrs[child.relation_name]
            size = store.index_size(attributes)
            _items, slots = store.index_lookup(attributes, np.arange(size))
            assert slots.size == live <= store.row_count
            assert store.index_codes(attributes).size == store.row_count
        pickled[k] = len(pickle.dumps(maintainer, protocol=4))
    assert pickled[5] <= 1.1 * pickled[1], pickled
    assert _payloads_close(maintainer.statistics(), maintainer.recompute_statistics())


# -- the hop reads the stored values ------------------------------------------------------

#: Values Python equality folds into one dictionary entry: ``-0.0``/``0.0``
#: and ``1``/``1.0``/``True``; whichever comes first is the entry.
FOLDED = [-0.0, 0.0, 1, 1.0, True, -0.0, 1.0]


def _with_folded_features(database):
    """The database with every other value of the parent relations' features
    (Weather's ``maxtemp``, Inventory's ``inventoryunits``) replaced by a
    folded one."""
    relations = []
    for relation in database:
        position = {"Weather": 2, "Inventory": 3}.get(relation.name)
        rows = list(relation)
        if position is not None:
            rows = [
                row[:position] + (FOLDED[index // 2 % len(FOLDED)],) + row[position + 1 :]
                if index % 2 == 0 else row
                for index, row in enumerate(rows)
            ]
        relations.append(Relation(relation.name, relation.schema, rows=rows))
    return Database(relations, name="folded")


def _views_bytes(maintainer):
    return {
        name: (view.keys(), view.counts[: len(view)].tobytes(),
               view.sums[: len(view)].tobytes(), view.moments[: len(view)].tobytes())
        for name, view in maintainer._views.items()
    }


def test_hops_read_the_stored_floats(ivm_source, tmp_path):
    """A parent row hops with the value stored, not its dictionary entry's:
    a ``-0.0`` under the entry ``0.0`` keeps its sign through a child's hop,
    fused == replay bit for bit, and a live store with tombstones equals its
    recovered (swept) twin bit for bit, re-checkpointing to the same bytes."""
    database = _with_folded_features(ivm_source[0])
    routes = _ThreeRoutes(database, ivm_source[1])
    for batch in facts_first_batches(database, "Inventory", seed=9, fact_batch=60):
        routes.apply(batch)
    fused = routes.fused
    # What a hop into a parent reads: the stored value of every slot, the
    # zero's sign included, although the dictionary holds one entry per fold.
    for name, feature in (("Weather", "maxtemp"), ("Inventory", "inventoryunits")):
        store = fused.database.relation(name).store
        position = store.schema.index_of(feature)
        stored = np.asarray([float(row[position]) for row in store.rows_list()])
        read = store.floats_at(feature, np.arange(store.row_count))
        assert read.tobytes() == stored.tobytes()
        assert np.signbit(read).any() and (read == 1.0).any()
    negative = [row for row in database.relation("Weather") if np.signbit(row[2])]

    # Deaths below the sweep threshold: the live stores keep tombstones.
    doomed = [Update("Inventory", row, -1) for row in list(database.relation("Inventory"))[::9]]
    doomed += [Update("Weather", row, -1) for row in negative[:2]]
    routes.apply(doomed)
    assert 0 < fused.database.relation("Inventory").store.zeros < COMPACT_MIN_ZEROS
    checkpoints = CheckpointStore(tmp_path / "live")
    written = checkpoints.write(fused, 0, prefix=1)
    recovered = checkpoints.latest().maintainer
    assert recovered.database.relation("Inventory").store.zeros == 0
    assert _views_bytes(recovered) == _views_bytes(fused)
    again = CheckpointStore(tmp_path / "again").write(recovered, 0, prefix=1)
    assert again.read_bytes() == written.read_bytes()
    # Both go on alike: hops into the tombstoned and into the swept store.
    later = [Update(u.relation_name, u.row, 1) for u in doomed[::2]] + [
        Update(u.relation_name, u.row, -1)
        for u in _all_rows(database, lambda name, row: name in ("Items", "Stores"))[::3]
    ]
    for maintainer in (fused, recovered):
        maintainer.apply_batch(later)
    assert _payloads_identical(recovered.statistics(), fused.statistics())
    assert _views_bytes(recovered) == _views_bytes(fused)


# -- the traversal schedule -------------------------------------------------------------


def test_subtree_schedule_levels_and_groups(ivm_source):
    database, query = ivm_source
    maintainer = FIVM(database, query, FEATURES)
    schedule = subtree_schedule(maintainer.join_tree)
    # Deepest level first; the root comes last.
    assert schedule[-1] is maintainer.join_tree.root
    seen = []
    for node in schedule:
        # Children are always scheduled before their parent.
        assert all(child.relation_name in seen for child in node.children)
        seen.append(node.relation_name)
    assert sorted(seen) == sorted(n.relation_name for n in maintainer.join_tree.nodes())
    # The children of one parent stay together, in the parent's child order.
    for node in maintainer.join_tree.nodes():
        names = [child.relation_name for child in node.children]
        if names:
            start = seen.index(names[0])
            assert seen[start : start + len(names)] == names


# -- keyed-delta merging ----------------------------------------------------------------


def test_merge_keyed_deltas_orders_and_sums():
    rng = np.random.default_rng(4)
    dim = 2
    ring = CovarianceRing(dim)

    def block(rows):
        return CovarianceBlock(
            rng.normal(size=rows),
            rng.normal(size=(rows, dim)),
            rng.normal(size=(rows, dim, dim)),
        )

    first = (["a", "b"], block(2))
    second = (["b", "c"], block(2))
    keys, merged = merge_keyed_deltas([first, second], CovarianceBlock.concatenate)
    assert keys == ["a", "b", "c"]  # first-seen order
    expected_b = ring.add(first[1].payload_at(1), second[1].payload_at(0))
    assert _payloads_match(merged.payload_at(1), expected_b)
    assert _payloads_match(merged.payload_at(0), first[1].payload_at(0))
    assert _payloads_match(merged.payload_at(2), second[1].payload_at(1))

    # Identical key lists take the elementwise fast path; same result.
    third = (["a", "b"], block(2))
    keys2, merged2 = merge_keyed_deltas([first, third], CovarianceBlock.concatenate)
    assert keys2 == ["a", "b"]
    for position in range(2):
        assert _payloads_match(
            merged2.payload_at(position),
            ring.add(first[1].payload_at(position), third[1].payload_at(position)),
        )

    # A single contribution passes through untouched.
    same_keys, same_block = merge_keyed_deltas([first], CovarianceBlock.concatenate)
    assert same_keys is first[0] and same_block is first[1]


# -- ring primitives --------------------------------------------------------------------


def test_sparse_lift_matches_dense():
    rng = np.random.default_rng(9)
    size, dim = 17, 6
    positions = [1, 4]
    features = np.zeros((size, dim))
    for position in positions:
        features[:, position] = rng.normal(size=size)
    weights = rng.integers(-2, 3, size=size).astype(float)
    sparse = CovarianceBlock.lift(features, weights, positions)
    dense = CovarianceBlock.lift(features, weights)
    assert np.allclose(sparse.counts, dense.counts)
    assert np.allclose(sparse.sums, dense.sums)
    assert np.allclose(sparse.moments, dense.moments)
    # Unweighted variant too.
    sparse1 = CovarianceBlock.lift(features, None, positions)
    dense1 = CovarianceBlock.lift(features)
    assert np.allclose(sparse1.moments, dense1.moments)


def test_multiply_point_matches_general():
    rng = np.random.default_rng(13)
    size, dim = 11, 5
    position = 3
    block = CovarianceBlock(
        rng.normal(size=size),
        rng.normal(size=(size, dim)),
        rng.normal(size=(size, dim, dim)),
    )
    counts = rng.normal(size=size)
    sums_at = rng.normal(size=size)
    moments_at = rng.normal(size=size)
    other = CovarianceBlock.zeros(size, dim)
    other.counts[:] = counts
    other.sums[:, position] = sums_at
    other.moments[:, position, position] = moments_at
    fused = block.multiply_point(counts, sums_at, moments_at, position)
    general = block.multiply(other)
    assert np.allclose(fused.counts, general.counts)
    assert np.allclose(fused.sums, general.sums)
    assert np.allclose(fused.moments, general.moments)


def test_segment_sum_single_group_fast_path():
    rng = np.random.default_rng(2)
    block = CovarianceBlock(
        rng.normal(size=9), rng.normal(size=(9, 3)), rng.normal(size=(9, 3, 3))
    )
    summed = block.segment_sum(np.zeros(9, dtype=np.int64), 1)
    assert np.isclose(summed.counts[0], block.counts.sum())
    assert np.allclose(summed.sums[0], block.sums.sum(axis=0))
    assert np.allclose(summed.moments[0], block.moments.sum(axis=0))


# -- update-mass rooting ----------------------------------------------------------------


def test_largest_root_strategy_roots_at_fact_table(ivm_source):
    database, query = ivm_source
    maintainer = FIVM(database, query, FEATURES)
    largest = max(query.relation_names, key=lambda name: len(database.relation(name)))
    assert maintainer.join_tree.root.relation_name == largest
    # root_relation is the one override; the statistics do not depend on it.
    forced = FIVM(database, query, FEATURES, root_relation="Stores")
    assert forced.join_tree.root.relation_name == "Stores" != largest
    stream = random_update_stream(database, seed=21, length=150)
    maintainer.apply_batch(stream)
    forced.apply_batch(stream)
    assert _payloads_match(maintainer.statistics(), forced.statistics())


def test_maintainer_constructor_surface(ivm_source):
    """The whole configuration surface: a new knob has to edit this test."""
    database, query = ivm_source
    assert list(inspect.signature(FIVM.__init__).parameters) == [
        "self", "schema_database", "query", "features", "root_relation",
    ]
    assert list(inspect.signature(ShardedMaintainer.__init__).parameters) == [
        "self", "schema_database", "query", "features", "shards", "shard_key",
        "fact_relation", "executor",
    ]
    # A removed argument is an error, not a silently ignored setting.
    with pytest.raises(TypeError, match="root_strategy"):
        FIVM(database, query, FEATURES, root_strategy="largest")
    for removed in ("maintainer_factory", "root_strategy"):
        with pytest.raises(TypeError, match=removed):
            ShardedMaintainer(database, query, FEATURES, **{removed: FIVM})
