"""Tests for the IVM layer: correctness under inserts and deletes."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import Database, Relation, Schema
from repro.datasets import retailer_database, retailer_query
from repro.ivm import FIVM, Update
from repro.query import ConjunctiveQuery
from repro.sharding import ShardedMaintainer

FEATURES = ["inventoryunits", "prize", "maxtemp"]
STRATEGIES = [FIVM]


@pytest.fixture(scope="module")
def ivm_source():
    database = retailer_database(inventory_rows=120, stores=4, items=8, dates=5, seed=9)
    return database, retailer_query()


def _stream_from(database, per_relation=40, seed=1):
    updates = []
    for relation in database:
        for row in list(relation)[:per_relation]:
            updates.append(Update(relation.name, row, 1))
    random.Random(seed).shuffle(updates)
    return updates


def _payloads_match(left, right):
    return (
        np.isclose(left.count, right.count)
        and np.allclose(left.sums, right.sums)
        and np.allclose(left.moments, right.moments)
    )


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_insert_stream_matches_recomputation(ivm_source, strategy):
    database, query = ivm_source
    maintainer = strategy(database, query, FEATURES)
    maintainer.apply_batch(_stream_from(database))
    assert _payloads_match(maintainer.statistics(), maintainer.recompute_statistics())


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_deletes_are_handled_uniformly(ivm_source, strategy):
    database, query = ivm_source
    maintainer = strategy(database, query, FEATURES)
    stream = _stream_from(database)
    maintainer.apply_batch(stream)
    # Delete a third of what was inserted, in a different order.
    deletions = [Update(update.relation_name, update.row, -1) for update in stream[::3]]
    random.Random(3).shuffle(deletions)
    maintainer.apply_batch(deletions)
    assert _payloads_match(maintainer.statistics(), maintainer.recompute_statistics())


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_empty_database_has_zero_statistics(ivm_source, strategy):
    database, query = ivm_source
    maintainer = strategy(database, query, FEATURES)
    payload = maintainer.statistics()
    assert payload.count == 0
    assert np.allclose(payload.sums, 0.0)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_insert_then_full_delete_returns_to_zero(ivm_source, strategy):
    database, query = ivm_source
    maintainer = strategy(database, query, FEATURES)
    stream = _stream_from(database, per_relation=15)
    maintainer.apply_batch(stream)
    maintainer.apply_batch([Update(u.relation_name, u.row, -1) for u in reversed(stream)])
    payload = maintainer.statistics()
    assert payload.count == pytest.approx(0.0)
    assert np.allclose(payload.sums, 0.0, atol=1e-6)
    assert np.allclose(payload.moments, 0.0, atol=1e-6)


def test_fivm_views_stay_small(ivm_source):
    database, query = ivm_source
    maintainer = FIVM(database, query, FEATURES)
    maintainer.apply_batch(_stream_from(database))
    sizes = maintainer.view_sizes()
    # Payload views are keyed by join keys, never by full tuples.
    assert all(size <= len(database.relation(name)) + 1 for name, size in sizes.items())


def test_unknown_feature_is_rejected(ivm_source):
    database, query = ivm_source
    with pytest.raises(ValueError, match="'no_such_feature' does not occur in the query"):
        FIVM(database, query, ["no_such_feature"])


def _deepest_owner(join_tree, attribute):
    """The deepest join-tree node holding ``attribute``; at equal depth the
    larger relation name wins."""
    ranked = []
    frontier = [(join_tree.root, 0)]
    while frontier:
        node, depth = frontier.pop()
        if attribute in node.attributes:
            ranked.append((depth, node.relation_name))
        frontier.extend((child, depth + 1) for child in node.children)
    return max(ranked)[1]


def test_features_are_designated_to_the_deepest_owner_at_every_root(ivm_source):
    """Join attributes included, whatever the root: the maintainer's lift
    designation is the engine's rule, ties between siblings included."""
    database, query = ivm_source
    features = FEATURES + ["locn", "dateid", "ksn", "zip"]
    for root in query.relation_names:
        maintainer = FIVM(database, query, features, root_relation=root)
        assert maintainer._designation == {
            feature: _deepest_owner(maintainer.join_tree, feature) for feature in features
        }
    # Rooted at Weather, Inventory and Stores are siblings that both hold
    # locn: the larger name breaks the tie.
    assert FIVM(database, query, ["locn"], root_relation="Weather")._designation == {
        "locn": "Stores"
    }


# -- recomputation: the ground truth's edge cases ----------------------------------------

#: Every maintainer with ``recompute_statistics``: the unsharded one and the
#: sharded facade, which recomputes over its own base-relation copy.
RECOMPUTING = {
    "fivm": lambda database, query, features: FIVM(database, query, features),
    "sharded-1": lambda database, query, features: ShardedMaintainer(
        database, query, features, shards=1
    ),
    "sharded-2": lambda database, query, features: ShardedMaintainer(
        database, query, features, shards=2
    ),
}


def _fact_and_dimension():
    schema_database = Database(
        [
            Relation("F", Schema.from_names(["k", "x"], categorical_names=["k"])),
            Relation("D", Schema.from_names(["k", "y"], categorical_names=["k"])),
        ]
    )
    return schema_database, ConjunctiveQuery(["F", "D"])


@pytest.mark.parametrize("kind", RECOMPUTING)
@pytest.mark.parametrize(
    "updates", [[], [Update("D", ("a", 2.0))]], ids=["no-rows", "dimension-only"]
)
def test_recompute_over_an_empty_join_is_the_ring_zero(kind, updates):
    database, query = _fact_and_dimension()
    maintainer = RECOMPUTING[kind](database, query, ["x", "y"])
    maintainer.apply_batch(updates)
    payload = maintainer.recompute_statistics()
    assert payload.count == 0.0
    assert np.array_equal(payload.sums, np.zeros(2))
    assert np.array_equal(payload.moments, np.zeros((2, 2)))


@pytest.mark.parametrize("kind", RECOMPUTING)
def test_recompute_names_a_non_numeric_feature(kind):
    database, query = _fact_and_dimension()
    maintainer = RECOMPUTING[kind](database, query, ["x", "y"])
    maintainer.apply_batch([Update("F", ("a", 1.0)), Update("D", ("a", 2.0))])
    # Behind the maintainer's back: its lift would refuse the value first.
    maintainer.database.relation("F").add(("b", "oops"))
    maintainer.database.relation("D").add(("b", 3.0))
    with pytest.raises(ValueError, match="feature 'x' has non-numeric values"):
        maintainer.recompute_statistics()


@st.composite
def update_stream_strategy(draw):
    """Random interleavings of inserts and deletes over a tiny 3-relation schema."""
    domain = st.integers(min_value=0, max_value=2)
    value = st.integers(min_value=-3, max_value=3)
    events = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["F", "D1", "D2"]),
                st.tuples(domain, domain, value),
                st.sampled_from([1, 1, 1, -1]),
            ),
            min_size=0,
            max_size=30,
        )
    )
    return events


@settings(max_examples=25, deadline=None)
@given(update_stream_strategy())
def test_fivm_matches_recomputation_on_random_streams(events):
    schema_database = Database(
        [
            Relation("F", Schema.from_names(["k1", "k2", "m"], categorical_names=["k1", "k2"])),
            Relation("D1", Schema.from_names(["k1", "x"], categorical_names=["k1"])),
            Relation("D2", Schema.from_names(["k2", "y"], categorical_names=["k2"])),
        ]
    )
    query = ConjunctiveQuery(["F", "D1", "D2"])
    maintainer = FIVM(schema_database, query, ["m", "x", "y"])
    inserted = {"F": set(), "D1": set(), "D2": set()}
    for relation_name, payload, sign in events:
        if relation_name == "F":
            row = payload
        else:
            row = (payload[0], payload[2])
        if sign < 0 and row not in inserted[relation_name]:
            continue  # only delete rows that exist
        maintainer.apply(Update(relation_name, row, sign))
        if sign > 0:
            inserted[relation_name].add(row)
        elif maintainer.database.relation(relation_name).multiplicity(row) == 0:
            inserted[relation_name].discard(row)
    assert _payloads_match(maintainer.statistics(), maintainer.recompute_statistics())
