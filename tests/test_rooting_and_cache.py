"""Cost-based join-tree rooting and the cross-evaluate view cache.

Covers the three guarantees of the planning/caching subsystem:

- *path equivalence*: every candidate root — and the cost-based pick in
  particular — produces identical aggregate values;
- *cost model*: the optimizer consumes real statistics (row counts, distinct
  connection-key counts from the column store) and exposes its evidence;
- *cache semantics*: repeated evaluation over unchanged relations serves
  views from the cache, and any mutation of a subtree relation invalidates
  exactly the views above it (correctness after updates included).
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.aggregates import Aggregate, AggregateBatch, Filter, FilterOp, covariance_batch
from repro.data import Database, Relation, Schema
from repro.datasets import load_dataset
from repro.engine import (
    EngineOptions,
    LMFAOEngine,
    choose_root,
    collect_statistics,
    estimate_root_costs,
)
from repro.engine.executor import (
    STAT_CACHED,
    STAT_COLUMNAR,
    STAT_DELTA_REFRESHED,
    STAT_ROOT_PATCHED,
)
from repro.engine.statistics import widest_relation
from repro.query import ConjunctiveQuery, build_join_tree


def _values_equal(left, right):
    if isinstance(left, dict) or isinstance(right, dict):
        assert isinstance(left, dict) and isinstance(right, dict)
        assert set(left) == set(right)
        return all(
            math.isclose(left[key], right[key], rel_tol=1e-9, abs_tol=1e-9)
            for key in left
        )
    return math.isclose(left, right, rel_tol=1e-9, abs_tol=1e-9)


def _assert_results_equal(reference, candidate):
    assert set(reference.values) == set(candidate.values)
    for name, value in reference.values.items():
        assert _values_equal(value, candidate.values[name]), name


@pytest.fixture(scope="module")
def small_yelp():
    database, query, spec = load_dataset("yelp", review_rows=400, businesses=30, users=40)
    batch = covariance_batch(spec.continuous_features, spec.categorical_features)
    return database, query, batch


# -- root equivalence -------------------------------------------------------------------


def test_every_candidate_root_gives_identical_results_on_toy(toy_database, toy_query):
    batch = covariance_batch(["price"], ["dish", "day"])
    reference = None
    for root in toy_query.relation_names:
        result = LMFAOEngine(
            toy_database, toy_query, EngineOptions(root_relation=root)
        ).evaluate(batch)
        if reference is None:
            reference = result
        else:
            _assert_results_equal(reference, result)


def test_every_candidate_root_gives_identical_results_on_yelp(small_yelp):
    database, query, batch = small_yelp
    reference = None
    for root in query.relation_names:
        result = LMFAOEngine(
            database, query, EngineOptions(root_relation=root)
        ).evaluate(batch)
        if reference is None:
            reference = result
        else:
            _assert_results_equal(reference, result)


def test_cost_based_and_widest_agree_on_views(small_yelp):
    """Regression: the optimizer must never change *what* is computed."""
    database, query, batch = small_yelp
    cost_based = LMFAOEngine(database, query)
    widest = LMFAOEngine(
        database,
        query,
        EngineOptions(root_relation=widest_relation(database, query.relation_names)),
    )
    _assert_results_equal(cost_based.evaluate(batch), widest.evaluate(batch))


# -- the cost model and its statistics --------------------------------------------------


def test_statistics_expose_rows_and_distinct_connection_keys(small_yelp):
    database, query, _batch = small_yelp
    tree = build_join_tree(query.hypergraph(database))
    statistics = collect_statistics(database, tree)
    reviews = statistics["Reviews"]
    assert reviews.row_count == len(database.relation("Reviews"))
    distinct_users = reviews.distinct(database, ("user",))
    assert distinct_users == len(
        {row[0] for row, _m in database.relation("Reviews").items()}
    )
    # The count is cached on the statistics object after the first read.
    assert reviews.distinct_counts[("user",)] == distinct_users


def test_column_store_distinct_count_matches_python(small_yelp):
    database, _query, _batch = small_yelp
    store = database.relation("Reviews").column_store()
    expected = len({(row[0], row[1]) for row, _m in database.relation("Reviews").items()})
    assert store.distinct_count(("business", "user")) == expected


def test_root_choice_records_costs_for_every_candidate(small_yelp):
    database, query, _batch = small_yelp
    engine = LMFAOEngine(database, query)
    choice = engine.root_choice
    assert choice is not None and choice.strategy == "cost"
    assert set(choice.costs) == set(query.relation_names)
    ranked = choice.ranked()
    assert ranked[0][0] == engine.join_tree.root.relation_name
    assert ranked[0][1] == min(choice.costs.values())


def test_estimate_root_costs_penalises_hosting_every_signature_at_the_fact_table(small_yelp):
    """The fact table (widest payload subtree at the root) must not look free."""
    database, query, _batch = small_yelp
    tree = build_join_tree(query.hypergraph(database))
    costs = estimate_root_costs(database, tree)
    assert costs["Reviews"] == max(costs.values())


def test_forced_root_records_no_root_choice(small_yelp):
    database, query, _batch = small_yelp
    widest = widest_relation(database, query.relation_names)
    engine = LMFAOEngine(database, query, EngineOptions(root_relation=widest))
    assert engine.root_choice is None
    assert engine.join_tree.root.relation_name == widest


def test_engine_options_surface():
    """The whole configuration surface: a new knob has to edit this test."""
    assert [field.name for field in dataclasses.fields(EngineOptions)] == [
        "parallel",
        "workers",
        "root_relation",
        "cache_views",
        "view_cache_size",
    ]
    with pytest.raises(TypeError, match="root_strategy"):
        EngineOptions(root_strategy="cost")


@pytest.mark.parametrize("bad", [dict(workers=0), dict(workers=-1)])
def test_invalid_options_are_rejected_at_construction(bad):
    with pytest.raises(ValueError, match=next(iter(bad))):
        EngineOptions(**bad)


def test_choose_root_falls_back_to_widest_on_empty_databases(toy_database, toy_query):
    empty = toy_database.empty_copy()
    tree = build_join_tree(toy_query.hypergraph(empty))
    choice = choose_root(empty, tree)
    assert choice.strategy == "widest"
    assert choice.root in toy_query.relation_names


# -- the cross-evaluate view cache ------------------------------------------------------


def _star_database():
    return Database(
        [
            Relation(
                "F",
                Schema.from_names(["k1", "k2", "m"], ["k1", "k2"]),
                rows=[(1, 1, 2), (1, 2, 3), (2, 1, 4), (2, 2, 5)],
            ),
            Relation("D1", Schema.from_names(["k1", "x"], ["k1"]), rows=[(1, 10), (2, 20)]),
            Relation("D2", Schema.from_names(["k2", "y"], ["k2"]), rows=[(1, 7), (2, 9)]),
        ]
    )


def _star_batch():
    return AggregateBatch(
        "cached",
        [
            Aggregate.count(name="count"),
            Aggregate.sum_of(["m"], name="sum_m"),
            Aggregate.sum_of(["m", "x"], name="sum_mx"),
            Aggregate.sum_of(["y"], group_by=["k1"], name="y_by_k1"),
        ],
    )


def test_repeated_identical_batch_is_served_from_the_view_cache():
    database = _star_database()
    query = ConjunctiveQuery(["F", "D1", "D2"])
    engine = LMFAOEngine(database, query)
    first = engine.evaluate(_star_batch())
    assert first.executor_stats.get(STAT_CACHED, 0) == 0
    computed = first.executor_stats.get(STAT_COLUMNAR, 0)
    assert computed > 0

    second = engine.evaluate(_star_batch())
    # Every planned view hits the cache; nothing is recomputed.
    assert second.executor_stats.get(STAT_CACHED, 0) == computed
    assert second.executor_stats.get(STAT_COLUMNAR, 0) == 0
    _assert_results_equal(first, second)


def test_relation_update_invalidates_exactly_the_affected_subtrees():
    database = _star_database()
    query = ConjunctiveQuery(["F", "D1", "D2"])
    engine = LMFAOEngine(database, query)
    engine.evaluate(_star_batch())

    database["D1"].add((1, 100))
    third = engine.evaluate(_star_batch())
    # D1's own views and every ancestor's views refresh — recomputed, patched
    # in key groups, or root-payload patched for a small delta like this one;
    # the untouched sibling subtree (D2, when not on D1's root path) may
    # still hit.
    refreshed = (
        third.executor_stats.get(STAT_COLUMNAR, 0)
        + third.executor_stats.get(STAT_DELTA_REFRESHED, 0)
        + third.executor_stats.get(STAT_ROOT_PATCHED, 0)
    )
    assert refreshed > 0
    # The values reflect the update (no stale cache reads).
    expected = LMFAOEngine(database, query).evaluate(_star_batch())
    _assert_results_equal(expected, third)

    affected = {engine.join_tree.node("D1").relation_name} | {
        node.relation_name for node in engine.join_tree.path_to_root("D1")
    }
    untouched_cached = third.executor_stats.get(STAT_CACHED, 0)
    if len(affected) < len(query.relation_names):
        assert untouched_cached > 0


def test_update_then_revert_still_recomputes():
    """Version counters only grow: an add/remove pair must not revive entries."""
    database = _star_database()
    query = ConjunctiveQuery(["F", "D1", "D2"])
    engine = LMFAOEngine(database, query)
    baseline = engine.evaluate(_star_batch())

    database["D1"].add((1, 100))
    database["D1"].remove((1, 100))
    after = engine.evaluate(_star_batch())
    _assert_results_equal(baseline, after)


def test_cache_can_be_disabled():
    database = _star_database()
    query = ConjunctiveQuery(["F", "D1", "D2"])
    engine = LMFAOEngine(database, query, EngineOptions(cache_views=False))
    engine.evaluate(_star_batch())
    second = engine.evaluate(_star_batch())
    assert second.executor_stats.get(STAT_CACHED, 0) == 0
    assert second.executor_stats.get(STAT_COLUMNAR, 0) > 0


def test_cache_respects_the_lru_size_bound():
    database = _star_database()
    query = ConjunctiveQuery(["F", "D1", "D2"])
    engine = LMFAOEngine(database, query, EngineOptions(view_cache_size=2))
    engine.evaluate(_star_batch())
    assert len(engine._view_cache) <= 2
    # Still correct when most views were evicted.
    expected = LMFAOEngine(database, query).evaluate(_star_batch())
    _assert_results_equal(expected, engine.evaluate(_star_batch()))


def test_overlapping_batches_share_cached_views():
    """A different batch planning the same signatures reuses them."""
    database = _star_database()
    query = ConjunctiveQuery(["F", "D1", "D2"])
    engine = LMFAOEngine(database, query)
    engine.evaluate(
        AggregateBatch("first", [Aggregate.count(name="count"),
                                 Aggregate.sum_of(["m"], name="sum_m")])
    )
    overlapping = engine.evaluate(
        AggregateBatch("second", [Aggregate.sum_of(["m"], name="sum_m"),
                                  Aggregate.sum_of(["x"], name="sum_x")])
    )
    assert overlapping.executor_stats.get(STAT_CACHED, 0) > 0


def test_close_clears_the_view_cache():
    database = _star_database()
    query = ConjunctiveQuery(["F", "D1", "D2"])
    engine = LMFAOEngine(database, query)
    engine.evaluate(_star_batch())
    assert engine._view_cache
    engine.close()
    assert not engine._view_cache


def test_cached_views_agree_with_fresh_engine_on_yelp(small_yelp):
    database, query, batch = small_yelp
    engine = LMFAOEngine(database, query)
    engine.evaluate(batch)
    cached = engine.evaluate(batch)
    assert cached.executor_stats.get(STAT_CACHED, 0) > 0
    fresh = LMFAOEngine(database, query).evaluate(batch)
    _assert_results_equal(fresh, cached)


# -- columnar root-view splice ----------------------------------------------------------


def _root_patch_loop(steps=6):
    """Shared driver: update loop on a fact-rooted yelp engine.

    Returns the engine, its results per step, and how many root patches ran.
    """
    import random as _random

    database, query, spec = load_dataset("yelp", review_rows=250, businesses=20, users=25)
    batch = covariance_batch(spec.continuous_features, spec.categorical_features)
    fact = max(query.relation_names, key=lambda name: len(database.relation(name)))
    engine = LMFAOEngine(database, query, EngineOptions(root_relation=fact))
    engine.evaluate(batch)
    rng = _random.Random(31)
    rows = list(database.relation(fact))
    results = []
    patched = 0
    for step in range(steps):
        row = rng.choice(rows)
        database.relation(fact).add(row, -1 if step % 3 == 2 else 1)
        result = engine.evaluate(batch)
        results.append(result)
        patched += result.executor_stats.get(STAT_ROOT_PATCHED, 0)
    return database, query, batch, results, patched


def test_root_patch_loop_matches_a_fresh_engine():
    """Every step of a patched update loop agrees with a recompute."""
    database, query, batch, results, patched = _root_patch_loop()
    assert patched > 0
    fresh = LMFAOEngine(database, query, EngineOptions(cache_views=False)).evaluate(batch)
    final = results[-1]
    for name, value in fresh.values.items():
        other = final.values[name]
        if isinstance(value, dict):
            assert all(
                math.isclose(value[key], other.get(key, 0.0), rel_tol=1e-7, abs_tol=1e-7)
                for key in value
            )
        else:
            assert math.isclose(value, other, rel_tol=1e-7, abs_tol=1e-7)


def test_root_patch_merges_into_a_view_that_is_not_array_native():
    """The nested-dict merge behind the in-place splice.

    An empty root relation caches a plain (empty) dict view; the first
    insert patches it through the merge path, and later inserts keep
    patching the merged dict.
    """
    database = _star_database()
    for row in list(database["F"]):
        database["F"].remove(row)
    query = ConjunctiveQuery(["F", "D1", "D2"])
    engine = LMFAOEngine(database, query, EngineOptions(root_relation="F"))
    engine.evaluate(_star_batch())
    # Pin the policy on "refresh pays" so every step patches, whatever the clock says.
    engine._recompute_cost = dict.fromkeys(query.relation_names, float("inf"))
    for row in [(1, 1, 2), (2, 2, 5), (1, 2, 3)]:
        database["F"].add(row)
        result = engine.evaluate(_star_batch())
        assert result.executor_stats.get(STAT_ROOT_PATCHED, 0) > 0
        expected = LMFAOEngine(database, query).evaluate(_star_batch())
        _assert_results_equal(expected, result)


def test_columnar_root_patch_keeps_the_view_array_native():
    """The spliced root view must stay a ColumnarView (no dict conversion)."""
    from repro.engine.executor import ColumnarView

    database, query, spec = load_dataset("yelp", review_rows=200, businesses=15, users=20)
    batch = covariance_batch(spec.continuous_features, spec.categorical_features)
    fact = max(query.relation_names, key=lambda name: len(database.relation(name)))
    engine = LMFAOEngine(database, query, EngineOptions(root_relation=fact))
    engine.evaluate(batch)
    row = next(iter(database.relation(fact)))
    database.relation(fact).add(row, 1)
    result = engine.evaluate(batch)
    assert result.executor_stats.get(STAT_ROOT_PATCHED, 0) > 0
    root = engine.join_tree.root.relation_name
    patched_views = [
        view
        for (node, _signature), (_versions, view) in engine._view_cache.items()
        if node == root
    ]
    assert patched_views and all(
        isinstance(view, ColumnarView) for view in patched_views
    )


def test_columnar_root_patch_appends_new_group_entries():
    """A delta introducing an unseen group key still splices correctly."""
    database = _star_database()
    query = ConjunctiveQuery(["F", "D1", "D2"])
    batch = AggregateBatch(
        "grouped",
        [Aggregate.sum_of(["m"], group_by=["k1"], name="m_by_k1")],
    )
    fact = "F"
    engine = LMFAOEngine(database, query, EngineOptions(root_relation=fact))
    engine.evaluate(batch)
    # A fact row with a brand-new k1 value joins D1 only after D1 gains the
    # key, so mutate D1's subtree first (full recompute there), then patch
    # the root with a delta whose group key (k1=3) the cached view never saw.
    database["D1"].add((3, 30))
    engine.evaluate(batch)
    database["F"].add((3, 1, 6))
    patched = engine.evaluate(batch)
    expected = LMFAOEngine(database, query, EngineOptions(cache_views=False)).evaluate(batch)
    got = patched.values["m_by_k1"]
    want = expected.values["m_by_k1"]
    assert all(
        math.isclose(want.get(key, 0.0), got.get(key, 0.0), rel_tol=1e-9, abs_tol=1e-9)
        for key in set(want) | set(got)
    )


# -- bundle columns are patched copy-on-write -------------------------------------------


def _assert_close(expected, result):
    for name, value in expected.values.items():
        other = result.values[name]
        if isinstance(value, dict):
            assert all(
                math.isclose(value.get(key, 0.0), other.get(key, 0.0), rel_tol=1e-9, abs_tol=1e-9)
                for key in set(value) | set(other)
            ), name
        else:
            assert math.isclose(value, other, rel_tol=1e-9, abs_tol=1e-9), name


def _bundle_engine(batch):
    """A fact-rooted star engine, warmed on ``batch`` and pinned on "refresh pays"."""
    database = _star_database()
    query = ConjunctiveQuery(["F", "D1", "D2"])
    engine = LMFAOEngine(database, query, EngineOptions(root_relation="F"))
    engine.evaluate(batch)
    engine._recompute_cost = dict.fromkeys(query.relation_names, float("inf"))
    return database, query, engine


def _cached_bundles(engine, node):
    """Per bundle of the columnar views cached for ``node``: how many columns it has."""
    columns = {}
    for (name, _signature), (_versions, view) in engine._view_cache.items():
        if name == node and hasattr(view, "_bundle"):
            columns[id(view._bundle)] = columns.get(id(view._bundle), 0) + 1
    return sorted(columns.values())


def test_root_patch_on_one_bundle_column_leaves_its_siblings_alone():
    """Patching one root view in place must not touch the other columns.

    The root views of one key shape are columns of one bundle.  A batch that
    reads only one of them after an update patches that column alone — value
    adds in place, and a delta with an unseen group key appends to a private
    copy of the bundle; the siblings are patched by their own delta when they
    are next read, and must then agree with a fresh engine (a shared array
    would have been patched twice).
    """
    grouped = [
        Aggregate.sum_of(["m"], group_by=["k1"], name="m_by_k1"),
        Aggregate.count(group_by=["k1"], name="count_by_k1"),
        Aggregate.sum_of(["m", "x"], group_by=["k1"], name="mx_by_k1"),
    ]
    scalars = [
        Aggregate.count(name="count"),
        Aggregate.sum_of(["m"], name="sum_m"),
        Aggregate.sum_of(["m", "y"], name="sum_my"),
    ]
    full = AggregateBatch("full", grouped + scalars)
    database, query, engine = _bundle_engine(full)
    # One bundle per key shape: the scalars; the two views grouped through the
    # same D1 child view (k1 is designated to D1); the one with its own.
    assert _cached_bundles(engine, "F") == [1, 2, 3]

    database["D1"].add((3, 30))                            # k1=3 becomes joinable (recompute)
    engine.evaluate(full)
    database["F"].add((3, 1, 6))                           # unseen group key: appends
    database["F"].add((1, 1, 2), 2)                        # existing keys: in-place adds
    one = engine.evaluate(AggregateBatch("one", [grouped[0], scalars[1]]))
    assert one.executor_stats.get(STAT_ROOT_PATCHED, 0) == 2
    rest = engine.evaluate(full)
    assert rest.executor_stats.get(STAT_ROOT_PATCHED, 0) == 4
    assert rest.executor_stats.get(STAT_CACHED, 0) >= 2
    expected = LMFAOEngine(database, query, EngineOptions(cache_views=False)).evaluate(full)
    _assert_close(expected, rest)
    _assert_close(expected, engine.evaluate(full))         # and the patched cache is stable


def test_delta_refresh_of_one_bundle_column_leaves_its_siblings_alone():
    """Splicing one non-root view out of its bundle keeps the other columns valid.

    After a small update below D1, a batch that reads one of D1's views
    refreshes only that one (it leaves the bundle as a patched view); its
    siblings stay columns of the old bundle until their own refresh, and the
    parent then joins patched and bundled children side by side.
    """
    full = AggregateBatch(
        "full",
        [
            Aggregate.count(name="count"),
            Aggregate.sum_of(["x"], name="sum_x"),
            Aggregate.sum_of(["m", "x"], name="sum_mx"),
            Aggregate.sum_of(["x", "x"], name="sum_xx"),
            Aggregate.sum_of(["x"], filters=[Filter("x", FilterOp.GE, 15)], name="sum_x_big"),
        ],
    )
    database, query, engine = _bundle_engine(full)
    assert _cached_bundles(engine, "D1") == [4]            # count, x, x^2, filtered x

    database["D1"].add((1, 100))
    one = engine.evaluate(AggregateBatch("one", [full[1]]))
    assert one.executor_stats.get(STAT_DELTA_REFRESHED, 0) == 1
    expected = LMFAOEngine(database, query, EngineOptions(cache_views=False)).evaluate(full)
    assert math.isclose(one.scalar("sum_x"), expected.scalar("sum_x"), rel_tol=1e-9)

    rest = engine.evaluate(full)
    assert rest.executor_stats.get(STAT_DELTA_REFRESHED, 0) == 3
    _assert_close(expected, rest)
    database["D1"].add((2, 5))
    again = engine.evaluate(full)
    assert again.executor_stats.get(STAT_DELTA_REFRESHED, 0) == 4
    _assert_close(
        LMFAOEngine(database, query, EngineOptions(cache_views=False)).evaluate(full), again
    )
