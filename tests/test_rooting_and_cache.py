"""Cost-based join-tree rooting and the cross-evaluate view cache.

Covers the three guarantees of the planning/caching subsystem:

- *path equivalence*: every candidate root — and the cost-based pick in
  particular — produces identical aggregate values;
- *cost model*: the optimizer consumes real statistics (row counts, distinct
  connection-key counts from the column store) and exposes its evidence;
- *cache semantics*: repeated evaluation over unchanged relations serves
  views from the cache, and any mutation of a subtree relation invalidates
  exactly the views above it — they are recomputed, so a long-lived engine
  answers bit for bit what a fresh one does, whatever the update history.
"""

from __future__ import annotations

import dataclasses
import math
import random

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
from repro.engine import lmfao
from repro.engine.executor import (
    STAT_CACHED,
    STAT_COLUMNAR,
    STAT_PIPELINES,
    STAT_TUPLE_FALLBACK,
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
    ]
    for removed in ("root_strategy", "cache_views", "view_cache_size"):
        with pytest.raises(TypeError, match=removed):
            EngineOptions(**{removed: 1})


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


def _assert_history_tracks_a_fresh_engine(database, query, batch, history, root=None):
    """Drive two long-lived engines through one mutation history.

    ``history`` mutates ``database`` once per ``next()``.  After every
    mutation both engines must answer what an engine built on the spot (and
    rooted where they are) answers — ``==``, keys included, no tolerance —
    and report the same ``executor_stats`` as each other: what is served from
    the cache and what is recomputed follows from the history, never from the
    clock.
    """
    engines = [
        LMFAOEngine(database, query, EngineOptions(root_relation=root)) for _ in range(2)
    ]
    root = engines[0].join_tree.root.relation_name
    for engine in engines:
        engine.evaluate(batch)
    steps = 0
    for steps, label in enumerate(history, 1):
        first, second = (engine.evaluate(batch) for engine in engines)
        fresh = LMFAOEngine(database, query, EngineOptions(root_relation=root)).evaluate(batch)
        assert first.values == fresh.values, label
        assert second.values == fresh.values, label
        assert first.executor_stats == second.executor_stats, label
        assert set(first.executor_stats) <= {
            STAT_COLUMNAR, STAT_PIPELINES, STAT_TUPLE_FALLBACK, STAT_CACHED
        }
        assert first.executor_stats.get(STAT_COLUMNAR, 0) > 0, label
    assert steps, "the history was empty"


def _apply(database, name, rows, multiplicities):
    """One mutation: a single row through ``add``, several through ``add_batch``."""
    relation = database.relation(name)
    if len(rows) == 1:
        relation.add(rows[0], multiplicities[0])
    else:
        relation.add_batch(rows, multiplicities)


def _star_history(database):
    for label, name, rows, multiplicities in [
        ("a fact whose k1 no dimension row carries", "F", [(3, 1, 6)], [1]),
        ("the dimension row arriving after its fact", "D1", [(3, 30)], [1]),
        ("a small batch: duplicate, delete to zero, new row",
         "F", [(1, 1, 2), (2, 2, 5), (3, 2, 1)], [2, -1, 1]),
        ("a dimension key deleted under its facts", "D2", [(2, 9)], [-1]),
        ("the late fact deleted to zero", "F", [(3, 1, 6)], [-1]),
        ("the dimension key back", "D2", [(2, 9)], [1]),
        ("a dimension batch", "D1", [(3, 30), (1, 10)], [-1, 1]),
    ]:
        _apply(database, name, rows, multiplicities)
        yield label
    facts = list(database["F"].items())
    _apply(database, "F", [row for row, _m in facts], [-m for _row, m in facts])
    yield "the fact relation emptied"
    _apply(database, "F", [(1, 1, 2)], [1])
    yield "a first fact row again"


def _seeded_history(database, seed, orphans, parents, steps=12):
    """A seeded insert/delete stream: single rows and small batches, stored
    rows duplicated or deleted to zero, new fact rows — and ``orphans``, fact
    rows whose dimension rows (``parents``, one mutation each) only arrive
    mid-stream."""
    rng = random.Random(seed)
    names = list(database.relation_names)
    fact = max(names, key=lambda name: len(database.relation(name)))
    _apply(database, fact, orphans, [1] * len(orphans))
    yield "fact rows of a key no dimension holds"
    for step in range(steps):
        kind = rng.choice(["duplicate", "delete", "delete", "new"])
        name = fact if kind == "new" else rng.choice(names + [fact])
        rows = rng.sample(database.relation(name).rows(), rng.choice([1, 1, 3]))
        if kind == "new":
            rows = [row[:-1] + (1000 + step + position,) for position, row in enumerate(rows)]
        if kind == "delete":
            multiplicities = [-database.relation(name).multiplicity(row) for row in rows]
        else:
            multiplicities = [rng.choice([1, 2]) for _row in rows]
        _apply(database, name, rows, multiplicities)
        yield f"step {step}: {kind} {len(rows)} of {name}"
        if step == steps // 2:
            for parent, parent_rows in parents:
                _apply(database, parent, parent_rows, [1] * len(parent_rows))
                yield f"the late rows of {parent}"


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
    # D1's own views and every ancestor's views are recomputed; the
    # untouched sibling subtree (D2, when not on D1's root path) may still hit.
    assert third.executor_stats.get(STAT_COLUMNAR, 0) > 0
    # The values reflect the update (no stale cache reads).
    expected = LMFAOEngine(database, query).evaluate(_star_batch())
    _assert_results_equal(expected, third)

    affected = {engine.join_tree.node("D1").relation_name} | {
        node.relation_name for node in engine.join_tree.path_to_root("D1")
    }
    untouched_cached = third.executor_stats.get(STAT_CACHED, 0)
    if len(affected) < len(query.relation_names):
        assert untouched_cached > 0

    for root in (None, "F"):
        database = _star_database()
        _assert_history_tracks_a_fresh_engine(
            database, query, _star_batch(), _star_history(database), root=root
        )
    # ... and on a deeper tree, where a mutation's root path has siblings.
    for seed, root in [(17, None), (19, "Inventory")]:
        database, query, spec = load_dataset(
            "retailer", inventory_rows=400, stores=6, items=20, dates=10
        )
        history = _seeded_history(
            database,
            seed,
            orphans=[(0, 0, 999, 5.0), (1, 1, 999, 7.5)],
            parents=[("Items", [(999, "grocery", "subcat1", 9.99)])],
        )
        batch = covariance_batch(spec.continuous_features, spec.categorical_features)
        _assert_history_tracks_a_fresh_engine(database, query, batch, history, root=root)


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

    # Nor may the pair leave anything behind: a fact row carrying a group
    # value of its own, inserted and deleted again with an evaluate in
    # between, takes its group with it.
    grouped = AggregateBatch(
        "grouped", [Aggregate.sum_of(["m"], group_by=["k1"], name="m_by_k1")]
    )
    engine = LMFAOEngine(database, query, EngineOptions(root_relation="F"))
    engine.evaluate(grouped)
    database["D1"].add((3, 30))
    database["F"].add((3, 1, 6))
    assert engine.evaluate(grouped).grouped("m_by_k1")[(3,)] == 6.0
    database["F"].remove((3, 1, 6))
    reverted = engine.evaluate(grouped).grouped("m_by_k1")
    fresh = LMFAOEngine(database, query, EngineOptions(root_relation="F")).evaluate(grouped)
    assert reverted == fresh.grouped("m_by_k1")
    assert set(reverted) == {(1,), (2,)}


def test_cache_respects_the_lru_size_bound(monkeypatch):
    monkeypatch.setattr(lmfao, "VIEW_CACHE_SIZE", 2)
    database = _star_database()
    query = ConjunctiveQuery(["F", "D1", "D2"])
    engine = LMFAOEngine(database, query)
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

    for seed, root in [(23, None), (29, "Reviews")]:
        mutable = database.copy()
        history = _seeded_history(
            mutable,
            seed,
            orphans=[(0, 10_000, 4.5, 3), (1, 10_000, 1.5, 8)],
            parents=[
                ("Business", [(10_000, "toronto", "cafe", 4.0, 12, 1)]),
                ("Checkins", [(10_000, 7)]),
            ],
        )
        _assert_history_tracks_a_fresh_engine(mutable, query, batch, history, root=root)
