"""The columnar executor against the tuple scan on randomized acyclic queries.

The engine computes views vectorised over the dictionary-encoded column
store; the position-resolved tuple scan (``scan_node_views``, the engine's
fallback for non-numeric products) defines the semantics.  The two must be
*indistinguishable* on any query the planner accepts: same views, same group
keys (including groups whose contributions cancel to exactly 0.0), same
values — and both agree with the materialised join.

The random databases use signed multiplicities, so cancellation, empty join
branches, grouped multi-entry child views and filtered children all occur.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.aggregates import (
    Aggregate,
    AggregateBatch,
    Filter,
    FilterOp,
    decision_tree_node_batch,
)
from repro.data import Database, Relation, Schema
from repro.datasets import favorita_database, favorita_query, retailer_database, retailer_query
from repro.datasets.favorita import FAVORITA_FEATURES
from repro.datasets.retailer import RETAILER_FEATURES
from repro.engine import LMFAOEngine, MaterializedJoinEngine
from repro.engine.executor import (
    STAT_COLUMNAR,
    STAT_PIPELINES,
    STAT_TUPLE_FALLBACK,
    ColumnarView,
    compute_node_views,
    scan_node_views,
)
from repro.ml import DecisionTreeRegressor


def _evaluate_checked(database, query, batch, root_relation=None):
    """Evaluate on the engine, checking every view against the tuple scan.

    Each direction's views are re-derived by ``scan_node_views`` from the
    engine's own child views, so agreement at every node — for every
    neighbour it computes views for — is agreement of the whole bottom-up
    evaluation: same connection keys, same group keys (zero-sum
    groups included), same values.
    """
    engine = LMFAOEngine(database, query, root_relation)
    result = engine.evaluate(batch)
    plan = engine.plan(batch)
    views = engine._evaluate_views(plan)    # cache hits: the views `result` read
    for (name, towards), signatures in plan.views.items():
        scanned = scan_node_views(
            engine.join_tree.oriented(name, towards), database.relation(name), signatures,
            plan.designation, views,
        )
        for signature, expected in scanned.items():
            view = views[(name, towards, signature)]
            assert set(view) == set(expected), (name, towards, signature)
            for key, groups in expected.items():
                assert _exact_equal(dict(view[key]), groups), (name, towards, signature, key)
    return result


def _random_database(rng: random.Random) -> Database:
    """A star-plus-chain schema: F(a,b,m) - D1(a,x,c) - E(c,z), F - D2(b,y)."""

    def rows(count, maker):
        out = {}
        for _ in range(count):
            row = maker()
            out[row] = out.get(row, 0) + rng.choice([-2, -1, 1, 1, 2, 3])
        return {row: mult for row, mult in out.items() if mult != 0}

    key = lambda: rng.randint(0, 3)               # noqa: E731
    val = lambda: rng.randint(-4, 4)              # noqa: E731
    fact = rows(rng.randint(0, 14), lambda: (key(), key(), val()))
    dim1 = rows(rng.randint(0, 8), lambda: (key(), val(), key()))
    dim2 = rows(rng.randint(0, 6), lambda: (key(), val()))
    leaf = rows(rng.randint(0, 6), lambda: (key(), val()))
    return Database(
        [
            Relation("F", Schema.from_names(["a", "b", "m"], ["a", "b"]),
                     multiplicities=fact),
            Relation("D1", Schema.from_names(["a", "x", "c"], ["a", "c"]),
                     multiplicities=dim1),
            Relation("D2", Schema.from_names(["b", "y"], ["b"]),
                     multiplicities=dim2),
            Relation("E", Schema.from_names(["c", "z"], ["c"]),
                     multiplicities=leaf),
        ]
    )


def _batch() -> AggregateBatch:
    return AggregateBatch(
        "equivalence",
        [
            Aggregate.count(name="count"),
            Aggregate.sum_of(["m"], name="sum_m"),
            Aggregate.sum_of(["m", "x"], name="sum_mx"),
            Aggregate.sum_of(["x", "z"], name="sum_xz"),
            Aggregate.sum_of(["y", "z"], name="sum_yz"),
            Aggregate.count(group_by=["a"], name="count_a"),
            # group-by on a child attribute: the child view is grouped and
            # multi-entry, which the pre-columnar fast path could not join.
            Aggregate.sum_of(["m"], group_by=["x"], name="sum_m_by_x"),
            Aggregate.sum_of(["z"], group_by=["x", "b"], name="sum_z_by_xb"),
            Aggregate.sum_of(["m"], filters=[Filter("x", FilterOp.GE, 0)], name="sum_m_xpos"),
            Aggregate.count(
                group_by=["y"], filters=[Filter("z", FilterOp.LE, 2)], name="count_y_zsmall"
            ),
            Aggregate.sum_of(["m", "y"], group_by=["c"], name="sum_my_by_c"),
        ],
    )


def _exact_equal(left, right):
    if isinstance(left, dict) or isinstance(right, dict):
        assert isinstance(left, dict) and isinstance(right, dict)
        assert set(left) == set(right)
        return all(
            math.isclose(left[key], right[key], rel_tol=1e-9, abs_tol=1e-9) for key in left
        )
    return math.isclose(left, right, rel_tol=1e-9, abs_tol=1e-9)


def _tolerant_equal(left, right):
    """Union-keyed comparison (the naive engine may drop exact-zero groups)."""
    if isinstance(left, dict) or isinstance(right, dict):
        left = left if isinstance(left, dict) else {}
        right = right if isinstance(right, dict) else {}
        return all(
            math.isclose(left.get(key, 0.0), right.get(key, 0.0), rel_tol=1e-9, abs_tol=1e-9)
            for key in set(left) | set(right)
        )
    return math.isclose(left, right, rel_tol=1e-9, abs_tol=1e-9)


@pytest.mark.parametrize("seed", range(20))
def test_columnar_views_identical_to_tuple_scan_on_random_queries(seed):
    from repro.query import ConjunctiveQuery

    rng = random.Random(seed)
    database = _random_database(rng)
    query = ConjunctiveQuery(["F", "D1", "D2", "E"])
    batch = _batch()

    # Every view agrees exactly with the tuple scan (checked inside), and
    # nothing fell off the columnar fast path.
    outcome = _evaluate_checked(database, query, batch)
    assert outcome.executor_stats.get(STAT_COLUMNAR, 0) > 0
    assert outcome.executor_stats.get(STAT_TUPLE_FALLBACK, 0) == 0

    # And the values agree with the materialised-join baseline.
    naive = MaterializedJoinEngine(database, query).evaluate(batch)
    for aggregate_name, value in outcome.values.items():
        assert _tolerant_equal(value, naive.values[aggregate_name]), (seed, aggregate_name)


def test_cancelling_multiplicities_keep_zero_groups_on_both_paths():
    """Groups whose contributions cancel to exactly 0.0 stay in the result.

    Regression test: the pre-columnar vectorised path dropped groups whose
    sum was exactly zero while the tuple scan kept them, so the two paths
    returned different group-key sets.
    """
    from repro.query import ConjunctiveQuery

    database = Database(
        [
            Relation(
                "F",
                Schema.from_names(["k", "m"], ["k"]),
                multiplicities={(1, 2): 1, (1, 3): -1, (2, 5): 2},
            ),
            Relation(
                "D",
                Schema.from_names(["k", "x"], ["k"]),
                multiplicities={(1, 7): 1, (2, 9): 1},
            ),
        ]
    )
    query = ConjunctiveQuery(["F", "D"])
    batch = AggregateBatch(
        "zeros",
        [
            Aggregate.count(group_by=["k"], name="count_k"),
            Aggregate.sum_of(["m"], group_by=["k"], name="sum_m_k"),
        ],
    )
    result = _evaluate_checked(database, query, batch)
    count_k = result.grouped("count_k")
    # Group k=1 has multiplicities +1 and -1: the count cancels to 0.0
    # but the group must remain visible on both paths.
    assert count_k[(1,)] == pytest.approx(0.0)
    assert count_k[(2,)] == pytest.approx(2.0)
    sum_m_k = result.grouped("sum_m_k")
    assert sum_m_k[(1,)] == pytest.approx(2.0 - 3.0)
    # F carries (2, 5) with multiplicity 2 and D matches once: 5 * 2.
    assert sum_m_k[(2,)] == pytest.approx(10.0)


def test_columnar_handles_grouped_multi_child_views_without_fallback():
    """Grouped multi-entry child views stay on the vectorised path."""
    from repro.query import ConjunctiveQuery

    rng = random.Random(7)
    database = _random_database(rng)
    query = ConjunctiveQuery(["F", "D1", "D2", "E"])
    batch = AggregateBatch(
        "grouped-children",
        [
            Aggregate.sum_of(["m"], group_by=["x"], name="sum_m_by_x"),
            Aggregate.sum_of(["m"], group_by=["x", "y", "z"], name="sum_m_by_xyz"),
        ],
    )
    outcome = LMFAOEngine(database, query).evaluate(batch)
    assert outcome.executor_stats.get(STAT_TUPLE_FALLBACK, 0) == 0
    assert outcome.executor_stats.get(STAT_COLUMNAR, 0) > 0
    naive = MaterializedJoinEngine(database, query).evaluate(batch)
    for name, value in outcome.values.items():
        assert _tolerant_equal(value, naive.values[name]), name


def test_big_integer_join_keys_stay_exact():
    """Join keys beyond 2**53 must not collapse in the vectorised matcher.

    Regression test: decoding integer dictionaries to float64 for the
    searchsorted key matching equated 2**53 with 2**53 + 1, joining rows
    that do not match.
    """
    from repro.query import ConjunctiveQuery

    big = 2 ** 53
    database = Database(
        [
            Relation(
                "F",
                Schema.from_names(["k", "m"], ["k"]),
                multiplicities={(big, 10): 1, (big + 1, 200): 1},
            ),
            Relation(
                "D",
                Schema.from_names(["k", "x"], ["k"]),
                multiplicities={(big, 2): 1},
            ),
        ]
    )
    query = ConjunctiveQuery(["F", "D"])
    batch = AggregateBatch(
        "big-keys",
        [
            Aggregate.sum_of(["m"], name="sum_m"),
            Aggregate.sum_of(["m"], filters=[Filter("k", FilterOp.EQ, big + 1)], name="sum_m_k1"),
        ],
    )
    result = _evaluate_checked(database, query, batch)
    # Only the (big, 10) row joins; the (big + 1, 200) row has no match.
    assert result.scalar("sum_m") == pytest.approx(10.0)
    assert result.scalar("sum_m_k1") == pytest.approx(0.0)


def test_cross_map_cache_does_not_grow_across_child_mutations():
    """One cross-store key mapping per (attrs, child), replaced on mutation."""
    from repro.query import ConjunctiveQuery

    database = Database(
        [
            Relation("F", Schema.from_names(["k", "m"], ["k"]), rows=[(1, 2), (2, 3)]),
            Relation("D", Schema.from_names(["k", "x"], ["k"]), rows=[(1, 7), (2, 9)]),
        ]
    )
    query = ConjunctiveQuery(["F", "D"])
    batch = AggregateBatch("m", [Aggregate.sum_of(["m", "x"], group_by=["x"], name="mx")])
    engine = LMFAOEngine(database, query)
    engine.evaluate(batch)
    sizes = set()
    for step in range(4):
        database["D"].add((1, 100 + step))
        engine.evaluate(batch)
        sizes.update(
            len(context._cross_maps) for context in engine._context_cache.values()
        )
    assert max(sizes) <= 1, sizes


def test_int_float_key_domains_do_not_collapse_big_integers():
    """Integer keys joined against a float dictionary keep Python equality.

    Regression test: mixing an int64 and a float64 key dictionary into one
    float64 searchsorted domain equated 2**53 + 1 with 2.0**53, joining a
    row that Python equality keeps apart.
    """
    from repro.query import ConjunctiveQuery

    big = 2 ** 53
    database = Database(
        [
            Relation(
                "F",
                Schema.from_names(["k", "m"], ["k"]),
                multiplicities={(big, 1): 1, (big + 1, 1): 1},
            ),
            Relation(
                "D",
                Schema.from_names(["k", "x"], ["k"]),
                multiplicities={(float(big), 2.0): 1},   # float-typed key column
            ),
        ]
    )
    query = ConjunctiveQuery(["F", "D"])
    batch = AggregateBatch("mixed-kinds", [Aggregate.count(name="count")])
    result = _evaluate_checked(database, query, batch)
    # Only big == float(big) joins; big + 1 != 2.0**53 under Python equality.
    assert result.scalar("count") == pytest.approx(1.0)


def test_columnar_views_compare_equal_before_materialisation():
    """View equality must not read a lazy view's raw backing storage."""
    from repro.engine.plan import decompose_aggregate, designate_attributes
    from repro.engine.executor import ColumnarView, compute_node_views
    from repro.query import ConjunctiveQuery, build_join_tree

    database = Database(
        [
            Relation("F", Schema.from_names(["k", "m"], ["k"]), rows=[(1, 2), (2, 3)]),
            Relation("D", Schema.from_names(["k", "x"], ["k"]), rows=[(1, 7), (2, 9)]),
        ]
    )
    query = ConjunctiveQuery(["F", "D"])
    tree = build_join_tree(query.hypergraph(database), root="F")
    designation = designate_attributes(tree)
    aggregate = Aggregate.sum_of(["x"], group_by=["k"], name="x_by_k")
    decomposition = decompose_aggregate(aggregate, tree, designation)
    leaf = tree.node("D")
    signature = decomposition.signature_at("D")

    def fresh_view():
        return compute_node_views(
            leaf, database["D"], [signature], designation, {}
        )[signature]

    left, right = fresh_view(), fresh_view()
    assert isinstance(left, ColumnarView) and isinstance(right, ColumnarView)
    assert left == right                      # neither side materialised yet
    assert not (fresh_view() != fresh_view())


def test_filtered_out_nonfinite_rows_do_not_poison_sums():
    """A filtered-out inf row must not turn the signature's sums into NaN."""
    from repro.query import ConjunctiveQuery

    database = Database(
        [
            Relation(
                "F",
                Schema.from_names(["k", "m"], ["k"]),
                multiplicities={(1, 2.0): 1, (1, float("inf")): 1},
            ),
            Relation("D", Schema.from_names(["k", "x"], ["k"]), rows=[(1, 7)]),
        ]
    )
    query = ConjunctiveQuery(["F", "D"])
    batch = AggregateBatch(
        "inf",
        [Aggregate.sum_of(["m"], filters=[Filter("m", FilterOp.LE, 100)], name="sum_small")],
    )
    result = _evaluate_checked(database, query, batch)
    assert result.scalar("sum_small") == pytest.approx(2.0)


def test_mixed_int_float_column_keeps_huge_ints_distinct():
    """A column mixing floats with ints beyond 2**53 must not merge codes."""
    from repro.query import ConjunctiveQuery

    big = 2 ** 53
    database = Database(
        [
            Relation(
                "F",
                Schema.from_names(["k", "m"], ["k"]),
                multiplicities={(big + 1, 1): 1, (float(big), 1): 1},
            ),
            Relation(
                "D",
                Schema.from_names(["k", "x"], ["k"]),
                multiplicities={(big + 1, 2): 1},
            ),
        ]
    )
    query = ConjunctiveQuery(["F", "D"])
    batch = AggregateBatch("mixed-col", [Aggregate.count(name="count")])
    result = _evaluate_checked(database, query, batch)
    # Only the int key big + 1 matches D; float(big) is a different value.
    assert result.scalar("count") == pytest.approx(1.0)


def test_extraction_is_stable_after_view_materialisation():
    """Reading a root view as a mapping must not change extracted groups.

    Regression test: the positional extraction fast path used the raw
    concatenation-order attribute sequence even after the view's dict shape
    (whose keys are attribute-sorted) had been materialised, returning the
    wrong attribute's values.
    """
    from repro.engine import LMFAOEngine

    rng = random.Random(3)
    database = _random_database(rng)
    from repro.query import ConjunctiveQuery

    query = ConjunctiveQuery(["F", "D1", "D2", "E"])
    batch = AggregateBatch(
        "stable", [Aggregate.sum_of(["m"], group_by=["b", "x"], name="m_by_bx")]
    )
    fresh = LMFAOEngine(database, query).evaluate(batch).grouped("m_by_bx")

    engine = LMFAOEngine(database, query)
    plan = engine.plan(batch)
    views = engine._evaluate_views(plan, {})
    decomposition = plan.decompositions[0]
    root_view = views[(decomposition.root, None, decomposition.root_signature)]
    len(root_view)                                  # materialise the dict shape
    again = engine._extract(batch[0], root_view)
    assert again == fresh


def test_non_numeric_product_column_falls_back_to_the_tuple_scan():
    """A product column that does not decode to floats takes the tuple scan.

    The filter keeps the scan away from the undecodable value; the columnar
    path cannot build the column at all and hands the signature over.
    """
    from repro.query import ConjunctiveQuery

    database = Database(
        [
            Relation(
                "F",
                Schema.from_names(["k", "m"], ["k"]),
                multiplicities={(1, 2.0): 1, (1, "n/a"): 1, (2, 5.0): 2},
            ),
            Relation("D", Schema.from_names(["k", "x"], ["k"]), rows=[(1, 7), (2, 9)]),
        ]
    )
    query = ConjunctiveQuery(["F", "D"])
    batch = AggregateBatch(
        "fallback",
        [
            Aggregate.sum_of(
                ["m", "x"], filters=[Filter("m", FilterOp.NE, "n/a")], name="sum_mx"
            ),
            Aggregate.count(name="count"),
        ],
    )
    result = LMFAOEngine(database, query).evaluate(batch)
    assert result.executor_stats.get(STAT_TUPLE_FALLBACK, 0) > 0
    assert result.executor_stats.get(STAT_COLUMNAR, 0) > 0
    assert result.scalar("sum_mx") == pytest.approx(2.0 * 7 + 2 * 5.0 * 9)
    assert result.scalar("count") == pytest.approx(4.0)



# -- view bundles: CART node batches --------------------------------------------------------


def _tree_case(dataset):
    """A small database, its query, feature spec and two filters on different relations."""
    if dataset == "retailer":
        database = retailer_database(inventory_rows=400, stores=6, items=15, dates=8, seed=3)
        return database, retailer_query(), RETAILER_FEATURES, (
            Filter("prize", FilterOp.GE, 100.0),       # Items
            Filter("maxtemp", FilterOp.LT, 20.0),      # Weather
        )
    database = favorita_database(sales_rows=300, stores=6, items=20, dates=10, seed=5)
    return database, favorita_query(), FAVORITA_FEATURES, (
        Filter("oilprice", FilterOp.GE, 50.0),         # Oil
        Filter("transactions", FilterOp.LT, 2500),     # Transactions
    )


def _tree_node_batch(database, query, spec, node_filters=(), grouped_extras=True):
    """The batch the tree learner evaluates at one node, plus two grouped extras.

    The grouped aggregates put a grouped child view beside the group-free
    ones at the parent of the relation owning the categorical feature.
    """
    learner = DecisionTreeRegressor(spec["target"], spec["continuous"], spec["categorical"])
    batch = decision_tree_node_batch(
        spec["target"],
        learner.continuous,
        learner.categorical,
        thresholds=learner._thresholds(database, query),
        categories=learner._categories(database),
        node_filters=node_filters,
    )
    if grouped_extras:
        feature = spec["categorical"][0]
        batch.add(Aggregate.count(group_by=[feature], filters=node_filters, name="grouped_count"))
        batch.add(
            Aggregate.sum_of(
                [spec["target"]], group_by=[feature], filters=node_filters, name="grouped_sum"
            )
        )
    return batch


@pytest.mark.parametrize("filtered", [False, True], ids=["depth0", "two-node-filters"])
@pytest.mark.parametrize("dataset", ["retailer", "favorita"])
def test_tree_node_batch_bundles_match_the_tuple_scan(dataset, filtered):
    """Every bundled view of a CART node batch is what ``scan_node_views`` derives.

    Hundreds of signatures per node that differ in one child view each: the
    bundled pipeline must still give every output its own presence (a
    candidate filter can empty a key its siblings keep) and must join the
    grouped child views next to the flat ones.
    """
    database, query, spec, node_filters = _tree_case(dataset)
    batch = _tree_node_batch(database, query, spec, node_filters if filtered else ())
    outcome = _evaluate_checked(database, query, batch)
    assert outcome.executor_stats.get(STAT_TUPLE_FALLBACK, 0) == 0
    naive = MaterializedJoinEngine(database, query).evaluate(batch)
    for name, value in outcome.values.items():
        assert _tolerant_equal(value, naive.values[name]), name

    # The interesting shapes did occur: columns of one bundle with different
    # key sets, and a node that computed flat and grouped bundles side by side.
    # They are shapes of the one-root plan — per-aggregate roots turn most of
    # these views into root views — so the batch is evaluated once more with
    # the default root forced, checked against the tuple scan like the first.
    root = LMFAOEngine(database, query).join_tree.root.relation_name
    pinned = _evaluate_checked(database, query, batch, root_relation=root)
    for name, value in outcome.values.items():
        assert _tolerant_equal(value, pinned.values[name]), name
    engine = LMFAOEngine(database, query, root_relation=root)
    bundles = {}
    for (name, _towards, _signature), view in engine._evaluate_views(engine.plan(batch)).items():
        assert isinstance(view, ColumnarView)
        bundles.setdefault(id(view._bundle), (name, view._bundle, []))[2].append(view)
    assert any(
        len({frozenset(view) for view in views}) > 1 for _name, _bundle, views in bundles.values()
    )
    flat_nodes = {name for name, bundle, _views in bundles.values() if bundle.flat}
    grouped_nodes = {name for name, bundle, _views in bundles.values() if not bundle.flat}
    assert flat_nodes & grouped_nodes


def test_retailer_tree_batch_runs_one_pipeline_per_node_and_key_shape():
    """The root-node tree batch scans each relation once per key shape.

    At the parent commit this batch (rooted at Stores) ran 319 pipelines —
    one per distinct combination of child signatures: 1 + 14 + 1 + 42 + 261
    over Items, Inventory, Demographics, Weather, Stores.
    """
    database = retailer_database(inventory_rows=3000, stores=60, items=80, dates=20, seed=1)
    query = retailer_query()
    batch = _tree_node_batch(database, query, RETAILER_FEATURES, grouped_extras=False)
    assert len(batch) > 300
    engine = LMFAOEngine(database, query, root_relation="Stores")
    result = engine.evaluate(batch)
    assert result.executor_stats[STAT_COLUMNAR] == result.views_computed
    assert result.executor_stats[STAT_PIPELINES] <= 16

    # The two big nodes on their own, against the same child views.
    plan = engine.plan(batch)
    views = engine._evaluate_views(plan)
    for name, limit in (("Inventory", 2), ("Weather", 4)):
        stats = {}
        signatures = plan.views_per_node[name]
        assert len(signatures) > 10 * limit
        compute_node_views(
            engine.join_tree.node(name), database.relation(name), signatures,
            plan.designation, views, stats=stats,
        )
        assert stats[STAT_COLUMNAR] == len(signatures)
        assert stats[STAT_PIPELINES] <= limit


def test_dead_rows_with_nonfinite_weights_do_not_poison_bundled_sums():
    """A row whose child entry a sibling filter removed is skipped, inf or not.

    The bundled pipeline keeps such a row with a 0.0 child factor instead of
    dropping it; ``inf * 0.0`` must not leak into the key's sum.
    """
    from repro.query import ConjunctiveQuery

    database = Database(
        [
            Relation(
                "F",
                Schema.from_names(["k", "m"], ["k"]),
                multiplicities={(1, 2.0): 1, (2, float("inf")): 1, (2, 3.0): 1},
            ),
            Relation("D", Schema.from_names(["k", "x"], ["k"]), rows=[(1, 7), (2, 9)]),
        ]
    )
    query = ConjunctiveQuery(["F", "D"])
    batch = AggregateBatch(
        "dead-inf",
        [
            Aggregate.sum_of(["m"], filters=[Filter("x", FilterOp.LE, 8)], name="sum_x_small"),
            Aggregate.count(name="count"),
        ],
    )
    result = _evaluate_checked(database, query, batch, root_relation="F")
    assert result.scalar("sum_x_small") == pytest.approx(2.0)
    assert result.scalar("count") == pytest.approx(3.0)
