"""The columnar executor against the tuple scan on randomized acyclic queries.

The engine computes views vectorised over the dictionary-encoded column
store; the position-resolved tuple scan (``repro.engine.naive.scan_node_views``,
a reference, not a path of the engine) defines the semantics.  The two must
be *indistinguishable* on any query the planner accepts: same views (compared
through ``view_as_dict``), same group keys (including groups whose
contributions cancel to exactly 0.0), same values — and both agree with the
materialised join.

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
from repro.engine.executor import STAT_COLUMNAR, STAT_PIPELINES, ColumnarView, compute_node_views
from repro.engine.naive import scan_node_views, view_as_dict
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
    views = engine._evaluate_views(plan)    # computed again: the same bits `result` read
    for (name, towards), signatures in plan.views.items():
        scanned = scan_node_views(
            engine.join_tree.oriented(name, towards), database.relation(name), signatures,
            plan.designation, views,
        )
        for signature, expected in scanned.items():
            view = view_as_dict(views[(name, towards, signature)])
            assert set(view) == set(expected), (name, towards, signature)
            for key, groups in expected.items():
                assert _exact_equal(view[key], groups), (name, towards, signature, key)
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

    # Every view agrees exactly with the tuple scan (checked inside).
    outcome = _evaluate_checked(database, query, batch)
    assert outcome.executor_stats.get(STAT_COLUMNAR, 0) > 0

    # And the values agree with the materialised-join baseline.
    naive = MaterializedJoinEngine(database, query).evaluate(batch)
    for aggregate_name, value in outcome.values.items():
        assert _tolerant_equal(value, naive.values[aggregate_name]), (seed, aggregate_name)


@pytest.mark.parametrize("emptied", ["F", "D1", "D2", "E"])
def test_views_over_an_emptied_relation_are_empty_columnar_views(emptied):
    """One representation: every view is a ``ColumnarView``, empty ones too.

    A view with the emptied relation on its side of the edge has no entry;
    the others are what they are over the full database.  Both rootings,
    the plan's and one at the emptied relation itself.
    """
    from repro.query import ConjunctiveQuery

    assert dict not in ColumnarView.__mro__
    database = _random_database(random.Random(5))
    database[emptied].clear()
    query = ConjunctiveQuery(["F", "D1", "D2", "E"])
    for root in (None, emptied):
        outcome = _evaluate_checked(database, query, _batch(), root_relation=root)
        naive = MaterializedJoinEngine(database, query).evaluate(_batch())
        for name, value in outcome.values.items():
            assert _tolerant_equal(value, naive.values[name]), (root, name)
        engine = LMFAOEngine(database, query, root)
        views = engine._evaluate_views(engine.plan(_batch()))
        assert all(type(view) is ColumnarView for view in views.values())
        for (name, towards, _signature), view in views.items():
            if emptied in engine.join_tree.side(name, towards):
                assert view_as_dict(view) == {}, (root, name, towards)


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
    """One cross-store key mapping per (attrs, child) on the parent's snapshot,
    replaced when the child mutates."""
    from repro.query import ConjunctiveQuery

    database = Database(
        [
            Relation("F", Schema.from_names(["k", "m"], ["k"]), rows=[(1, 2), (2, 3)]),
            Relation("D", Schema.from_names(["k", "x"], ["k"]), rows=[(1, 7), (2, 9)]),
        ]
    )
    query = ConjunctiveQuery(["F", "D"])
    batch = AggregateBatch("m", [Aggregate.sum_of(["m", "x"], group_by=["x"], name="mx")])
    engine = LMFAOEngine(database, query, root_relation="F")
    engine.evaluate(batch)
    parent = database["F"].column_store()
    sizes = set()
    for step in range(4):
        database["D"].add((1, 100 + step))
        engine.evaluate(batch)
        assert database["F"].column_store() is parent
        sizes.add(sum(key[0] == "cross" for key in parent.derived))
    assert sizes == {1}, sizes


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


def test_non_numeric_product_column_falls_back_to_the_tuple_scan():
    """A product column that does not decode to floats stays columnar.

    Such a column used to send its signatures to the tuple scan; now the
    filter keeps every product away from the undecodable value, so the
    columnar path computes every view, and each one is what the tuple scan
    derives.  Without the filter the value reaches a product: a ``TypeError``
    naming the attribute, as the tuple scan's ``float()`` fails there too.
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

    def batch(filters):
        return AggregateBatch(
            "non-numeric",
            [
                Aggregate.sum_of(["m", "x"], filters=filters, name="sum_mx"),
                Aggregate.count(name="count"),
            ],
        )

    result = _evaluate_checked(database, query, batch([Filter("m", FilterOp.NE, "n/a")]))
    assert result.executor_stats[STAT_COLUMNAR] == result.views_computed
    assert result.scalar("sum_mx") == pytest.approx(2.0 * 7 + 2 * 5.0 * 9)
    assert result.scalar("count") == pytest.approx(4.0)

    with pytest.raises(TypeError, match="'m'.*'n/a'"):
        LMFAOEngine(database, query).evaluate(batch([]))


def test_a_non_numeric_value_in_a_dangling_row_raises_where_the_join_does_not():
    """A product value is checked in every row the local filters keep,
    joining or not: the engine and the tuple scan raise on ``'n/a'`` in an
    ``F`` row no ``D`` row matches, while the materialised join never meets
    that row and sums the rest.  So the engine and the materialised join are
    compared only where product values are numeric in every row the local
    filters keep."""
    from repro.query import ConjunctiveQuery

    database = Database(
        [
            Relation("F", Schema.from_names(["k", "m"], ["k"]), rows=[(1, 2.0), (9, "n/a")]),
            Relation("D", Schema.from_names(["k", "x"], ["k"]), rows=[(1, 7)]),
        ]
    )
    query = ConjunctiveQuery(["F", "D"])
    batch = AggregateBatch("dangling", [Aggregate.sum_of(["m"], name="sum_m")])
    message = "relation 'F': product attribute 'm' holds the non-numeric value 'n/a'"

    with pytest.raises(TypeError, match=message):
        LMFAOEngine(database, query).evaluate(batch)
    # Rooted at D, F is a leaf: its scan needs no child view.
    engine = LMFAOEngine(database, query, root_relation="D")
    with pytest.raises(TypeError, match=message):
        engine.evaluate(batch)
    plan = engine.plan(batch)
    with pytest.raises(ValueError, match="could not convert string to float: 'n/a'"):
        scan_node_views(
            engine.join_tree.oriented("F", "D"), database.relation("F"),
            plan.views[("F", "D")], plan.designation, {},
        )
    assert MaterializedJoinEngine(database, query).evaluate(batch).scalar("sum_m") == 2.0


def test_a_stored_nan_beside_a_non_numeric_value_is_a_number():
    """The non-numeric mask marks what ``float()`` rejects, not what is NaN.

    The filter keeps the rows holding ``"n/a"`` out of every product; the row
    holding NaN passes it, so its group sums to NaN on both the columnar path
    and the materialised join, and nothing raises.
    """
    from repro.query import ConjunctiveQuery

    database = Database(
        [
            Relation(
                "F",
                Schema.from_names(["k", "m"], ["k"]),
                multiplicities={(1, float("nan")): 1, (1, "n/a"): 1, (2, 5.0): 2},
            ),
            Relation("D", Schema.from_names(["k", "x"], ["k"]), rows=[(1, 7), (2, 9)]),
        ]
    )
    query = ConjunctiveQuery(["F", "D"])
    batch = AggregateBatch(
        "nan",
        [
            Aggregate.sum_of(
                ["m", "x"], group_by=["k"], filters=[Filter("m", FilterOp.NE, "n/a")],
                name="mx_by_k",
            ),
            Aggregate.count(name="count"),
        ],
    )
    result = LMFAOEngine(database, query).evaluate(batch)
    assert result.executor_stats[STAT_COLUMNAR] == result.views_computed
    assert result.scalar("count") == pytest.approx(4.0)
    grouped = result.grouped("mx_by_k")
    naive = MaterializedJoinEngine(database, query).evaluate(batch).grouped("mx_by_k")
    for values in (grouped, naive):
        assert set(values) == {(1,), (2,)}
        assert math.isnan(values[(1,)])
        assert values[(2,)] == pytest.approx(2 * 5.0 * 9)



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


def _binned_node_batch(database, query, spec, node_filters=(), grouped_extras=True):
    """A node batch whose candidate splits are bins: two conditions each.

    A tree batch's candidates differ in one condition on one attribute, so
    the engine answers them as filter families, from one grouped view per
    attribute.  A bin (``low <= x < high``, ``x = v and x != w``) carries two
    conditions of its own, so every candidate keeps its own filtered views —
    the hundreds of signatures per node, differing in one child view each,
    that the bundle-shape tests below are about.  Same products, node
    filters and grouped extras as :func:`_tree_node_batch`.
    """
    learner = DecisionTreeRegressor(spec["target"], spec["continuous"], spec["categorical"])
    bins = [
        (Filter(feature, FilterOp.GE, low), Filter(feature, FilterOp.LT, high))
        for feature, thresholds in learner._thresholds(database, query).items()
        for low, high in zip(thresholds, thresholds[1:])
    ] + [
        (Filter(feature, FilterOp.EQ, value), Filter(feature, FilterOp.NE, other))
        for feature, values in learner._categories(database).items()
        for value, other in zip(values, values[1:] + values[:1])
    ]
    batch = _tree_node_batch(database, query, spec, node_filters, grouped_extras)
    target = spec["target"]
    binned = AggregateBatch("binned_node", [a for a in batch if "|" not in a.name])
    for position, conditions in enumerate(bins):
        filters = tuple(node_filters) + conditions
        binned.add(Aggregate.sum_of([target, target], filters=filters, name=f"sum_y2|bin{position}"))
        binned.add(Aggregate.sum_of([target], filters=filters, name=f"sum_y|bin{position}"))
        binned.add(Aggregate.count(filters=filters, name=f"count|bin{position}"))
    return binned


@pytest.mark.parametrize("filtered", [False, True], ids=["depth0", "two-node-filters"])
@pytest.mark.parametrize("dataset", ["retailer", "favorita"])
def test_tree_node_batch_bundles_match_the_tuple_scan(dataset, filtered):
    """Every bundled view of a CART node batch is what ``scan_node_views`` derives.

    Hundreds of signatures per node that differ in one child view each: the
    bundled pipeline must still give every output its own presence (a
    candidate filter can empty a key its siblings keep) and must join the
    grouped child views next to the flat ones.  The candidates are bins, so
    that no filter family takes those signatures away.
    """
    database, query, spec, node_filters = _tree_case(dataset)
    batch = _binned_node_batch(database, query, spec, node_filters if filtered else ())
    assert not LMFAOEngine(database, query).plan(batch).families
    outcome = _evaluate_checked(database, query, batch)
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
        bundles.setdefault(id(view.bundle), (name, view.bundle, []))[2].append(view)
    assert any(
        len({frozenset(view_as_dict(view)) for view in views}) > 1
        for _name, _bundle, views in bundles.values()
    )
    flat_nodes = {name for name, bundle, _views in bundles.values() if bundle.flat}
    grouped_nodes = {name for name, bundle, _views in bundles.values() if not bundle.flat}
    assert flat_nodes & grouped_nodes


def test_retailer_tree_batch_runs_one_pipeline_per_node_and_key_shape():
    """The root-node tree batch scans each relation once per key shape.

    Before view bundles this batch's tree-split original (rooted at Stores)
    ran 319 pipelines — one per distinct combination of child signatures:
    1 + 14 + 1 + 42 + 261 over Items, Inventory, Demographics, Weather,
    Stores.  Its candidates are bins, so no filter family takes those
    signatures away.
    """
    database = retailer_database(inventory_rows=3000, stores=60, items=80, dates=20, seed=1)
    query = retailer_query()
    batch = _binned_node_batch(database, query, RETAILER_FEATURES, grouped_extras=False)
    assert len(batch) > 300
    engine = LMFAOEngine(database, query, root_relation="Stores")
    assert not engine.plan(batch).families
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


# -- filter families ------------------------------------------------------------------------


def _assert_members_equal_their_own_batches(database, query, batch, root_relation=None):
    """Evaluate ``batch`` and every filter-family member of its plan on its own.

    A member's one-aggregate batch forms no family, so the engine answers it
    from a filtered view of its own — the path every member took before
    families.  Counts must agree exactly, sums within ``_tolerant_equal``;
    the batch's views, the families' grouped ones included, are checked
    against the tuple scan on the way.  Returns the batch's plan.
    """
    engine = LMFAOEngine(database, query, root_relation)
    plan = engine.plan(batch)
    result = _evaluate_checked(database, query, batch, root_relation)
    for family in plan.families:
        for member, _condition in family.members:
            alone = engine.evaluate(AggregateBatch("alone", [member]))
            assert not engine.plan(AggregateBatch("alone", [member])).families
            value, expected = result.values[member.name], alone.values[member.name]
            if member.product:
                assert _tolerant_equal(value, expected), (member.name, value, expected)
            else:
                assert value == expected, (member.name, value, expected)
    return plan


_FIGURE4_SCALES = {
    "retailer": dict(inventory_rows=400, stores=6, items=15, dates=8, seed=3),
    "favorita": dict(sales_rows=300, stores=6, items=20, dates=10, seed=5),
    "yelp": dict(review_rows=300, businesses=30, users=40),
    "tpcds": dict(sales_rows=300, items=20, customers=30, stores=5, dates=10),
}


@pytest.mark.parametrize("dataset", sorted(_FIGURE4_SCALES))
def test_family_members_equal_their_own_batches_on_the_figure4_r_batch(dataset):
    """Figure 4's R batch: four thresholds per continuous feature, grouped categoricals."""
    from repro.datasets import load_dataset

    database, query, spec = load_dataset(dataset, **_FIGURE4_SCALES[dataset])
    features = [feature for feature in spec.continuous_features if feature != spec.target]
    thresholds = {}
    for feature in features:
        owners = database.relations_with_attribute(feature)
        values = sorted(float(value) for value in owners[0].column(feature)) if owners else []
        if values and values[0] != values[-1]:
            step = (values[-1] - values[0]) / 5
            thresholds[feature] = [round(values[0] + step * index, 6) for index in range(1, 5)]
    batch = decision_tree_node_batch(
        spec.target, features, spec.categorical_features, thresholds=thresholds
    )
    plan = _assert_members_equal_their_own_batches(database, query, batch)
    assert plan.families
    assert plan.aggregate_count == len(batch)
    assert plan.roots == LMFAOEngine(database, query).evaluate(batch).plan_summary["roots"]


def _adversarial_filter_columns():
    """``F(k, x, w, y)``: ``x`` and ``w`` hold NaN, ±inf, -0.0 next to 0.0 and
    ints next to floats — ``x`` one int beyond 2**53 too, which sends its
    filters to the per-value Python test; ``y`` holds one ``inf``."""
    from repro.query import ConjunctiveQuery

    nan = float("nan")
    values = [nan, float("inf"), float("-inf"), -0.0, 0.0, 1, 1.0, 2, 2.5, -5, 3, 3.0]
    rows = [
        (position % 3, value if position != 5 else 2 ** 60, value, float(position + 1))
        for position, value in enumerate(values)
    ]
    rows.append((1, -5.5, -5.5, float("inf")))    # y = inf where x < 0
    database = Database(
        [
            Relation("F", Schema.from_names(["k", "x", "w", "y"], ["k"]), rows=rows),
            Relation("D", Schema.from_names(["k", "z"], ["k"]),
                     rows=[(0, 1.0), (1, 2.0), (2, 3.0)]),
        ]
    )
    return database, ConjunctiveQuery(["F", "D"])


def test_family_members_equal_their_own_batches_over_adversarial_filter_columns():
    """NaN, ±inf, -0.0, mixed int/float, and an ``=`` against a value not in the dictionary.

    Each member's mask is its own condition over the dictionary values, so
    NaN passes ``!=`` only, -0.0 is 0.0, and the ``inf`` in ``y`` reaches
    exactly the members whose condition accepts its row's ``x``.  With ``D``
    forced as the root a family would be read off a view grouped by ``x``
    one join away, so the plan keeps the members apart there.
    """
    database, query = _adversarial_filter_columns()
    shared = (Filter("z", FilterOp.LE, 2.5),)
    batch = AggregateBatch("adversarial", [Aggregate.count(filters=shared, name="node")])
    for attribute in ("x", "w"):
        conditions = [
            Filter(attribute, FilterOp.GE, 0.0), Filter(attribute, FilterOp.LT, 1),
            Filter(attribute, FilterOp.EQ, -0.0), Filter(attribute, FilterOp.EQ, 2),
            Filter(attribute, FilterOp.EQ, 7.25), Filter(attribute, FilterOp.NE, 2.5),
            Filter(attribute, FilterOp.GT, float("-inf")),
            Filter(attribute, FilterOp.LE, float("inf")),
            Filter(attribute, FilterOp.GE, float("nan")), Filter(attribute, FilterOp.IN, (1, 3)),
        ]
        for position, condition in enumerate(conditions):
            filters = shared + (condition,)
            batch.add(Aggregate.count(filters=filters, name=f"count|{attribute}{position}"))
            batch.add(Aggregate.sum_of(["y"], filters=filters, name=f"sum|{attribute}{position}"))
    for root, attributes in ((None, ["w", "w", "x", "x"]), ("F", ["w", "w", "x", "x"]), ("D", [])):
        plan = _assert_members_equal_their_own_batches(database, query, batch, root)
        assert sorted(family.attribute for family in plan.families) == attributes
    result = LMFAOEngine(database, query).evaluate(batch)
    for attribute in ("x", "w"):
        assert result.scalar(f"count|{attribute}4") == 0.0           # = 7.25: no such value
        assert result.scalar(f"count|{attribute}8") == 0.0           # >= NaN: nothing
        assert result.scalar(f"sum|{attribute}0") != float("inf")    # x >= 0 skips the inf row
        assert result.scalar(f"sum|{attribute}1") == float("inf")    # x < 1 keeps it


def test_a_grouped_member_keeps_the_groups_its_own_condition_leaves():
    """The classifier's ``GROUP BY target``: one candidate empties a class its siblings keep."""
    from repro.ml import DecisionTreeClassifier
    from repro.ml.decision_tree import _Fit
    from repro.query import ConjunctiveQuery

    rows = [
        (key % 2, float(key % 6), "b" if key % 6 < 2 else ("a", "c")[key % 2])
        for key in range(24)
    ]
    database = Database(
        [
            Relation("F", Schema.from_names(["k", "x", "label"], ["k", "label"]), rows=rows),
            Relation("D", Schema.from_names(["k", "z"], ["k"]), rows=[(0, 1.0), (1, 2.0)]),
        ]
    )
    query = ConjunctiveQuery(["F", "D"])
    learner = DecisionTreeClassifier("label", ["x"], max_depth=2, min_samples=1)
    fit = _Fit(LMFAOEngine(database, query), {"x": [1.0, 2.0, 3.0, 4.0, 5.0]}, {})
    batch = learner._node_batch(fit, (Filter("z", FilterOp.GE, 1.0),), 0)
    for root, sizes in ((None, [5]), ("F", [5]), ("D", [])):
        plan = _assert_members_equal_their_own_batches(database, query, batch, root)
        assert [len(family.members) for family in plan.families] == sizes
    result = LMFAOEngine(database, query).evaluate(batch)
    assert ("b",) in result.grouped("left:0") and ("b",) not in result.grouped("left:1")
    assert result.grouped("left:1") == {("a",): 8.0, ("c",): 8.0}


def test_a_family_over_a_unique_valued_attribute_groups_only_when_large():
    """The cost choice on an attribute with one value per row, pinned both ways.

    Grouped by a unique attribute the view holds an entry per row, each
    costing ``GROUPED_VALUE_COST`` rows, against one view (its rows plus
    ``VIEW_COST_ROWS``) saved per member beyond the first: over 1,000 rows
    two thresholds stay two filtered aggregates, three become one grouped.
    """
    from repro.engine.statistics import grouping_pays
    from repro.query import ConjunctiveQuery

    rows = [(key % 4, key * 0.5 + 0.25, float(key % 7)) for key in range(1000)]
    database = Database(
        [
            Relation("F", Schema.from_names(["k", "u", "y"], ["k"]), rows=rows),
            Relation("D", Schema.from_names(["k", "z"], ["k"]), rows=[(k, 1.0) for k in range(4)]),
        ]
    )
    query = ConjunctiveQuery(["F", "D"])
    assert not grouping_pays(1000, 1000, 2) and grouping_pays(1000, 1000, 3)
    assert grouping_pays(15, 15, 2)          # a small relation groups whatever its values
    families = []
    for count in (2, 3):
        batch = AggregateBatch("unique", [Aggregate.count(name="node")])
        for position in range(count):
            condition = Filter("u", FilterOp.GE, 500.0 * (position + 1) / (count + 1))
            batch.add(Aggregate.count(filters=[condition], name=f"count|{position}"))
            batch.add(Aggregate.sum_of(["y"], filters=[condition], name=f"sum|{position}"))
        plan = _assert_members_equal_their_own_batches(database, query, batch)
        families.append([(family.attribute, len(family.members)) for family in plan.families])
        naive = MaterializedJoinEngine(database, query).evaluate(batch)
        outcome = LMFAOEngine(database, query).evaluate(batch)
        for name, value in outcome.values.items():
            assert _tolerant_equal(value, naive.values[name]), name
    assert families == [[], [("u", 3), ("u", 3)]]
