"""Unit tests for factorised-representation nodes and the engine executor internals."""

import numpy as np
import pytest

from repro.aggregates.spec import Aggregate, Filter, FilterOp
from repro.data import Relation, Schema
from repro.engine.executor import compute_node_views, restrict_signature, scan_node_views
from repro.engine.plan import ViewSignature, decompose_aggregate, designate_attributes
from repro.factorized import factorize_join
from repro.factorized.aggregates import aggregate_over_factorization
from repro.factorized.frepr import FactorizedRelation, ProductNode, UnionNode, ValueLeaf
from repro.query import build_join_tree
from repro.rings import MaxPlusSemiring


# -- factorised representation nodes --------------------------------------------------------------


def _tiny_factorization():
    # U[a]( 1 -> (U[b](x -> (), y -> ())), 2 -> (U[b](x -> ())) )
    union_b1 = UnionNode("b", {"x": ProductNode([]), "y": ProductNode([])})
    union_b2 = UnionNode("b", {"x": ProductNode([])})
    root = UnionNode("a", {1: ProductNode([union_b1]), 2: ProductNode([union_b2])})
    return FactorizedRelation(root=root, variables=("a", "b"))


def test_union_and_product_tuple_counts():
    factorization = _tiny_factorization()
    assert factorization.flat_size() == 3
    assert factorization.flat_value_count() == 6
    assert sorted(factorization.tuples()) == [(1, "x"), (1, "y"), (2, "x")]


def test_value_count_counts_shared_nodes_once():
    shared = UnionNode("b", {"x": ProductNode([])})
    root = UnionNode("a", {1: ProductNode([shared]), 2: ProductNode([shared])})
    factorization = FactorizedRelation(root=root, variables=("a", "b"))
    # Values: a=1, a=2, and the single shared b=x counted once.
    assert factorization.size() == 3
    assert factorization.flat_size() == 2


def test_value_leaf_behaviour():
    leaf = ValueLeaf("x", 5)
    assert leaf.tuple_count() == 1
    assert leaf.value_count(set()) == 1


def test_render_contains_variables():
    rendering = _tiny_factorization().render()
    assert "∪ a" in rendering and "b=x" in rendering


def test_empty_union_means_empty_relation():
    factorization = FactorizedRelation(root=UnionNode("a", {}), variables=("a",))
    assert factorization.flat_size() == 0
    assert list(factorization.tuples()) == []
    assert factorization.compression_ratio() >= 1.0 or factorization.size() == 0


def test_max_plus_aggregate_over_factorization(toy_database, toy_query):
    """FAQ-style use of another semiring: the maximum price over the join."""
    factorization = factorize_join(toy_query, toy_database)
    semiring = MaxPlusSemiring()

    def lift(variable, value):
        return float(value) if variable == "price" else 0.0

    maximum = aggregate_over_factorization(factorization, semiring, lift)
    assert maximum == 6.0


# -- executor internals --------------------------------------------------------------------------------


@pytest.fixture()
def star_pieces():
    fact = Relation(
        "F",
        Schema.from_names(["k", "m"], categorical_names=["k"]),
        rows=[("a", 1.0), ("a", 2.0), ("b", 3.0)],
    )
    dimension = Relation(
        "D",
        Schema.from_names(["k", "x"], categorical_names=["k"]),
        rows=[("a", 10.0), ("b", 20.0)],
    )
    from repro.data import Database
    from repro.query import ConjunctiveQuery

    database = Database([fact, dimension])
    query = ConjunctiveQuery(["F", "D"])
    tree = build_join_tree(query.hypergraph(database), root="F")
    designation = designate_attributes(tree)
    return database, query, tree, designation


def test_restrict_signature_splits_by_designation(star_pieces):
    database, query, tree, designation = star_pieces
    aggregate = Aggregate.sum_of(["m", "x"], group_by=["k"], name="mx")
    decomposition = decompose_aggregate(aggregate, tree, designation)
    root_signature = decomposition.root_signature
    child = tree.node("D")
    child_signature = restrict_signature(root_signature, child, designation)
    assert ("x", 1) in child_signature.product
    assert ("m", 1) not in child_signature.product
    # k is designated to the deepest relation containing it (D), so it restricts there.
    assert designation["k"] == "D"


def test_compute_node_views_leaf_and_root(star_pieces):
    database, query, tree, designation = star_pieces
    aggregate = Aggregate.sum_of(["m", "x"], name="mx")
    decomposition = decompose_aggregate(aggregate, tree, designation)

    leaf = tree.node("D")
    leaf_signature = decomposition.signature_at("D")
    leaf_views = compute_node_views(leaf, database["D"], [leaf_signature], designation, {})
    view = leaf_views[leaf_signature]
    assert view[("a",)][()] == pytest.approx(10.0)
    assert view[("b",)][()] == pytest.approx(20.0)

    root = tree.root
    root_signature = decomposition.root_signature
    root_views = compute_node_views(
        root,
        database["F"],
        [root_signature],
        designation,
        {("D", "F", leaf_signature): view},
    )
    total = root_views[root_signature][()][()]
    assert total == pytest.approx(1.0 * 10 + 2.0 * 10 + 3.0 * 20)


def test_vectorized_and_tuple_scan_paths_agree(star_pieces):
    database, query, tree, designation = star_pieces
    aggregates = [
        Aggregate.count(name="count"),
        Aggregate.sum_of(["m"], group_by=["k"], name="m_by_k"),
        Aggregate.sum_of(["m"], filters=[Filter("m", FilterOp.GE, 2.0)], name="m_big"),
    ]
    for aggregate in aggregates:
        decomposition = decompose_aggregate(aggregate, tree, designation)
        leaf = tree.node("D")
        leaf_signature = decomposition.signature_at("D")
        root_views = []
        for node_views in (compute_node_views, scan_node_views):
            leaf_view = node_views(
                leaf, database["D"], [leaf_signature], designation, {}
            )[leaf_signature]
            root_views.append(
                node_views(
                    tree.root,
                    database["F"],
                    [decomposition.root_signature],
                    designation,
                    {("D", "F", leaf_signature): leaf_view},
                )[decomposition.root_signature]
            )
        vectorised, scanned = root_views
        assert set(vectorised) == set(scanned)
        for key, groups in scanned.items():
            assert dict(vectorised[key]) == pytest.approx(groups)


def test_view_signature_count_only():
    signature = ViewSignature("R", (), (), ())
    assert signature.is_count_only()
    assert not ViewSignature("R", (("x", 1),), (), ()).is_count_only()
