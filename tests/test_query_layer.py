"""Tests for hypergraphs, acyclicity, join trees, variable orders and queries."""

import pytest

from repro.engine import MaterializedJoinEngine
from repro.query import (
    ConjunctiveQuery,
    Hypergraph,
    JoinTree,
    build_join_tree,
    build_variable_order,
    gyo_reduction,
    is_acyclic,
)
from repro.query.conjunctive import QueryError
from repro.query.join_tree import JoinTreeError
from repro.query.variable_order import VariableOrderError, order_from_nested


TRIANGLE = Hypergraph({"R": {"a", "b"}, "S": {"b", "c"}, "T": {"a", "c"}})
PATH = Hypergraph({"R": {"a", "b"}, "S": {"b", "c"}, "T": {"c", "d"}})
STAR = Hypergraph({"F": {"k1", "k2", "m"}, "D1": {"k1", "x"}, "D2": {"k2", "y"}})


# -- hypergraph / acyclicity ------------------------------------------------------------------


def test_path_query_is_acyclic():
    assert is_acyclic(PATH)


def test_star_query_is_acyclic():
    assert is_acyclic(STAR)


def test_triangle_query_is_cyclic():
    assert not is_acyclic(TRIANGLE)


def test_gyo_reduction_eliminates_all_but_one_edge_for_acyclic():
    residual, order = gyo_reduction(PATH)
    assert len(residual) == 1
    assert len(order) == 2


def test_hypergraph_accessors():
    assert TRIANGLE.vertices == frozenset({"a", "b", "c"})
    assert set(TRIANGLE.edges_containing("a")) == {"R", "T"}
    assert TRIANGLE.edge("R") == frozenset({"a", "b"})
    assert len(TRIANGLE) == 3


# -- join trees --------------------------------------------------------------------------------


def test_join_tree_for_star_query_rooted_at_fact():
    tree = build_join_tree(STAR, root="F")
    assert tree.root.relation_name == "F"
    assert {child.relation_name for child in tree.root.children} == {"D1", "D2"}
    assert tree.satisfies_running_intersection()


def test_join_tree_rerooting_preserves_nodes():
    tree = build_join_tree(STAR, root="F")
    rerooted = tree.rerooted("D1")
    assert rerooted.root.relation_name == "D1"
    assert set(rerooted.relation_names) == set(tree.relation_names)
    assert rerooted.satisfies_running_intersection()


def test_join_tree_refuses_cyclic_queries():
    with pytest.raises(JoinTreeError):
        build_join_tree(TRIANGLE)


def test_join_tree_connection_attributes():
    tree = build_join_tree(STAR, root="F")
    d1 = tree.node("D1")
    assert d1.connection_attributes() == frozenset({"k1"})
    assert tree.root.connection_attributes() == frozenset()


def test_join_tree_post_order_children_first():
    tree = build_join_tree(STAR, root="F")
    order = [node.relation_name for node in tree.post_order()]
    assert order[-1] == "F"
    assert set(order[:-1]) == {"D1", "D2"}


def test_join_tree_on_datasets(small_retailer, small_retailer_query):
    hypergraph = small_retailer_query.hypergraph(small_retailer)
    assert is_acyclic(hypergraph)
    tree = build_join_tree(hypergraph, root="Inventory")
    assert tree.satisfies_running_intersection()
    assert set(tree.relation_names) == set(small_retailer_query.relation_names)


def test_join_tree_directions(small_retailer, small_retailer_query):
    """Every edge can be looked at from both ends; the tree itself stays as built."""
    import pickle

    tree = build_join_tree(small_retailer_query.hypergraph(small_retailer), root="Stores")
    untouched = pickle.dumps(tree)
    names = set(tree.relation_names)
    for node in tree.nodes():
        neighbours = [child.relation_name for child in node.children]
        if node.parent is not None:
            neighbours.append(node.parent.relation_name)
        # As built where the tree already hangs that way ...
        assert tree.oriented(node.relation_name, node.parent and node.parent.relation_name) is node
        assert tree.side(node.relation_name) == names
        for towards in neighbours:
            oriented = tree.oriented(node.relation_name, towards)
            # ... else one stable node with the asked-for parent and the rest below.
            assert oriented is tree.oriented(node.relation_name, towards)
            assert oriented.parent.relation_name == towards
            assert {c.relation_name for c in oriented.children} == set(neighbours) - {towards}
            here, there = tree.side(node.relation_name, towards), tree.side(towards, node.relation_name)
            assert node.relation_name in here and towards in there
            assert here | there == names and not here & there
    with pytest.raises(JoinTreeError):
        tree.oriented("Items", "Stores")                 # not neighbours
    # The orientation caches are derived state: checkpoints carry the tree alone.
    assert pickle.dumps(tree) == untouched
    assert pickle.loads(untouched).side("Inventory", "Weather") == {"Inventory", "Items"}


# -- variable orders --------------------------------------------------------------------------------


def test_variable_order_is_valid_for_toy_query(toy_database, toy_query):
    order = build_variable_order(toy_query, toy_database)
    hypergraph = toy_query.hypergraph(toy_database)
    order.validate(hypergraph)  # does not raise
    assert set(order.variables()) == set(hypergraph.vertices)


def test_variable_order_keys_are_subsets_of_ancestors(toy_database, toy_query):
    order = build_variable_order(toy_query, toy_database)
    for node in order.nodes():
        assert node.key <= frozenset(node.ancestors())


def test_paper_variable_order_from_nested_spec(toy_database, toy_query):
    hypergraph = toy_query.hypergraph(toy_database)
    order = order_from_nested({"dish": {"day": {"customer": {}}, "item": {"price": {}}}}, hypergraph)
    price = order.find("price")
    assert price.key == frozenset({"item"})
    customer = order.find("customer")
    assert customer.key == frozenset({"dish", "day"})


def test_invalid_variable_order_is_rejected(toy_database, toy_query):
    hypergraph = toy_query.hypergraph(toy_database)
    # customer and day both under dish but price not under item: Items' attributes
    # {item, price} would not lie on a single path.
    with pytest.raises(VariableOrderError):
        order_from_nested(
            {"dish": {"day": {"customer": {}}, "item": {}, "price": {}}}, hypergraph
        )


# -- conjunctive queries -----------------------------------------------------------------------------------


def test_query_variables_and_materialised_join(toy_database, toy_query):
    """A query joins over every attribute of its relations; the reference
    evaluator materialises it."""
    joined = MaterializedJoinEngine(toy_database, toy_query).materialize()
    assert len(joined) == 12
    assert set(joined.schema.names) == set(toy_query.variables(toy_database))


def test_query_requires_relations():
    with pytest.raises(QueryError):
        ConjunctiveQuery([])
