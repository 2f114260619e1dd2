"""Tests for hypergraphs, acyclicity, join trees, variable orders and widths."""

import math

import pytest

from repro.query import (
    ConjunctiveQuery,
    Hypergraph,
    JoinTree,
    build_join_tree,
    build_variable_order,
    factorization_width,
    fractional_edge_cover_number,
    fractional_hypertree_width,
    gyo_reduction,
    integral_edge_cover_number,
    is_acyclic,
)
from repro.query.conjunctive import QueryError
from repro.query.decompositions import best_decomposition, materialize_bags
from repro.query.join_tree import JoinTreeError
from repro.query.variable_order import VariableOrderError, order_from_nested
from repro.query.widths import agm_bound, variable_order_width


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
    restricted = TRIANGLE.restrict_to_vertices({"a", "b"})
    assert restricted.edge("R") == frozenset({"a", "b"})
    assert len(restricted) == 3  # T keeps its 'a' vertex


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


# -- width measures -----------------------------------------------------------------------------------


def test_fractional_edge_cover_of_triangle_is_three_halves():
    assert math.isclose(fractional_edge_cover_number(TRIANGLE), 1.5, rel_tol=1e-6)


def test_integral_edge_cover_of_triangle_is_two():
    assert integral_edge_cover_number(TRIANGLE) == 2


def test_fractional_edge_cover_of_acyclic_path():
    assert math.isclose(fractional_edge_cover_number(PATH), 2.0, rel_tol=1e-6)


def test_fractional_edge_cover_uncoverable_vertex_is_infinite():
    assert fractional_edge_cover_number(PATH, ["z"]) == float("inf")


def test_fractional_hypertree_width_acyclic_is_one():
    assert math.isclose(fractional_hypertree_width(STAR), 1.0, rel_tol=1e-6)


def test_fractional_hypertree_width_triangle_is_three_halves():
    assert math.isclose(fractional_hypertree_width(TRIANGLE), 1.5, rel_tol=1e-6)


def test_agm_bound_triangle():
    sizes = {"R": 100, "S": 100, "T": 100}
    assert math.isclose(agm_bound(TRIANGLE, sizes), 1000.0, rel_tol=1e-6)


def test_factorization_width_of_acyclic_query_is_one(toy_database, toy_query):
    hypergraph = toy_query.hypergraph(toy_database)
    orders = [
        build_variable_order(toy_query, toy_database, root_relation=name)
        for name in toy_query.relation_names
    ]
    assert math.isclose(factorization_width(hypergraph, orders), 1.0, rel_tol=1e-6)
    for order in orders:
        assert variable_order_width(order, hypergraph) >= 1.0


# -- decompositions -------------------------------------------------------------------------------------


def test_best_decomposition_of_triangle_has_width_two():
    decomposition = best_decomposition(TRIANGLE)
    assert decomposition.width == 2
    assert decomposition.fractional_width(TRIANGLE) >= 1.0


def test_materialize_bags_turns_triangle_acyclic():
    from repro.data import Database
    from repro.data.relation import relation_from_rows

    r = relation_from_rows("R", ["a", "b"], [(1, 1), (1, 2), (2, 1)])
    s = relation_from_rows("S", ["b", "c"], [(1, 5), (2, 6)])
    t = relation_from_rows("T", ["a", "c"], [(1, 5), (2, 6), (1, 6)])
    database = Database([r, s, t])
    decomposition = best_decomposition(TRIANGLE)
    bag_database, bag_hypergraph = materialize_bags(database, TRIANGLE, decomposition)
    assert is_acyclic(bag_hypergraph)
    # The join over the bags equals the join over the original relations.
    original = database.natural_join()
    bags_joined = bag_database.natural_join()
    projected = {tuple(sorted(zip(bags_joined.schema.names, row))) for row in bags_joined}
    expected = {tuple(sorted(zip(original.schema.names, row))) for row in original}
    assert projected == expected


# -- conjunctive queries -----------------------------------------------------------------------------------


def test_query_evaluation_and_output_variables(toy_database, toy_query):
    joined = toy_query.evaluate(toy_database)
    assert len(joined) == 12
    restricted = ConjunctiveQuery(["Orders", "Dish"], free_variables=["customer", "item"])
    projected = restricted.evaluate(toy_database)
    assert set(projected.schema.names) == {"customer", "item"}


def test_query_unknown_free_variable_raises(toy_database):
    query = ConjunctiveQuery(["Orders"], free_variables=["nope"])
    with pytest.raises(QueryError):
        query.evaluate(toy_database)


def test_query_requires_relations():
    with pytest.raises(QueryError):
        ConjunctiveQuery([])


def test_query_join_attributes(toy_database, toy_query):
    membership = toy_query.join_attributes(toy_database)
    assert membership["dish"] == {"Orders", "Dish"}
    assert membership["item"] == {"Dish", "Items"}
