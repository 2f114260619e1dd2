"""Query layer: conjunctive queries, hypergraphs, join trees and variable
orders (Section 3.2 of the paper)."""

from repro.query.conjunctive import ConjunctiveQuery
from repro.query.hypergraph import Hypergraph, gyo_reduction, is_acyclic
from repro.query.join_tree import JoinTree, JoinTreeNode, build_join_tree
from repro.query.variable_order import VariableOrder, build_variable_order

__all__ = [
    "ConjunctiveQuery",
    "Hypergraph",
    "gyo_reduction",
    "is_acyclic",
    "JoinTree",
    "JoinTreeNode",
    "build_join_tree",
    "VariableOrder",
    "build_variable_order",
]
