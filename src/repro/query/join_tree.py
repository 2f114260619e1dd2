"""Join trees for acyclic queries.

A join tree has one node per relation; for every attribute, the nodes whose
relations contain it form a connected subtree (the running-intersection
property).  The LMFAO-style engine decomposes aggregate batches over a join
tree (Section 4, "Sharing computation").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.query.hypergraph import Hypergraph, gyo_reduction


class JoinTreeError(ValueError):
    """Raised when no join tree exists (cyclic query) or the tree is malformed."""


@dataclass
class JoinTreeNode:
    """One node of a join tree: a relation and its children."""

    relation_name: str
    attributes: FrozenSet[str]
    children: List["JoinTreeNode"] = field(default_factory=list)
    parent: Optional["JoinTreeNode"] = None

    def __getstate__(self) -> Dict[str, object]:
        # A frozenset pickles in its iteration order, which depends on how it
        # was built; sorted, a restored tree pickles to the original's bytes.
        state = self.__dict__.copy()
        state["attributes"] = tuple(sorted(self.attributes))
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        for name, value in state.items():   # setattr interns the names, as pickle does
            setattr(self, name, value)
        self.attributes = frozenset(self.attributes)

    def add_child(self, child: "JoinTreeNode") -> None:
        child.parent = self
        self.children.append(child)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def subtree_nodes(self) -> List["JoinTreeNode"]:
        """All nodes of the subtree rooted here, in pre-order."""
        nodes = [self]
        for child in self.children:
            nodes.extend(child.subtree_nodes())
        return nodes

    def connection_attributes(self) -> FrozenSet[str]:
        """Attributes shared with the parent (the node's outgoing join key)."""
        if self.parent is None:
            return frozenset()
        return self.attributes & self.parent.attributes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"JoinTreeNode({self.relation_name!r}, children={len(self.children)})"


class JoinTree:
    """A rooted join tree over the relations of an acyclic query."""

    def __init__(self, root: JoinTreeNode) -> None:
        self.root = root
        self._nodes_by_name: Dict[str, JoinTreeNode] = {
            node.relation_name: node for node in root.subtree_nodes()
        }
        # Copies of this tree rooted elsewhere (see :meth:`oriented`).
        self._rerooted: Dict[str, "JoinTree"] = {}
        self._sides: Dict[Tuple[str, Optional[str]], FrozenSet[str]] = {}

    def __getstate__(self) -> Dict[str, object]:
        # The orientation caches are derived: a pickled tree (checkpoints and
        # shard workers carry the maintainer's) holds the tree alone.
        state = self.__dict__.copy()
        del state["_rerooted"], state["_sides"]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._rerooted = {}
        self._sides = {}

    # -- accessors --------------------------------------------------------------------

    @property
    def relation_names(self) -> Tuple[str, ...]:
        return tuple(self._nodes_by_name)

    def node(self, relation_name: str) -> JoinTreeNode:
        try:
            return self._nodes_by_name[relation_name]
        except KeyError as exc:
            raise JoinTreeError(
                f"relation {relation_name!r} is not part of this join tree"
            ) from exc

    def nodes(self) -> List[JoinTreeNode]:
        return list(self._nodes_by_name.values())

    def post_order(self) -> List[JoinTreeNode]:
        """Bottom-up order (children before parents)."""
        order: List[JoinTreeNode] = []

        def visit(node: JoinTreeNode) -> None:
            for child in node.children:
                visit(child)
            order.append(node)

        visit(self.root)
        return order

    # -- validation -------------------------------------------------------------------

    def satisfies_running_intersection(self) -> bool:
        """Check the defining property: per attribute, its nodes form a subtree."""
        nodes = self.nodes()
        attribute_nodes: Dict[str, List[JoinTreeNode]] = {}
        for node in nodes:
            for attribute in node.attributes:
                attribute_nodes.setdefault(attribute, []).append(node)

        for attribute, members in attribute_nodes.items():
            member_names = {node.relation_name for node in members}
            # The nodes containing the attribute must be connected in the tree:
            # walk from an arbitrary member, moving only through member nodes.
            start = members[0]
            seen = {start.relation_name}
            frontier = [start]
            while frontier:
                node = frontier.pop()
                neighbours = list(node.children)
                if node.parent is not None:
                    neighbours.append(node.parent)
                for neighbour in neighbours:
                    if (
                        neighbour.relation_name in member_names
                        and neighbour.relation_name not in seen
                    ):
                        seen.add(neighbour.relation_name)
                        frontier.append(neighbour)
            if seen != member_names:
                return False
        return True

    def rerooted(self, new_root_name: str) -> "JoinTree":
        """Return a copy of this tree re-rooted at ``new_root_name``."""
        adjacency: Dict[str, Set[str]] = {name: set() for name in self._nodes_by_name}
        for node in self.nodes():
            for child in node.children:
                adjacency[node.relation_name].add(child.relation_name)
                adjacency[child.relation_name].add(node.relation_name)

        if new_root_name not in adjacency:
            raise JoinTreeError(f"unknown relation {new_root_name!r}")

        attributes = {name: node.attributes for name, node in self._nodes_by_name.items()}
        new_nodes = {name: JoinTreeNode(name, attributes[name]) for name in adjacency}
        visited = {new_root_name}
        frontier = [new_root_name]
        while frontier:
            current = frontier.pop()
            for neighbour in sorted(adjacency[current]):
                if neighbour not in visited:
                    visited.add(neighbour)
                    new_nodes[current].add_child(new_nodes[neighbour])
                    frontier.append(neighbour)
        return JoinTree(new_nodes[new_root_name])

    # -- directed edges ---------------------------------------------------------------

    def oriented(self, relation_name: str, towards: Optional[str] = None) -> JoinTreeNode:
        """The node of ``relation_name`` hanging below its neighbour ``towards``.

        A tree over the same edges can be rooted anywhere; the *direction*
        ``(relation_name, towards)`` names the node whose parent is
        ``towards`` (``None``: the node as root) and whose children are its
        other neighbours.  Where this tree is already oriented that way its
        own node is returned; any other direction is served, always by the
        same node object, from a cached copy rooted at ``towards``.
        """
        node = self.node(relation_name)
        parent = node.parent.relation_name if node.parent is not None else None
        if parent == towards:
            return node
        anchor = relation_name if towards is None else towards
        tree = self._rerooted.get(anchor)
        if tree is None:
            tree = self._rerooted[anchor] = self.rerooted(anchor)
        node = tree.node(relation_name)
        if towards is not None and (node.parent is None or node.parent.relation_name != towards):
            raise JoinTreeError(f"{towards!r} is not a neighbour of {relation_name!r}")
        return node

    def side(self, relation_name: str, towards: Optional[str] = None) -> FrozenSet[str]:
        """The relations on ``relation_name``'s side of its edge to ``towards``."""
        key = (relation_name, towards)
        side = self._sides.get(key)
        if side is None:
            side = self._sides[key] = frozenset(
                node.relation_name
                for node in self.oriented(relation_name, towards).subtree_nodes()
            )
        return side


def build_join_tree(hypergraph: Hypergraph, root: Optional[str] = None) -> JoinTree:
    """Build a join tree for an acyclic hypergraph via the GYO elimination order.

    Each eliminated ear is attached as a child of its witness.  ``root`` forces
    the root relation (the tree is re-rooted after construction if needed).
    Raises :class:`JoinTreeError` for cyclic queries.
    """
    residual, elimination = gyo_reduction(hypergraph)
    if len(residual) > 1:
        raise JoinTreeError(
            "query is cyclic; materialise a hypertree decomposition first "
            f"(residual edges: {sorted(residual.edges)})"
        )

    nodes = {
        name: JoinTreeNode(name, frozenset(vertices))
        for name, vertices in hypergraph.edges.items()
    }
    if not nodes:
        raise JoinTreeError("cannot build a join tree for an empty hypergraph")

    # The surviving edge (or the last witness) is the natural root.
    if residual.edges:
        default_root = next(iter(residual.edges))
    else:
        default_root = elimination[-1][1]

    for ear, witness in reversed(elimination):
        # Attach ears under their witnesses; reversal keeps parents created first.
        nodes[witness].add_child(nodes[ear])

    tree = JoinTree(nodes[default_root])
    if root is not None and root != default_root:
        tree = tree.rerooted(root)
    return tree
