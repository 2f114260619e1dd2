"""Planning: decomposing an aggregate batch over a join tree.

Every attribute of the query is *designated* to exactly one join-tree node
(the deepest node whose relation contains it), so that each attribute
contributes its factor, group-by key or filter exactly once.  The restriction
of an aggregate to the subtree rooted at a node — its :class:`ViewSignature` —
determines the partial view computed at that node.  Aggregates with equal
signatures at a node share the view; this is the cross-aggregate sharing that
LMFAO exploits (Section 4, "Sharing computation").

How much sharing the designation yields depends on where the join tree is
rooted: an aggregate whose attributes all sit inside one subtree collapses to
the count-only signature at every node outside it.  The rooting decision
itself is made before planning, by the cost model of
:mod:`repro.engine.statistics`; signatures double as the keys of the engine's
cross-evaluate view cache, which is why they are immutable, hash-cached and
independent of any particular batch object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.aggregates.spec import Aggregate, AggregateBatch, Filter
from repro.query.join_tree import JoinTree, JoinTreeNode


@dataclass(frozen=True)
class ViewSignature:
    """The restriction of an aggregate to the subtree of one join-tree node.

    Two aggregates with the same signature at a node need the same partial
    view there and therefore share its computation.
    """

    relation_name: str
    product: Tuple[Tuple[str, int], ...]       # (attribute, exponent), sorted
    group_by: Tuple[str, ...]                   # sorted group-by attributes in the subtree
    filters: Tuple[Filter, ...]                 # filters on attributes in the subtree, sorted

    def __hash__(self) -> int:
        # Signatures are hashed constantly (sharing, families, view maps);
        # caching beats re-hashing the nested field tuples every time.
        value = self.__dict__.get("_hash")
        if value is None:
            value = hash((self.relation_name, self.product, self.group_by, self.filters))
            object.__setattr__(self, "_hash", value)
        return value

    def is_count_only(self) -> bool:
        """True when the view degenerates to a per-key COUNT."""
        return not self.product and not self.group_by and not self.filters


@dataclass
class AggregateDecomposition:
    """Where each attribute of one aggregate is handled in the join tree."""

    aggregate: Aggregate
    signatures: Dict[str, ViewSignature]        # relation name -> signature at that node
    root_signature: ViewSignature

    def signature_at(self, relation_name: str) -> ViewSignature:
        return self.signatures[relation_name]


@dataclass
class BatchPlan:
    """The full plan for a batch: designations, signatures, and view groups."""

    join_tree: JoinTree
    designation: Dict[str, str]                               # attribute -> relation name
    decompositions: List[AggregateDecomposition]
    views_per_node: Dict[str, List[ViewSignature]]            # relation name -> distinct signatures
    unsupported: List[Aggregate] = field(default_factory=list)

    @property
    def total_views(self) -> int:
        return sum(len(signatures) for signatures in self.views_per_node.values())

    @property
    def total_views_without_sharing(self) -> int:
        return len(self.decompositions) * len(self.views_per_node)

    def sharing_factor(self) -> float:
        """How many per-aggregate views collapse into one shared view on average."""
        if self.total_views == 0:
            return 1.0
        return self.total_views_without_sharing / self.total_views

    def summary(self) -> Dict[str, float]:
        return {
            "aggregates": len(self.decompositions),
            "nodes": len(self.views_per_node),
            "views": self.total_views,
            "views_without_sharing": self.total_views_without_sharing,
            "sharing_factor": round(self.sharing_factor(), 2),
            "unsupported": len(self.unsupported),
        }


def designate_attributes(join_tree: JoinTree) -> Dict[str, str]:
    """Assign every attribute to the deepest join-tree node containing it.

    Depth ties are broken by relation name so the designation is deterministic.
    """
    depths: Dict[str, int] = {}

    def assign_depths(node: JoinTreeNode, depth: int) -> None:
        depths[node.relation_name] = depth
        for child in node.children:
            assign_depths(child, depth + 1)

    assign_depths(join_tree.root, 0)

    designation: Dict[str, str] = {}
    for node in join_tree.nodes():
        for attribute in node.attributes:
            current = designation.get(attribute)
            if current is None:
                designation[attribute] = node.relation_name
                continue
            current_rank = (depths[current], current)
            candidate_rank = (depths[node.relation_name], node.relation_name)
            if candidate_rank > current_rank:
                designation[attribute] = node.relation_name
    return designation


def _restrict_product(product, relations: FrozenSet[str], designation: Mapping[str, str]):
    counts: Dict[str, int] = {}
    for attribute in product:
        if designation[attribute] in relations:
            counts[attribute] = counts.get(attribute, 0) + 1
    return tuple(sorted(counts.items()))


def _restrict_group_by(group_by, relations: FrozenSet[str], designation: Mapping[str, str]):
    return tuple(sorted(a for a in group_by if designation[a] in relations))


def _restrict_filters(filters, relations: FrozenSet[str], designation: Mapping[str, str]):
    return tuple(
        sorted(
            (c for c in filters if designation[c.attribute] in relations),
            key=lambda condition: (condition.attribute, condition.op.value, str(condition.value)),
        )
    )


def decompose_aggregate(
    aggregate: Aggregate,
    join_tree: JoinTree,
    designation: Mapping[str, str],
    subtree_relations: Optional[Mapping[str, FrozenSet[str]]] = None,
    memo: Optional[Dict[Tuple, Dict[str, Tuple]]] = None,
) -> AggregateDecomposition:
    """Decompose one aggregate into its per-node view signatures.

    The signature at a node is the restriction of the aggregate to the
    relations of the node's subtree (``subtree_relations``, derived from the
    tree when omitted).  The aggregates of a batch repeat their parts — a
    CART node batch is three products times a hundred filter sets — so
    :func:`plan_batch` passes one ``memo`` for the whole batch and each
    distinct product, group-by and filter tuple is restricted (and its
    filters re-sorted) once per node instead of once per aggregate.
    """
    if subtree_relations is None:
        subtree_relations = _subtree_relations(join_tree)
    if memo is None:
        memo = {}

    def restricted(restrict, part) -> Dict[str, Tuple]:
        per_node = memo.get((restrict, part))
        if per_node is None:
            per_node = memo[(restrict, part)] = {
                name: restrict(part, relations, designation)
                for name, relations in subtree_relations.items()
            }
        return per_node

    products = restricted(_restrict_product, aggregate.product)
    groups = restricted(_restrict_group_by, aggregate.group_by)
    filters = restricted(_restrict_filters, aggregate.filters)
    signatures = {
        name: ViewSignature(name, products[name], groups[name], filters[name])
        for name in subtree_relations
    }
    return AggregateDecomposition(
        aggregate=aggregate,
        signatures=signatures,
        root_signature=signatures[join_tree.root.relation_name],
    )


def _subtree_relations(join_tree: JoinTree) -> Dict[str, FrozenSet[str]]:
    """Per node (in tree order): the relation names of its subtree."""
    return {
        node.relation_name: frozenset(child.relation_name for child in node.subtree_nodes())
        for node in join_tree.nodes()
    }


def plan_batch(batch: AggregateBatch, join_tree: JoinTree) -> BatchPlan:
    """Plan a batch over a join tree.

    The signatures per node are deduplicated across the batch (LMFAO's
    sharing); an engine without sharing is modelled by planning one
    aggregate at a time.  Aggregates with additive-inequality conditions
    cannot be pushed past joins and are reported in ``unsupported`` so the
    engine can fall back to evaluation over the join for them.
    """
    known_attributes = set(join_tree.attributes())
    designation = designate_attributes(join_tree)
    subtree_relations = _subtree_relations(join_tree)
    memo: Dict[Tuple, Dict[str, Tuple]] = {}
    decompositions: List[AggregateDecomposition] = []
    unsupported: List[Aggregate] = []

    for aggregate in batch:
        if aggregate.inequality is not None:
            unsupported.append(aggregate)
            continue
        missing = [
            attribute for attribute in aggregate.attributes() if attribute not in known_attributes
        ]
        if missing:
            raise ValueError(
                f"aggregate {aggregate.name!r} references attributes {missing} "
                "that do not occur in the query"
            )
        decompositions.append(
            decompose_aggregate(aggregate, join_tree, designation, subtree_relations, memo)
        )

    views_per_node: Dict[str, List[ViewSignature]] = {
        node.relation_name: [] for node in join_tree.nodes()
    }
    seen_per_node: Dict[str, set] = {name: set() for name in views_per_node}
    for decomposition in decompositions:
        for relation_name, signature in decomposition.signatures.items():
            seen = seen_per_node[relation_name]
            if signature not in seen:
                seen.add(signature)
                views_per_node[relation_name].append(signature)

    return BatchPlan(
        join_tree=join_tree,
        designation=designation,
        decompositions=decompositions,
        views_per_node=views_per_node,
        unsupported=unsupported,
    )
