"""Planning: decomposing an aggregate batch over a join tree.

Every attribute of the query is *designated* to exactly one join-tree node
(the deepest node whose relation contains it), so that each attribute
contributes its factor, group-by key or filter exactly once.  The restriction
of an aggregate to the subtree rooted at a node — its :class:`ViewSignature` —
determines the partial view computed at that node.  Aggregates with equal
signatures at a node share the view; this is the cross-aggregate sharing that
LMFAO exploits (Section 4, "Sharing computation").

How much sharing the designation yields depends on where an aggregate is
rooted: one whose attributes all sit inside one subtree collapses to the
count-only signature at every node outside it.  The plan therefore owns the
root — per aggregate (LMFAO's "multi-root"): :func:`plan_batch` roots each
group of aggregates where its group-by attribute or its batch-varying filter
lives, when the plan estimate of :mod:`repro.engine.statistics` says the
whole plan gets cheaper, and at the tree's own root (chosen once, before
planning, by the same module) otherwise.  Views are *directional*: the views
of node ``n`` computed for its neighbour ``p`` are keyed ``(n, p)`` — ``(n,
None)`` at a root — so every root on ``p``'s side of the edge reads the same
ones.  Signatures are the keys views are shared and looked up under, which
is why they are immutable, hash-cached and independent of any particular
batch object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.aggregates.spec import Aggregate, AggregateBatch, Filter
from repro.engine.statistics import estimate_plan_cost
from repro.query.join_tree import JoinTree, JoinTreeNode

#: ``(node, towards)``: a node as seen from the neighbour its views flow to
#: (``towards`` is ``None`` where the node is the root of an aggregate).
Direction = Tuple[str, Optional[str]]


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
    #: relation name -> signature at that node, the tree hanging from ``root``
    #: (in that tree's pre-order).
    signatures: Dict[str, ViewSignature]
    root_signature: ViewSignature

    @property
    def root(self) -> str:
        """The relation this aggregate is rooted at."""
        return self.root_signature.relation_name

    def signature_at(self, relation_name: str) -> ViewSignature:
        return self.signatures[relation_name]


@dataclass
class BatchPlan:
    """The full plan for a batch: designations, roots, signatures, and view groups."""

    join_tree: JoinTree
    designation: Dict[str, str]                               # attribute -> relation name
    decompositions: List[AggregateDecomposition]
    views: Dict[Direction, List[ViewSignature]]               # direction -> distinct signatures
    unsupported: List[Aggregate] = field(default_factory=list)
    #: The plan estimate of the chosen root assignment and of rooting the whole
    #: batch at the tree's root (None when planned without row counts).
    estimated_cost: Optional[float] = None
    single_root_cost: Optional[float] = None

    @property
    def views_per_node(self) -> Dict[str, List[ViewSignature]]:
        """Relation name -> the signatures of all its directions."""
        per_node: Dict[str, List[ViewSignature]] = {
            name: [] for name in self.join_tree.relation_names
        }
        for (name, _towards), signatures in self.views.items():
            per_node[name].extend(signatures)
        return per_node

    @property
    def roots(self) -> Dict[str, int]:
        """Root relation -> how many aggregates are rooted there."""
        roots: Dict[str, int] = {}
        for decomposition in self.decompositions:
            roots[decomposition.root] = roots.get(decomposition.root, 0) + 1
        return roots

    @property
    def total_views(self) -> int:
        return sum(len(signatures) for signatures in self.views.values())

    @property
    def total_views_without_sharing(self) -> int:
        return len(self.decompositions) * len(self.join_tree.relation_names)

    def sharing_factor(self) -> float:
        """How many per-aggregate views collapse into one shared view on average."""
        if self.total_views == 0:
            return 1.0
        return self.total_views_without_sharing / self.total_views

    def summary(self) -> Dict[str, object]:
        summary: Dict[str, object] = {
            "aggregates": len(self.decompositions),
            "nodes": len(self.join_tree.relation_names),
            "views": self.total_views,
            "views_without_sharing": self.total_views_without_sharing,
            "sharing_factor": round(self.sharing_factor(), 2),
            "unsupported": len(self.unsupported),
            "roots": self.roots,
        }
        if self.estimated_cost is not None:
            summary["estimated_cost"] = self.estimated_cost
            summary["single_root_cost"] = self.single_root_cost
        return summary


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


def _canonical_parts(aggregate: Aggregate) -> Tuple[Tuple, Tuple, Tuple]:
    """The aggregate's product, group-by and filters in signature form.

    Products become sorted ``(attribute, exponent)`` pairs, group-bys and
    filters are sorted; a restriction then only *selects* elements, so every
    restricted part comes out in the one order signatures compare by.  A
    condition listed twice filters once: a tree learner re-testing a split it
    already took (``prize >= 134`` under the path ``prize >= 134``) asks for
    the node's own statistics, not for a second set of views.
    """
    counts: Dict[str, int] = {}
    for attribute in aggregate.product:
        counts[attribute] = counts.get(attribute, 0) + 1
    filters = aggregate.filters
    if len(filters) > 1:
        filters = tuple(
            sorted(
                dict.fromkeys(filters), key=lambda c: (c.attribute, c.op.value, str(c.value))
            )
        )
    return tuple(sorted(counts.items())), tuple(sorted(aggregate.group_by)), filters


class _Decomposer:
    """Decomposes the aggregates of one batch, building each distinct piece once.

    The signature of an aggregate at a direction ``(node, towards)`` is its
    restriction to the relations on ``node``'s side of that edge.  The
    aggregates of a batch repeat their parts — a CART node batch is three
    products times a hundred filter sets — and planning is on the path of
    every ``evaluate()``, so everything is interned to small integers: each
    distinct product, group-by and filter tuple is hashed once per aggregate
    and restricted once per direction, and one :class:`ViewSignature` is
    built per distinct triple of restricted parts and direction instead of
    one per aggregate and node.  A decomposition is a list of *serials* —
    one integer per distinct signature, see :meth:`signature` — so the root
    assignments :func:`plan_batch` weighs against each other are compared as
    sets of integers.
    """

    def __init__(self, join_tree: JoinTree, designation: Mapping[str, str]) -> None:
        self._join_tree = join_tree
        self._designation = designation
        self._directions: Dict[str, List[Direction]] = {}
        # Per kind of part (product, group-by, filters): raw part -> its id.
        self._part_ids: Tuple[Dict[Tuple, int], ...] = ({}, {}, {})
        # Part id -> (canonical part, owning relation of each element).
        self._parts: List[Tuple[Tuple, Tuple[str, ...]]] = []
        # (part id, root) -> per direction of that root: id of the restricted part.
        self._restricted: Dict[Tuple[int, str], Tuple[int, ...]] = {}
        # (part id, the owning relations a side keeps) -> id of the restricted
        # part; directions that keep the same owners share the entry.
        self._kept: Dict[Tuple[int, FrozenSet[str]], int] = {}
        self._restricted_ids: Dict[Tuple, int] = {(): 0}
        self._restricted_parts: List[Tuple] = [()]
        # Direction -> ids of the restricted (product, group-by, filters) -> serial,
        # and per root the tables of its directions, in their order.
        self._serials: Dict[Direction, Dict[Tuple[int, int, int], int]] = {}
        self._tables: Dict[str, List[Dict[Tuple[int, int, int], int]]] = {}
        # Serial -> (node, restricted part ids), and the signature once asked for:
        # an assignment that loses the comparison never builds its signatures.
        self._keys: List[Tuple[str, Tuple[int, int, int]]] = []
        self._signatures: Dict[int, ViewSignature] = {}

    def directions(self, root: str) -> List[Direction]:
        """Every node with its parent when the tree hangs from ``root``, in pre-order."""
        directions = self._directions.get(root)
        if directions is None:
            directions = self._directions[root] = [
                (node.relation_name, node.parent.relation_name if node.parent else None)
                for node in self._join_tree.oriented(root).subtree_nodes()
            ]
            self._tables[root] = [self._serials.setdefault(d, {}) for d in directions]
        return directions

    def intern(self, aggregate: Aggregate) -> Tuple[int, int, int]:
        """The ids of the aggregate's product, group-by and filters.

        Raises ``KeyError`` for an attribute the query does not have.
        """
        products, groups, filters = self._part_ids
        raw = (aggregate.product, aggregate.group_by, aggregate.filters)
        ids = (products.get(raw[0]), groups.get(raw[1]), filters.get(raw[2]))
        if None in ids:
            canonical = _canonical_parts(aggregate)
            attributes = (
                [attribute for attribute, _exponent in canonical[0]],
                canonical[1],
                [condition.attribute for condition in canonical[2]],
            )
            for kind, part_id in enumerate(ids):
                if part_id is None:
                    owners = tuple(self._designation[a] for a in attributes[kind])
                    self._part_ids[kind][raw[kind]] = len(self._parts)
                    self._parts.append((canonical[kind], owners))
            ids = (products[raw[0]], groups[raw[1]], filters[raw[2]])
        return ids

    def _restrict(self, part_id: int, root: str) -> Tuple[int, ...]:
        per_direction = self._restricted.get((part_id, root))
        if per_direction is None:
            part, owners = self._parts[part_id]
            owning = frozenset(owners)
            restricted_ids = []
            for direction in self.directions(root):
                kept = owning & self._join_tree.side(*direction)
                restricted_id = self._kept.get((part_id, kept)) if kept else 0
                if restricted_id is None:
                    restricted = tuple(
                        element for element, owner in zip(part, owners) if owner in kept
                    )
                    restricted_id = self._restricted_ids.get(restricted)
                    if restricted_id is None:
                        restricted_id = self._restricted_ids[restricted] = len(
                            self._restricted_parts
                        )
                        self._restricted_parts.append(restricted)
                    self._kept[(part_id, kept)] = restricted_id
                restricted_ids.append(restricted_id)
            per_direction = self._restricted[(part_id, root)] = tuple(restricted_ids)
        return per_direction

    def preferred_roots(
        self, parts: Sequence[Tuple[int, int, int]], default_root: str
    ) -> List[str]:
        """Per aggregate (given as interned parts): where it would best be rooted.

        That is the relation owning its group-by attributes or, without a
        group-by, its *batch-varying* filters — the threshold or category
        under test; conditions every aggregate of the batch carries (a tree
        node's path) say nothing about one aggregate.  Rooted there, the free
        attribute is handled at the root and the rest of the tree sees the
        aggregate as one of a few product-only signatures.  No such
        attribute: ``default_root``; several owners: the lowest name, so
        plans are deterministic.
        """
        filter_sets = [set(self._parts[f][0]) for f in {f for _p, _g, f in parts}]
        shared = filter_sets[0].intersection(*filter_sets[1:]) if filter_sets else set()
        memo: Dict[Tuple[int, int], str] = {}
        roots: List[str] = []
        for _product, group_by, filters in parts:
            root = memo.get((group_by, filters))
            if root is None:
                owners = set(self._parts[group_by][1]) or {
                    owner
                    for condition, owner in zip(*self._parts[filters])
                    if condition not in shared
                }
                root = memo[(group_by, filters)] = min(owners) if owners else default_root
            roots.append(root)
        return roots

    def decompose(self, parts: Tuple[int, int, int], root: str) -> List[int]:
        """The serials of an aggregate's signatures, one per direction of ``root``."""
        product, group_by, filters = parts
        keys = list(
            zip(
                self._restrict(product, root),
                self._restrict(group_by, root),
                self._restrict(filters, root),
            )
        )
        directions = self.directions(root)
        tables = self._tables[root]
        serials = list(map(dict.get, tables, keys))
        if None in serials:
            for position, (direction, key) in enumerate(zip(directions, keys)):
                if serials[position] is None:
                    serials[position] = tables[position][key] = len(self._keys)
                    self._keys.append((direction[0], key))
        return serials

    def signature(self, serial: int) -> ViewSignature:
        signature = self._signatures.get(serial)
        if signature is None:
            name, key = self._keys[serial]
            signature = self._signatures[serial] = ViewSignature(
                name, *(self._restricted_parts[part] for part in key)
            )
        return signature

    def decomposition(
        self, aggregate: Aggregate, root: str, serials: Sequence[int]
    ) -> AggregateDecomposition:
        """The decomposition object of ``serials``, all built by :meth:`signature` before."""
        names = [name for name, _towards in self.directions(root)]
        signatures = dict(zip(names, map(self._signatures.__getitem__, serials)))
        return AggregateDecomposition(
            aggregate=aggregate, signatures=signatures, root_signature=signatures[root]
        )


def decompose_aggregate(
    aggregate: Aggregate, join_tree: JoinTree, designation: Mapping[str, str]
) -> AggregateDecomposition:
    """Decompose one aggregate into its per-node view signatures at the tree's root."""
    decomposer = _Decomposer(join_tree, designation)
    root = join_tree.root.relation_name
    serials = decomposer.decompose(decomposer.intern(aggregate), root)
    for serial in serials:
        decomposer.signature(serial)
    return decomposer.decomposition(aggregate, root, serials)


def _distinct_views(
    directions: Sequence[Direction], decompositions: Iterable[Sequence[int]]
) -> Dict[Direction, Set[int]]:
    """Direction -> the distinct serials a group of decompositions needs there."""
    columns = list(zip(*decompositions))
    return {direction: set(column) for direction, column in zip(directions, columns)}


def _move_groups_to_cheaper_roots(
    decomposer: _Decomposer,
    default_root: str,
    parts: Sequence[Tuple[int, int, int]],
    roots: List[str],
    serials: List[List[int]],
    row_counts: Mapping[str, int],
) -> Tuple[float, float]:
    """Re-root, in place, the groups of aggregates the plan estimate says to.

    ``roots`` and ``serials`` hold every aggregate rooted at the default root.
    The aggregates preferring one other root form a group; in name order each
    group is decomposed at its own root and kept there if the estimate of the
    whole plan — every group where it currently stands — gets strictly lower.
    Returns the estimates of the assignment arrived at and of the single root.
    """
    groups: Dict[str, List[int]] = {}
    for position, root in enumerate(decomposer.preferred_roots(parts, default_root)):
        if root != default_root:
            groups.setdefault(root, []).append(position)
    moving = {position for positions in groups.values() for position in positions}
    default_directions = decomposer.directions(default_root)
    # What each group needs where it stands: the aggregates that stay at the
    # default root whatever happens (under None), then every candidate group.
    placed: Dict[Optional[str], Dict[Direction, Set[int]]] = {
        None: _distinct_views(
            default_directions,
            (needed for position, needed in enumerate(serials) if position not in moving),
        )
    }
    for root, positions in groups.items():
        placed[root] = _distinct_views(
            default_directions, (serials[position] for position in positions)
        )

    def estimate(views_by_group: Mapping[Optional[str], Dict[Direction, Set[int]]]) -> float:
        merged: Dict[Direction, Set[int]] = {}
        for views in views_by_group.values():
            for direction, distinct in views.items():
                merged[direction] = merged.get(direction, set()) | distinct
        return estimate_plan_cost(row_counts, merged)

    estimated_cost = single_root_cost = estimate(placed)
    for root in sorted(groups):
        moved = [decomposer.decompose(parts[position], root) for position in groups[root]]
        trial = dict(placed)
        trial[root] = _distinct_views(decomposer.directions(root), moved)
        cost = estimate(trial)
        if cost < estimated_cost:
            placed, estimated_cost = trial, cost
            for position, decomposition in zip(groups[root], moved):
                roots[position], serials[position] = root, decomposition
    return estimated_cost, single_root_cost


def plan_batch(
    batch: AggregateBatch,
    join_tree: JoinTree,
    row_counts: Optional[Mapping[str, int]] = None,
) -> BatchPlan:
    """Plan a batch over a join tree.

    The signatures per direction are deduplicated across the batch (LMFAO's
    sharing); an engine without sharing is modelled by planning one
    aggregate at a time.  Aggregates with additive-inequality conditions
    cannot be pushed past joins and are reported in ``unsupported`` so the
    engine can fall back to evaluation over the join for them.

    Without ``row_counts`` every aggregate is rooted at the tree's root.  With
    them (relation name -> cardinality) the plan is *multi-root*: aggregates
    are grouped by :meth:`_Decomposer.preferred_roots`, and a group moves from
    the tree's root to its own when that lowers
    :func:`~repro.engine.statistics.estimate_plan_cost` of the whole plan —
    exact, since it counts the very signatures the plan would evaluate.  The
    designation stays the tree's, whatever the root, so a direction's views
    mean the same to every group that reads them.
    """
    designation = designate_attributes(join_tree)
    default_root = join_tree.root.relation_name
    decomposer = _Decomposer(join_tree, designation)
    supported: List[Aggregate] = []
    unsupported: List[Aggregate] = []
    parts: List[Tuple[int, int, int]] = []
    for aggregate in batch:
        if aggregate.inequality is not None:
            unsupported.append(aggregate)
            continue
        try:
            parts.append(decomposer.intern(aggregate))
        except KeyError:
            missing = [a for a in aggregate.attributes() if a not in designation]
            raise ValueError(
                f"aggregate {aggregate.name!r} references attributes {missing} "
                "that do not occur in the query"
            ) from None
        supported.append(aggregate)

    roots = [default_root] * len(supported)
    serials = [decomposer.decompose(part_ids, default_root) for part_ids in parts]
    estimated_cost = single_root_cost = None
    if row_counts is not None:
        estimated_cost, single_root_cost = _move_groups_to_cheaper_roots(
            decomposer, default_root, parts, roots, serials, row_counts
        )

    # Distinct serials per direction in first-use order, one root at a time
    # (the default root's aggregates first).
    views: Dict[Direction, Dict[int, None]] = {}
    for root in dict.fromkeys([default_root] + roots):
        members = [needed for rooted_at, needed in zip(roots, serials) if rooted_at == root]
        for direction, column in zip(decomposer.directions(root), zip(*members)):
            views.setdefault(direction, {}).update(dict.fromkeys(column))
    planned_views = {
        direction: [decomposer.signature(serial) for serial in needed]
        for direction, needed in views.items()
    }
    return BatchPlan(
        join_tree=join_tree,
        designation=designation,
        decompositions=[
            decomposer.decomposition(aggregate, root, decomposition)
            for aggregate, root, decomposition in zip(supported, roots, serials)
        ],
        views=planned_views,
        unsupported=unsupported,
        estimated_cost=estimated_cost,
        single_root_cost=single_root_cost,
    )
