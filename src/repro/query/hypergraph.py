"""Query hypergraphs and the GYO acyclicity test.

The hypergraph of a join query has one vertex per attribute and one hyperedge
per relation.  Alpha-acyclic queries — the common case for feature-extraction
queries, as the paper notes — admit join trees and linear-time aggregate
evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple


@dataclass(frozen=True)
class Hypergraph:
    """A named-hyperedge hypergraph: edge name -> frozenset of vertices."""

    edges: Mapping[str, FrozenSet[str]]

    def __init__(self, edges: Mapping[str, Iterable[str]]) -> None:
        object.__setattr__(
            self, "edges", {name: frozenset(vertices) for name, vertices in edges.items()}
        )

    @property
    def vertices(self) -> FrozenSet[str]:
        result: Set[str] = set()
        for vertices in self.edges.values():
            result |= vertices
        return frozenset(result)

    def edge(self, name: str) -> FrozenSet[str]:
        return self.edges[name]

    def edges_containing(self, vertex: str) -> List[str]:
        return [name for name, vertices in self.edges.items() if vertex in vertices]

    def __len__(self) -> int:
        return len(self.edges)


def gyo_reduction(hypergraph: Hypergraph) -> Tuple[Hypergraph, List[Tuple[str, str]]]:
    """Run the GYO (Graham–Yu–Ozsoyoglu) reduction.

    Repeatedly remove "ear" edges: an edge E is an ear if there is a (distinct)
    witness edge W such that every vertex of E is either exclusive to E or
    contained in W.  Returns the residual hypergraph and the elimination order
    as ``(ear, witness)`` pairs.  The query is alpha-acyclic iff the residual
    hypergraph has at most one edge.
    """
    remaining: Dict[str, FrozenSet[str]] = dict(hypergraph.edges)
    elimination: List[Tuple[str, str]] = []

    def vertex_counts() -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for vertices in remaining.values():
            for vertex in vertices:
                counts[vertex] = counts.get(vertex, 0) + 1
        return counts

    changed = True
    while changed and len(remaining) > 1:
        changed = False
        counts = vertex_counts()
        for ear_name in list(remaining):
            ear_vertices = remaining[ear_name]
            shared = {vertex for vertex in ear_vertices if counts.get(vertex, 0) > 1}
            witness_name: Optional[str] = None
            if not shared:
                # Disconnected from the rest: any other edge witnesses it.
                witness_name = next(name for name in remaining if name != ear_name)
            else:
                for candidate_name, candidate_vertices in remaining.items():
                    if candidate_name == ear_name:
                        continue
                    if shared <= candidate_vertices:
                        witness_name = candidate_name
                        break
            if witness_name is not None:
                elimination.append((ear_name, witness_name))
                del remaining[ear_name]
                changed = True
                break

    return Hypergraph(remaining), elimination


def is_acyclic(hypergraph: Hypergraph) -> bool:
    """Whether the hypergraph (query) is alpha-acyclic."""
    residual, _ = gyo_reduction(hypergraph)
    return len(residual) <= 1
