"""Mutual information and Chow–Liu trees from frequency aggregates.

The mutual-information workload of Figure 5: pairwise joint and marginal
frequency tables over categorical features, computed as grouped counts by the
engine.  From those the pairwise mutual information matrix is assembled and a
maximum-weight spanning tree (the Chow–Liu tree) is extracted with networkx.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import networkx as nx
import numpy as np

from repro.aggregates.batch import mutual_information_batch
from repro.data.database import Database
from repro.engine.lmfao import LMFAOEngine
from repro.query.conjunctive import ConjunctiveQuery


def mutual_information_matrix(
    database: Database,
    query: ConjunctiveQuery,
    categorical: Sequence[str],
) -> Tuple[np.ndarray, List[str]]:
    """Pairwise mutual information (in nats) between categorical features."""
    engine = LMFAOEngine(database, query)
    batch = mutual_information_batch(list(categorical))
    result = engine.evaluate(batch)

    total = result.scalar("count")
    features = list(categorical)
    matrix = np.zeros((len(features), len(features)))

    marginals: Dict[str, Dict[object, float]] = {}
    for feature in features:
        grouped = result.grouped(f"count@{feature}")
        marginals[feature] = {key[0]: value for key, value in grouped.items()}

    for left_position, left in enumerate(features):
        for right_position in range(left_position + 1, len(features)):
            right = features[right_position]
            joint = result.grouped(f"count@{left},{right}")
            information = 0.0
            for (left_value, right_value), count in joint.items():
                if count <= 0:
                    continue
                joint_probability = count / total
                left_probability = marginals[left][left_value] / total
                right_probability = marginals[right][right_value] / total
                information += joint_probability * math.log(
                    joint_probability / (left_probability * right_probability)
                )
            matrix[left_position, right_position] = information
            matrix[right_position, left_position] = information
    return matrix, features


@dataclass
class ChowLiuTree:
    """A maximum-mutual-information spanning tree over categorical features."""

    features: List[str]
    edges: List[Tuple[str, str, float]]
    mutual_information: np.ndarray

    @staticmethod
    def fit(
        database: Database,
        query: ConjunctiveQuery,
        categorical: Sequence[str],
    ) -> "ChowLiuTree":
        matrix, features = mutual_information_matrix(database, query, categorical)
        graph = nx.Graph()
        graph.add_nodes_from(features)
        for left_position, left in enumerate(features):
            for right_position in range(left_position + 1, len(features)):
                graph.add_edge(
                    left,
                    features[right_position],
                    weight=matrix[left_position, right_position],
                )
        tree = nx.maximum_spanning_tree(graph, weight="weight")
        edges = [
            (left, right, float(data["weight"])) for left, right, data in tree.edges(data=True)
        ]
        return ChowLiuTree(features=features, edges=edges, mutual_information=matrix)

    def total_weight(self) -> float:
        return sum(weight for _left, _right, weight in self.edges)

    def neighbours(self, feature: str) -> List[str]:
        return sorted(
            {right for left, right, _weight in self.edges if left == feature}
            | {left for left, right, _weight in self.edges if right == feature}
        )
