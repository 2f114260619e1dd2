"""k-means and relational k-means (Rk-means).

:class:`KMeans` is the standard Lloyd algorithm over an explicit point set —
the structure-agnostic baseline.  :class:`RelationalKMeans` follows the
Rk-means recipe referenced in Section 3.3: cluster each dimension separately
into a small number of quantiles, build the weighted *grid coreset* of the
cross product of the per-dimension centres (weights are group-by counts over
the join), and run weighted k-means on that coreset.  The coreset is tiny
compared to the join, and the result is a constant-factor approximation of
the k-means objective.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.aggregates.spec import Aggregate, AggregateBatch
from repro.data.database import Database
from repro.engine.lmfao import LMFAOEngine
from repro.query.conjunctive import ConjunctiveQuery


@dataclass
class KMeansResult:
    centroids: np.ndarray
    inertia: float
    iterations: int
    labels: Optional[np.ndarray] = None


class KMeans:
    """Weighted Lloyd k-means over explicit points."""

    def __init__(self, clusters: int, max_iterations: int = 100, tolerance: float = 1e-6,
                 seed: int = 0) -> None:
        if clusters < 1:
            raise ValueError("clusters must be >= 1")
        self.clusters = clusters
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.seed = seed
        self.result: Optional[KMeansResult] = None

    def fit(self, points: np.ndarray, weights: Optional[np.ndarray] = None) -> KMeansResult:
        points = np.asarray(points, dtype=float)
        if points.ndim != 2:
            raise ValueError("points must be a 2-D array")
        count = points.shape[0]
        if weights is None:
            weights = np.ones(count)
        weights = np.asarray(weights, dtype=float)

        rng = random.Random(self.seed)
        initial = rng.sample(range(count), min(self.clusters, count))
        centroids = points[initial].copy()
        if len(initial) < self.clusters:
            # Fewer distinct points than clusters: repeat points as needed.
            extra = [points[rng.randrange(count)] for _ in range(self.clusters - len(initial))]
            centroids = np.vstack([centroids] + extra)

        labels = np.zeros(count, dtype=int)
        inertia = float("inf")
        for iteration in range(1, self.max_iterations + 1):
            distances = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
            labels = distances.argmin(axis=1)
            new_inertia = float((weights * distances[np.arange(count), labels]).sum())

            for cluster in range(self.clusters):
                mask = labels == cluster
                total_weight = float(weights[mask].sum())
                if total_weight > 0:
                    centroids[cluster] = (points[mask] * weights[mask, None]).sum(axis=0) / total_weight
            if abs(inertia - new_inertia) <= self.tolerance * max(inertia, 1.0):
                inertia = new_inertia
                break
            inertia = new_inertia

        self.result = KMeansResult(centroids=centroids, inertia=inertia,
                                   iterations=iteration, labels=labels)
        return self.result

    def predict(self, points: np.ndarray) -> np.ndarray:
        if self.result is None:
            raise RuntimeError("model is not fitted")
        points = np.asarray(points, dtype=float)
        distances = ((points[:, None, :] - self.result.centroids[None, :, :]) ** 2).sum(axis=2)
        return distances.argmin(axis=1)

    @staticmethod
    def inertia_of(points: np.ndarray, weights: Optional[np.ndarray], centroids: np.ndarray) -> float:
        points = np.asarray(points, dtype=float)
        if weights is None:
            weights = np.ones(points.shape[0])
        distances = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2).min(axis=1)
        return float((weights * distances).sum())


class RelationalKMeans:
    """Rk-means: k-means over a grid coreset built from grouped counts of the join."""

    def __init__(
        self,
        features: Sequence[str],
        clusters: int,
        grid_size: int = 5,
        max_iterations: int = 100,
        seed: int = 0,
    ) -> None:
        self.features = tuple(features)
        self.clusters = clusters
        self.grid_size = grid_size
        self.max_iterations = max_iterations
        self.seed = seed
        #: Per feature, the sorted centres of its 1-D k-means: the grid's lines.
        self.dimension_centres: Optional[List[List[float]]] = None
        self.coreset_points: Optional[np.ndarray] = None
        self.coreset_weights: Optional[np.ndarray] = None
        self.result: Optional[KMeansResult] = None

    # -- coreset construction --------------------------------------------------------------

    def _dimension_centres(self, values: Sequence[float], counts: Sequence[float]) -> List[float]:
        """1-D weighted k-means (size ``grid_size``) over one dimension's domain."""
        solver = KMeans(min(self.grid_size, len(values)), max_iterations=self.max_iterations,
                        seed=self.seed)
        result = solver.fit(np.asarray(values, dtype=float).reshape(-1, 1),
                            np.asarray(counts, dtype=float))
        return sorted(float(value) for value in result.centroids.ravel())

    def build_coreset(
        self, database: Database, query: ConjunctiveQuery
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Build the weighted grid coreset from one batch of grouped counts.

        The batch holds ``COUNT(*) GROUP BY f`` for each feature (the histogram
        its 1-D k-means runs on) and ``COUNT(*) GROUP BY f1, ..., fk`` (the
        grid).  Each grid group goes, dimension by dimension, to its nearest
        centre; a cell weighs the counts of its groups, so a join row of
        multiplicity m weighs m, as in every aggregate the engine computes.
        """
        batch = AggregateBatch(name="rk-means", description="histograms and grid for Rk-means")
        for feature in self.features:
            batch.add(Aggregate.count(group_by=[feature], name=f"count@{feature}"))
        batch.add(Aggregate.count(group_by=self.features, name="grid"))
        result = LMFAOEngine(database, query).evaluate(batch)
        grid = result.grouped("grid")
        if not grid:
            raise ValueError("RelationalKMeans: the join is empty, there is nothing to cluster")

        centres_per_dimension: List[List[float]] = []
        for feature in self.features:
            histogram = result.grouped(f"count@{feature}")
            values = [float(key[0]) for key in histogram]
            centres_per_dimension.append(self._dimension_centres(values, list(histogram.values())))

        # One mixed-radix cell id per grid group, then one weighted count per cell.
        groups = np.array(list(grid), dtype=float)
        cells = np.zeros(len(grid), dtype=np.int64)
        for dimension, centres in enumerate(centres_per_dimension):
            distances = np.abs(groups[:, dimension, None] - np.asarray(centres)[None, :])
            cells = cells * len(centres) + distances.argmin(axis=1)
        occupied, inverse = np.unique(cells, return_inverse=True)
        weights = np.bincount(inverse, weights=np.fromiter(grid.values(), float, len(grid)))
        positions = np.unravel_index(occupied, [len(centres) for centres in centres_per_dimension])
        points = np.column_stack([
            np.asarray(centres)[position]
            for centres, position in zip(centres_per_dimension, positions)
        ])
        self.dimension_centres = centres_per_dimension
        self.coreset_points = points
        self.coreset_weights = weights
        return points, weights

    # -- clustering --------------------------------------------------------------------------

    def fit(self, database: Database, query: ConjunctiveQuery) -> KMeansResult:
        points, weights = self.build_coreset(database, query)
        solver = KMeans(self.clusters, max_iterations=self.max_iterations, seed=self.seed)
        self.result = solver.fit(points, weights)
        return self.result

    def coreset_size(self) -> int:
        if self.coreset_points is None:
            return 0
        return int(self.coreset_points.shape[0])
