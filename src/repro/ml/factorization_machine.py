"""Degree-2 factorisation machines trained over the join.

The model is ``ŷ = w0 + Σ_i w_i x_i + Σ_{i<j} <v_i, v_j> x_i x_j`` with rank-r
latent factors, trained by stochastic gradient descent on the squared loss.
The aggregates needed by the closed-form treatment of FMs are the same sparse
tensors as for polynomial regression (Section 2.1, the F/AC-DC lineage); the
SGD variant implemented here keeps the code short and reads the bag join's
float columns (:func:`repro.ml.statistics.join_columns`), one step per join
tuple.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, List, Mapping, Optional, Sequence

import numpy as np

from repro.data.database import Database
from repro.ml.statistics import join_columns
from repro.query.conjunctive import ConjunctiveQuery


@dataclass
class FMTrainingReport:
    epochs: int
    losses: List[float]


class FactorizationMachine:
    """Rank-r degree-2 factorisation machine for regression."""

    def __init__(
        self,
        target: str,
        features: Sequence[str],
        rank: int = 4,
        learning_rate: float = 1e-3,
        regularization: float = 1e-4,
        epochs: int = 5,
        seed: int = 0,
    ) -> None:
        self.target = target
        self.features = [feature for feature in features if feature != target]
        self.rank = rank
        self.learning_rate = learning_rate
        self.regularization = regularization
        self.epochs = epochs
        self.seed = seed

        dimension = len(self.features)
        rng = np.random.default_rng(seed)
        self.bias = 0.0
        self.weights = np.zeros(dimension)
        self.factors = rng.normal(0.0, 0.01, size=(dimension, rank))
        self.report: Optional[FMTrainingReport] = None

    # -- model ---------------------------------------------------------------------------------

    def _vector(self, row: Mapping[str, object]) -> np.ndarray:
        return np.array([float(row[feature]) for feature in self.features])  # type: ignore[arg-type]

    def predict_vector(self, x: np.ndarray) -> float:
        linear = self.bias + float(self.weights @ x)
        projected = self.factors.T @ x                       # (rank,)
        squared = (self.factors ** 2).T @ (x ** 2)           # (rank,)
        interaction = 0.5 * float((projected ** 2 - squared).sum())
        return linear + interaction

    def predict_row(self, row: Mapping[str, object]) -> float:
        return self.predict_vector(self._vector(row))

    def predict(self, rows: Sequence[Mapping[str, object]]) -> np.ndarray:
        return np.array([self.predict_row(row) for row in rows])

    # -- training --------------------------------------------------------------------------------

    def _sgd_step(self, x: np.ndarray, target: float) -> float:
        prediction = self.predict_vector(x)
        error = prediction - target
        rate = self.learning_rate
        regularization = self.regularization

        self.bias -= rate * error
        self.weights -= rate * (error * x + regularization * self.weights)
        projected = self.factors.T @ x
        # dŷ/dV[i,f] = x_i * projected_f - V[i,f] * x_i^2
        gradient = np.outer(x, projected) - self.factors * (x ** 2)[:, None]
        self.factors -= rate * (error * gradient + regularization * self.factors)
        return 0.5 * error * error

    def fit_rows(self, rows: Iterable[Mapping[str, object]]) -> FMTrainingReport:
        """Train on an iterable of dictionary rows (kept for baselines/tests)."""
        materialized = list(rows)
        losses: List[float] = []
        rng = random.Random(self.seed)
        for _epoch in range(self.epochs):
            rng.shuffle(materialized)
            total = 0.0
            for row in materialized:
                total += self._sgd_step(self._vector(row), float(row[self.target]))  # type: ignore[arg-type]
            losses.append(total / max(len(materialized), 1))
        self.report = FMTrainingReport(self.epochs, losses)
        return self.report

    def fit(self, database: Database, query: ConjunctiveQuery) -> FMTrainingReport:
        """Train over the bag join: a row of multiplicity m is m steps an epoch."""
        data, multiplicities = join_columns(database, query, self.features + [self.target])
        order = np.repeat(np.arange(len(data)), multiplicities)
        losses: List[float] = []
        for _epoch in range(self.epochs):
            total = 0.0
            for row in order:
                total += self._sgd_step(data[row, :-1], float(data[row, -1]))
            losses.append(total / len(order))
        self.report = FMTrainingReport(self.epochs, losses)
        return self.report

    def rmse(self, rows: Sequence[Mapping[str, object]]) -> float:
        predictions = self.predict(rows)
        truth = np.array([float(row[self.target]) for row in rows])  # type: ignore[arg-type]
        return float(np.sqrt(np.mean((predictions - truth) ** 2)))
