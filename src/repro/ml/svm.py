"""Linear support vector machines via sub-gradient descent (Section 2.3).

The hinge-loss sub-gradient at parameters ``w`` needs, per step, the sums
``SUM(x_i)`` and ``SUM(1)`` restricted to the margin violators — tuples whose
additive inequality ``y * (w · x) < 1`` holds.  Those are exactly the
aggregates with additive inequality conditions of Section 2.3; they are
evaluated here through :mod:`repro.inequality`, which also provides the
better-than-scan algorithm for low dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence

import numpy as np

from repro.data.database import Database
from repro.inequality.algorithms import AdditiveInequalityEvaluator
from repro.ml.statistics import join_columns
from repro.query.conjunctive import ConjunctiveQuery


@dataclass
class SVMTrainingReport:
    iterations: int
    objective_values: List[float]


class LinearSVM:
    """Binary linear SVM with hinge loss, trained by sub-gradient descent."""

    def __init__(
        self,
        target: str,
        features: Sequence[str],
        regularization: float = 1e-2,
        learning_rate: float = 0.05,
        iterations: int = 200,
    ) -> None:
        self.target = target
        self.features = [feature for feature in features if feature != target]
        self.regularization = regularization
        self.learning_rate = learning_rate
        self.iterations = iterations
        self.weights = np.zeros(len(self.features))
        self.bias = 0.0
        self.report: Optional[SVMTrainingReport] = None

    # -- training ---------------------------------------------------------------------------------

    def fit_matrix(self, features: np.ndarray, labels: np.ndarray) -> SVMTrainingReport:
        """Train on an explicit matrix, using the inequality evaluator per step.

        Margin violators satisfy ``y * (w·x + b) < 1``.  With the augmented,
        label-scaled points ``z = y * [x, 1]`` this is the additive inequality
        ``z · [w, b] < 1``, and the sub-gradient needs ``SUM(1)`` and
        ``SUM(y*x)`` (and ``SUM(y)``) restricted to the violators — exactly the
        aggregates with additive inequalities of Section 2.3.
        """
        count = features.shape[0]
        augmented = labels[:, None] * np.hstack([features, np.ones((count, 1))])
        # Value rows: [y*x, y], so one violator sum gives both gradient pieces.
        evaluator = AdditiveInequalityEvaluator(augmented, values=augmented)
        objective_values: List[float] = []

        for iteration in range(1, self.iterations + 1):
            rate = self.learning_rate / np.sqrt(iteration)
            direction = np.concatenate([self.weights, [self.bias]])
            violator_sums = evaluator.sum_below(direction, 1.0, strict=True)
            violator_count = evaluator.count_below(direction, 1.0, strict=True)

            gradient_w = self.regularization * self.weights - violator_sums[:-1] / max(count, 1)
            gradient_b = -violator_sums[-1] / max(count, 1)
            self.weights -= rate * gradient_w
            self.bias -= rate * gradient_b

            margins = labels * (features @ self.weights + self.bias)
            hinge = float(np.maximum(0.0, 1.0 - margins).mean()) if count else 0.0
            objective = 0.5 * self.regularization * float(self.weights @ self.weights) + hinge
            objective_values.append(objective)
            if violator_count == 0:
                break

        self.report = SVMTrainingReport(len(objective_values), objective_values)
        return self.report

    def fit(self, database: Database, query: ConjunctiveQuery) -> SVMTrainingReport:
        """Train on the bag join: a row of multiplicity m is m rows of the matrix."""
        data, multiplicities = join_columns(database, query, self.features + [self.target])
        rows = np.repeat(data, multiplicities, axis=0)
        return self.fit_matrix(rows[:, :-1], np.where(rows[:, -1] > 0, 1.0, -1.0))

    # -- inference ----------------------------------------------------------------------------------

    def decision_function(self, rows: Sequence[Mapping[str, object]]) -> np.ndarray:
        matrix = np.array(
            [[float(row[feature]) for feature in self.features] for row in rows]  # type: ignore[arg-type]
        )
        return matrix @ self.weights + self.bias

    def predict(self, rows: Sequence[Mapping[str, object]]) -> np.ndarray:
        return np.where(self.decision_function(rows) >= 0.0, 1.0, -1.0)

    def accuracy(self, rows: Sequence[Mapping[str, object]], labels: Sequence[float]) -> float:
        predictions = self.predict(rows)
        truth = np.asarray(labels, dtype=float)
        return float((predictions == truth).mean())
