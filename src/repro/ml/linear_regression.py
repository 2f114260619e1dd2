"""Ridge linear regression trained from the covariance (sigma) matrix.

Section 2.1 of the paper: for the least-squares loss, the gradient of the
parameter vector is built from the sigma matrix alone,

    ∇J(θ) = (1/N) (Σ θ - c) + λ θ,

where ``Σ`` is the matrix of SUM(x_i * x_j) over the non-target features, and
``c`` the vector of SUM(x_i * y).  Once the engine has computed Σ, training
takes milliseconds regardless of how many tuples the join has, and new models
over feature subsets can be trained from the same Σ (Section 1.5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.aggregates.sparse_tensor import FeatureIndex, SigmaMatrix
from repro.data.database import Database
from repro.ml.statistics import compute_sigma
from repro.query.conjunctive import ConjunctiveQuery


@dataclass
class TrainingTrace:
    """Convergence diagnostics of gradient-descent training."""

    iterations: int = 0
    gradient_norms: List[float] = field(default_factory=list)
    converged: bool = False


class RidgeRegression:
    """Ridge linear regression over the features of a feature-extraction query.

    Parameters
    ----------
    target:
        The response attribute (must be one of the continuous features of the
        sigma matrix).
    regularization:
        The ridge penalty λ (0 gives ordinary least squares).
    """

    def __init__(self, target: str, regularization: float = 1e-3) -> None:
        self.target = target
        self.regularization = regularization
        self.parameters: Optional[np.ndarray] = None
        self.parameter_positions: Optional[List[int]] = None
        self.index: Optional[FeatureIndex] = None
        self.trace = TrainingTrace()

    # -- training -----------------------------------------------------------------------

    def _split_positions(self, sigma: SigmaMatrix) -> Tuple[List[int], int]:
        """Positions of the model parameters and of the target column."""
        target_positions = sigma.index.positions_of_feature(self.target)
        if len(target_positions) != 1:
            raise ValueError(
                f"target {self.target!r} must be a single continuous feature"
            )
        target_position = target_positions[0]
        parameter_positions = [
            position
            for position in range(sigma.dimension)
            if position != target_position
        ]
        return parameter_positions, target_position

    def fit(
        self,
        sigma: SigmaMatrix,
        learning_rate: Optional[float] = None,
        max_iterations: int = 2000,
        tolerance: float = 1e-8,
    ) -> "RidgeRegression":
        """Train by batch gradient descent over the sigma matrix.

        The gradient descent runs in a Jacobi-preconditioned (feature-scaled)
        space — the equivalent of standardising the features, which the paper's
        pipelines also do — so badly scaled raw features do not stall
        convergence.  The returned parameters are in the original feature
        space.
        """
        parameter_positions, target_position = self._split_positions(sigma)
        count = max(sigma.count(), 1.0)
        gram = sigma.matrix[np.ix_(parameter_positions, parameter_positions)] / count
        correlation = sigma.matrix[parameter_positions, target_position] / count

        # Jacobi preconditioning: scale each parameter by the RMS of its feature.
        scales = np.sqrt(np.clip(np.diag(gram), 1e-12, None))
        preconditioned_gram = gram / np.outer(scales, scales)
        preconditioned_correlation = correlation / scales

        if learning_rate is None:
            # 1 / L where L is a cheap upper bound on the largest eigenvalue.
            lipschitz = float(np.linalg.norm(preconditioned_gram, ord=2)) + self.regularization
            learning_rate = 1.0 / max(lipschitz, 1e-12)

        theta = np.zeros(len(parameter_positions))
        trace = TrainingTrace()
        for iteration in range(max_iterations):
            gradient = (
                preconditioned_gram @ theta
                - preconditioned_correlation
                + self.regularization * theta
            )
            theta -= learning_rate * gradient
            norm = float(np.linalg.norm(gradient))
            trace.gradient_norms.append(norm)
            trace.iterations = iteration + 1
            if norm < tolerance:
                trace.converged = True
                break

        self.parameters = theta / scales
        self.parameter_positions = parameter_positions
        self.index = sigma.index
        self.trace = trace
        return self

    def fit_closed_form(self, sigma: SigmaMatrix) -> "RidgeRegression":
        """Solve the normal equations ``(Σ/N + λI) θ = c/N`` directly."""
        parameter_positions, target_position = self._split_positions(sigma)
        count = max(sigma.count(), 1.0)
        gram = sigma.matrix[np.ix_(parameter_positions, parameter_positions)] / count
        correlation = sigma.matrix[parameter_positions, target_position] / count
        regularized = gram + self.regularization * np.eye(len(parameter_positions))
        self.parameters = np.linalg.solve(regularized, correlation)
        self.parameter_positions = parameter_positions
        self.index = sigma.index
        self.trace = TrainingTrace(iterations=0, converged=True)
        return self

    def warm_start_fit(
        self,
        sigma: SigmaMatrix,
        initial_parameters: np.ndarray,
        learning_rate: Optional[float] = None,
        max_iterations: int = 200,
        tolerance: float = 1e-8,
    ) -> "RidgeRegression":
        """Resume gradient descent from existing parameters (model refresh, §1.5)."""
        parameter_positions, target_position = self._split_positions(sigma)
        count = max(sigma.count(), 1.0)
        gram = sigma.matrix[np.ix_(parameter_positions, parameter_positions)] / count
        correlation = sigma.matrix[parameter_positions, target_position] / count

        scales = np.sqrt(np.clip(np.diag(gram), 1e-12, None))
        preconditioned_gram = gram / np.outer(scales, scales)
        preconditioned_correlation = correlation / scales
        if learning_rate is None:
            lipschitz = float(np.linalg.norm(preconditioned_gram, ord=2)) + self.regularization
            learning_rate = 1.0 / max(lipschitz, 1e-12)

        theta = np.asarray(initial_parameters, dtype=float).copy() * scales
        trace = TrainingTrace()
        for iteration in range(max_iterations):
            gradient = (
                preconditioned_gram @ theta
                - preconditioned_correlation
                + self.regularization * theta
            )
            theta -= learning_rate * gradient
            norm = float(np.linalg.norm(gradient))
            trace.gradient_norms.append(norm)
            trace.iterations = iteration + 1
            if norm < tolerance:
                trace.converged = True
                break
        self.parameters = theta / scales
        self.parameter_positions = parameter_positions
        self.index = sigma.index
        self.trace = trace
        return self

    # -- inference -----------------------------------------------------------------------

    def coefficients(self) -> Dict[str, float]:
        """Named coefficients (categorical parameters are named ``feature=value``)."""
        if self.parameters is None or self.index is None or self.parameter_positions is None:
            raise RuntimeError("model is not trained")
        labels = self.index.labels()
        return {
            labels[position]: float(value)
            for position, value in zip(self.parameter_positions, self.parameters)
        }

    def _position_map(self) -> Dict[int, Tuple[str, Optional[object]]]:
        assert self.index is not None
        return {position: (feature, value) for feature, value, position in self.index.entries()}

    def predict_row(self, row: Mapping[str, object]) -> float:
        """Predict the target for one (dictionary) row."""
        if self.parameters is None or self.index is None or self.parameter_positions is None:
            raise RuntimeError("model is not trained")
        cached = getattr(self, "_cached_position_map", None)
        if cached is None or cached[0] is not self.index:
            cached = (self.index, self._position_map())
            self._cached_position_map = cached
        position_map = cached[1]
        prediction = 0.0
        for position, weight in zip(self.parameter_positions, self.parameters):
            feature, value = position_map[position]
            if value is None:
                if feature == "__intercept__":
                    prediction += weight
                else:
                    prediction += weight * float(row[feature])  # type: ignore[arg-type]
            else:
                if row.get(feature) == value:
                    prediction += weight
        return prediction

    def predict(self, rows: Sequence[Mapping[str, object]]) -> np.ndarray:
        return np.array([self.predict_row(row) for row in rows])

    def rmse(self, rows: Sequence[Mapping[str, object]]) -> float:
        """Root-mean-square error of the model on dictionary rows."""
        predictions = self.predict(rows)
        truth = np.array([float(row[self.target]) for row in rows])  # type: ignore[arg-type]
        return float(np.sqrt(np.mean((predictions - truth) ** 2)))


def train_ridge_regression(
    database: Database,
    query: ConjunctiveQuery,
    target: str,
    continuous: Sequence[str],
    categorical: Sequence[str] = (),
    regularization: float = 1e-3,
    closed_form: bool = False,
    root_relation: Optional[str] = None,
) -> Tuple[RidgeRegression, SigmaMatrix]:
    """End-to-end structure-aware training: engine batch, then optimiser."""
    if target not in continuous:
        raise ValueError("the target must be listed among the continuous features")
    sigma = compute_sigma(database, query, continuous, categorical, root_relation)
    model = RidgeRegression(target, regularization)
    if closed_form:
        model.fit_closed_form(sigma)
    else:
        model.fit(sigma)
    return model, sigma
