"""The structure-aware pipeline (bottom flow of Figure 2, LMFAO side of Figure 3).

Synthesise the covariance batch for the model, evaluate it with the
LMFAO-style engine directly over the input relations, then run gradient
descent over the (tiny) sigma matrix.  The two timed stages are the query
batch and the optimiser, matching the "Query batch" and "Grad Descent" rows of
Figure 3.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.aggregates.batch import covariance_batch
from repro.aggregates.sparse_tensor import SigmaMatrix, sigma_from_batch_results
from repro.data.database import Database
from repro.engine.lmfao import LMFAOEngine
from repro.ml.linear_regression import RidgeRegression
from repro.query.conjunctive import ConjunctiveQuery


@dataclass
class StructureAwareReport:
    """Stage timings and model diagnostics of the structure-aware pipeline."""

    batch_seconds: float = 0.0
    train_seconds: float = 0.0
    aggregate_count: int = 0
    sigma_dimension: int = 0
    sigma_bytes: int = 0
    rmse: Optional[float] = None

    @property
    def total_seconds(self) -> float:
        return self.batch_seconds + self.train_seconds

    def as_rows(self) -> List[Tuple[str, float]]:
        return [
            ("query batch", self.batch_seconds),
            ("gradient descent", self.train_seconds),
            ("total", self.total_seconds),
        ]


class StructureAwarePipeline:
    """Aggregate batch via the engine, then gradient descent on the statistics."""

    def __init__(
        self,
        target: str,
        continuous: Sequence[str],
        categorical: Sequence[str] = (),
        regularization: float = 1e-3,
        root_relation: Optional[str] = None,
        closed_form: bool = False,
    ) -> None:
        if target not in continuous:
            raise ValueError("the target must be listed among the continuous features")
        self.target = target
        self.continuous = list(continuous)
        self.categorical = list(categorical)
        self.regularization = regularization
        self.root_relation = root_relation
        self.closed_form = closed_form
        self.model: Optional[RidgeRegression] = None
        self.sigma: Optional[SigmaMatrix] = None
        self.report = StructureAwareReport()

    def run(self, database: Database, query: ConjunctiveQuery) -> StructureAwareReport:
        report = StructureAwareReport()

        started = time.perf_counter()
        engine = LMFAOEngine(database, query, self.root_relation)
        batch = covariance_batch(self.continuous, self.categorical)
        result = engine.evaluate(batch)
        sigma = sigma_from_batch_results(result.as_mapping(), self.continuous, self.categorical)
        report.batch_seconds = time.perf_counter() - started
        report.aggregate_count = len(batch)
        report.sigma_dimension = sigma.dimension
        report.sigma_bytes = int(sigma.matrix.nbytes)

        started = time.perf_counter()
        model = RidgeRegression(self.target, self.regularization)
        if self.closed_form:
            model.fit_closed_form(sigma)
        else:
            model.fit(sigma)
        report.train_seconds = time.perf_counter() - started

        self.model = model
        self.sigma = sigma
        self.report = report
        return report

    # -- inference ------------------------------------------------------------------------------

    def predict(self, rows: Sequence[Mapping[str, object]]) -> np.ndarray:
        if self.model is None:
            raise RuntimeError("pipeline has not been run")
        return self.model.predict(rows)

    def rmse(self, rows: Sequence[Mapping[str, object]]) -> float:
        if self.model is None:
            raise RuntimeError("pipeline has not been run")
        rmse = self.model.rmse(rows)
        self.report.rmse = rmse
        return rmse
