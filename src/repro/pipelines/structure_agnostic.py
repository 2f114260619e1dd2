"""The structure-agnostic pipeline (top flow of Figure 2, baseline of Figure 3).

The pipeline does exactly what the PostgreSQL + TensorFlow setup of the paper
does, with each shortcoming of Section 1.2 as an explicit, timed stage:

1. *materialise* the feature-extraction join (shortcoming 1), here from the
   engine's ``COUNT(*) GROUP BY`` over every attribute
   (:func:`repro.ml.statistics.join_counts`) into one bag relation;
2. *export* it out of the query engine into an ML-friendly representation —
   here a list of dictionary rows, i.e. a format conversion and copy
   (shortcoming 2);
3. *one-hot encode* the categorical features into a dense data matrix
   (shortcoming 3);
4. *learn* with mini-batch gradient descent over the data matrix, one pass per
   epoch.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.aggregates.sparse_tensor import FeatureIndex
from repro.data.csv_io import read_csv, write_csv
from repro.data.database import Database
from repro.data.relation import Relation
from repro.ml.statistics import join_counts, one_hot_rows
from repro.query.conjunctive import ConjunctiveQuery


@dataclass
class StructureAgnosticReport:
    """Per-stage wall-clock times and model diagnostics."""

    join_seconds: float = 0.0
    export_seconds: float = 0.0
    encode_seconds: float = 0.0
    train_seconds: float = 0.0
    join_rows: int = 0
    data_matrix_shape: Tuple[int, int] = (0, 0)
    data_matrix_bytes: int = 0
    rmse: Optional[float] = None

    @property
    def total_seconds(self) -> float:
        return self.join_seconds + self.export_seconds + self.encode_seconds + self.train_seconds

    def as_rows(self) -> List[Tuple[str, float]]:
        return [
            ("join", self.join_seconds),
            ("export", self.export_seconds),
            ("one-hot encode", self.encode_seconds),
            ("gradient descent", self.train_seconds),
            ("total", self.total_seconds),
        ]


def materialise_join(database: Database, query: ConjunctiveQuery) -> Relation:
    """The full bag join over every attribute of ``query``, as one relation.

    The rows are :func:`~repro.ml.statistics.join_counts`' groups (so values
    equal under ``==`` share a row, see there), ordered as a left-deep hash
    join over ``query.relation_names`` emits them: by the position of each
    joined relation row in its relation's ``items()``, left to right.  The
    seeded mini-batch order then picks the same data-matrix rows whatever
    order the engine's groups come in.
    """
    relations = query.relations(database)
    attributes = query.variables(database)
    counts = join_counts(database, query, attributes)
    ranks = [
        (
            [attributes.index(name) for name in relation.schema.names],
            {row: rank for rank, (row, _multiplicity) in enumerate(relation.items())},
        )
        for relation in relations
    ]
    rows = sorted(
        counts,
        key=lambda key: tuple(
            rank[tuple(key[position] for position in positions)] for positions, rank in ranks
        ),
    )
    schema = relations[0].schema
    for relation in relations[1:]:
        schema = schema.union(relation.schema)
    joined = Relation(query.name, schema)
    joined.add_batch(rows, [int(counts[row]) for row in rows], validated=True)
    return joined


class StructureAgnosticPipeline:
    """Materialise → export → one-hot → mini-batch gradient descent."""

    def __init__(
        self,
        target: str,
        continuous: Sequence[str],
        categorical: Sequence[str] = (),
        learning_rate: float = 0.1,
        epochs: int = 1,
        batch_size: int = 256,
        regularization: float = 1e-3,
        seed: int = 0,
    ) -> None:
        self.target = target
        self.continuous = [feature for feature in continuous if feature != target]
        self.categorical = list(categorical)
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.batch_size = batch_size
        self.regularization = regularization
        self.seed = seed
        self.parameters: Optional[np.ndarray] = None
        self.index: Optional[FeatureIndex] = None
        self.report = StructureAgnosticReport()

    # -- stages -----------------------------------------------------------------------------

    def run(self, database: Database, query: ConjunctiveQuery) -> StructureAgnosticReport:
        report = StructureAgnosticReport()

        started = time.perf_counter()
        joined = materialise_join(database, query)
        report.join_seconds = time.perf_counter() - started
        report.join_rows = len(joined)

        # The export stage reproduces the system boundary of the paper's
        # pipeline: the query engine writes the data matrix to a CSV file and
        # the learning tool parses it back (shortcoming 2 of Section 1.2).
        started = time.perf_counter()
        names = joined.schema.names
        with tempfile.TemporaryDirectory() as export_directory:
            export_path = Path(export_directory) / "data_matrix.csv"
            write_csv(joined, export_path, expand_multiplicities=True)
            # Parsing re-infers value types, as the receiving tool would.
            exported = read_csv(export_path, name="data_matrix")
        rows: List[Dict[str, object]] = []
        for row, multiplicity in exported.items():
            row_dict = dict(zip(names, row))
            for _copy in range(multiplicity):
                rows.append(row_dict)
        report.export_seconds = time.perf_counter() - started

        started = time.perf_counter()
        matrix, index = one_hot_rows(rows, self.continuous, self.categorical)
        targets = np.array([float(row[self.target]) for row in rows])
        report.encode_seconds = time.perf_counter() - started
        report.data_matrix_shape = tuple(matrix.shape)  # type: ignore[assignment]
        report.data_matrix_bytes = int(matrix.nbytes)

        started = time.perf_counter()
        self.parameters = self._train(matrix, targets)
        report.train_seconds = time.perf_counter() - started

        self.index = index
        predictions = matrix @ self.parameters
        report.rmse = float(np.sqrt(np.mean((predictions - targets) ** 2)))
        self.report = report
        return report

    def _train(self, matrix: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Mini-batch SGD with one full pass per epoch (TensorFlow-style)."""
        rng = np.random.default_rng(self.seed)
        count, dimension = matrix.shape
        # Normalise features so a fixed learning rate behaves across datasets.
        scales = np.maximum(np.abs(matrix).max(axis=0), 1e-9)
        scaled = matrix / scales
        theta = np.zeros(dimension)
        for _epoch in range(self.epochs):
            order = rng.permutation(count)
            for start in range(0, count, self.batch_size):
                batch = order[start:start + self.batch_size]
                features = scaled[batch]
                errors = features @ theta - targets[batch]
                gradient = features.T @ errors / len(batch) + self.regularization * theta
                theta -= self.learning_rate * gradient
        return theta / scales

    # -- inference ---------------------------------------------------------------------------

    def predict(self, rows: Sequence[Mapping[str, object]]) -> np.ndarray:
        if self.parameters is None or self.index is None:
            raise RuntimeError("pipeline has not been run")
        matrix, _index = one_hot_rows(rows, self.continuous, self.categorical, index=self.index)
        return matrix @ self.parameters

    def rmse(self, rows: Sequence[Mapping[str, object]]) -> float:
        predictions = self.predict(rows)
        truth = np.array([float(row[self.target]) for row in rows])  # type: ignore[arg-type]
        return float(np.sqrt(np.mean((predictions - truth) ** 2)))
