"""Computing sufficient statistics through the engine.

``compute_sigma`` is the structure-aware path of Figure 2: synthesise the
covariance batch, evaluate it with the LMFAO-style engine directly over the
input database, and assemble the sparse results into a :class:`SigmaMatrix`.
``sigma_from_data_matrix`` is the structure-agnostic reference used in tests:
it computes the same matrix from an explicit (one-hot encoded) data matrix.
``join_counts`` is the bag join as one ``COUNT(*) GROUP BY`` on the engine:
``join_columns`` (what the per-row learners, SVM and factorisation machines,
read), IFAQ's join dictionary and Figure 3's structure-agnostic baseline all
take the join from it.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.aggregates.batch import covariance_batch
from repro.aggregates.spec import Aggregate, AggregateBatch
from repro.aggregates.sparse_tensor import FeatureIndex, SigmaMatrix, sigma_from_batch_results
from repro.data.database import Database
from repro.engine.lmfao import LMFAOEngine
from repro.query.conjunctive import ConjunctiveQuery


def compute_sigma(
    database: Database,
    query: ConjunctiveQuery,
    continuous: Sequence[str],
    categorical: Sequence[str] = (),
) -> SigmaMatrix:
    """Compute the sigma matrix of the feature-extraction query via the engine."""
    engine = LMFAOEngine(database, query)
    batch = covariance_batch(continuous, categorical)
    result = engine.evaluate(batch)
    return sigma_from_batch_results(result.as_mapping(), continuous, categorical)


def join_counts(
    database: Database, query: ConjunctiveQuery, attributes: Sequence[str]
) -> Dict[Tuple, float]:
    """The bag join as ``{value combination: multiplicity}``: one
    ``COUNT(*) GROUP BY attributes`` on the engine, in the engine's group
    order.  The Python tuple join
    (:meth:`~repro.engine.naive.MaterializedJoinEngine.materialize`) is not
    involved.

    A key takes its column dictionary's first-occurrence value, so values
    equal under Python ``==`` but not identical (``-0.0`` and ``0.0``, ``1``
    and ``1.0``) fall into one group that shows whichever was stored first,
    exactly as one :class:`~repro.data.relation.Relation` nets them.
    """
    batch = AggregateBatch("join counts", [Aggregate.count(group_by=attributes, name="rows")])
    return LMFAOEngine(database, query).evaluate(batch).grouped("rows")


def join_columns(
    database: Database, query: ConjunctiveQuery, attributes: Sequence[str]
) -> Tuple[np.ndarray, np.ndarray]:
    """The join's float columns, one row per distinct value combination, and
    its multiplicities (:func:`join_counts`), so a row of multiplicity ``m``
    stands for ``m`` join tuples.  Values equal under ``==`` share a row, as
    :func:`join_counts` says.  Raises ``ValueError`` when the join is empty
    or an attribute is not numeric.
    """
    grouped = list(dict.fromkeys(attributes))
    counts = join_counts(database, query, grouped)
    if not counts:
        raise ValueError(f"the join {query.name!r} is empty: there is nothing to train on")
    columns = []
    for attribute in attributes:
        position = grouped.index(attribute)
        try:
            columns.append([float(key[position]) for key in counts])
        except (TypeError, ValueError):
            raise ValueError(f"feature {attribute!r} has non-numeric values") from None
    return np.column_stack(columns), np.array(list(counts.values())).astype(np.int64)


def one_hot_rows(
    rows: Sequence[Mapping[str, object]],
    continuous: Sequence[str],
    categorical: Sequence[str],
    index: Optional[FeatureIndex] = None,
) -> Tuple[np.ndarray, FeatureIndex]:
    """One-hot encode dictionary rows into a dense matrix (intercept included).

    This is the structure-agnostic encoding the paper argues against; it is
    used by the baselines and by tests that cross-check the aggregate path.
    """
    if index is None:
        domains: Dict[str, List[object]] = {feature: [] for feature in categorical}
        for row in rows:
            for feature in categorical:
                value = row[feature]
                if value not in domains[feature]:
                    domains[feature].append(value)
        for feature in categorical:
            domains[feature] = sorted(
                domains[feature], key=lambda value: (type(value).__name__, str(value))
            )
        index = FeatureIndex(continuous, domains, include_intercept=True)

    matrix = np.zeros((len(rows), index.size))
    intercept = index.intercept_position()
    for row_position, row in enumerate(rows):
        matrix[row_position, intercept] = 1.0
        for feature in continuous:
            matrix[row_position, index.position(feature)] = float(row[feature])  # type: ignore[arg-type]
        for feature in categorical:
            value = row[feature]
            if index.has(feature, value):
                matrix[row_position, index.position(feature, value)] = 1.0
    return matrix, index


def sigma_from_data_matrix(
    rows: Sequence[Mapping[str, object]],
    continuous: Sequence[str],
    categorical: Sequence[str] = (),
    multiplicities: Optional[Sequence[int]] = None,
) -> SigmaMatrix:
    """Reference sigma matrix computed from an explicit data matrix."""
    matrix, index = one_hot_rows(rows, continuous, categorical)
    if multiplicities is None:
        weights = np.ones(len(rows))
    else:
        weights = np.asarray(multiplicities, dtype=float)
    weighted = matrix * weights[:, None]
    return SigmaMatrix(index, matrix.T @ weighted)
