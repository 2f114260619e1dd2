"""repro: structure-aware machine learning over relational data.

A Python reproduction of the system landscape described in "The Relational
Data Borg is Learning" (Olteanu, VLDB 2020): factorised joins, (semi)ring
aggregate evaluation, an LMFAO-style shared batch engine, factorised
incremental view maintenance, and machine-learning models trained from
aggregate batches instead of materialised data matrices.
"""

__version__ = "1.0.0"

from repro.data import Attribute, AttributeType, Database, Relation, Schema
from repro.query import ConjunctiveQuery
from repro.aggregates import (
    Aggregate,
    AggregateBatch,
    covariance_batch,
    decision_tree_node_batch,
    kmeans_batch,
    mutual_information_batch,
)
from repro.engine import BatchResult, LMFAOEngine, MaterializedJoinEngine
from repro.factorized import factorize_join

__all__ = [
    "__version__",
    "Attribute",
    "AttributeType",
    "Schema",
    "Relation",
    "Database",
    "ConjunctiveQuery",
    "Aggregate",
    "AggregateBatch",
    "covariance_batch",
    "decision_tree_node_batch",
    "mutual_information_batch",
    "kmeans_batch",
    "LMFAOEngine",
    "MaterializedJoinEngine",
    "BatchResult",
    "factorize_join",
]
