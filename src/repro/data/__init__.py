"""Multiset relational substrate.

This package implements the in-memory relational layer that every other
subsystem builds on.  Relations map tuples to integer multiplicities (the
ring-of-integers view of Section 3.1 of the paper), which gives a uniform
treatment of inserts and deletes and makes joins a sum-product computation.
Storage is array-native: a relation is a façade over the dictionary-encoded
:class:`~repro.data.tuplestore.TupleStore`, and columnar snapshots wrap its
arrays zero-copy.
"""

from repro.data.attribute import Attribute, AttributeType, Schema
from repro.data.relation import Relation
from repro.data.colstore import ColumnEncoding, ColumnStore
from repro.data.database import Database
from repro.data.tuplestore import TupleStore, tuplestore_stats
from repro.data.csv_io import read_csv, write_csv

__all__ = [
    "Attribute",
    "AttributeType",
    "Schema",
    "Relation",
    "ColumnEncoding",
    "ColumnStore",
    "TupleStore",
    "tuplestore_stats",
    "Database",
    "read_csv",
    "write_csv",
]
