"""Tests for schemas and attributes."""

import pytest

from repro.data.attribute import (
    Attribute,
    AttributeType,
    Schema,
    SchemaError,
    categorical,
    continuous,
)


def test_attribute_type_predicates():
    assert continuous("price").is_continuous
    assert not continuous("price").is_categorical
    assert categorical("city").is_categorical
    assert not categorical("city").is_continuous


def test_attribute_default_type_is_continuous():
    assert Attribute("x").attribute_type is AttributeType.CONTINUOUS


def test_schema_from_names_marks_categoricals():
    schema = Schema.from_names(["a", "b", "c"], categorical_names=["b"])
    assert schema.is_continuous("a")
    assert schema.is_categorical("b")
    assert schema.is_continuous("c")


def test_schema_from_names_rejects_unknown_categorical():
    with pytest.raises(SchemaError):
        Schema.from_names(["a", "b"], categorical_names=["z"])


def test_schema_rejects_duplicate_names():
    with pytest.raises(SchemaError):
        Schema.of(continuous("a"), categorical("a"))


def test_schema_lookup_and_indexing():
    schema = Schema.from_names(["a", "b", "c"])
    assert schema.index_of("b") == 1
    assert schema.indices_of(["c", "a"]) == (2, 0)
    assert schema.attribute("c").name == "c"
    assert "b" in schema
    assert "z" not in schema
    with pytest.raises(SchemaError):
        schema.index_of("z")


def test_schema_rename():
    schema = Schema.from_names(["a", "b"], categorical_names=["b"])
    renamed = schema.rename({"a": "x"})
    assert renamed.names == ("x", "b")
    assert renamed.is_categorical("b")


def test_schema_union_merges_shared_names_once():
    left = Schema.from_names(["a", "b"])
    right = Schema.from_names(["b", "c"])
    merged = left.union(right)
    assert merged.names == ("a", "b", "c")


def test_schema_union_rejects_conflicting_types():
    left = Schema.from_names(["a", "b"], categorical_names=["b"])
    right = Schema.from_names(["b", "c"])
    with pytest.raises(SchemaError):
        left.union(right)


def test_schema_common_names_in_left_order():
    left = Schema.from_names(["a", "b", "c"])
    right = Schema.from_names(["c", "a"])
    assert left.common_names(right) == ("a", "c")


def test_schema_iteration_and_len():
    schema = Schema.from_names(["a", "b", "c"])
    assert len(schema) == 3
    assert [attribute.name for attribute in schema] == ["a", "b", "c"]
