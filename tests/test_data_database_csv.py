"""Tests for Database and CSV I/O."""

import pytest

from repro.data import Database, Relation, Schema, read_csv, write_csv
from repro.data.relation import RelationError, relation_from_rows


@pytest.fixture()
def database():
    orders = relation_from_rows(
        "Orders", ["customer", "dish"], [("elise", "burger"), ("joe", "hotdog")],
        categorical=["customer", "dish"],
    )
    dishes = relation_from_rows(
        "Dishes", ["dish", "price"], [("burger", 8), ("hotdog", 5)], categorical=["dish"]
    )
    return Database([orders, dishes], name="diner")


def test_database_lookup_and_contains(database):
    assert "Orders" in database
    assert database["Orders"].name == "Orders"
    assert len(database) == 2
    with pytest.raises(RelationError):
        database.relation("Missing")


def test_database_rejects_duplicate_relation(database):
    with pytest.raises(RelationError):
        database.add_relation(relation_from_rows("Orders", ["x"], [(1,)]))


def test_drop_relation(database):
    database.drop_relation("Dishes")
    assert "Dishes" not in database
    with pytest.raises(RelationError):
        database.drop_relation("Dishes")


def test_attribute_names_first_occurrence_order(database):
    assert database.attribute_names() == ("customer", "dish", "price")


def test_relations_with_attribute(database):
    names = [relation.name for relation in database.relations_with_attribute("dish")]
    assert names == ["Orders", "Dishes"]


def test_is_categorical_resolved_through_schema(database):
    assert database.is_categorical("dish")
    assert not database.is_categorical("price")


def test_copy_and_empty_copy(database):
    clone = database.copy()
    clone["Orders"].add(("ann", "salad"))
    assert ("ann", "salad") not in database["Orders"]

    empty = database.empty_copy()
    assert all(len(relation) == 0 for relation in empty)
    assert empty.relation_names == database.relation_names


def test_size_summary_and_total_tuples(database):
    summary = database.size_summary()
    assert summary["Orders"] == (2, 2)
    assert database.total_tuples() == 4


def test_csv_round_trip(tmp_path, database):
    path = tmp_path / "orders.csv"
    write_csv(database["Orders"], path)
    loaded = read_csv(path, categorical=["customer", "dish"])
    assert loaded == database["Orders"]


def test_csv_round_trip_with_multiplicity_column(tmp_path):
    relation = relation_from_rows("R", ["a", "b"], [(1, 2.5)])
    relation.add((1, 2.5), 2)
    path = tmp_path / "r.csv"
    write_csv(relation, path, expand_multiplicities=False)
    text = path.read_text()
    assert "__multiplicity" in text
    assert "3" in text


def test_csv_type_inference(tmp_path):
    path = tmp_path / "typed.csv"
    path.write_text("a,b,c\n1,2.5,hello\n3,4.0,world\n")
    relation = read_csv(path, categorical=["c"])
    rows = set(relation.rows())
    assert (1, 2.5, "hello") in rows
    assert (3, 4.0, "world") in rows


def test_csv_without_header_requires_schema(tmp_path):
    path = tmp_path / "nohdr.csv"
    path.write_text("1,2\n3,4\n")
    with pytest.raises(ValueError):
        read_csv(path, has_header=False)
    relation = read_csv(path, has_header=False, schema=Schema.from_names(["a", "b"]))
    assert len(relation) == 2


def test_csv_empty_file_raises(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError):
        read_csv(path)
