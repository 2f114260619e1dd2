"""Tests for multiset relations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import Relation, Schema, colstore
from repro.data.relation import RelationError, relation_from_rows


@pytest.fixture()
def people():
    return relation_from_rows(
        "People", ["name", "age"], [("ann", 30), ("bob", 40), ("ann", 30)], categorical=["name"]
    )


def test_multiplicities_accumulate(people):
    assert people.multiplicity(("ann", 30)) == 2
    assert people.multiplicity(("bob", 40)) == 1
    assert len(people) == 2
    assert people.total_multiplicity() == 3


def test_add_negative_multiplicity_deletes(people):
    people.add(("ann", 30), -2)
    assert ("ann", 30) not in people
    assert len(people) == 1


def test_remove_below_zero_keeps_negative_multiplicity(people):
    people.remove(("bob", 40), 3)
    assert people.multiplicity(("bob", 40)) == -2


def test_add_zero_multiplicity_is_noop(people):
    people.add(("carol", 25), 0)
    assert ("carol", 25) not in people


def test_arity_mismatch_raises(people):
    with pytest.raises(RelationError):
        people.add(("dave",))


def test_expanded_rows_repeat_by_multiplicity(people):
    rows = list(people.expanded_rows())
    assert rows.count(("ann", 30)) == 2
    assert len(rows) == 3


def test_expanded_rows_reject_negative(people):
    people.add(("zed", 1), -1)
    with pytest.raises(RelationError):
        list(people.expanded_rows())


def test_column_and_active_domain(people):
    assert sorted(people.column("name")) == ["ann", "bob"]
    assert people.active_domain("age") == [30, 40]


def test_copy_is_independent(people):
    clone = people.copy("Clone")
    clone.add(("carol", 22))
    assert ("carol", 22) not in people
    assert clone.name == "Clone"


def test_empty_like_has_schema_but_no_rows(people):
    empty = people.empty_like()
    assert len(empty) == 0
    assert empty.schema.names == people.schema.names


def test_equality_ignores_name(people):
    clone = people.copy("Other")
    assert clone == people


def test_sample_rows_is_deterministic(people):
    assert people.sample_rows(1, seed=4) == people.sample_rows(1, seed=4)
    assert len(people.sample_rows(10)) == 2


def test_to_table_renders_multiplicity(people):
    table = people.to_table()
    assert "name | age" in table
    assert "(x2)" in table


# -- columnar store: versioning, caching, encodings -----------------------------------------


def test_version_bumps_on_mutation(people):
    version = people.version
    people.add(("zed", 25))
    assert people.version > version
    version = people.version
    people.remove(("zed", 25))
    assert people.version > version
    version = people.version
    people.clear()
    assert people.version > version


def test_column_store_is_cached_and_invalidated(people):
    store = people.column_store()
    assert people.column_store() is store          # cached while unchanged
    people.add(("zed", 25))
    fresh = people.column_store()
    assert fresh is not store                      # mutation invalidates
    assert fresh.row_count == len(people)


def test_column_store_codes_round_trip():
    from repro.data import Relation, Schema

    relation = Relation(
        "R",
        Schema.from_names(["k", "v"], ["k"]),
        multiplicities={("a", 1): 2, ("b", 1): 1, ("a", 3): -1},
    )
    store = relation.column_store()
    codes, keys = store.codes_for(("k", "v"))
    assert len(codes) == len(relation)
    decoded = {keys[code] for code in codes.tolist()}
    assert decoded == set(relation.rows())
    # Multiplicities align with the row order used by the encodings.
    assert sorted(store.multiplicities.tolist()) == [-1.0, 1.0, 2.0]


def test_column_store_float_column_and_fallback():
    from repro.data import Relation, Schema

    relation = Relation(
        "R",
        Schema.from_names(["k", "v"], ["k"]),
        rows=[("a", 1), ("b", 2.5)],
    )
    store = relation.column_store()
    values = store.float_column("v")
    assert values is not None and sorted(values.tolist()) == [1.0, 2.5]
    assert store.float_column("k") is None         # strings are not numeric


def test_column_store_mixed_type_column_uses_fallback_encoding():
    from repro.data import Relation, Schema

    relation = Relation(
        "R",
        Schema.from_names(["k"]),
        rows=[("a",), (3,), ("b",)],
    )
    store = relation.column_store()
    encoding = store.encoding("k")
    assert sorted(map(str, encoding.values)) == ["3", "a", "b"]
    assert len(encoding.codes) == 3
    # Mixed python types cannot form a typed, sortable dictionary.
    assert encoding.sortable_values() is None


def test_combine_codes_matches_stacked_unique():
    import numpy as np

    from repro.data.colstore import combine_codes

    left = np.asarray([0, 1, 0, 2, 1], dtype=np.int64)
    right = np.asarray([1, 1, 1, 0, 2], dtype=np.int64)
    codes, combos = combine_codes([left, right], [3, 3])
    assert codes.shape == (5,)
    rebuilt = {(int(combos[c, 0]), int(combos[c, 1])) for c in codes.tolist()}
    assert rebuilt == {(0, 1), (1, 1), (2, 0), (1, 2)}


def _combine_codes_by_sorting(columns, cardinalities):
    """``combine_codes`` as it was written before it counted: one ``np.unique`` per key."""
    if len(columns) == 1:
        uniques, inverse = np.unique(columns[0], return_inverse=True)
        return inverse.reshape(-1).astype(np.int64), uniques.astype(np.int64).reshape(-1, 1)
    mixed = columns[0].astype(np.int64, copy=True)
    for column, radix in zip(columns[1:], cardinalities[1:]):
        mixed = mixed * radix + column
    uniques, inverse = np.unique(mixed, return_inverse=True)
    combos = np.empty((uniques.size, len(columns)), dtype=np.int64)
    remainder = uniques
    for position in range(len(columns) - 1, 0, -1):
        remainder, combos[:, position] = np.divmod(remainder, cardinalities[position])
    combos[:, 0] = remainder
    return inverse.reshape(-1).astype(np.int64), combos


@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=0, max_value=40),
    st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=3),
    # The counting bound is 4 * rows + slack: slack 0 puts these small inputs on
    # both sides of it, the module's own 1024 keeps them all on the counting side.
    st.sampled_from([0, colstore._COUNT_LIMIT_SLACK]),
    st.randoms(use_true_random=False),
)
def test_combine_codes_counts_or_sorts_to_the_same_arrays(rows, cardinalities, slack, rng):
    """Array-equal to the ``np.unique`` formulation on both sides of the counting bound."""
    columns = [
        np.asarray([rng.randrange(card) for _ in range(rows)], dtype=np.int64)
        for card in cardinalities
    ]
    before = colstore._COUNT_LIMIT_SLACK
    colstore._COUNT_LIMIT_SLACK = slack
    try:
        codes, combos = colstore.combine_codes(columns, cardinalities)
    finally:
        colstore._COUNT_LIMIT_SLACK = before
    expected_codes, expected_combos = _combine_codes_by_sorting(columns, cardinalities)
    assert codes.dtype == combos.dtype == np.int64
    assert np.array_equal(codes, expected_codes)
    assert np.array_equal(combos, expected_combos)


def test_compact_codes_sorts_only_a_sparse_code_space():
    codes = np.asarray([7, 2, 7, 900, 2], dtype=np.int64)
    bound = 4 * codes.size + colstore._COUNT_LIMIT_SLACK
    for space in (901, bound, bound + 1, 10 ** 12):     # the last would not fit in memory
        compact, present = colstore._compact_codes(codes, space)
        assert np.array_equal(compact, [1, 0, 1, 2, 0]) and np.array_equal(present, [2, 7, 900])
    empty = np.empty(0, dtype=np.int64)
    for space in (1, 10 ** 12):
        compact, present = colstore._compact_codes(empty, space)
        assert compact.size == present.size == 0 and compact.dtype == present.dtype == np.int64
