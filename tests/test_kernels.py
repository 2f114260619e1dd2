"""The kernel layer: units, the dispatch object, stats.

Three layers of coverage for :mod:`repro.kernels`:

- every kernel against a *naive* dense reference (plain per-row ring algebra
  with no sparsity or fusion tricks), called through ``get_kernels()`` the
  way the maintainers call it;
- the dispatch object: one attribute per kernel name, each one the plain
  function of :mod:`repro.kernels.numpy_backend` again once counting is off;
- the observability path: ``enable_kernel_stats`` counters flowing into
  ``executor_stats`` and ``QueryServer.serving_stats()``.
"""

import math

import numpy as np
import pytest

from repro import kernels
from repro.data import Database, Relation, Schema
from repro.ivm import FIVM
from repro.kernels import numpy_backend
from repro.query import ConjunctiveQuery
from repro.serving import QueryServer
from streams import random_update_stream

DIMENSION = 6
ROWS = 40
SEGMENTS = 7
POSITIONS = [1, 3, 4]


@pytest.fixture
def restore_stats():
    """Undo any process-global stats changes a test makes."""
    stats_were_on = kernels.kernel_stats_enabled()
    yield
    kernels.enable_kernel_stats(stats_were_on)
    kernels.reset_kernel_stats()


@pytest.fixture(params=["numpy"])
def active(request):
    """The kernel set, as the call sites get it.

    The one id keeps the names these tests have had since the kernels were
    extracted (``test_..._matches_naive[numpy]``).
    """
    assert kernels.current_backend() == request.param
    return kernels.get_kernels()


# -- input builders ---------------------------------------------------------------------


def _dyadic(rng, shape, denominator=8.0, span=32):
    """Arrays of dyadic rationals: sums and small products stay exact."""
    return rng.integers(-span, span + 1, size=shape).astype(np.float64) / denominator


def _stacks(seed=11):
    rng = np.random.default_rng(seed)
    counts = rng.integers(1, 5, size=ROWS).astype(np.float64)
    sums = _dyadic(rng, (ROWS, DIMENSION))
    moments = _dyadic(rng, (ROWS, DIMENSION, DIMENSION))
    counts2 = rng.integers(1, 5, size=ROWS).astype(np.float64)
    sums2 = _dyadic(rng, (ROWS, DIMENSION))
    moments2 = _dyadic(rng, (ROWS, DIMENSION, DIMENSION))
    return counts, sums, moments, counts2, sums2, moments2


def _sparse_features(rng):
    features = np.zeros((ROWS, DIMENSION))
    for position in POSITIONS:
        features[:, position] = _dyadic(rng, ROWS)
    return features


# -- naive references -------------------------------------------------------------------


def _naive_multiply_row(a, b):
    """The textbook covariance-ring product of two payloads (one row)."""
    c1, s1, m1 = a
    c2, s2, m2 = b
    return (
        c1 * c2,
        c2 * s1 + c1 * s2,
        c2 * m1 + c1 * m2 + np.outer(s1, s2) + np.outer(s2, s1),
    )


def _naive_lift_row(features_row, weight):
    return (
        weight,
        weight * features_row,
        weight * np.outer(features_row, features_row),
    )


def _naive_segment_sum(counts, sums, moments, codes, size):
    out_counts = np.zeros(size)
    out_sums = np.zeros((size, sums.shape[1]))
    out_moments = np.zeros((size, sums.shape[1], sums.shape[1]))
    for row in range(counts.shape[0]):
        group = codes[row]
        out_counts[group] += counts[row]
        out_sums[group] += sums[row]
        out_moments[group] += moments[row]
    return out_counts, out_sums, out_moments


def _assert_stacks_close(actual, expected):
    for got, want in zip(actual, expected):
        assert np.allclose(got, want)


# -- per-kernel units against the naive references --------------------------------------


def test_segment_sum_matches_naive(active):
    rng = np.random.default_rng(3)
    counts, sums, moments = _stacks()[0:3]
    codes = rng.integers(0, SEGMENTS, size=ROWS)
    result = active.segment_sum(counts, sums, moments, codes, SEGMENTS)
    _assert_stacks_close(result, _naive_segment_sum(counts, sums, moments, codes, SEGMENTS))


def test_segment_sum_empty_input(active):
    out_counts, out_sums, out_moments = active.segment_sum(
        np.zeros(0), np.zeros((0, DIMENSION)), np.zeros((0, DIMENSION, DIMENSION)),
        np.zeros(0, dtype=np.int64), SEGMENTS,
    )
    assert out_counts.shape == (SEGMENTS,)
    assert not out_counts.any() and not out_sums.any() and not out_moments.any()


def test_lift_sparse_matches_naive(active):
    rng = np.random.default_rng(5)
    features = _sparse_features(rng)
    weights = rng.integers(1, 4, size=ROWS).astype(np.float64)
    counts, sums, moments = active.lift_sparse(features, weights, POSITIONS)
    for row in range(ROWS):
        want = _naive_lift_row(features[row], weights[row])
        _assert_stacks_close((counts[row], sums[row], moments[row]), want)


def test_lift_sparse_unit_matches_naive(active):
    rng = np.random.default_rng(7)
    features = _sparse_features(rng)
    counts, sums, moments = active.lift_sparse_unit(features, POSITIONS)
    for row in range(ROWS):
        want = _naive_lift_row(features[row], 1.0)
        _assert_stacks_close((counts[row], sums[row], moments[row]), want)


def test_multiply_elementwise_matches_naive(active):
    counts, sums, moments, counts2, sums2, moments2 = _stacks()
    result = active.multiply_elementwise(counts, sums, moments, counts2, sums2, moments2)
    for row in range(ROWS):
        want = _naive_multiply_row(
            (counts[row], sums[row], moments[row]),
            (counts2[row], sums2[row], moments2[row]),
        )
        _assert_stacks_close(
            (result[0][row], result[1][row], result[2][row]), want
        )


def test_multiply_point_matches_naive(active):
    rng = np.random.default_rng(9)
    counts, sums, moments, counts2 = _stacks()[0:4]
    sums_at = _dyadic(rng, ROWS)
    moments_at = _dyadic(rng, ROWS)
    position = 2
    result = active.multiply_point(
        counts, sums, moments, counts2, sums_at, moments_at, position
    )
    for row in range(ROWS):
        dense_sums = np.zeros(DIMENSION)
        dense_sums[position] = sums_at[row]
        dense_moments = np.zeros((DIMENSION, DIMENSION))
        dense_moments[position, position] = moments_at[row]
        want = _naive_multiply_row(
            (counts[row], sums[row], moments[row]),
            (counts2[row], dense_sums, dense_moments),
        )
        _assert_stacks_close((result[0][row], result[1][row], result[2][row]), want)


def test_multiply_lifted_matches_naive(active):
    rng = np.random.default_rng(13)
    counts, sums, moments = _stacks()[0:3]
    features = _sparse_features(rng)
    weights = rng.integers(1, 4, size=ROWS).astype(np.float64)
    result = active.multiply_lifted(counts, sums, moments, features, weights, POSITIONS)
    for row in range(ROWS):
        want = _naive_multiply_row(
            (counts[row], sums[row], moments[row]),
            _naive_lift_row(features[row], weights[row]),
        )
        _assert_stacks_close((result[0][row], result[1][row], result[2][row]), want)


def test_scratch_reset_lift_matches_naive(active):
    sums = np.full(DIMENSION, 99.0)
    moments = np.full((DIMENSION, DIMENSION), 99.0)
    pairs = [(1, 0.5), (3, -2.25), (4, 1.75)]
    multiplicity = -2.0
    active.scratch_reset_lift(sums, moments, multiplicity, pairs)
    dense = np.zeros(DIMENSION)
    for position, value in pairs:
        dense[position] = value
    want = _naive_lift_row(dense, multiplicity)
    assert np.allclose(sums, want[1])
    assert np.allclose(moments, want[2])


def test_scratch_multiply_point_matches_naive(active):
    rng = np.random.default_rng(17)
    sums = _dyadic(rng, DIMENSION)
    moments = _dyadic(rng, (DIMENSION, DIMENSION))
    count, count2, sum_at, moment_at, position = 3.0, 2.0, 1.25, 0.5, 3
    dense_sums = np.zeros(DIMENSION)
    dense_sums[position] = sum_at
    dense_moments = np.zeros((DIMENSION, DIMENSION))
    dense_moments[position, position] = moment_at
    want = _naive_multiply_row(
        (count, sums.copy(), moments.copy()), (count2, dense_sums, dense_moments)
    )
    out_count = active.scratch_multiply_point(
        count, sums, moments, count2, sum_at, moment_at, position
    )
    assert out_count == want[0]
    assert np.allclose(sums, want[1])
    assert np.allclose(moments, want[2])


def test_scratch_multiply_dense_matches_naive(active):
    rng = np.random.default_rng(19)
    sums = _dyadic(rng, DIMENSION)
    moments = _dyadic(rng, (DIMENSION, DIMENSION))
    sums2 = _dyadic(rng, DIMENSION)
    moments2 = _dyadic(rng, (DIMENSION, DIMENSION))
    count, count2 = 3.0, -2.0
    want = _naive_multiply_row(
        (count, sums.copy(), moments.copy()), (count2, sums2, moments2)
    )
    out_count = active.scratch_multiply_dense(count, sums, moments, count2, sums2, moments2)
    assert out_count == want[0]
    assert np.allclose(sums, want[1])
    assert np.allclose(moments, want[2])


def test_net_deltas_matches_reference(active):
    mults = np.array([0.0, 2.0, -1.0, 0.0, 3.0, 1.0])
    # Repeated slots in one call, nets through zero both ways.
    slots = np.array([0, 1, 1, 2, 4, 0, 5], dtype=np.int64)
    deltas = np.array([1.0, -2.0, 1.0, 1.0, -3.0, -1.0, 2.0])
    expected = mults.copy()
    for slot, delta in zip(slots, deltas):
        expected[slot] += delta
    live_before = int((mults != 0.0).sum())
    live_after = int((expected != 0.0).sum())
    live_delta, zeros_delta, total_delta = active.net_deltas(mults, slots, deltas)
    assert np.array_equal(mults, expected)
    assert live_delta == live_after - live_before
    assert zeros_delta == -live_delta
    assert math.isclose(total_delta, float(deltas.sum()))


def test_net_deltas_single_slot(active):
    mults = np.array([1.0, -1.0])
    live_delta, zeros_delta, total_delta = active.net_deltas(
        mults, np.array([1], dtype=np.int64), np.array([1.0])
    )
    assert np.array_equal(mults, np.array([1.0, 0.0]))
    assert (live_delta, zeros_delta, total_delta) == (-1, 1, 1.0)


def test_compact_keep_matches_reference(active):
    mults = np.array([0.0, 2.0, 0.0, -1.0, 0.0, 5.0])
    kept = active.compact_keep(mults)
    assert np.array_equal(np.asarray(kept), np.array([1, 3, 5]))
    assert active.compact_keep(np.zeros(4)).shape == (0,)


# -- the dispatch object ----------------------------------------------------------------


def test_registry_serves_every_kernel(active):
    assert sorted(numpy_backend.KERNELS) == sorted(kernels.KERNEL_NAMES)
    for name in kernels.KERNEL_NAMES:
        assert callable(getattr(active, name))


def test_stats_toggle_restores_the_plain_functions(restore_stats):
    """Counting rebinds the attributes; turning it off leaves no wrapper behind."""
    active = kernels.get_kernels()
    kernels.enable_kernel_stats(True)
    assert all(
        getattr(active, name) is not numpy_backend.KERNELS[name]
        for name in kernels.KERNEL_NAMES
    )
    kernels.enable_kernel_stats(False)
    assert kernels.get_kernels() is active
    for name in kernels.KERNEL_NAMES:
        assert getattr(active, name) is numpy_backend.KERNELS[name]


# -- observability ----------------------------------------------------------------------


FEATURES = ["m", "x", "y"]


def _dyadic_star_database(seed=17, fact_rows=90, keys=6):
    """The F/D1/D2 star with dyadic feature values (exact ring arithmetic)."""
    rng = np.random.default_rng(seed)

    def dyadic_scalar():
        return float(rng.integers(-32, 33)) / 8.0

    fact_rows_list = [
        (int(rng.integers(keys)), int(rng.integers(keys)), dyadic_scalar())
        for _ in range(fact_rows)
    ]
    database = Database(
        [
            Relation(
                "F",
                Schema.from_names(["k1", "k2", "m"], ["k1", "k2"]),
                rows=fact_rows_list,
            ),
            Relation(
                "D1",
                Schema.from_names(["k1", "x"], ["k1"]),
                rows=[(key, dyadic_scalar()) for key in range(keys)],
            ),
            Relation(
                "D2",
                Schema.from_names(["k2", "y"], ["k2"]),
                rows=[(key, dyadic_scalar()) for key in range(keys)],
            ),
        ]
    )
    return database, ConjunctiveQuery(["F", "D1", "D2"])


def test_kernel_stats_flow_into_executor_and_serving_stats(restore_stats):
    database, query = _dyadic_star_database()
    maintainer = FIVM(database, query, FEATURES)
    stream = random_update_stream(database, seed=3, length=40)
    kernels.enable_kernel_stats(True)
    kernels.reset_kernel_stats()

    maintainer.apply_batch(stream[:30])
    stats = maintainer.executor_stats
    call_keys = [
        key for key in stats if key.startswith("kernel_") and key.endswith("_calls")
    ]
    assert call_keys, "apply_batch should fold kernel counters into executor_stats"
    assert all(stats[key] > 0 for key in call_keys)
    for key in call_keys:
        assert stats[key.replace("_calls", "_ns")] > 0

    # The per-tuple path drives the scalar scratch kernels.
    kernels.reset_kernel_stats()
    maintainer.apply(stream[30])
    counters = kernels.kernel_stats()
    assert counters["scratch_reset_lift"]["calls"] > 0

    server = QueryServer(maintainer, readers=1)
    try:
        server.apply_batch(stream[31:40])
        block = server.serving_stats()
        assert block["kernel_backend"] == "numpy"
        assert block["kernel_stats"], "serving_stats should surface non-zero counters"
        for counter in block["kernel_stats"].values():
            assert counter["calls"] > 0
    finally:
        server.close()


def test_kernel_stats_disabled_by_default_and_resettable(restore_stats):
    kernels.enable_kernel_stats(False)
    kernels.reset_kernel_stats()
    active = kernels.get_kernels()
    active.compact_keep(np.array([1.0, 0.0]))
    assert all(
        counter["calls"] == 0 for counter in kernels.kernel_stats().values()
    ), "counters must not tick while stats are disabled"
    kernels.enable_kernel_stats(True)
    active = kernels.get_kernels()
    active.compact_keep(np.array([1.0, 0.0]))
    assert kernels.kernel_stats()["compact_keep"]["calls"] == 1
    kernels.reset_kernel_stats()
    assert kernels.kernel_stats()["compact_keep"]["calls"] == 0
