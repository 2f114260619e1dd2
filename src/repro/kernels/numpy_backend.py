"""The kernels, as plain numpy functions.

These are the array expressions of the hot call sites
(:mod:`repro.rings.covariance`, :mod:`repro.ivm.payload_store`,
:mod:`repro.data.tuplestore`), kept as free functions so they can be
unit-tested against naive references in isolation.  Every function is pure
over its array arguments except where the docstring says "in place".

Floating-point contract: see the package docstring — the elementwise
kernels perform one rounding per written element in the order spelled out
by the expressions below; ``segment_sum`` reduces with
``np.add.reduceat``'s (deterministic) blocked association.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

__all__ = ["KERNELS"]


def segment_sum(
    counts: np.ndarray,
    sums: np.ndarray,
    moments: np.ndarray,
    codes: np.ndarray,
    size: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sum the ``k`` stacked ring elements into ``size`` groups by ``codes``.

    Rows are stable-sorted by group code once, then each segment reduces
    with ``np.add.reduceat`` — no per-row Python, and much faster than
    ``np.add.at`` for wide payloads.
    """
    dimension = sums.shape[1]
    out_counts = np.zeros(size)
    out_sums = np.zeros((size, dimension))
    out_moments = np.zeros((size, dimension, dimension))
    if counts.shape[0] == 0:
        return out_counts, out_sums, out_moments
    order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    boundaries = np.concatenate(
        ([0], np.nonzero(sorted_codes[1:] != sorted_codes[:-1])[0] + 1)
    )
    groups = sorted_codes[boundaries]
    out_counts[groups] = np.add.reduceat(counts[order], boundaries)
    out_sums[groups] = np.add.reduceat(sums[order], boundaries, axis=0)
    out_moments[groups] = np.add.reduceat(moments[order], boundaries, axis=0)
    return out_counts, out_sums, out_moments


def lift_sparse(
    features: np.ndarray,
    weights: np.ndarray,
    positions: Sequence[int],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise ring lift scaled by ``weights``, sparse in ``positions``.

    ``features`` is ``(k, d)`` but nonzero only in the listed columns, so
    the quadratic part fills the few nonzero moment entries directly
    instead of a dense ``(k, d, d)`` outer product.
    """
    dimension = features.shape[1]
    moments = np.zeros((features.shape[0], dimension, dimension))
    for row in positions:
        lifted = weights * features[:, row]
        for column in positions:
            moments[:, row, column] = lifted * features[:, column]
    return weights.copy(), features * weights[:, None], moments


def lift_sparse_unit(
    features: np.ndarray, positions: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`lift_sparse` with unit weights (counts are all ones)."""
    dimension = features.shape[1]
    moments = np.zeros((features.shape[0], dimension, dimension))
    for row in positions:
        lifted = features[:, row]
        for column in positions:
            moments[:, row, column] = lifted * features[:, column]
    return np.ones(features.shape[0]), features, moments


def multiply_elementwise(
    counts1: np.ndarray,
    sums1: np.ndarray,
    moments1: np.ndarray,
    counts2: np.ndarray,
    sums2: np.ndarray,
    moments2: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Elementwise ring product of two stacks: row ``i`` is ``a[i] * b[i]``."""
    outer = np.einsum("ki,kj->kij", sums1, sums2)
    return (
        counts1 * counts2,
        counts2[:, None] * sums1 + counts1[:, None] * sums2,
        counts2[:, None, None] * moments1
        + counts1[:, None, None] * moments2
        + outer
        + outer.transpose(0, 2, 1),
    )


def multiply_point(
    counts1: np.ndarray,
    sums1: np.ndarray,
    moments1: np.ndarray,
    counts2: np.ndarray,
    sums_at: np.ndarray,
    moments_at: np.ndarray,
    position: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ring product with payloads supported on a *single* feature.

    ``(counts2, sums_at, moments_at)`` are the other operand's count
    column, its sums at ``position`` and its moments at ``(position,
    position)`` — all other entries are zero, so the dense product's outer
    products collapse to one column/row update.
    """
    out_counts = counts1 * counts2
    out_sums = sums1 * counts2[:, None]
    out_sums[:, position] += counts1 * sums_at
    out_moments = moments1 * counts2[:, None, None]
    cross = sums1 * sums_at[:, None]
    out_moments[:, :, position] += cross
    out_moments[:, position, :] += cross
    out_moments[:, position, position] += counts1 * moments_at
    return out_counts, out_sums, out_moments


def multiply_lifted(
    counts1: np.ndarray,
    sums1: np.ndarray,
    moments1: np.ndarray,
    features: np.ndarray,
    weights: np.ndarray,
    positions: Sequence[int],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fused ``a[i] * scale(lift(features[i]), weights[i])``.

    ``features`` is nonzero only in ``positions``, so the outer products of
    the general product collapse to a handful of row/column updates.
    """
    counts = counts1 * weights
    sums = sums1 * weights[:, None]
    moments = moments1 * weights[:, None, None]
    for row in positions:
        lifted = weights * features[:, row]
        sums[:, row] += counts1 * lifted
        moments[:, :, row] += sums1 * lifted[:, None]
        moments[:, row, :] += sums1 * lifted[:, None]
        for column in positions:
            moments[:, row, column] += counts1 * lifted * features[:, column]
    return counts, sums, moments


def scratch_reset_lift(
    sums: np.ndarray,
    moments: np.ndarray,
    multiplicity: float,
    pairs: Sequence[Tuple[int, float]],
) -> None:
    """Load ``scale(lift(row), multiplicity)`` into scalar scratch buffers.

    In place: ``pairs`` lists the ``(feature position, value)`` entries of
    the row's designated features; every other coordinate becomes zero.
    """
    sums.fill(0.0)
    moments.fill(0.0)
    for position, value in pairs:
        sums[position] = multiplicity * value
    for row_position, row_value in pairs:
        row = moments[row_position]
        weighted = multiplicity * row_value
        for column_position, column_value in pairs:
            row[column_position] = weighted * column_value


def scratch_multiply_point(
    count: float,
    sums: np.ndarray,
    moments: np.ndarray,
    count2: float,
    sum_at: float,
    moment_at: float,
    position: int,
) -> float:
    """Scalar ring product with a single-feature payload; returns the count.

    In place over ``sums``/``moments`` (the per-tuple delta chain's hot op).
    """
    moments *= count2
    cross = sums * sum_at
    moments[:, position] += cross
    moments[position, :] += cross
    moments[position, position] += count * moment_at
    sums *= count2
    sums[position] += count * sum_at
    return count * count2


def scratch_multiply_dense(
    count: float,
    sums: np.ndarray,
    moments: np.ndarray,
    count2: float,
    sums2: np.ndarray,
    moments2: np.ndarray,
) -> float:
    """Scalar general ring product in place; returns the new count.

    The operand arrays are read-only and may alias live view storage.
    """
    moments *= count2
    moments += count * moments2
    cross = np.outer(sums, sums2)
    moments += cross
    moments += cross.T
    sums *= count2
    sums += count * sums2
    return count * count2


def net_deltas(
    mults: np.ndarray, slots: np.ndarray, deltas: np.ndarray
) -> Tuple[int, int, float]:
    """Net signed deltas into existing multiplicity slots, in place.

    Returns ``(live_delta, zeros_delta, total_delta)`` — the change in the
    live-row count, tombstone count and multiplicity total.  Slots may
    repeat within one call; multiplicities are integer-valued floats, so
    the grouped summation is exact regardless of association.
    """
    if slots.shape[0] == 1:
        slot = slots[0]
        before = mults[slot]
        after = before + deltas[0]
        mults[slot] = after
        live_delta = int(after != 0.0) - int(before != 0.0)
        return live_delta, -live_delta, float(deltas[0])
    unique, inverse = np.unique(slots, return_inverse=True)
    if unique.shape[0] == slots.shape[0]:
        per_slot = deltas
    else:
        per_slot = np.bincount(inverse, weights=deltas)
        slots = unique
    before = mults[slots]
    after = before + per_slot
    mults[slots] = after
    live_delta = int((after != 0.0).sum()) - int((before != 0.0).sum())
    return live_delta, -live_delta, float(deltas.sum())


def compact_keep(mults: np.ndarray) -> np.ndarray:
    """The slots surviving a tombstone sweep (non-zero multiplicity)."""
    return np.nonzero(mults != 0.0)[0]


KERNELS = {
    "segment_sum": segment_sum,
    "lift_sparse": lift_sparse,
    "lift_sparse_unit": lift_sparse_unit,
    "multiply_elementwise": multiply_elementwise,
    "multiply_point": multiply_point,
    "multiply_lifted": multiply_lifted,
    "scratch_reset_lift": scratch_reset_lift,
    "scratch_multiply_point": scratch_multiply_point,
    "scratch_multiply_dense": scratch_multiply_dense,
    "net_deltas": net_deltas,
    "compact_keep": compact_keep,
}
