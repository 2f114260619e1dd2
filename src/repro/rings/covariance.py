"""The covariance ring of Section 5.2.

Elements are triples ``(c, s, Q)`` of a scalar count, an n-vector of sums, and
an n x n matrix of sums of products.  The ring operations are

``(c1,s1,Q1) + (c2,s2,Q2) = (c1+c2, s1+s2, Q1+Q2)``
``(c1,s1,Q1) * (c2,s2,Q2) = (c1*c2, c2*s1 + c1*s2,
                             c2*Q1 + c1*Q2 + s1 s2^T + s2 s1^T)``

with ``0 = (0, 0, 0)`` and ``1 = (1, 0, 0)``.  Evaluating a factorised join in
this ring computes SUM(1), SUM(x_i) and SUM(x_i * x_j) for all feature pairs in
a single pass, sharing all partial results across the batch.

Besides the scalar :class:`CovariancePayload`, the module provides
:class:`CovarianceBlock` — a *stack* of ring elements held as three aligned
numpy arrays (``counts (k,)``, ``sums (k, d)``, ``moments (k, d, d)``) with
the ring operations vectorised over the whole stack.  The batched IVM path
(see :mod:`repro.ivm`) represents the payloads of an entire delta relation as
one block, so a batch of updates is added, multiplied and segment-summed
through the view tree without any per-tuple Python.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.kernels import get_kernels
from repro.rings.base import Ring

#: The kernel-dispatch singleton: `enable_kernel_stats` rebinds its
#: attributes in place, so a module-level binding still sees the toggle
#: while the hot loops skip one function call per kernel invocation.
_KERNELS = get_kernels()


@dataclass
class CovariancePayload:
    """One element of the covariance ring: (count, sums, second moments)."""

    count: float
    sums: np.ndarray
    moments: np.ndarray

    @property
    def dimension(self) -> int:
        return int(self.sums.shape[0])

    def copy(self) -> "CovariancePayload":
        return CovariancePayload(self.count, self.sums.copy(), self.moments.copy())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CovariancePayload):
            return NotImplemented
        return (
            np.isclose(self.count, other.count)
            and np.allclose(self.sums, other.sums)
            and np.allclose(self.moments, other.moments)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CovariancePayload(count={self.count!r}, sums={self.sums.tolist()!r}, "
            f"moments=...)"
        )


class CovarianceRing(Ring):
    """Ring over :class:`CovariancePayload` of a fixed feature dimension."""

    def __init__(self, dimension: int) -> None:
        if dimension < 0:
            raise ValueError("dimension must be non-negative")
        self.dimension = dimension

    # -- identities ------------------------------------------------------------------

    def zero(self) -> CovariancePayload:
        return CovariancePayload(
            0.0,
            np.zeros(self.dimension),
            np.zeros((self.dimension, self.dimension)),
        )

    def one(self) -> CovariancePayload:
        return CovariancePayload(
            1.0,
            np.zeros(self.dimension),
            np.zeros((self.dimension, self.dimension)),
        )

    # -- operations --------------------------------------------------------------------

    def add(self, left: CovariancePayload, right: CovariancePayload) -> CovariancePayload:
        return CovariancePayload(
            left.count + right.count,
            left.sums + right.sums,
            left.moments + right.moments,
        )

    def multiply(self, left: CovariancePayload, right: CovariancePayload) -> CovariancePayload:
        outer = np.outer(left.sums, right.sums)
        return CovariancePayload(
            left.count * right.count,
            right.count * left.sums + left.count * right.sums,
            right.count * left.moments
            + left.count * right.moments
            + outer
            + outer.T,
        )

    def negate(self, element: CovariancePayload) -> CovariancePayload:
        return CovariancePayload(-element.count, -element.sums, -element.moments)

    def equal(self, left: CovariancePayload, right: CovariancePayload) -> bool:
        return (
            np.isclose(left.count, right.count)
            and np.allclose(left.sums, right.sums)
            and np.allclose(left.moments, right.moments)
        )

    # -- lifting ------------------------------------------------------------------------

    def lift(self, feature_index: int, value: float) -> CovariancePayload:
        """Lift a single continuous feature value into the ring.

        The lifted element represents one tuple contributing ``value`` to
        feature ``feature_index``: count 1, ``s[feature_index] = value`` and
        ``Q[feature_index, feature_index] = value**2``.
        """
        if not 0 <= feature_index < self.dimension:
            raise IndexError(
                f"feature index {feature_index} out of range for dimension {self.dimension}"
            )
        sums = np.zeros(self.dimension)
        moments = np.zeros((self.dimension, self.dimension))
        sums[feature_index] = value
        moments[feature_index, feature_index] = value * value
        return CovariancePayload(1.0, sums, moments)


class PayloadScratch:
    """Reusable ``(count, sums, moments)`` buffers for the per-tuple delta kernel.

    The seed's per-tuple F-IVM path built 4-6 :class:`CovariancePayload`
    objects per update (one lift, one scale, one ring product per child),
    each allocating fresh ``d``/``(d, d)`` arrays whose cost is pure
    dispatch overhead at realistic dimensions.  The scratch fuses the whole
    chain — ``scale(lift(row), m) * payload_1 * ... * payload_k`` — into
    in-place updates of one preallocated buffer pair; the products run in
    :meth:`~repro.ivm.payload_store.PayloadStore.multiply_scratch`, with
    support-aware fast paths for count-only and single-feature operands.
    One scratch per maintainer; the per-tuple path is single-threaded by
    construction.
    """

    __slots__ = ("count", "sums", "moments", "_view")

    def __init__(self, dimension: int) -> None:
        self.count = 0.0
        self.sums = np.zeros(dimension)
        self.moments = np.zeros((dimension, dimension))
        self._view: Optional["CovarianceBlock"] = None

    def __reduce__(self):
        # A workspace, not state: pickling carries the dimension only.  (A
        # copied ``_view`` would stop aliasing the buffers it is a view of.)
        return (PayloadScratch, (self.sums.shape[0],))

    def reset_lift(self, multiplicity: float, pairs) -> None:
        """Load ``scale(lift(row), multiplicity)``; ``pairs`` lists the
        ``(feature position, value)`` entries of the row's designated
        features (all other coordinates are zero)."""
        self.count = multiplicity
        _KERNELS.scratch_reset_lift(self.sums, self.moments, multiplicity, pairs)

    def scale_by(self, factor: float) -> None:
        """Ring product with a count-only payload ``(factor, 0, 0)``."""
        self.count *= factor
        self.sums *= factor
        self.moments *= factor

    def block_view(self) -> "CovarianceBlock":
        """A one-row block *aliasing* the scratch buffers — no allocation.

        For the per-tuple hot path: one persistent view per scratch, its
        arrays shared with the live buffers.  Only valid until the next
        scratch mutation, and the consumer must not write through it — the
        propagation hop only reads its input block (every derived block is
        freshly gathered), which is exactly the contract this fast path
        relies on.
        """
        view = self._view
        if view is None:
            view = self._view = CovarianceBlock(
                np.empty(1), self.sums[None, :], self.moments[None, :, :]
            )
        view.counts[0] = self.count
        return view


class CovarianceBlock:
    """A stack of ``k`` covariance-ring elements as three aligned arrays.

    ``counts`` has shape ``(k,)``, ``sums`` shape ``(k, d)`` and ``moments``
    shape ``(k, d, d)``.  All ring operations act elementwise over the stack,
    so a whole delta relation's payloads move through one numpy expression
    instead of ``k`` :class:`CovariancePayload` objects.
    """

    __slots__ = ("counts", "sums", "moments")

    def __init__(self, counts: np.ndarray, sums: np.ndarray, moments: np.ndarray) -> None:
        self.counts = counts
        self.sums = sums
        self.moments = moments

    def __len__(self) -> int:
        return int(self.counts.shape[0])

    @property
    def dimension(self) -> int:
        return int(self.sums.shape[1])

    # -- constructors --------------------------------------------------------------------

    @staticmethod
    def zeros(size: int, dimension: int) -> "CovarianceBlock":
        return CovarianceBlock(
            np.zeros(size),
            np.zeros((size, dimension)),
            np.zeros((size, dimension, dimension)),
        )

    @staticmethod
    def lift(
        features: np.ndarray,
        multiplicities: Optional[np.ndarray] = None,
        positions: Optional[Sequence[int]] = None,
    ) -> "CovarianceBlock":
        """Lift a ``(k, d)`` feature matrix row-wise into the ring.

        Row ``i`` becomes ``multiplicities[i] * (1, features[i],
        features[i] features[i]^T)`` — the payload of one tuple carrying those
        feature values, pre-scaled by its multiplicity.

        ``positions`` (when given) lists the only columns of ``features``
        that are nonzero — one relation's lift touches only its designated
        features — letting the quadratic part fill the few nonzero moment
        entries directly instead of running a dense ``(k, d, d)`` outer
        product.  The dense einsum wins back when the designated set
        approaches the full dimension, or when the stack is tiny and the
        sparse path's ``d_local^2`` small operations cost more than one
        fused outer product.
        """
        features = np.asarray(features, dtype=np.float64)
        dimension = features.shape[1]
        sparse = (
            positions is not None
            and len(positions) * len(positions) <= max(dimension, 1)
            and (len(positions) == 1 or features.shape[0] >= 32)
        )
        if sparse:
            if multiplicities is None:
                return CovarianceBlock(
                    *_KERNELS.lift_sparse_unit(features, positions)
                )
            weights = np.asarray(multiplicities, dtype=np.float64)
            return CovarianceBlock(
                *_KERNELS.lift_sparse(features, weights, positions)
            )
        moments = np.einsum("ki,kj->kij", features, features)
        if multiplicities is None:
            return CovarianceBlock(np.ones(features.shape[0]), features, moments)
        weights = np.asarray(multiplicities, dtype=np.float64)
        return CovarianceBlock(
            weights.copy(),
            features * weights[:, None],
            moments * weights[:, None, None],
        )

    # -- elementwise ring operations -----------------------------------------------------

    def add(self, other: "CovarianceBlock") -> "CovarianceBlock":
        return CovarianceBlock(
            self.counts + other.counts,
            self.sums + other.sums,
            self.moments + other.moments,
        )

    def multiply(self, other: "CovarianceBlock") -> "CovarianceBlock":
        """Elementwise ring product: row ``i`` is ``self[i] * other[i]``."""
        return CovarianceBlock(
            *_KERNELS.multiply_elementwise(
                self.counts,
                self.sums,
                self.moments,
                other.counts,
                other.sums,
                other.moments,
            )
        )

    def multiply_point(
        self,
        counts: np.ndarray,
        sums_at: np.ndarray,
        moments_at: np.ndarray,
        position: int,
    ) -> "CovarianceBlock":
        """Ring product with payloads supported on a *single* feature.

        ``(counts, sums_at, moments_at)`` are the other operand's count
        column, its sums at ``position`` and its moments at ``(position,
        position)`` — all other entries are zero (a view whose subtree
        designates one feature has exactly this shape).  The dense product's
        outer products then collapse to one column/row update with plain
        (basic-index) slicing, and the caller can gather three thin arrays
        instead of a full ``(k, d, d)`` stack.
        """
        return CovarianceBlock(
            *_KERNELS.multiply_point(
                self.counts,
                self.sums,
                self.moments,
                counts,
                sums_at,
                moments_at,
                position,
            )
        )

    def multiply_total(self, other: "CovarianceBlock") -> "CovarianceBlock":
        """``segment-sum-to-one`` of the elementwise product, fused.

        The terminal step of a delta collapsing onto a single connection key
        (the root's empty key) is ``multiply(other).total_block()``; fusing
        the two turns every term of the ring product into a dot-product
        reduction, so no ``(k, d, d)`` intermediate is ever materialised —
        2-4x faster than the materialising pair for the hot hop sizes.
        """
        cross = self.sums.T @ other.sums
        return CovarianceBlock(
            np.asarray([self.counts @ other.counts]),
            (self.sums.T @ other.counts + other.sums.T @ self.counts)[None, :],
            (
                np.einsum("k,kij->ij", other.counts, self.moments)
                + np.einsum("k,kij->ij", self.counts, other.moments)
                + cross
                + cross.T
            )[None, :, :],
        )

    def multiply_point_total(
        self,
        counts: np.ndarray,
        sums_at: np.ndarray,
        moments_at: np.ndarray,
        position: int,
    ) -> "CovarianceBlock":
        """:meth:`multiply_point` fused with :meth:`total_block`.

        Same single-feature-support operand shape as :meth:`multiply_point`,
        reduced to one output row with dot products.
        """
        out_sums = self.sums.T @ counts
        out_sums[position] += self.counts @ sums_at
        out_moments = np.einsum("k,kij->ij", counts, self.moments)
        cross = self.sums.T @ sums_at
        out_moments[:, position] += cross
        out_moments[position, :] += cross
        out_moments[position, position] += self.counts @ moments_at
        return CovarianceBlock(
            np.asarray([self.counts @ counts]),
            out_sums[None, :],
            out_moments[None, :, :],
        )

    def scale_total(self, factors: np.ndarray) -> "CovarianceBlock":
        """:meth:`scale` fused with :meth:`total_block` (count-only operand)."""
        factors = np.asarray(factors, dtype=np.float64)
        return CovarianceBlock(
            np.asarray([self.counts @ factors]),
            (self.sums.T @ factors)[None, :],
            np.einsum("k,kij->ij", factors, self.moments)[None, :, :],
        )

    def multiply_lifted(
        self,
        features: np.ndarray,
        multiplicities: np.ndarray,
        positions: Sequence[int],
    ) -> "CovarianceBlock":
        """Fused ``self[i] * scale(lift(features[i]), multiplicities[i])``.

        ``features`` is ``(k, d)`` but nonzero only in the columns listed in
        ``positions`` — the lift of one relation touches only its designated
        features — so the outer products of the general :meth:`multiply`
        collapse to a handful of row/column updates instead of a full
        ``(k, d, d)`` einsum.
        """
        weights = np.asarray(multiplicities, dtype=np.float64)
        return CovarianceBlock(
            *_KERNELS.multiply_lifted(
                self.counts, self.sums, self.moments, features, weights, positions
            )
        )

    def scale(self, factors: np.ndarray) -> "CovarianceBlock":
        factors = np.asarray(factors, dtype=np.float64)
        return CovarianceBlock(
            self.counts * factors,
            self.sums * factors[:, None],
            self.moments * factors[:, None, None],
        )

    def take(self, indices: np.ndarray) -> "CovarianceBlock":
        """Gather a sub-stack by row indices."""
        return CovarianceBlock(
            self.counts[indices], self.sums[indices], self.moments[indices]
        )

    @staticmethod
    def concatenate(blocks: Sequence["CovarianceBlock"]) -> "CovarianceBlock":
        """Stack several blocks into one (rows in argument order).

        The fused multi-delta pass merges the contributions arriving at a
        join-tree node by concatenating their blocks and segment-summing over
        the combined key coding; keeping the rows in argument order keeps the
        floating-point reduction order deterministic.
        """
        if len(blocks) == 1:
            return blocks[0]
        return CovarianceBlock(
            np.concatenate([block.counts for block in blocks]),
            np.concatenate([block.sums for block in blocks]),
            np.concatenate([block.moments for block in blocks]),
        )

    # -- aggregation ---------------------------------------------------------------------

    def segment_sum(self, codes: np.ndarray, size: int) -> "CovarianceBlock":
        """Sum the stack rows into ``size`` groups given by ``codes``.

        Dispatches to the :mod:`repro.kernels` segment sum (stable sort +
        ``np.add.reduceat``).  A single target group (the root's empty
        connection key, the hottest case of the fused delta pass) collapses
        to three plain column sums instead.
        """
        if size == 1:
            return self.total_block()
        return CovarianceBlock(
            *_KERNELS.segment_sum(
                self.counts, self.sums, self.moments, codes, size
            )
        )

    def total_block(self) -> "CovarianceBlock":
        """The ring sum of every row, as a one-row block.

        Equivalent to ``segment_sum(zeros, 1)`` without materialising the
        code array — the shape of every delta collapsing onto a single
        connection key (the root's empty key).
        """
        return CovarianceBlock(
            self.counts.sum(keepdims=True),
            self.sums.sum(axis=0, keepdims=True),
            self.moments.sum(axis=0, keepdims=True),
        )

    def payload_at(self, index: int) -> CovariancePayload:
        return CovariancePayload(
            float(self.counts[index]),
            self.sums[index].copy(),
            self.moments[index].copy(),
        )
