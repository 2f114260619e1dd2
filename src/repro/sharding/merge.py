"""Combine per-shard root payloads into the global covariance statistics.

The covariance ring is a commutative monoid under :meth:`CovarianceRing.add`,
so the merge is one ring sum over the shards' root payloads.  Rather than a
Python reduction of :class:`CovariancePayload` objects, the payloads are
stacked into one block and reduced through the ``segment_sum`` kernel (all
rows in segment 0) — the same kernel the view tree uses for group-bys, so
the merge inherits kernel-stats accounting for free.

Determinism: the stack order is shard order, and ``segment_sum`` reduces a
segment with a single ``np.add.reduceat`` over that order, so the merged
result is a pure function of the per-shard payloads.  Serial and process-pool
execution therefore merge **bit-identically**; against an *unsharded*
maintainer the association of float additions differs, which is exactly the
documented float-tolerance contract (see ``docs/architecture.md``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.kernels import get_kernels
from repro.rings.covariance import CovariancePayload, CovarianceRing

#: The kernel-dispatch singleton (attributes rebound in place by the stats toggle).
_KERNELS = get_kernels()

__all__ = ["merge_payloads"]


def merge_payloads(
    payloads: Sequence[CovariancePayload], ring: CovarianceRing
) -> CovariancePayload:
    """Ring-sum per-shard payloads (shard order) into one payload."""
    if not payloads:
        return ring.zero()
    if len(payloads) == 1:
        return payloads[0].copy()
    counts = np.array([payload.count for payload in payloads], dtype=np.float64)
    sums = np.stack([np.asarray(payload.sums, dtype=np.float64) for payload in payloads])
    moments = np.stack(
        [np.asarray(payload.moments, dtype=np.float64) for payload in payloads]
    )
    codes = np.zeros(len(payloads), dtype=np.int64)
    out_counts, out_sums, out_moments = _KERNELS.segment_sum(
        counts, sums, moments, codes, 1
    )
    return CovariancePayload(float(out_counts[0]), out_sums[0], out_moments[0])
