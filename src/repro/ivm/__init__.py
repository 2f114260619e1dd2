"""Incremental view maintenance (Figure 4, right).

:class:`FIVM` — factorised IVM — maintains the covariance matrix of a
feature-extraction join under tuple inserts and deletes: one view tree whose
payloads live in the covariance ring, so a single propagation along a
leaf-to-root path maintains the entire aggregate batch.

:class:`CovarianceMaintainer` is the update contract it implements:
:meth:`~CovarianceMaintainer.apply` takes one signed tuple, and
:meth:`~CovarianceMaintainer.apply_batch` treats a batch as a delta relation
— multiplicities are netted per tuple, the batch is grouped per relation,
and all groups go through one fused leaf-to-root pass over the columnar
machinery (:class:`~repro.ivm.payload_store.PayloadStore` views,
:class:`~repro.rings.covariance.CovarianceBlock` ring blocks).  Batches
netting to a single row take the per-tuple path.

The strategies the paper compares F-IVM against (first-order and
higher-order delta processing) are experiments, not modes of the system:
they live beside the figure that measures them, in
``benchmarks/figure4_strategies.py``.
"""

from repro.ivm.base import Update, CovarianceMaintainer
from repro.ivm.fivm import FIVM
from repro.ivm.payload_store import PayloadStore

__all__ = [
    "Update",
    "CovarianceMaintainer",
    "FIVM",
    "PayloadStore",
]
