"""The kernels of the ring/storage hot loop, behind one dispatch object.

Profiling the IVM paths shows the arithmetic concentrated in a handful of
*kernels*: the segment sum behind every delta grouping, the fused sparse
lift/multiply of a hop, the scalar payload-delta chain of the per-tuple
path, and the multiplicity netting/tombstone compaction of the tuple store.
:mod:`repro.kernels.numpy_backend` implements them as plain functions over
arrays — unit-tested against naive references in ``tests/test_kernels.py`` —
and this package binds them, once, to the attributes of one :class:`Kernels`
object that every call site holds.

Operation order
---------------
Each kernel fixes its floating-point operation sequence: the elementwise
ring products (``multiply_elementwise``, ``multiply_point``,
``multiply_lifted``, the sparse lifts, the scratch ops) perform one rounding
per written element in the order their expressions spell out, the
integer-valued netting/compaction kernels are exact by construction, and
``segment_sum`` reduces each group with ``np.add.reduceat`` over a stable
sort.  A kernel's result is therefore a function of its arguments alone,
which is what the serial == process-pool == recovered bit-identity contracts
rest on: every process runs the same expressions over the same arrays.
Reductions built on pairwise ``sum``/``einsum``/``matmul`` (``total_block``
and the fused ``*_total`` family) live in :mod:`repro.rings.covariance`.

Observability
-------------
Per-kernel invocation and nanosecond counters are **off by default** — the
per-tuple path calls several kernels per microsecond-scale update, and even
a counter bump is measurable there.  ``enable_kernel_stats()`` rebinds every
attribute to a timed wrapper (so the untimed path pays no branch);
``kernel_stats()`` then reports ``{kernel: {"calls", "ns"}}``, which the
maintainers merge into ``executor_stats`` per batch and
``QueryServer.serving_stats()`` surfaces as a block.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Tuple

from repro.kernels import numpy_backend

__all__ = [
    "KERNEL_NAMES",
    "get_kernels",
    "current_backend",
    "kernel_stats",
    "reset_kernel_stats",
    "enable_kernel_stats",
    "kernel_stats_enabled",
]

#: Every kernel of :data:`numpy_backend.KERNELS`, in reporting order.
KERNEL_NAMES: Tuple[str, ...] = (
    "segment_sum",
    "lift_sparse",
    "lift_sparse_unit",
    "multiply_elementwise",
    "multiply_point",
    "multiply_lifted",
    "scratch_reset_lift",
    "scratch_multiply_point",
    "scratch_multiply_dense",
    "net_deltas",
    "compact_keep",
)


class Kernels:
    """The kernel set: one callable attribute per :data:`KERNEL_NAMES`.

    Call sites hold no references to individual kernels — they fetch the
    singleton via :func:`get_kernels` and call attributes on it, so a stats
    toggle rebinding the attributes takes effect everywhere immediately.
    """

    __slots__ = KERNEL_NAMES

    def __init__(self, impls: Dict[str, Callable]) -> None:
        for name in KERNEL_NAMES:
            setattr(self, name, impls[name])


#: name -> [calls, ns]; one entry per kernel.
_counters: Dict[str, list] = {name: [0, 0] for name in KERNEL_NAMES}
_stats_enabled = False
_KERNELS = Kernels(numpy_backend.KERNELS)


def _timed(fn: Callable, counter: list) -> Callable:
    clock = time.perf_counter_ns

    def wrapper(*args):
        started = clock()
        out = fn(*args)
        counter[0] += 1
        counter[1] += clock() - started
        return out

    return wrapper


def current_backend() -> str:
    """The name of the one kernel implementation, as benchmark reports record it."""
    return "numpy"


def get_kernels() -> Kernels:
    """The kernel set (see :class:`Kernels`)."""
    return _KERNELS


def enable_kernel_stats(enabled: bool = True) -> None:
    """Toggle per-kernel call/ns counting (rebinds the kernel attributes)."""
    global _stats_enabled
    if enabled == _stats_enabled:
        return
    _stats_enabled = bool(enabled)
    for name in KERNEL_NAMES:
        fn = numpy_backend.KERNELS[name]
        setattr(_KERNELS, name, _timed(fn, _counters[name]) if enabled else fn)


def kernel_stats_enabled() -> bool:
    return _stats_enabled


def kernel_stats() -> Dict[str, Dict[str, int]]:
    """Counters since the last reset: ``{kernel: {"calls", "ns"}}``.

    All zeros unless :func:`enable_kernel_stats` turned counting on.
    """
    return {
        name: {"calls": counter[0], "ns": counter[1]}
        for name, counter in _counters.items()
    }


def reset_kernel_stats() -> None:
    for counter in _counters.values():
        counter[0] = 0
        counter[1] = 0
