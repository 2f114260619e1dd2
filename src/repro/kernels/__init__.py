"""Pluggable compiled-kernel backends for the ring/storage hot loop.

Profiling the IVM paths (PR 4/5 and the batch-1 profile in
``docs/benchmarks.md``) shows the remaining wall-clock concentrated in a
handful of *kernels*: the segment sum behind every delta grouping, the fused
sparse lift/multiply of a hop, the scalar payload-delta chain of the
per-tuple path, and the multiplicity netting/tombstone compaction of the
tuple store.  This package exposes exactly those primitives behind one
dispatch object so they can be swapped as a set:

- the **numpy** backend (:mod:`repro.kernels.numpy_backend`) is the
  always-available fallback — the exact array expressions the call sites
  inlined before PR 8, now importable and unit-testable in isolation;
- the **numba** backend (:mod:`repro.kernels.numba_backend`) JIT-compiles
  the same primitives with ``@njit(cache=True)`` behind a *guarded import*:
  when numba is absent the backend simply reports unavailable and selection
  falls back to numpy.  A backend may override any subset of kernels; the
  rest are served by numpy.

Selection
---------
``set_backend(name)`` with ``"numpy"``, ``"numba"`` or ``"auto"`` (numba if
importable, else numpy).  The initial backend comes from the
``REPRO_KERNEL_BACKEND`` environment variable (default ``"auto"``).  The
active backend is process-global — kernels are pure functions over arrays,
so the only per-backend state is which function object is bound.

Determinism contract
--------------------
Backends must be *bit-identical* for every kernel whose floating-point
operation sequence is pinned by the contract: the elementwise ring products
(``multiply_elementwise``, ``multiply_point``, ``multiply_lifted``, the
sparse lifts, the scratch ops) perform one rounding per written element in a
specified order, and the integer-valued netting/compaction kernels are exact
by construction.  ``segment_sum`` is the one kernel whose *reduction
association* is backend-defined (numpy uses ``np.add.reduceat``'s pairwise
blocking, numba accumulates sequentially in stable-sort order); both orders
are deterministic per backend, and on inputs whose sums are exactly
representable (the cross-backend equivalence suites use dyadic feature
values) every backend must agree bitwise.  Kernels built on pairwise
``sum``/``einsum``/``matmul`` reductions (``total_block`` and the fused
``*_total`` family) are deliberately *not* in the registry: they stay on the
shared numpy implementations in :mod:`repro.rings.covariance` so their
rounding never varies across backends.

Observability
-------------
Per-kernel invocation and nanosecond counters are **off by default** — the
per-tuple path calls several kernels per microsecond-scale update, and even
a counter bump is measurable there.  ``enable_kernel_stats()`` (or
``REPRO_KERNEL_STATS=1``) rebinds every kernel to a timed wrapper;
``kernel_stats()`` then reports ``{kernel: {"calls", "ns"}}``, which the
maintainers merge into ``executor_stats`` per batch and
``QueryServer.serving_stats()`` surfaces as a block.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, Tuple

__all__ = [
    "KERNEL_NAMES",
    "Kernels",
    "get_kernels",
    "set_backend",
    "current_backend",
    "available_backends",
    "kernel_stats",
    "reset_kernel_stats",
    "enable_kernel_stats",
    "kernel_stats_enabled",
]

#: Every kernel a backend may provide (the numpy backend provides all).
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
    """The active kernel set: one callable attribute per :data:`KERNEL_NAMES`.

    Call sites hold no references to individual kernels — they fetch the
    singleton via :func:`get_kernels` and call attributes on it, so a
    backend switch (or a stats toggle) rebinding the attributes takes
    effect everywhere immediately.
    """

    __slots__ = ("backend",) + KERNEL_NAMES

    def __init__(self, backend: str, impls: Dict[str, Callable]) -> None:
        self.backend = backend
        for name in KERNEL_NAMES:
            setattr(self, name, impls[name])


#: name -> [calls, ns]; one entry per kernel, reused across backend switches.
_counters: Dict[str, list] = {name: [0, 0] for name in KERNEL_NAMES}
_stats_enabled = False
_raw_impls: Dict[str, Callable] = {}


def _timed(fn: Callable, counter: list) -> Callable:
    clock = time.perf_counter_ns

    def wrapper(*args):
        started = clock()
        out = fn(*args)
        counter[0] += 1
        counter[1] += clock() - started
        return out

    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    return wrapper


def _resolve(name: str) -> Tuple[str, Dict[str, Callable]]:
    """Resolve a backend name to ``(resolved_name, kernel dict)``."""
    from repro.kernels import numpy_backend

    impls = dict(numpy_backend.KERNELS)
    if name == "auto":
        name = "numba" if _numba_available() else "numpy"
    if name == "numpy":
        return "numpy", impls
    if name == "numba":
        from repro.kernels import numba_backend

        overrides = numba_backend.load()
        if overrides is None:
            raise RuntimeError(
                "kernel backend 'numba' requested but numba is not importable; "
                "use 'auto' to fall back to numpy"
            )
        impls.update(overrides)
        return "numba", impls
    raise ValueError(
        f"unknown kernel backend {name!r}; expected 'numpy', 'numba' or 'auto'"
    )


def _numba_available() -> bool:
    from repro.kernels import numba_backend

    return numba_backend.available()


def available_backends() -> Tuple[str, ...]:
    """The backends importable in this process (numpy always is)."""
    return ("numpy", "numba") if _numba_available() else ("numpy",)


def _install(name: str, impls: Dict[str, Callable]) -> None:
    global _raw_impls
    _raw_impls = impls
    _ACTIVE.backend = name
    for kernel_name in KERNEL_NAMES:
        fn = impls[kernel_name]
        if _stats_enabled:
            fn = _timed(fn, _counters[kernel_name])
        setattr(_ACTIVE, kernel_name, fn)


def set_backend(name: str) -> str:
    """Select the active backend; returns the resolved backend name."""
    resolved, impls = _resolve(name)
    if resolved != _ACTIVE.backend:
        _install(resolved, impls)
    return resolved


def current_backend() -> str:
    return _ACTIVE.backend


def get_kernels() -> Kernels:
    """The active kernel set (see :class:`Kernels`)."""
    return _ACTIVE


def enable_kernel_stats(enabled: bool = True) -> None:
    """Toggle per-kernel call/ns counting (rebinds the kernel attributes)."""
    global _stats_enabled
    if enabled == _stats_enabled:
        return
    _stats_enabled = bool(enabled)
    _install(_ACTIVE.backend, _raw_impls)


def kernel_stats_enabled() -> bool:
    return _stats_enabled


def kernel_stats() -> Dict[str, Dict[str, int]]:
    """Counters since the last reset: ``{kernel: {"calls", "ns"}}``.

    All zeros unless :func:`enable_kernel_stats` (or the
    ``REPRO_KERNEL_STATS=1`` environment variable) turned counting on.
    """
    return {
        name: {"calls": counter[0], "ns": counter[1]}
        for name, counter in _counters.items()
    }


def reset_kernel_stats() -> None:
    for counter in _counters.values():
        counter[0] = 0
        counter[1] = 0


# Module initialisation: honour the environment, fall back safely.  An
# invalid REPRO_KERNEL_BACKEND value must not make `import repro` unusable,
# so it degrades to auto-detection (the error still raises on an explicit
# set_backend call).
_initial_name, _initial_impls = _resolve("auto")
_ACTIVE = Kernels(_initial_name, _initial_impls)
_raw_impls = _initial_impls
if os.environ.get("REPRO_KERNEL_STATS", "") not in ("", "0"):
    enable_kernel_stats(True)
_env_backend = os.environ.get("REPRO_KERNEL_BACKEND", "auto")
if _env_backend != "auto":
    try:
        set_backend(_env_backend)
    except (RuntimeError, ValueError):
        pass
