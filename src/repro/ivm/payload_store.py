"""Columnar payload views for the IVM layer.

A :class:`PayloadStore` is the columnar replacement for the seed's
``Dict[Tuple, CovariancePayload]`` view: the join keys live in a dictionary
mapping each key tuple to a *slot*, and the payloads of all slots are held as
one stacked :class:`~repro.rings.covariance.CovarianceBlock` (count/sums/
quadratic arrays with amortised-doubling capacity).  The batched delta path
gathers and scatters whole :class:`CovarianceBlock`\\ s by slot arrays; the
per-tuple path reads and writes single slots through the same storage, so
both code paths maintain one state.

Keys are never evicted when their payload cancels to zero — exactly the
behaviour of the seed's dict views, whose entries also lingered at zero — so
the store size is bounded by the number of distinct join keys ever seen.

What a pickle (a checkpoint, a maintainer shipped to a shard worker) carries
is the state alone: ``dimension``, ``support``, the keys in slot order and
their payload rows.  The key -> slot dictionary and the doubling capacity are
rebuilt on load, into arrays the restored store owns.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.kernels import get_kernels
from repro.rings.covariance import CovarianceBlock, CovariancePayload

#: The kernel-dispatch singleton: `enable_kernel_stats` rebinds its
#: attributes in place, so a module-level binding still sees the toggle
#: while the hot loops skip one function call per kernel invocation.
_KERNELS = get_kernels()


__all__ = ["PayloadStore"]


class PayloadStore:
    """Key-coded covariance payloads: one slot per join key, stacked arrays."""

    __slots__ = ("dimension", "_slots", "_keys", "counts", "sums", "moments",
                 "support")

    def __init__(self, dimension: int, capacity: int = 8) -> None:
        self.dimension = dimension
        self._slots: Dict[Tuple, int] = {}
        self._keys: List[Tuple] = []
        capacity = max(int(capacity), 1)
        self.counts = np.zeros(capacity)
        self.sums = np.zeros((capacity, dimension))
        self.moments = np.zeros((capacity, dimension, dimension))
        #: Feature positions this store's payloads can be nonzero at, when
        #: the owner knows them (a view's payloads only involve the features
        #: designated inside its subtree).  None means unknown/dense; ring
        #: consumers use small supports to skip dense outer products.
        self.support: Optional[Tuple[int, ...]] = None

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: Tuple) -> bool:
        return key in self._slots

    def __getstate__(self) -> Dict:
        used = len(self._keys)
        return {"dimension": self.dimension, "support": self.support,
                "_keys": self._keys, "counts": self.counts[:used],
                "sums": self.sums[:used], "moments": self.moments[:used]}

    def __setstate__(self, state: Dict) -> None:
        keys = state["_keys"]
        self.__init__(state["dimension"], capacity=len(keys))
        self.support = state["support"]
        self._keys = keys
        self._slots = {key: slot for slot, key in enumerate(keys)}
        for name in ("counts", "sums", "moments"):
            getattr(self, name)[: len(keys)] = state[name]

    def keys(self, start: int = 0) -> List[Tuple]:
        """The keys in slot order, from slot ``start`` on (a copy)."""
        return self._keys[start:]

    # -- capacity ------------------------------------------------------------------------

    def _grow_to(self, size: int) -> None:
        capacity = self.counts.shape[0]
        if size <= capacity:
            return
        while capacity < size:
            capacity *= 2
        counts = np.zeros(capacity)
        sums = np.zeros((capacity, self.dimension))
        moments = np.zeros((capacity, self.dimension, self.dimension))
        used = self.counts.shape[0]
        counts[:used] = self.counts
        sums[:used] = self.sums
        moments[:used] = self.moments
        self.counts, self.sums, self.moments = counts, sums, moments

    # -- slot resolution -----------------------------------------------------------------

    def slot_of(self, key: Tuple, create: bool = False) -> int:
        """The slot of ``key`` (-1 when absent and ``create`` is off)."""
        slot = self._slots.get(key)
        if slot is None:
            if not create:
                return -1
            slot = len(self._keys)
            self._slots[key] = slot
            self._keys.append(key)
            self._grow_to(slot + 1)
        return slot

    def slots_for(self, keys: Sequence[Tuple], create: bool = False) -> np.ndarray:
        """Slot per key (-1 for misses), probing the key dictionary once each."""
        get = self._slots.get
        if not create:
            # A list comprehension beats fromiter-over-generator here (no
            # generator frame per probe), and this is the hot join probe.
            return np.array([get(key, -1) for key in keys], dtype=np.int64)
        return np.array(
            [self.slot_of(key, create=True) for key in keys], dtype=np.int64
        )

    # -- per-tuple access (the single-update path) ---------------------------------------

    def get(self, key: Tuple) -> Optional[CovariancePayload]:
        slot = self._slots.get(key)
        if slot is None:
            return None
        return CovariancePayload(
            float(self.counts[slot]), self.sums[slot].copy(), self.moments[slot].copy()
        )

    def peek(self, key: Tuple) -> Optional[CovariancePayload]:
        """Like :meth:`get` but aliasing the store's arrays (no copies).

        For transient use as a ring-operation operand only — the arrays are
        the live storage and later slot updates write through them.
        """
        slot = self._slots.get(key)
        if slot is None:
            return None
        return CovariancePayload(
            float(self.counts[slot]), self.sums[slot], self.moments[slot]
        )

    def add(self, key: Tuple, payload: CovariancePayload) -> None:
        slot = self.slot_of(key, create=True)
        self.counts[slot] += payload.count
        self.sums[slot] += payload.sums
        self.moments[slot] += payload.moments

    # -- block access (the batched path) -------------------------------------------------

    def gather(self, slots: np.ndarray) -> CovarianceBlock:
        """The payload stack at the given slots (all must be valid)."""
        return CovarianceBlock(
            self.counts[slots], self.sums[slots], self.moments[slots]
        )

    def gather_point(
        self, slots: np.ndarray, position: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Counts, sums and squared moments at one feature position.

        For single-feature-support stores (see :attr:`support`): three thin
        columns describe the payloads completely, so consumers gather
        ``O(k)`` floats instead of a full ``(k, d, d)`` stack and multiply
        through :meth:`~repro.rings.covariance.CovarianceBlock.multiply_point`.
        """
        return (
            self.counts[slots],
            self.sums[slots, position],
            self.moments[slots, position, position],
        )

    def multiply_into(self, block: CovarianceBlock, slots: np.ndarray) -> CovarianceBlock:
        """``block[i] * payload(slots[i])``, exploiting a known small support."""
        support = self.support
        if support is not None and len(support) == 0:
            # Count-only payloads: the ring product collapses to a scale.
            return block.scale(self.counts[slots])
        if support is not None and len(support) == 1:
            position = support[0]
            return block.multiply_point(*self.gather_point(slots, position), position)
        return block.multiply(self.gather(slots))

    def multiply_into_total(
        self, block: CovarianceBlock, slots: np.ndarray
    ) -> CovarianceBlock:
        """:meth:`multiply_into` fused with a sum-to-one-row reduction.

        The terminal multiply of a delta collapsing onto a single connection
        key; dispatches to the fused dot-product kernels so no ``(k, d, d)``
        intermediate is materialised.
        """
        support = self.support
        if support is not None and len(support) == 0:
            return block.scale_total(self.counts[slots])
        if support is not None and len(support) == 1:
            position = support[0]
            return block.multiply_point_total(
                *self.gather_point(slots, position), position
            )
        return block.multiply_total(self.gather(slots))

    def multiply_scratch(self, scratch, slot: int) -> None:
        """``scratch *= payload(slot)`` in place, exploiting a known support.

        The per-tuple counterpart of :meth:`multiply_into`; ``scratch`` is a
        :class:`~repro.rings.covariance.PayloadScratch`.  Calls the scratch
        kernels of :mod:`repro.kernels` directly (no method hop) — this is
        the hottest per-update chain.
        """
        support = self.support
        if support is not None and len(support) == 0:
            scratch.scale_by(self.counts[slot])
            return
        if support is not None and len(support) == 1:
            position = support[0]
            scratch.count = _KERNELS.scratch_multiply_point(
                scratch.count,
                scratch.sums,
                scratch.moments,
                self.counts[slot],
                self.sums[slot, position],
                self.moments[slot, position, position],
                position,
            )
            return
        scratch.count = _KERNELS.scratch_multiply_dense(
            scratch.count,
            scratch.sums,
            scratch.moments,
            self.counts[slot],
            self.sums[slot],
            self.moments[slot],
        )

    def add_scratch(self, key: Tuple, scratch) -> None:
        """Add a scratch payload into one slot (creating the key if new)."""
        slot = self.slot_of(key, create=True)
        self.counts[slot] += scratch.count
        self.sums[slot] += scratch.sums
        self.moments[slot] += scratch.moments

    def scatter_add(self, keys: Sequence[Tuple], block: CovarianceBlock) -> np.ndarray:
        """Add one block row per (distinct) key; returns the slot array used."""
        if len(keys) == 1:
            # The root's single empty key is the hottest scatter: basic
            # indexing beats a one-element fancy-index add.
            slot = self.slot_of(keys[0], create=True)
            self.counts[slot] += block.counts[0]
            self.sums[slot] += block.sums[0]
            self.moments[slot] += block.moments[0]
            return np.array([slot], dtype=np.int64)
        slots = self.slots_for(keys, create=True)
        self.counts[slots] += block.counts
        self.sums[slots] += block.sums
        self.moments[slots] += block.moments
        return slots
