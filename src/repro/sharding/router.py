"""Deterministic hash partitioning of the fact table across shards.

The router implements the placement rule of the sharded maintainer
(:mod:`repro.sharding.maintainer`): the **fact relation** is hash-partitioned
on a configurable subset of its join attributes (the *shard key*), and every
other relation — the dimension tables — is **replicated** to all shards.
Because the covariance query is linear in the fact relation, the shards'
base databases form a disjoint decomposition of the fact multiset joined
against identical dimension copies, and the full query answer is the ring
sum of the per-shard answers (see :mod:`repro.sharding.merge`).

Hashing must be deterministic *across processes and runs*: Python's builtin
``hash`` is salted per process (``PYTHONHASHSEED``), so routing with it would
send the same key to different shards in the parent and in a pool worker.
:func:`stable_hash` therefore derives a 64-bit value from two seeded CRC-32
passes over a canonical text form of the value, with bool/float values that
compare equal to an int canonicalised to that int first — the same
equivalence the dictionary encodings use — so a key routes alike in every
process, whichever of its equal forms a row carries.
"""

from __future__ import annotations

import zlib
from typing import Iterable, List, Sequence, Tuple

__all__ = ["ShardRouter", "stable_hash"]

#: 64-bit fold constants (splitmix-style multiplier, pi-derived initialiser).
_MULT = 0x9E3779B97F4A7C15
_INIT = 0x243F6A8885A308D3
_MASK = 0xFFFFFFFFFFFFFFFF


def stable_hash(value: object) -> int:
    """A process-stable 64-bit hash of one key value.

    Values that are equal under Python's ``==`` (and therefore share a
    dictionary code in :class:`~repro.data.tuplestore.TupleStore`) must hash
    alike, so ``True``/``1``/``1.0`` canonicalise to the int ``1`` before the
    text form is taken.
    """
    if isinstance(value, bool):
        value = int(value)
    elif isinstance(value, float) and value.is_integer():
        value = int(value)
    data = repr(value).encode("utf-8", "backslashreplace")
    low = zlib.crc32(data)
    high = zlib.crc32(data, 0x9E3779B9)
    return ((high << 32) | low) & _MASK


def _fold(hashes: Iterable[int]) -> int:
    """Order-sensitive combination of per-attribute hashes into one key hash."""
    combined = _INIT
    for value in hashes:
        combined = ((combined ^ value) * _MULT) & _MASK
    return combined


class ShardRouter:
    """Routes netted delta groups to shards by shard key.

    ``key_attributes`` name the shard-key columns of ``fact_relation`` (in
    that relation's schema); rows of the fact relation route to
    ``stable_hash``-fold-of-key ``mod shard_count``, all other relations
    replicate.  Routing is a pure function of the key values — independent of
    batch composition, row order, process, and run.
    """

    def __init__(
        self,
        shard_count: int,
        fact_relation: str,
        key_attributes: Sequence[str],
        key_positions: Sequence[int],
    ) -> None:
        if shard_count < 1:
            raise ValueError(f"shard_count must be >= 1, got {shard_count}")
        if not key_attributes:
            raise ValueError("ShardRouter needs at least one key attribute")
        if len(key_attributes) != len(key_positions):
            raise ValueError("key_attributes and key_positions disagree in length")
        self.shard_count = int(shard_count)
        self.fact_relation = fact_relation
        self.key_attributes = tuple(key_attributes)
        self.key_positions = tuple(int(p) for p in key_positions)
        #: key tuple -> shard, memoised: routing is a pure function of the
        #: key, and the per-row hot path sees the same join keys over and
        #: over (the cache is bounded by the number of *distinct* shard-key
        #: values, the size of the key's dictionary encoding).
        self._key_shard_cache: dict = {}

    def __repr__(self) -> str:
        return (
            f"ShardRouter({self.shard_count} shards, fact={self.fact_relation!r}, "
            f"key={list(self.key_attributes)})"
        )

    # -- per-row routing ---------------------------------------------------------------

    def key_of(self, row: Tuple) -> Tuple:
        return tuple(row[position] for position in self.key_positions)

    def shard_of_key(self, key: Tuple) -> int:
        shard = self._key_shard_cache.get(key)
        if shard is None:
            shard = self._key_shard_cache[key] = (
                _fold(stable_hash(value) for value in key) % self.shard_count
            )
        return shard

    def shard_of_row(self, row: Tuple) -> int:
        return self.shard_of_key(self.key_of(row))

    # -- group routing (the per-batch hot path) ----------------------------------------

    def route_groups(
        self, groups: Sequence[Tuple[str, Sequence[Tuple], Sequence[int]]]
    ) -> List[List[Tuple[str, Sequence[Tuple], Sequence[int]]]]:
        """Fan netted per-relation groups out to one group list per shard.

        Fact groups split by shard key (row order preserved within each
        shard); dimension groups are appended to every shard's list **by
        reference** — consumers never mutate group contents, and the
        process-pool executor pickles each shard's list independently anyway.
        Relative relation order within each shard matches the input order.
        """
        per_shard: List[List[Tuple[str, Sequence[Tuple], Sequence[int]]]] = [
            [] for _ in range(self.shard_count)
        ]
        for group in groups:
            name, rows, netted = group
            if name != self.fact_relation or self.shard_count == 1:
                for shard_groups in per_shard:
                    shard_groups.append(group)
                continue
            split_rows: List[List[Tuple]] = [[] for _ in range(self.shard_count)]
            split_netted: List[List[int]] = [[] for _ in range(self.shard_count)]
            shard_of_row = self.shard_of_row
            for row, multiplicity in zip(rows, netted):
                shard = shard_of_row(row)
                split_rows[shard].append(row)
                split_netted[shard].append(multiplicity)
            for shard in range(self.shard_count):
                if split_rows[shard]:
                    per_shard[shard].append((name, split_rows[shard], split_netted[shard]))
        return per_shard
