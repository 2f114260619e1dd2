"""Shared helpers for the synthetic dataset generators.

Besides the uniform value factory (:class:`SyntheticGenerator`) this module
provides the *adversarial-shape* knobs the benchmark suite uses to stress
sharding and ingest: Zipf-skewed key sampling (:class:`ZipfSampler`,
:meth:`SyntheticGenerator.zipf`) producing heavy-hitter join keys that
deliberately imbalance hash partitions, and :func:`skewed_update_stream`, a
deterministic update-stream generator with controllable skew, fanout and
update mix (insert/delete/dimension-touch ratios) over any populated
database.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["SyntheticGenerator", "ZipfSampler", "skewed_update_stream"]


class ZipfSampler:
    """Draw ranks ``0..count-1`` with probability ∝ ``1 / (rank + 1)^alpha``.

    Inverse-CDF sampling over the precomputed cumulative weights — exact (no
    rejection), deterministic in the supplied ``random.Random``, and O(log n)
    per draw.  ``alpha=0`` degrades to uniform; ``alpha≈1.2`` gives the
    classic heavy-hitter shape where the top rank draws a large constant
    fraction of all samples (the worst case for hash partitioning, since a
    single key can never be split across shards).
    """

    def __init__(self, count: int, alpha: float, rng: random.Random) -> None:
        if count < 1:
            raise ValueError(f"ZipfSampler needs count >= 1, got {count}")
        if alpha < 0:
            raise ValueError(f"ZipfSampler needs alpha >= 0, got {alpha}")
        self.count = count
        self.alpha = float(alpha)
        self.rng = rng
        cumulative: List[float] = []
        total = 0.0
        for rank in range(count):
            total += 1.0 / float(rank + 1) ** self.alpha
            cumulative.append(total)
        self._cumulative = cumulative
        self._total = total

    def sample(self) -> int:
        import bisect

        target = self.rng.random() * self._total
        return bisect.bisect_left(self._cumulative, target)


class SyntheticGenerator:
    """Deterministic pseudo-random value factory for dataset generators."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self._zipf_cache: Dict[Tuple[int, float], ZipfSampler] = {}

    def integer(self, low: int, high: int) -> int:
        return self.rng.randint(low, high)

    def value(self, low: float, high: float, decimals: int = 2) -> float:
        return round(self.rng.uniform(low, high), decimals)

    def gaussian(self, mean: float, std: float, decimals: int = 2) -> float:
        return round(self.rng.gauss(mean, std), decimals)

    def choice(self, options: Sequence):
        return self.rng.choice(options)

    def category(self, prefix: str, count: int) -> str:
        return f"{prefix}{self.rng.randint(0, count - 1)}"

    def sample(self, options: Sequence, count: int) -> List:
        count = min(count, len(options))
        return self.rng.sample(list(options), count)

    def zipf(self, count: int, alpha: float) -> int:
        """A Zipf-distributed rank in ``[0, count)`` (sampler cached per shape)."""
        sampler = self._zipf_cache.get((count, alpha))
        if sampler is None:
            sampler = self._zipf_cache[(count, alpha)] = ZipfSampler(
                count, alpha, self.rng
            )
        return sampler.sample()


def skewed_update_stream(
    database,
    fact_relation: str,
    length: int,
    seed: int = 0,
    key_attributes: Optional[Sequence[str]] = None,
    skew_alpha: float = 0.0,
    fanout: int = 1,
    delete_fraction: float = 0.3,
    dimension_fraction: float = 0.0,
):
    """A deterministic update stream with controllable adversarial shape.

    Draws updates against a *populated* ``database`` (the Figure-4 style
    replay source).  Knobs:

    - ``skew_alpha`` — fact updates pick their ``key_attributes`` values
      (default: the fact relation's first attribute) from a Zipf(alpha)
      distribution over the distinct key values, so a skewed stream hammers
      a few heavy-hitter keys: the shard-imbalance worst case.
    - ``fanout`` — each drawn key emits this many consecutive updates with
      distinct non-key payloads (wide per-key bursts).
    - ``delete_fraction`` — probability an emitted update is a delete of a
      previously emitted row (delete-heavy / cancel-heavy streams; deletes
      re-target earlier inserts so netting has real work to do).
    - ``dimension_fraction`` — fraction of emissions that touch a uniformly
      chosen non-fact relation instead (replicated work under sharding).

    Returns a list of :class:`repro.ivm.base.Update`.
    """
    from repro.ivm.base import Update

    rng = random.Random(seed)
    generator = SyntheticGenerator(seed + 1)
    fact = database.relation(fact_relation)
    key_attributes = tuple(key_attributes or fact.schema.names[:1])
    key_positions = fact.schema.indices_of(key_attributes)
    fact_rows = fact.rows()
    if not fact_rows:
        raise ValueError(f"fact relation {fact_relation!r} is empty")
    # Group the fact rows per distinct key so a Zipf draw over *keys*
    # translates into a row choice carrying that key.
    per_key: Dict[Tuple, List[Tuple]] = {}
    for row in fact_rows:
        key = tuple(row[position] for position in key_positions)
        per_key.setdefault(key, []).append(row)
    keys = sorted(per_key, key=repr)
    dimension_names = [
        relation.name
        for relation in database
        if relation.name != fact_relation and len(relation)
    ]
    dimension_rows = {name: database.relation(name).rows() for name in dimension_names}

    updates: List = []
    emitted_fact: List[Tuple] = []
    emitted_dimension: Dict[str, List[Tuple]] = {name: [] for name in dimension_names}
    while len(updates) < length:
        if dimension_names and rng.random() < dimension_fraction:
            name = rng.choice(dimension_names)
            emitted = emitted_dimension[name]
            if emitted and rng.random() < delete_fraction:
                updates.append(Update(name, rng.choice(emitted), -1))
            else:
                row = rng.choice(dimension_rows[name])
                emitted.append(row)
                updates.append(Update(name, row, 1))
            continue
        key = keys[generator.zipf(len(keys), skew_alpha)]
        rows = per_key[key]
        for _burst in range(max(1, fanout)):
            if len(updates) >= length:
                break
            if emitted_fact and rng.random() < delete_fraction:
                updates.append(Update(fact_relation, rng.choice(emitted_fact), -1))
            else:
                row = rng.choice(rows)
                emitted_fact.append(row)
                updates.append(Update(fact_relation, row, 1))
    return updates
