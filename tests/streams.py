"""Shared seeded generators for randomized insert/delete streams.

One home for the cancel-heavy stream machinery that the batched-IVM, fused-
IVM, tuple-store and serving-concurrency suites all exercise.  Everything is
driven by an explicit seed through ``random.Random`` — the same call with the
same arguments reproduces the same stream, which the differential suites rely
on (concurrent schedule and serial replay must consume identical updates).
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from repro.ivm import Update

__all__ = [
    "random_update_stream",
    "random_row_events",
    "random_event_batches",
    "facts_first_batches",
]


def random_update_stream(
    database,
    seed: int,
    length: int,
    delete_fraction: float = 0.3,
    cancel_fraction: float = 0.2,
) -> List[Update]:
    """A multi-relation stream of inserts and deletes with cancelling pairs.

    Rows are drawn from ``database``'s relations; ``delete_fraction`` removes
    a previously inserted row, and ``cancel_fraction`` follows an insert with
    its immediate delete — inside one batch such a pair nets out to nothing,
    which is exactly the adversarial case for netting/compaction machinery.
    """
    rng = random.Random(seed)
    rows_per_relation = {
        relation.name: list(relation) for relation in database
    }
    updates = []
    inserted = {name: [] for name in rows_per_relation}
    for _ in range(length):
        name = rng.choice(list(rows_per_relation))
        if inserted[name] and rng.random() < delete_fraction:
            row = rng.choice(inserted[name])
            updates.append(Update(name, row, -1))
            inserted[name].remove(row)
        else:
            row = rng.choice(rows_per_relation[name])
            updates.append(Update(name, row, 1))
            inserted[name].append(row)
            if rng.random() < cancel_fraction:
                # An insert/delete pair of the same row inside the stream:
                # inside one batch it nets out to nothing.
                updates.append(Update(name, row, -1))
                inserted[name].remove(row)
    return updates


def random_row_events(
    seed: int,
    length: int = 600,
    universe_size: int = 12,
    keys: int = 6,
    values: int = 4,
    multiplicities: Sequence[int] = (1, 1, 1, -1, -1, 2, -2),
) -> List[Tuple[Tuple, int]]:
    """A cancel-heavy single-relation event stream of ``(row, multiplicity)``.

    Rows come from a small ``(f"k{i}", j)`` universe so the same row is hit
    repeatedly and multiplicities net out (and through zero) often.
    """
    rng = random.Random(seed)
    universe = [
        (f"k{index % keys}", index % values) for index in range(universe_size)
    ]
    events: List[Tuple[Tuple, int]] = []
    for _step in range(length):
        row = rng.choice(universe)
        multiplicity = rng.choice(multiplicities)
        events.append((row, multiplicity))
    return events


def random_event_batches(
    seed: int,
    batches: int = 40,
    max_size: int = 25,
    universe_size: int = 20,
    keys: int = 5,
    values: int = 7,
    multiplicities: Sequence[int] = (1, 1, -1, 2),
) -> List[Tuple[List[Tuple], List[int]]]:
    """Batched single-relation events: a list of ``(rows, multiplicities)``."""
    rng = random.Random(seed)
    universe = [
        (f"k{index % keys}", index % values) for index in range(universe_size)
    ]
    out: List[Tuple[List[Tuple], List[int]]] = []
    for _batch in range(batches):
        size = rng.randint(1, max_size)
        rows = [rng.choice(universe) for _ in range(size)]
        batch_multiplicities = [rng.choice(multiplicities) for _ in range(size)]
        out.append((rows, batch_multiplicities))
    return out


def facts_first_batches(
    database,
    fact: str,
    seed: int,
    fact_batch: int = 50,
    trickle: int = 3,
) -> List[List[Update]]:
    """Every fact row before any dimension row, then the dimensions trickling in.

    The adversarial order for an insert path that resolves fact keys against
    dimension views: every fact row first misses all of them, and each later
    batch of ``trickle`` shuffled dimension rows resolves a few of the
    outstanding misses.
    """
    rng = random.Random(seed)
    facts = [Update(fact, row, m) for row, m in database.relation(fact).items()]
    dimensions = [
        Update(relation.name, row, m)
        for relation in database
        if relation.name != fact
        for row, m in relation.items()
    ]
    rng.shuffle(facts)
    rng.shuffle(dimensions)
    return [
        updates[start : start + size]
        for updates, size in ((facts, fact_batch), (dimensions, trickle))
        for start in range(0, len(updates), size)
    ]
