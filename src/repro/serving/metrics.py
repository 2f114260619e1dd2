"""Serving-layer metrics: read latency, reads-per-epoch, snapshot age, writer lag.

All recording goes through one lock — readers record from pool threads while
the writer records batch lag from the serving thread, so the same counter
races the :class:`~repro.data.tuplestore.StatsCounters` fix guards against
would otherwise reappear here.  Retention is bounded (deques, and read counts
for the most recent ``window`` generations) so a long-lived server does not
grow without bound; percentiles and per-generation read counts therefore
describe the most recent window, while the totals count everything.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Dict, List, Optional

__all__ = ["ServingStats", "percentile"]


def percentile(samples: List[float], fraction: float) -> float:
    """Nearest-rank percentile of ``samples`` (0 for an empty window)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, int(round(fraction * (len(ordered) - 1)))))
    return ordered[rank]


class ServingStats:
    """Thread-safe accumulator behind ``QueryServer.serving_stats()``."""

    def __init__(self, window: int = 4096) -> None:
        self._lock = threading.Lock()
        self._read_latencies = deque(maxlen=window)
        self._snapshot_ages = deque(maxlen=window)
        self._writer_lags = deque(maxlen=window)
        self._journal_lags = deque(maxlen=window)
        self._window = window
        # generation -> reads, in first-read order; the oldest leaves past `window`
        self._reads_per_generation: Dict[int, int] = {}
        self._generations_read = 0
        self._reads = 0
        self._writes = 0
        self._tuples_written = 0
        self._read_errors = 0
        self._quarantined = 0
        self._journal_bytes = 0
        self._checkpoints = 0
        self._checkpoint_last_seconds = 0.0
        self._checkpoint_last_bytes = 0

    # -- recording ---------------------------------------------------------------------

    def record_read(self, generation: int, latency_s: float, snapshot_age_s: float) -> None:
        with self._lock:
            self._reads += 1
            self._read_latencies.append(latency_s)
            self._snapshot_ages.append(snapshot_age_s)
            counts = self._reads_per_generation
            if generation in counts:
                counts[generation] += 1
                return
            counts[generation] = 1
            self._generations_read += 1
            if len(counts) > self._window:
                del counts[next(iter(counts))]

    def record_write(self, batch_lag_s: float, tuples: int) -> None:
        with self._lock:
            self._writes += 1
            self._writer_lags.append(batch_lag_s)
            self._tuples_written += tuples

    def record_read_error(self) -> None:
        """A reader raised; its snapshot pin was released in the finally."""
        with self._lock:
            self._read_errors += 1

    def record_quarantine(self) -> None:
        """A poison batch was rolled back and voided in the journal."""
        with self._lock:
            self._quarantined += 1

    def record_journal_append(self, lag_s: float, bytes_written: int) -> None:
        """One write-ahead journal append: time spent and bytes added."""
        with self._lock:
            self._journal_lags.append(lag_s)
            self._journal_bytes += bytes_written

    def record_checkpoint(self, seconds: float, size_bytes: int) -> None:
        with self._lock:
            self._checkpoints += 1
            self._checkpoint_last_seconds = seconds
            self._checkpoint_last_bytes = size_bytes

    # -- reporting ---------------------------------------------------------------------

    def snapshot(self, active_generations: Optional[int] = None) -> Dict[str, object]:
        """The ``serving_stats`` block: recent-window percentiles + totals."""
        with self._lock:
            latencies = list(self._read_latencies)
            ages = list(self._snapshot_ages)
            lags = list(self._writer_lags)
            journal_lags = list(self._journal_lags)
            per_generation = list(self._reads_per_generation.values())
            generations_read = self._generations_read
            reads = self._reads
            writes = self._writes
            tuples_written = self._tuples_written
            read_errors = self._read_errors
            quarantined = self._quarantined
            journal_bytes = self._journal_bytes
            checkpoints = self._checkpoints
            checkpoint_last_seconds = self._checkpoint_last_seconds
            checkpoint_last_bytes = self._checkpoint_last_bytes
        block: Dict[str, object] = {
            "reads": reads,
            "writes": writes,
            "tuples_written": tuples_written,
            "read_errors": read_errors,
            "quarantined_batches": quarantined,
            "journal_append_p50_s": percentile(journal_lags, 0.50),
            "journal_append_p99_s": percentile(journal_lags, 0.99),
            "journal_bytes_written": journal_bytes,
            "checkpoints_written": checkpoints,
            "checkpoint_last_write_s": checkpoint_last_seconds,
            "checkpoint_last_size_bytes": checkpoint_last_bytes,
            "read_latency_p50_s": percentile(latencies, 0.50),
            "read_latency_p99_s": percentile(latencies, 0.99),
            "snapshot_age_p50_s": percentile(ages, 0.50),
            "snapshot_age_max_s": max(ages) if ages else 0.0,
            "writer_batch_lag_p50_s": percentile(lags, 0.50),
            "writer_batch_lag_p99_s": percentile(lags, 0.99),
            "generations_read": generations_read,
            "reads_per_epoch_mean": (
                sum(per_generation) / len(per_generation) if per_generation else 0.0
            ),
            "reads_per_epoch_max": max(per_generation) if per_generation else 0,
        }
        if active_generations is not None:
            block["active_generations"] = active_generations
        return block
