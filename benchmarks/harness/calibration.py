"""A fixed piece of work that tells how fast the machine runs right now.

The container's two CPUs share one core's worth of speed with whatever else
the host runs: for minutes at a time every workload here ran at 0.5 to 0.8
of its usual rate, and ten runs of one commit spread by 17 to 49 % of their
median (README.md, "Machine speed").  :class:`Calibration` is timed before
and after every repetition; the ratio of :data:`REFERENCE_S` to what it took
is the machine's speed during that repetition, 1 when the container is
quiet.  The runner multiplies a repetition's durations by it, so a time is
reported as the quiet container would have taken it.

The work mixes what the program under test spends its time on (building
tuples, probing a dict larger than the caches, NumPy gathers and sums), so
that it slows down as the program does; it touches no code under ``src/``.
"""

from __future__ import annotations

import gc
import random
import time

import numpy as np

#: Seconds :meth:`Calibration.seconds` takes on the quiet 2-CPU container.
REFERENCE_S = 0.0440


class Calibration:
    """Seed-independent data and one pass of fixed work over it."""

    def __init__(self) -> None:
        draw = random.Random(0)
        self._rows = [
            (draw.randrange(60), draw.randrange(200), draw.randrange(800), draw.random())
            for _row in range(150_000)
        ]
        self._slot = {row[:3]: position for position, row in enumerate(self._rows)}
        self._values = np.arange(1_500_000, dtype=np.float64)
        self._order = np.random.default_rng(0).permutation(len(self._values))

    def seconds(self) -> float:
        """How long the fixed work takes now: the fastest of three warm passes.

        The pass after other work runs a quarter slower than the next ones
        (its data has left the caches), so one pass is thrown away first.
        """
        # The collector would scan whatever the program left behind.
        enabled = gc.isenabled()
        gc.disable()
        try:
            self._work()
            return min(self._work(), self._work(), self._work())
        finally:
            if enabled:
                gc.enable()

    def _work(self) -> float:
        started = time.perf_counter()
        keys = [(row[0], row[1], row[2]) for row in self._rows]
        slots = np.fromiter(map(self._slot.get, keys), dtype=np.int64, count=len(keys))
        column = np.array([row[3] for row in self._rows])
        column[slots].sum() + self._values[self._order].sum()
        return time.perf_counter() - started
