"""The benchmark's one command.

``run.py --workload W --seed N --seconds S --trace 0|1`` runs one workload
in this process and ends with one JSON line: the end-to-end metrics of
``BENCHMARK.json`` (``--trace 0``) or its per-layer metrics (``--trace 1``).
Without ``--workload`` it runs all four, each in a child process with a
traced repetition, prints every metric and writes ``<out>/report.json``.
"""

import os
import sys
import time
from pathlib import Path

if __name__ == "__main__":
    started = time.perf_counter()
    harness = Path(__file__).resolve().parent
    # One BLAS/OMP thread, set before numpy loads; the program under test
    # and the harness package importable whatever the working directory.
    for library in ("OMP", "OPENBLAS", "MKL", "NUMEXPR"):
        os.environ[f"{library}_NUM_THREADS"] = "1"
    sys.path[:0] = [str(harness.parent), str(harness.parents[1] / "src")]
    from harness.runner import main

    sys.exit(main(started=started))
