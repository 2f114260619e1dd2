"""Which ``src/repro`` functions do the benchmarks, figures and examples reach?

Run from anywhere (it finds ``src/`` and ``benchmarks/`` from its own path)::

    python tools/reachability.py

A ``sys.setprofile`` hook (``threading.setprofile`` for the serving layer's
threads) records every Python function called, in this process, while it runs

- the four benchmark-harness workloads at a twentieth of full size, traced
  (``benchmarks/harness/run.py --workload W --seconds 1 --trace 1``, called
  through ``harness.runner.main``; nothing under ``benchmarks/harness/`` is
  edited),
- the eight paper-figure scripts (``benchmarks/bench_*.py``, one pytest
  run with ``--benchmark-disable``),
- the seven scripts under ``examples/``.

It then prints, per ``src/repro`` module, the functions (module-level
functions and methods; a nested function is counted with the one it is
defined in) that none of them called, with their line counts from ``def``
(or the first decorator) to the last line, and the totals.

What it cannot see:

- shard workers: ``ingest_sharded`` runs each shard maintainer in a spawned
  process, which the hook does not follow, so a function that only a worker
  calls reads as unreached;
- clock assertions: the hook slows every Python call, so a figure script
  that asserts a timing ratio (Figure 4 right's per-tuple path, Figure 6's
  steps) may fail under it; the outcome line names it.  Its calls are
  still recorded: read the calls, not the clocks.

Tests are not among the sources on purpose: a function only a test calls is
what the list is for.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
import threading
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
PACKAGE = SRC / "repro"

WORKLOADS = ("train_models", "ingest_bulk", "ingest_sharded", "serve_churn")
FIGURE_SCRIPTS = (
    "bench_figure3_dataset.py",
    "bench_figure3_end_to_end.py",
    "bench_figure4_batches.py",
    "bench_figure4_ivm.py",
    "bench_figure5_counts.py",
    "bench_figure6_ablation.py",
    "bench_ifaq.py",
    "bench_inequality.py",
)

#: (file, first line) of every code object called while the hook was set.
Called = Set[Tuple[str, int]]


def _recorder(called: Called):
    def hook(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            called.add((code.co_filename, code.co_firstlineno))

    return hook


@contextlib.contextmanager
def _profiled(called: Called) -> Iterator[None]:
    """Record calls while the block runs, then put back the hooks it replaced
    (an outer profiler, such as a trace of the test suite, keeps running)."""
    outer, outer_threads = sys.getprofile(), threading.getprofile()
    hook = _recorder(called)
    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        yield
    finally:
        sys.setprofile(outer)
        threading.setprofile(outer_threads)


def _quietly(action) -> str:
    """Run ``action()`` with its output swallowed; its outcome in one line."""
    output = io.StringIO()
    with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
        try:
            status = action()
        except SystemExit as exit_:
            status = exit_.code
        except Exception as error:  # a source that breaks still reached code
            return f"raised {type(error).__name__}: {error}"
    if status in (None, 0):
        return "ok"
    failed = [line for line in output.getvalue().splitlines() if line.startswith("FAILED")]
    return "; ".join([f"exit {int(status)}", *failed])


def _run_script(path: Path) -> None:
    runpy.run_path(str(path), run_name="__main__")


def run_sources(called: Called) -> List[Tuple[str, str]]:
    """Run every source under the hook; ``(source, outcome)`` per source."""
    sys.path[:0] = [str(REPO_ROOT / "benchmarks"), str(SRC)]
    import pytest
    from harness import runner

    outcomes = []
    with tempfile.TemporaryDirectory() as out:
        for workload in WORKLOADS:
            argv = ["--workload", workload, "--seconds", "1", "--trace", "1",
                    "--out", os.path.join(out, workload)]
            with _profiled(called):
                outcomes.append((f"harness {workload}", _quietly(lambda: runner.main(argv))))
    figures = [str(REPO_ROOT / "benchmarks" / name) for name in FIGURE_SCRIPTS]
    argv = [*figures, "-q", "-p", "no:cacheprovider", "--benchmark-disable",
            "--rootdir", str(REPO_ROOT)]
    with _profiled(called):
        outcomes.append(("figure scripts", _quietly(lambda: pytest.main(argv))))
    for example in sorted((REPO_ROOT / "examples").glob("*.py")):
        with _profiled(called):
            outcome = _quietly(lambda: _run_script(example))
        outcomes.append((f"example {example.name}", outcome))
    return outcomes


def functions(path: Path) -> Iterator[Tuple[str, int, int]]:
    """``(qualified name, first line, line count)`` of each function in a file."""

    def walk(node: ast.AST, prefix: str) -> Iterator[Tuple[str, int, int]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                yield f"{prefix}{child.name}", first, child.end_lineno - first + 1
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")
            else:
                yield from walk(child, prefix)

    yield from walk(ast.parse(path.read_text(), str(path)), "")


def unreached(called: Called) -> Dict[str, Tuple[int, int, List[Tuple[str, int]]]]:
    """Module -> (function lines, unreached lines, unreached functions)."""
    report = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        total, missed, names = 0, 0, []
        for name, first, lines in functions(path):
            total += lines
            if (str(path), first) not in called:
                missed += lines
                names.append((name, lines))
        report[module] = (total, missed, names)
    return report


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    # One BLAS/OMP thread before numpy loads, as the harness's run.py does.
    for library in ("OMP", "OPENBLAS", "MKL", "NUMEXPR"):
        os.environ[f"{library}_NUM_THREADS"] = "1"
    called: Called = set()
    for source, outcome in run_sources(called):
        print(f"# {source}: {outcome}")
    report = unreached(called)
    all_lines = sum(total for total, _, _ in report.values())
    all_missed = sum(missed for _, missed, _ in report.values())
    for module, (total, missed, names) in report.items():
        if not names:
            continue
        print(f"{module}: {missed} of {total} function lines unreached")
        for name, lines in names:
            print(f"    {name} ({lines})")
    print(f"total: {all_missed} of {all_lines} function lines unreached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
