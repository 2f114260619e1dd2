"""Span tracing from outside the program: wrap public entry points, time calls.

:class:`Tracer` is a context manager.  While it is active the entry points
in :data:`TARGETS` are replaced, on their class or module, by wrappers that
record one span per call; on exit every original object is put back and the
kernel-stats switch returns to its prior value.  Spans stay in memory and
are written out as JSON lines by the caller when the benchmark ends.

A span is ``[name, start, end, parent, thread, trace_id, captured]``.  The
parent is the span open on the same thread when the call began, so the
children of one span never overlap and a span's self time is its duration
minus the durations of its children.  A read handed to the server's reader
pool starts a new span tree on the pool thread.  The trace id is the batch
number for a write, the read number for a read, inherited by the spans below
them; other spans carry the repetition label.  Worker processes of the shard
pool are not traced; their time comes from per-shard ``executor_stats``.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro import kernels

#: ``(module, owner, attribute, span name)``.  ``owner`` is a class of the
#: module, or ``None`` for a name in the module's own namespace (a function
#: another module imported by name is wrapped where it is looked up).  A
#: target that no longer resolves is skipped and listed in
#: :attr:`Tracer.missing`, so a later refactor loses a span, not the run.
TARGETS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.serving.server", "QueryServer", "apply_batch", "serving.apply_batch"),
    ("repro.serving.server", "QueryServer", "query", "serving.read_query"),
    ("repro.serving.server", "QueryServer", "statistics", "serving.read_point"),
    ("repro.serving.server", "QueryServer", "recover", "serving.recover"),
    ("repro.serving.snapshots", "SnapshotManager", "publish", "serving.publish"),
    ("repro.ivm.base", "CovarianceMaintainer", "net_updates", "ivm.net_updates"),
    ("repro.sharding.maintainer", None, "net_update_stream", "ivm.net_updates"),
    ("repro.ivm.base", "CovarianceMaintainer", "apply_batch", "ivm.apply"),
    ("repro.ivm.base", "CovarianceMaintainer", "apply_groups", "ivm.apply"),
    ("repro.ivm.fivm", "FIVM", "statistics", "ivm.statistics"),
    ("repro.data.relation", "Relation", "add_batch", "data.add_batch"),
    ("repro.data.relation", "Relation", "compact_storage", "data.compact"),
    ("repro.data.relation", "Relation", "column_store", "data.column_store"),
    ("repro.durability.journal", "BatchJournal", "append", "durability.journal_append"),
    ("repro.durability.checkpoint", "CheckpointStore", "write", "durability.checkpoint_write"),
    ("repro.durability.checkpoint", "CheckpointStore", "latest", "durability.checkpoint_load"),
    ("repro.serving.server", None, "durability_recover", "durability.recover"),
    ("repro.engine.lmfao", "LMFAOEngine", "__init__", "engine.construct"),
    ("repro.engine.lmfao", "LMFAOEngine", "evaluate", "engine.evaluate"),
    ("repro.pipelines.structure_aware", "StructureAwarePipeline", "run", "pipelines.run"),
    ("repro.pipelines.structure_aware", None, "covariance_batch", "aggregates.batch_build"),
    ("repro.ml.decision_tree", None, "decision_tree_node_batch", "aggregates.batch_build"),
    ("repro.ml.linear_regression", "RidgeRegression", "fit", "ml.ridge_fit"),
    ("repro.ml.decision_tree", "DecisionTreeRegressor", "fit", "ml.tree_fit"),
    ("repro.sharding.router", "ShardRouter", "route_groups", "sharding.route"),
    ("repro.sharding.executors", "ProcessPoolShardExecutor", "apply", "sharding.executor_apply"),
    ("repro.sharding.executors", "SerialShardExecutor", "apply", "sharding.executor_apply"),
    ("repro.sharding.maintainer", None, "merge_payloads", "sharding.merge"),
)

#: Client calls that open a trace: span name -> trace-id prefix.
TRACE_ROOTS = {
    "serving.apply_batch": "w",
    "serving.read_query": "q",
    "serving.read_point": "p",
}

#: What to keep from a call besides its times: ``f(first_argument, result)``.
CAPTURES: Dict[str, Callable] = {
    "engine.evaluate": lambda _engine, result: dict(result.executor_stats),
    "ivm.net_updates": lambda _owner, groups: sum(len(rows) for _n, rows, _m in groups),
    "durability.recover": lambda _options, result: result.replayed_batches,
    # The executor itself: per-shard executor_stats are public only on it.
    "sharding.executor_apply": lambda executor, _applied: executor,
}

NAME, START, END, PARENT, THREAD, TRACE_ID, CAPTURED = range(7)


class Tracer:
    """Wraps :data:`TARGETS` for the duration of a ``with`` block."""

    def __init__(self, label: str = "rep") -> None:
        self.label = label
        self.spans: List[list] = []
        self.missing: List[str] = []
        self.recording = False
        self._local = threading.local()
        self._ids = {name: itertools.count() for name in TRACE_ROOTS}
        self._patched: List[Tuple[object, str, object]] = []
        self._kernel_stats_before = False

    # -- patching ----------------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        self._kernel_stats_before = kernels.kernel_stats_enabled()
        kernels.enable_kernel_stats(True)
        for module_name, owner_name, attribute, span_name in TARGETS:
            label = f"{module_name}:{owner_name or ''}.{attribute}"
            try:
                owner = importlib.import_module(module_name)
                if owner_name is not None:
                    owner = getattr(owner, owner_name)
                    # Patch the class that defines the attribute, so the
                    # original object (not a bound copy) can be put back.
                    owner = next(k for k in owner.__mro__ if attribute in k.__dict__)
                original = vars(owner)[attribute]
            except (ImportError, AttributeError, KeyError, StopIteration):
                self.missing.append(label)
                continue
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, span_name))
            else:
                wrapped = self._wrap(original, span_name)
            setattr(owner, attribute, wrapped)
            self._patched.append((owner, attribute, original))
        return self

    def __exit__(self, *_exc) -> None:
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()
        kernels.enable_kernel_stats(self._kernel_stats_before)
        self.recording = False

    def _wrap(self, function: Callable, name: str) -> Callable:
        spans = self.spans
        local = self._local
        clock = time.perf_counter
        ident = threading.get_ident
        capture = CAPTURES.get(name)
        counter = self._ids.get(name)
        prefix = TRACE_ROOTS.get(name)

        def traced(*args, **kwargs):
            if not self.recording:
                return function(*args, **kwargs)
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            if counter is not None:
                trace_id = f"{self.label}/{prefix}{next(counter)}"
            elif parent is not None:
                trace_id = parent[TRACE_ID]
            else:
                trace_id = self.label
            span = [name, clock(), 0.0, parent, ident(), trace_id, None]
            spans.append(span)
            stack.append(span)
            try:
                result = function(*args, **kwargs)
                if capture is not None:
                    span[CAPTURED] = capture(args[0], result)
                return result
            finally:
                span[END] = clock()
                stack.pop()

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        return traced

    # -- reading the spans back --------------------------------------------------------

    def finished(self) -> List[list]:
        """Spans whose call returned while recording was on."""
        return [span for span in self.spans if span[END]]

    def captured(self, name: str) -> List[object]:
        return [
            span[CAPTURED]
            for span in self.finished()
            if span[NAME] == name and span[CAPTURED] is not None
        ]

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``busy_s`` (durations) and ``self_s``."""
        child_time: Dict[int, float] = {}
        spans = self.finished()
        for span in spans:
            parent = span[PARENT]
            if parent is not None:
                child_time[id(parent)] = child_time.get(id(parent), 0.0) + span[END] - span[START]
        table: Dict[str, Dict[str, float]] = {}
        for span in spans:
            row = table.setdefault(span[NAME], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            duration = span[END] - span[START]
            row["calls"] += 1
            row["busy_s"] += duration
            row["self_s"] += duration - child_time.get(id(span), 0.0)
        return table

    def durations(self, name: str, with_child: Optional[str] = None) -> List[float]:
        """Durations of the ``name`` spans (only those with a ``with_child`` child)."""
        spans = self.finished()
        if with_child is not None:
            keep = {id(s[PARENT]) for s in spans if s[NAME] == with_child and s[PARENT] is not None}
            spans = [s for s in spans if id(s) in keep]
        return [s[END] - s[START] for s in spans if s[NAME] == name]

    def busy_under(self, name: str, ancestor: str) -> float:
        """Busy seconds of the ``name`` spans below an ``ancestor`` span."""
        busy = 0.0
        for span in self.finished():
            if span[NAME] != name:
                continue
            parent = span[PARENT]
            while parent is not None and parent[NAME] != ancestor:
                parent = parent[PARENT]
            if parent is not None:
                busy += span[END] - span[START]
        return busy

    def json_lines(self) -> Iterable[str]:
        spans = self.finished()
        index = {id(span): position for position, span in enumerate(spans)}
        for position, span in enumerate(spans):
            parent = span[PARENT]
            yield json.dumps(
                {
                    "id": position,
                    "name": span[NAME],
                    "start": span[START],
                    "end": span[END],
                    "parent": index.get(id(parent)) if parent is not None else None,
                    "thread": span[THREAD],
                    "trace": span[TRACE_ID],
                }
            )
