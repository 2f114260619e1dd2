"""Deterministic fault injection for the durability and serving layers.

The durability code paths (journal append, checkpoint write, snapshot
publish, reader execution) each consult a *labeled fault point* via
:func:`fault_point`.  In production the call is a module-global load plus a
``None`` check — no locks, no dictionary probes — so the hooks cost nothing
on the hot write path.  Tests install a process-global :class:`FaultPlan`
that counts every consultation per label and *fires* at a chosen call
number, either raising :class:`FaultInjected` (to exercise in-process error
containment: quarantine, pin release, gate recovery) or delivering
``SIGKILL`` to the process (to exercise crash recovery: the fault-matrix
suite kill-9s a subprocess at every labeled point and proves the journal +
checkpoint recovery converges bit-identically).

Determinism is the whole point: a :class:`FaultSpec` names the label and the
Nth consultation it fires on, so the same plan against the same update
stream crashes at exactly the same machine state every run.
"""

from __future__ import annotations

import os
import signal
import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "FAULT_POINTS",
    "FaultInjected",
    "FaultSpec",
    "FaultPlan",
    "fault_point",
    "install_fault_plan",
    "clear_fault_plan",
    "active_fault_plan",
]

#: The labeled trigger points consulted by the shipped code.  Plans may name
#: additional ad-hoc labels (tests sometimes add their own around a fixture),
#: so this tuple documents rather than restricts.
FAULT_POINTS = (
    "journal.append",     # BatchJournal.append, before the record is written
    "journal.sync",       # BatchJournal, after the write, before flush/fsync
    "checkpoint.write",   # CheckpointStore.write, before the temp file exists
    "checkpoint.sections",  # CheckpointStore.write, between stream and array sections
    "checkpoint.publish", # CheckpointStore.write, before the atomic rename
    "snapshot.publish",   # SnapshotManager.publish, before the generation cut
    "reader.query",       # QueryServer read execution, after the pin
)

#: Actions a spec may request when it fires.
_ACTIONS = ("raise", "kill")


class FaultInjected(RuntimeError):
    """Raised by a fired ``action="raise"`` fault spec."""

    def __init__(self, point: str, call: int) -> None:
        super().__init__(f"injected fault at {point!r} (call {call})")
        self.point = point
        self.call = call


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: fire at the ``at_call``-th consultation of ``point``.

    ``action="raise"`` raises :class:`FaultInjected` on the consulting
    thread; ``action="kill"`` delivers ``SIGKILL`` to the process — the
    hardest crash a single machine can produce, nothing (buffers, atexit
    handlers, finally blocks) runs afterwards.
    """

    point: str
    at_call: int = 1
    action: str = "raise"

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; expected one of {_ACTIONS}"
            )
        if self.at_call < 1:
            raise ValueError("at_call counts from 1")


class FaultPlan:
    """A deterministic schedule of faults over the labeled trigger points.

    Thread-safe: consultations from reader threads and the writer thread
    share one lock, so call numbers are totally ordered and a plan fires
    exactly once per matching ``(point, at_call)`` spec.
    """

    def __init__(self, specs: Iterable[FaultSpec] = ()) -> None:
        self._specs: Dict[str, List[FaultSpec]] = {}
        for spec in specs:
            self._specs.setdefault(spec.point, []).append(spec)
        self._lock = threading.Lock()
        self.calls: Dict[str, int] = {}
        #: ``(point, call)`` pairs that actually fired (kill faults never
        #: record — the process is gone).
        self.fired: List[Tuple[str, int]] = []

    def check(self, point: str) -> None:
        """Count one consultation of ``point`` and fire any matching spec."""
        with self._lock:
            call = self.calls.get(point, 0) + 1
            self.calls[point] = call
            matched = None
            for spec in self._specs.get(point, ()):
                if spec.at_call == call:
                    matched = spec
                    break
            if matched is not None:
                self.fired.append((point, call))
        if matched is None:
            return
        if matched.action == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        raise FaultInjected(point, call)


_PLAN: Optional[FaultPlan] = None


def install_fault_plan(plan: FaultPlan) -> FaultPlan:
    """Install ``plan`` process-globally (replacing any previous plan)."""
    global _PLAN
    _PLAN = plan
    return plan


def clear_fault_plan() -> None:
    """Remove the installed plan; every fault point reverts to a no-op."""
    global _PLAN
    _PLAN = None


def active_fault_plan() -> Optional[FaultPlan]:
    return _PLAN


def fault_point(point: str) -> None:
    """Consult one labeled trigger point (no-op unless a plan is installed)."""
    plan = _PLAN
    if plan is not None:
        plan.check(point)
