"""The crash-recovery fault matrix: kill -9 × fault point × sync policy.

Each case launches ``durability_child.py`` in a subprocess: a durable
:class:`~repro.serving.QueryServer` streaming a randomized cancel-heavy
1000-update stream in batches, with a ``kill`` fault installed at one
labeled trigger point (journal append, checkpoint write, between a checkpoint's
in-band stream and its array sections, snapshot publish).
SIGKILL is the hardest single-machine crash — no buffers flush, no finally
blocks run — so whatever the recovery reconstructs is exactly what the sync
policy durably preserved.

The parent then recovers in-process and asserts the contract: the recovered
state is **bit-identical** to an uninterrupted serial run of the committed
batch prefix, and re-applying the remaining batches converges bit-identically
to the full-stream reference — for all three sync policies.  (Under
``sync="none"`` the journal tail lives in a user-space buffer the kill
discards, so the recovered prefix may trail the applied one; the contract is
prefix-consistency, not zero loss.)
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import durability_child
from repro.durability import DurabilityOptions, recover

REPO = Path(__file__).resolve().parent.parent
CHILD = Path(durability_child.__file__).resolve()

#: (fault point, fire-on-Nth-call) — calibrated against the child's stream:
#: ~24 batches, a checkpoint every 4 plus the seed one, one publish per batch
#: plus the initial generation.
CRASH_POINTS = [
    ("journal.append", 7),
    ("checkpoint.write", 3),
    ("checkpoint.sections", 3),
    ("snapshot.publish", 9),
]


def _payloads_equal(left, right):
    return (
        left.count == right.count
        and np.array_equal(left.sums, right.sums)
        and np.array_equal(left.moments, right.moments)
    )


def _run_child(directory, sync, point, at_call):
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), str(REPO / "tests")]
    )
    return subprocess.run(
        [sys.executable, str(CHILD), str(directory), sync, point, str(at_call)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("sync", ["none", "batch", "fsync"])
@pytest.mark.parametrize("point,at_call", CRASH_POINTS, ids=[p for p, _ in CRASH_POINTS])
def test_kill9_recovery_is_bit_identical(tmp_path, sync, point, at_call):
    process = _run_child(tmp_path, sync, point, at_call)
    assert process.returncode == -signal.SIGKILL, (
        f"child exited {process.returncode} instead of being killed at "
        f"{point}#{at_call}\nstdout: {process.stdout}\nstderr: {process.stderr}"
    )

    database = durability_child.build_database()
    all_batches = durability_child.batches(database)
    options = DurabilityOptions(
        tmp_path, sync=sync,
        checkpoint_interval=durability_child.CHECKPOINT_INTERVAL,
    )
    result = recover(options)
    assert result.quarantined == []
    prefix = result.prefix
    assert 0 <= prefix <= len(all_batches)
    if point == "snapshot.publish" and sync != "none":
        # The kill fires *after* the batch was journaled and applied, so a
        # synced journal must preserve at least the batches preceding the
        # fatal publish (publish #1 is the initial generation).
        assert prefix >= at_call - 1

    # Bit-identity against an uninterrupted serial run of the same prefix.
    reference = durability_child.build_maintainer(database)
    for batch in all_batches[:prefix]:
        reference.apply_batch(batch)
    assert _payloads_equal(result.maintainer.statistics(), reference.statistics()), (
        f"recovered prefix {prefix} diverges from the serial run "
        f"({point}#{at_call}, sync={sync})"
    )

    # The recovered maintainer is a full citizen: driving it through the rest
    # of the stream converges bit-identically to the full reference.
    for batch in all_batches[prefix:]:
        result.maintainer.apply_batch(batch)
        reference.apply_batch(batch)
    assert _payloads_equal(result.maintainer.statistics(), reference.statistics())


def test_child_completes_without_fault(tmp_path):
    """Sanity for the matrix: with an unreachable at_call the child finishes,
    and a clean-close recovery replays nothing."""
    process = _run_child(tmp_path, "batch", "journal.append", 10_000)
    assert process.returncode == 0, process.stderr
    assert process.stdout.startswith("COMPLETED")
    database = durability_child.build_database()
    all_batches = durability_child.batches(database)
    options = DurabilityOptions(
        tmp_path, sync="batch",
        checkpoint_interval=durability_child.CHECKPOINT_INTERVAL,
    )
    result = recover(options)
    assert result.prefix == len(all_batches)
    assert result.replayed_batches == 0  # the close-time checkpoint covers it all
    reference = durability_child.build_maintainer(database)
    for batch in all_batches:
        reference.apply_batch(batch)
    assert _payloads_equal(result.maintainer.statistics(), reference.statistics())
