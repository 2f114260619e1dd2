"""Crash recovery: latest valid checkpoint + journal-tail replay.

The recovery contract (proved by ``tests/test_fault_matrix.py``): for a
maintainer journaling every batch write-ahead and checkpointing at journal
sequence numbers, a process killed at *any* instant recovers to a state
bit-identical to some prefix of the committed batch sequence — exactly the
batches whose journal records survived per the sync policy — by loading the
newest valid checkpoint and replaying the journal tail through
:meth:`~repro.ivm.base.CovarianceMaintainer.apply_groups` (the same code
path the original ``apply_batch`` ran).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, List, Optional, Tuple, Union

from repro.durability.checkpoint import CheckpointStore
from repro.durability.journal import BatchJournal, SYNC_POLICIES, JournalError

__all__ = ["DurabilityOptions", "RecoveryResult", "recover"]


@dataclass(frozen=True)
class DurabilityOptions:
    """Configuration of the journal + checkpoint pair under one directory.

    ``directory`` holds ``journal.wal`` and the ``checkpoint-*.ckpt`` files.
    ``checkpoint_interval`` is in committed batches (0 disables periodic
    checkpoints; the seed checkpoint at server start is always written, so
    recovery always has a base state).
    """

    directory: Union[str, Path]
    sync: str = "batch"
    checkpoint_interval: int = 0
    keep_checkpoints: int = 2

    def __post_init__(self) -> None:
        if self.sync not in SYNC_POLICIES:
            raise JournalError(
                f"unknown sync policy {self.sync!r}; expected one of {SYNC_POLICIES}"
            )
        if self.checkpoint_interval < 0:
            raise ValueError("checkpoint_interval must be >= 0")

    @property
    def journal_path(self) -> Path:
        return Path(self.directory) / "journal.wal"

    @property
    def checkpoint_directory(self) -> Path:
        return Path(self.directory)


@dataclass
class RecoveryResult:
    """What :func:`recover` reconstructed."""

    maintainer: Any
    prefix: int               # committed batches folded into the state
    journal_seq: int          # highest journal seq applied (-1: none)
    checkpoint_seq: int       # seq of the checkpoint the replay started from
    replayed_batches: int     # journal records replayed on top of it
    quarantined: List[int] = field(default_factory=list)  # seqs skipped on replay error
    #: ``(path, reason)`` per newer checkpoint file that failed validation
    #: and was passed over for the one the replay started from.
    skipped_checkpoints: List[Tuple[Path, str]] = field(default_factory=list)


def recover(
    options: DurabilityOptions,
    maintainer_factory: Optional[Callable[[], Any]] = None,
    journal: Optional[BatchJournal] = None,
) -> RecoveryResult:
    """Reconstruct the maintainer from the durability directory.

    Loads the newest checkpoint that validates (corrupt ones are skipped and
    reported in ``skipped_checkpoints``); without any checkpoint,
    ``maintainer_factory`` must build the empty maintainer the journal's full
    history replays into.  Journal records at or before the checkpoint's
    sequence are already folded into its state and are skipped; the tail
    replays in order through ``apply_groups``.

    A record whose replay raises (a poison batch journaled before its
    propagation failed, with no surviving abort record) may have mutated the
    maintainer *partially* before raising, so tolerance cannot just skip and
    continue: the replay restarts from the checkpoint with the poison
    sequence excluded.  The excluded sequences are listed in ``quarantined``
    — the offline mirror of the server's live quarantine.
    """
    store = CheckpointStore(
        options.checkpoint_directory, keep=options.keep_checkpoints
    )

    def base() -> tuple:
        checkpoint = store.latest()
        if checkpoint is not None:
            return checkpoint.maintainer, checkpoint.prefix, checkpoint.seq
        if maintainer_factory is None:
            raise JournalError(
                f"no checkpoint under {options.checkpoint_directory} and no "
                "maintainer_factory to replay the journal into"
            )
        return maintainer_factory(), 0, -1

    owns_journal = journal is None
    if owns_journal:
        journal = BatchJournal(options.journal_path, sync=options.sync)
    try:
        records = list(journal.replay())
        quarantined: List[int] = []
        while True:
            maintainer, prefix, base_seq = base()
            checkpoint_seq = base_seq
            replayed = 0
            applied_seq = base_seq
            poison = None
            for record in records:
                if record.seq <= base_seq or record.seq in quarantined:
                    continue
                try:
                    maintainer.apply_groups(record.groups)
                except Exception:
                    poison = record.seq
                    break
                replayed += 1
                prefix += 1
                applied_seq = record.seq
            if poison is None:
                break
            quarantined.append(poison)
    finally:
        if owns_journal:
            journal.close()
    return RecoveryResult(
        maintainer=maintainer,
        prefix=prefix,
        journal_seq=applied_seq,
        checkpoint_seq=checkpoint_seq,
        replayed_batches=replayed,
        quarantined=quarantined,
        skipped_checkpoints=store.last_skipped,
    )
