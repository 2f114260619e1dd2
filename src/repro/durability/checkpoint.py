"""Epoch-aligned checkpoints of the full maintainer state.

A checkpoint captures the complete :class:`~repro.ivm.base.CovarianceMaintainer`
— relations (with their key indexes) and views — as of a journal sequence
number.  Recovery loads the newest valid one and replays the journal tail
*after* that sequence through the maintainer's own grouped apply path, which
converges bit-identically to the pre-crash state.

What is written is *state*, not the object graph.  Each stateful class says
what its state is in its pickle hooks (``__getstate__`` / ``__setstate__``,
the same hooks that ship a maintainer to a shard worker) and rebuilds what is
derived — indexes, buckets, slot dictionaries, capacity, caches, locks, pins,
the change log — on load; ``docs/architecture.md`` ("Epoch checkpoints")
tabulates it per class.  The write runs under the writer gate while readers
only touch *pinned* snapshot state, so checkpointing never blocks readers.

On-disk format (v2).  The state is pickled with protocol 5; every array
buffer of at least :data:`OUT_OF_BAND_MIN_BYTES` leaves the pickle stream and
is written as a raw *section* straight from the live array — no copy, no
whole-file ``bytes``::

    REPROCK2                                  8   magic
    <Q seq+1> <Q prefix> <Q body_len>        24   header fields
    <I crc32>                                 4   over header fields + body
    <Q n> <Q stream_len> <Q len> * n              body: section table,
    stream                                        the in-band pickle stream,
    section * n                                   raw array buffers, in order

written to a temp file, fsync'd, then atomically renamed (``os.replace``) to
``checkpoint-{seq:012d}.ckpt``: a crash at any point leaves either the
previous checkpoint set intact or a stray ``*.tmp`` that loaders ignore.

``latest()`` scans newest-first and skips a file that fails validation — bad
magic (which includes a v1 ``REPROCK1`` file), a length other than the header
declares, checksum mismatch, a section table that does not tile the body, an
unpickling error — recording the reason in ``last_skipped``: a corrupt newest
checkpoint degrades to the one before it, and says why.  Loading reads the
file once into a ``bytearray`` and unpickles over windows of it; every
``__setstate__`` copies what it keeps into memory it owns, so a restored
maintainer neither aliases nor pins that buffer.
"""

from __future__ import annotations

import itertools
import os
import pickle
import struct
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, List, Optional, Tuple, Union

from repro.durability.faults import fault_point

__all__ = [
    "CHECKPOINT_MAGIC",
    "OUT_OF_BAND_MIN_BYTES",
    "CheckpointError",
    "Checkpoint",
    "CheckpointStore",
]

CHECKPOINT_MAGIC = b"REPROCK2"

#: Array buffers below this size stay inside the pickle stream: a section per
#: tiny array costs more than the copy it saves, and what unpickling copies
#: cannot end up as a window of the file's read buffer.
OUT_OF_BAND_MIN_BYTES = 1024

_FIELDS = struct.Struct("<QQQ")     # seq + 1, prefix, body length
_CRC = struct.Struct("<I")          # crc32 over the packed fields + the body
_TABLE_HEAD = struct.Struct("<QQ")  # section count, in-band stream length
_BODY_START = len(CHECKPOINT_MAGIC) + _FIELDS.size + _CRC.size


class CheckpointError(RuntimeError):
    """Raised on invalid checkpoint-store operations."""


@dataclass(frozen=True)
class Checkpoint:
    """One loaded checkpoint: the maintainer plus its journal alignment."""

    maintainer: Any
    seq: int       # highest journal seq folded into this state (-1: none)
    prefix: int    # number of batches applied (the serving epoch/prefix)
    path: Path


class CheckpointStore:
    """Writes, prunes, and loads atomic checkpoint files in one directory."""

    def __init__(self, directory: Union[str, Path], keep: int = 2) -> None:
        if keep < 1:
            raise CheckpointError("keep must be at least 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep = keep
        self.written = 0
        self.last_write_seconds = 0.0
        self.last_size_bytes = 0
        #: ``(path, reason)`` per file the last :meth:`latest` call skipped.
        self.last_skipped: List[Tuple[Path, str]] = []

    # -- writing -----------------------------------------------------------------------

    def _path_for(self, seq: int) -> Path:
        # seq -1 (a seed checkpoint taken before any batch) maps to slot 0;
        # the real seq is stored in the header, the name only orders files.
        return self.directory / f"checkpoint-{seq + 1:012d}.ckpt"

    def write(self, maintainer: Any, seq: int, prefix: int) -> Path:
        """Checkpoint ``maintainer`` as of journal ``seq``; atomic publish."""
        fault_point("checkpoint.write")
        started = time.perf_counter()
        sections: List[memoryview] = []

        def keep_in_band(buffer: pickle.PickleBuffer) -> bool:
            raw = buffer.raw()
            if raw.nbytes < OUT_OF_BAND_MIN_BYTES:
                return True
            sections.append(raw)
            return False

        stream = pickle.dumps(maintainer, protocol=5, buffer_callback=keep_in_band)
        lengths = [raw.nbytes for raw in sections]
        table = _TABLE_HEAD.pack(len(sections), len(stream)) + struct.pack(
            f"<{len(lengths)}Q", *lengths
        )
        body_length = len(table) + len(stream) + sum(lengths)
        fields = _FIELDS.pack(seq + 1, prefix, body_length)
        crc = zlib.crc32(fields)
        for piece in (table, stream, *sections):
            crc = zlib.crc32(piece, crc)
        final = self._path_for(seq)
        tmp = final.with_suffix(".tmp")
        with open(tmp, "wb") as handle:
            handle.write(CHECKPOINT_MAGIC + fields + _CRC.pack(crc) + table)
            handle.write(stream)
            fault_point("checkpoint.sections")
            for raw in sections:
                handle.write(raw)
            handle.flush()
            os.fsync(handle.fileno())
        fault_point("checkpoint.publish")
        os.replace(tmp, final)
        self.written += 1
        self.last_write_seconds = time.perf_counter() - started
        self.last_size_bytes = _BODY_START + body_length
        self._prune()
        return final

    def _prune(self) -> None:
        files = sorted(self.directory.glob("checkpoint-*.ckpt"))
        for stale in files[: -self.keep]:
            try:
                stale.unlink()
            except OSError:
                pass

    # -- loading -----------------------------------------------------------------------

    def _load(self, path: Path) -> Checkpoint:
        """Read and validate one file; :class:`CheckpointError` says why not."""
        try:
            with open(path, "rb") as handle:
                blob = bytearray(os.fstat(handle.fileno()).st_size)
                view = memoryview(blob)[: handle.readinto(blob)]
        except OSError as error:
            raise CheckpointError(f"unreadable: {error}") from error
        if view[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
            raise CheckpointError("bad magic")
        if len(view) < _BODY_START:
            raise CheckpointError("short")
        fields = view[len(CHECKPOINT_MAGIC) : _BODY_START - _CRC.size]
        stored_seq, prefix, body_length = _FIELDS.unpack(fields)
        (crc,) = _CRC.unpack_from(view, _BODY_START - _CRC.size)
        body = view[_BODY_START:]
        if len(body) < body_length:
            raise CheckpointError("short")
        if len(body) > body_length:
            raise CheckpointError("trailing bytes")
        if zlib.crc32(body, zlib.crc32(fields)) != crc:
            raise CheckpointError("crc")
        stream, sections = _split_body(body)
        try:
            maintainer = pickle.loads(stream, buffers=sections)
        except Exception as error:
            raise CheckpointError(f"unpickle: {type(error).__name__}: {error}") from error
        return Checkpoint(maintainer, stored_seq - 1, prefix, path)

    def latest(self) -> Optional[Checkpoint]:
        """The newest checkpoint that validates.

        Files that do not are skipped, and listed with the reason in
        ``last_skipped`` (reset on every call).
        """
        self.last_skipped = []
        for path in sorted(self.directory.glob("checkpoint-*.ckpt"), reverse=True):
            try:
                return self._load(path)
            except CheckpointError as error:
                self.last_skipped.append((path, str(error)))
        return None

    def checkpoints(self) -> List[Path]:
        return sorted(self.directory.glob("checkpoint-*.ckpt"))


def _split_body(body: memoryview) -> Tuple[memoryview, List[memoryview]]:
    """The in-band stream and the raw sections of a checksummed body, whose
    section table must tile it exactly: nothing missing, nothing left over."""
    if len(body) < _TABLE_HEAD.size:
        raise CheckpointError("section table")
    count, stream_length = _TABLE_HEAD.unpack_from(body)
    table_length = _TABLE_HEAD.size + 8 * count
    if table_length > len(body):
        raise CheckpointError("section table")
    lengths = struct.unpack_from(f"<{count}Q", body, _TABLE_HEAD.size)
    if table_length + stream_length + sum(lengths) != len(body):
        raise CheckpointError("section table")
    starts = itertools.accumulate(lengths, initial=table_length + stream_length)
    sections = [body[start : start + length] for start, length in zip(starts, lengths)]
    return body[table_length : table_length + stream_length], sections
