"""Write-ahead commit journal: the one file that holds branch heads.

Branch heads are the only mutable state in the system (see
:mod:`repro.vcs.branches`) and the anchor of tamper evidence — losing a
head silently un-acknowledges every commit behind it.  The journal makes
head mutations durable *before* they are acknowledged: each operation is
appended as a length-prefixed, CRC-32-checksummed record.  A checkpoint
(:meth:`CommitJournal.reset`) rewrites the file as one ``set-head``
record per live head, so recovery replays the whole file, in order,
onto an empty :class:`~repro.vcs.branches.BranchTable`.

On-disk format::

    FBWJ0001                          8-byte magic
    [len:u32][crc32:u32][payload]...  checkpoint: one set-head per live head,
                                      each flagged "checkpoint": true
    [len:u32][crc32:u32][payload]...  ops appended since; payload = canonical JSON

Damage model, matching the append-only segment files:

- a **torn tail** (partial final record: the process died mid-append) is
  expected damage — the tail is truncated and recovery proceeds;
- a **corrupt interior record** (all bytes present, CRC or decode fails)
  means the history it carries cannot be trusted — recovery raises
  :class:`~repro.errors.JournalCorruptError` instead of guessing.

Fsync policy: ``always`` fsyncs after every append (a commit survives
power loss before it is acknowledged), ``batch`` every
:data:`BATCH_INTERVAL` appends, ``never`` leaves it to the OS.  Every
append is *flushed* regardless, so an acknowledged commit always
survives a process kill.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from typing import Callable, Dict, Iterable, List, Mapping, Tuple

from repro.chunk import Uid
from repro.errors import (
    DiskFaultError,
    DiskFullError,
    JournalCorruptError,
    JournalError,
    VersionError,
    map_os_error,
)
from repro.store.appendlog import AppendLog
from repro.store.durability import durable_replace, fsync_file, read_check, write_bytes
from repro.vcs.branches import BranchTable

MAGIC = b"FBWJ0001"
_HEADER = struct.Struct(">II")  # payload length, CRC-32 of payload
FSYNC_POLICIES = ("always", "batch", "never")
#: Appends per fsync under the ``batch`` policy.
BATCH_INTERVAL = 64

Record = Dict[str, object]


class CommitJournal:
    """Append-only head-mutation log with checksummed records."""

    def __init__(self, path: str, fsync: str = "batch") -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(f"fsync policy must be one of {FSYNC_POLICIES}, got {fsync!r}")
        self.path = path
        self.fsync = fsync
        #: (end offset, record) per valid record, in file order.
        self._records: List[Tuple[int, Record]] = []
        self._pending = 0
        self._closed = False
        self._log = self._open_log(self._scan())
        #: File size right after the last checkpoint.
        self.checkpoint_size = max(
            [len(MAGIC)] + [end for end, record in self._records if record.get("checkpoint")]
        )
        if self._log.size < len(MAGIC):
            # Fresh (or torn-at-creation) journal: lay down the magic.
            self._log.append(MAGIC, "magic")
            if self.fsync != "never":
                self._log.sync("magic")
            else:
                self._log.flush()

    @property
    def poisoned(self) -> bool:
        """True once an unrecoverable disk fault disabled the journal."""
        return self._log.poisoned

    # -- open / scan ---------------------------------------------------------

    def _open_log(self, end: int) -> AppendLog:
        return AppendLog(
            self.path,
            end,
            # Under ``never`` nothing is ever fsynced, so there is no
            # failed fsync to rewrite a tail after: keep none.
            rewritable=self.fsync != "never",
            on_unack=self._unack,
        )

    def _scan(self) -> int:
        """Validate every record; return the last valid record boundary.

        Zero means "no usable magic": the file is absent, or the process
        died writing the magic so no record can possibly follow.
        """
        if not os.path.exists(self.path):
            return 0
        try:
            read_check(self.path, label=os.path.basename(self.path))
            with open(self.path, "rb") as handle:
                data = handle.read()  # journals are bounded by compaction
        except OSError as exc:
            raise map_os_error(exc, "read", self.path) from exc
        if len(data) < len(MAGIC):
            return 0
        if data[: len(MAGIC)] != MAGIC:
            raise JournalCorruptError(f"{self.path}: bad journal magic {data[:8]!r}")
        offset = len(MAGIC)
        total = len(data)
        while offset < total:
            if offset + _HEADER.size > total:
                break  # torn header: crash mid-append
            length, crc = _HEADER.unpack_from(data, offset)
            start = offset + _HEADER.size
            if start + length > total:
                break  # torn payload: crash mid-append
            payload = data[start : start + length]
            if zlib.crc32(payload) & 0xFFFFFFFF != crc:
                raise JournalCorruptError(
                    f"{self.path}: CRC mismatch in record at offset {offset}"
                )
            try:
                record = json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, ValueError) as exc:
                raise JournalCorruptError(
                    f"{self.path}: undecodable record at offset {offset}"
                ) from exc
            if not isinstance(record, dict) or "op" not in record:
                raise JournalCorruptError(
                    f"{self.path}: record at offset {offset} is not an op"
                )
            offset = start + length
            self._records.append((offset, record))
        return offset

    # -- appending -----------------------------------------------------------

    @property
    def sync_due(self) -> bool:
        """Will the next :meth:`append` fsync?  (The policy's durable
        point: every append under ``always``, every
        :data:`BATCH_INTERVAL`-th under ``batch``, never under ``never``.)"""
        return self.fsync == "always" or (
            self.fsync == "batch" and self._pending + 1 >= BATCH_INTERVAL
        )

    def append(self, record: Mapping[str, object]) -> None:
        """Durably (per policy) append one op record."""
        if self._closed:
            raise JournalError(f"{self.path}: journal is closed")
        due = self.sync_due
        self._log.append(_frame(record), str(record.get("op", "")))
        # Flush unconditionally: an acknowledged commit must survive a
        # process kill under every policy; fsync is about power loss.
        self._log.flush()
        self._records.append((self._log.size, dict(record)))
        self._pending += 1
        if due:
            self.sync()

    def sync(self) -> None:
        """Flush and fsync pending appends regardless of policy."""
        if self._closed:
            return
        self._log.sync(os.path.basename(self.path))
        self._pending = 0

    def _unack(self, log: AppendLog) -> None:
        """Drop the records a poisoned log never made durable: replay
        must agree with the disk, so they are un-acked in memory too."""
        while self._records and self._records[-1][0] > log.durable_size:
            self._records.pop()

    # -- queries -------------------------------------------------------------

    @property
    def records(self) -> List[Record]:
        """Every valid record currently in the journal (copies)."""
        return [dict(record) for _end, record in self._records]

    def size(self) -> int:
        """Journal file size in bytes (valid region)."""
        return self._log.size

    def __len__(self) -> int:
        return len(self._records)

    # -- lifecycle -----------------------------------------------------------

    def reset(self, records: Iterable[Mapping[str, object]]) -> None:
        """Rewrite the journal as the magic plus ``records`` (a checkpoint).

        Call only once the chunks under every head ``records`` names are
        durable.  Atomic: the new file is fsynced and renamed over the
        old journal.  A crash before the rename leaves the old journal,
        which replays to the same table; the rename itself is
        all-or-nothing.
        """
        if self._closed:
            raise JournalError(f"{self.path}: journal is closed")
        self._log.check()
        kept = [dict(record) for record in records]
        frames = [_frame(record) for record in kept]
        data = MAGIC + b"".join(frames)
        tmp = self.path + ".tmp"
        try:
            with open(tmp, "wb") as handle:
                write_bytes(handle, data, label="checkpoint")
                fsync_file(handle)
        except (DiskFullError, DiskFaultError):
            raise  # the live journal log is untouched: still usable
        except OSError as exc:
            raise map_os_error(exc, "write", tmp) from exc
        # If the rename fails half-way the state is ambiguous: the
        # abandoned (poisoned) log is exactly what should stay in place.
        self._log.abandon()
        durable_replace(tmp, self.path)
        self._log = self._open_log(len(data))
        end = len(MAGIC)
        self._records = []
        for frame, record in zip(frames, kept):
            end += len(frame)
            self._records.append((end, record))
        self._pending = 0
        self.checkpoint_size = len(data)

    def close(self) -> None:
        """Flush (and fsync unless policy is ``never``) and close."""
        if self._closed:
            return
        # (A poisoned log has nothing trustworthy left: its close is a no-op.)
        self._log.close(sync=self.fsync != "never" and self._pending > 0)
        self._pending = 0
        self._closed = True

    def abandon(self) -> None:
        """Release the OS handle without flushing bookkeeping (crash sim)."""
        if self._closed:
            return
        self._log.abandon()
        self._closed = True


# -- records and replay --------------------------------------------------------


def _frame(record: Mapping[str, object]) -> bytes:
    """One record as it lies in the file: header, then canonical JSON."""
    payload = json.dumps(
        record, sort_keys=True, separators=(",", ":"), default=Uid.base32
    ).encode("utf-8")
    return _HEADER.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF) + payload


def checkpoint(table: BranchTable) -> List[Record]:
    """``table`` as records for :meth:`CommitJournal.reset`: one
    ``set-head`` per live head, flagged as the checkpoint's."""
    return [
        {"op": "set-head", "key": key, "branch": branch, "head": head.base32(),
         "checkpoint": True}
        for key, branch, head in table.all_heads()
    ]


def apply_record(
    table: BranchTable,
    record: Mapping[str, object],
    holds: Callable[[Uid], bool],
    live: bool = False,
) -> bool:
    """Apply one journal record to a branch table; False, and nothing
    applied, for a ``set-head`` or ``create-branch`` made since the last
    checkpoint whose head ``holds`` rejects.

    Replay is unconditional (no CAS): the journal *is* the serialization
    order, so re-checking expectations would only re-litigate history.
    A record that cannot apply means the journal lost an op, which is
    corruption, not a conflict.  A ``live`` move, not yet journaled, is
    checked instead: a ``set-head`` is a compare-and-swap on its ``prev``,
    and ``HeadMovedError``, ``BranchExistsError`` and
    ``UnknownBranchError`` raise as they are.  Heads are Uids or base32.
    """
    op = record.get("op")
    try:
        if op == "set-head" or op == "create-branch":
            raw = record["head"]
            head = raw if isinstance(raw, Uid) else Uid.from_base32(str(raw))
            key, branch = str(record["key"]), str(record["branch"])
            if not live:
                if not record.get("checkpoint") and not holds(head):
                    return False
                table.set_head(key, branch, head)
            elif op == "create-branch":
                table.create(key, branch, head)
            else:
                table.set_head(key, branch, head, expected=record["prev"])
        elif op == "rename-branch":
            table.rename(str(record["key"]), str(record["old"]), str(record["new"]))
        elif op == "delete-branch":
            table.delete(str(record["key"]), str(record["branch"]))
        elif op == "rename-key":
            table.rename_key(str(record["old"]), str(record["new"]))
        elif op == "drop-key":
            table.drop_key(str(record["key"]))
        else:
            raise JournalCorruptError(f"unknown journal op {op!r}")
    except JournalCorruptError:
        raise
    except (VersionError, KeyError, ValueError) as exc:
        if live:
            raise
        raise JournalCorruptError(f"journal op {op!r} does not apply: {exc}") from exc
    return True


def replay_into(
    table: BranchTable,
    records: Iterable[Mapping[str, object]],
    holds: Callable[[Uid], bool],
) -> int:
    """Replay ``records`` in order onto ``table``; return how many applied.

    ``holds`` is the chunk store's membership test.  Replay stops at the
    first head made since the last checkpoint whose FNode the store does
    not hold: a crash lost it, and every later record with it.  A
    present FNode implies its whole tree: a commit appends its chunks to
    the store's log before its FNode, and the log recovers a CRC-valid
    prefix.  Checkpoint heads are exempt.  A checkpoint is written only
    after the store syncs, and the engine checkpoints before gc or scrub
    delete chunks, so a checkpoint FNode that is missing was deleted
    (quarantined rot), not lost: its head stays, dangling, for
    ``verify`` to report.
    """
    applied = 0
    for record in records:
        if not apply_record(table, record, holds):
            break
        applied += 1
    return applied
