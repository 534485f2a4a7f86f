"""The durable-append primitive: one append-only file, one protocol.

"Append a record, un-ack it on failure, make it durable" is the single
write primitive the substrate rests on; :class:`AppendLog` owns it once,
for the commit journal, FileStore segments, and PackStore packs alike.
Owners keep only what is genuinely theirs: record framing, the scan that
finds the last valid record boundary, and the prune of their own
bookkeeping (index, journal records) after a poison.
"""

from __future__ import annotations

from typing import IO, Callable, List, Optional

from repro.errors import DiskFaultError, DiskFullError, StoreError, map_os_error
from repro.faults.retry import RetryPolicy
from repro.store.durability import fsync_file, write_bytes

#: Unsynced appends kept in memory for fsync-failure recovery; past this
#: the log forces a durable point so the buffer cannot grow without limit.
TAIL_LIMIT = 4 * 1024 * 1024

#: Bounded backoff for transient ENOSPC on the append path only; a failed
#: *fsync* is never retried (see :meth:`AppendLog._recover_fsync`).
ENOSPC_RETRY = RetryPolicy(attempts=3, base_delay=0.002, max_delay=0.01)


def _discard(handle: IO[bytes]) -> None:
    """Close a descriptor that is being given up on."""
    try:
        handle.close()
    except OSError:
        pass  # the descriptor is gone either way; nothing to un-ack


class AppendLog:
    """Single-file append-only writer with un-ack and fsyncgate recovery.

    ``end`` is the last valid record boundary the owner's scan found:
    bytes past it are a torn tail, truncated *before* the writer opens so
    every append lands at true EOF and at the offset it is indexed under.
    ``rewritable=False`` is for an owner that never fsyncs: no rewrite
    buffer is kept at all.
    ``on_unack`` is called with the log when a poison un-acks appends.
    """

    def __init__(
        self,
        path: str,
        end: int,
        rewritable: bool = True,
        on_unack: Optional[Callable[["AppendLog"], None]] = None,
    ) -> None:
        self.path = path
        self._rewritable = rewritable
        self._on_unack = on_unack
        #: True once the log was abandoned or hit an unrecoverable fault.
        self.poisoned = False
        #: End offset of the last acked append.
        self.size = end
        #: End offset of the last append known to be on the platter; after
        #: a poison, every append at or past it is un-acked.
        self.durable_size = end
        #: Record blobs appended since the last successful fsync.
        self._tail: List[bytes] = []
        self._tail_bytes = 0
        try:
            handle = open(path, "ab")
            if handle.tell() > end:
                handle.truncate(end)  # drop the torn tail for good
                handle.seek(end)
        except OSError as exc:
            raise map_os_error(exc, "open", path) from exc
        self._handle: Optional[IO[bytes]] = handle

    def check(self) -> None:
        """Raise :class:`DiskFaultError` unless appends can still be acked."""
        self._writer()

    def _writer(self) -> IO[bytes]:
        if self._handle is None:
            state = "poisoned by an unrecoverable disk fault" if self.poisoned else "closed"
            raise DiskFaultError(
                f"{self.path}: append log is {state}", syscall="write", path=self.path
            )
        return self._handle

    # -- appending -----------------------------------------------------------

    def append(self, blob: bytes, label: str = "") -> int:
        """Append one record; return the offset it landed at (no flush)."""
        handle = self._writer()
        offset = self.size
        ENOSPC_RETRY.call(
            lambda: self._write(handle, blob, label), retry_on=(DiskFullError,)
        )
        self.size = offset + len(blob)
        if self._rewritable:
            self._tail.append(blob)
            self._tail_bytes += len(blob)
            if self._tail_bytes > TAIL_LIMIT:
                self.sync("tail-limit")
        return offset

    def _write(self, handle: IO[bytes], blob: bytes, label: str) -> None:
        """One append attempt, un-acked on any disk failure."""
        try:
            write_bytes(handle, blob, label)
        except (DiskFullError, DiskFaultError):
            self._unwind_append(handle)
            raise

    def _unwind_append(self, handle: IO[bytes]) -> None:
        """Truncate a failed append back to the last acked offset.

        A short write may have materialized a strict prefix of the
        record; ``size`` only advances on success, so truncating there
        restores the record boundary.  If even the truncate fails the
        log is poisoned — no further appends are accepted.
        """
        try:
            handle.flush()
            handle.truncate(self.size)
            handle.seek(self.size)
        except OSError as exc:
            self.abandon()
            raise map_os_error(exc, "truncate", self.path) from exc

    def flush(self) -> None:
        """Hand buffered appends to the OS so they survive a process kill."""
        if self._handle is None:
            return  # released: nothing buffered, reads must keep working
        try:
            self._handle.flush()
        except OSError as exc:
            # Buffer state is unknowable after a failed flush: poison.
            self.abandon()
            raise map_os_error(exc, "write", self.path) from exc

    # -- durability ----------------------------------------------------------

    def sync(self, label: str = "") -> None:
        """Fsync everything appended so far, recovering a failed fsync."""
        handle = self._writer()
        try:
            fsync_file(handle, label)
        except (DiskFullError, DiskFaultError) as exc:
            self._recover_fsync(exc)
        self.durable_size = self.size
        self._tail = []
        self._tail_bytes = 0

    def _recover_fsync(self, cause: StoreError) -> None:
        """Reopen-and-rewrite after a failed fsync (fsyncgate discipline).

        The failed descriptor may have dropped the unsynced tail and
        would falsely report success if fsynced again, so it is never
        reused: open a fresh descriptor, truncate to the durable floor,
        rewrite the tail records, and fsync *that*.  Failing twice — or
        having no tail to rewrite from — poisons the log and un-acks
        every append at or past ``durable_size``.
        """
        self._release()
        last: StoreError = cause
        covered = self._tail_bytes == self.size - self.durable_size
        for _ in range(2 if covered else 0):
            try:
                handle = open(self.path, "r+b")
            except OSError as exc:
                last = map_os_error(exc, "open", self.path)
                break
            try:
                handle.truncate(self.durable_size)
                handle.seek(self.durable_size)
                for blob in self._tail:
                    write_bytes(handle, blob)
                fsync_file(handle, "fsync-recovery")
            except (DiskFullError, DiskFaultError) as exc:
                last = exc
                _discard(handle)
                continue
            except OSError as exc:
                last = map_os_error(exc, "write", self.path)
                _discard(handle)
                continue
            self._handle = handle
            return
        self.poisoned = True
        dropped = self.size - self.durable_size
        self.size = self.durable_size
        self._tail = []
        self._tail_bytes = 0
        if self._on_unack is not None:
            self._on_unack(self)
        raise DiskFaultError(
            f"{self.path}: append log poisoned after failed fsync recovery "
            f"({dropped} unsynced bytes un-acked): {last}",
            syscall="fsync",
            path=self.path,
        ) from last

    # -- lifecycle -----------------------------------------------------------

    def close(self, label: str = "close", sync: bool = True) -> None:
        """Make the log durable (unless ``sync=False``) and release it."""
        if self._handle is None:
            return
        if sync:
            self.sync(label)
        else:
            self.flush()
        self._release()

    def abandon(self) -> None:
        """Release the descriptor without syncing; nothing more is acked.

        The crash simulator's exit, and where every unrecoverable fault
        ends up: an abandoned log is poisoned.
        """
        self.poisoned = True
        self._release()

    def _release(self) -> None:
        handle, self._handle = self._handle, None
        if handle is not None:
            _discard(handle)
