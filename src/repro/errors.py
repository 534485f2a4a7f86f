"""Exception hierarchy for the ForkBase reproduction.

Every error raised by this library derives from :class:`ForkBaseError`, so
applications can catch one base type; the one exception is the fault
shim's :class:`SimulatedCrash`, which stands for the process dying and
is meant to be caught by nothing.  Sub-hierarchies mirror the layers of
the system (chunk storage, POS-Tree, version control, engine, security,
API); see DESIGN.md for the layer map.
"""

from __future__ import annotations

import errno as _errno


class ForkBaseError(Exception):
    """Base class for all errors raised by this library."""


class TransientError(ForkBaseError):
    """Mixin for faults that may succeed on retry (flaky node, timeout).

    Contrast with :class:`ChunkCorruptionError` (the data is wrong) and
    :class:`ChunkNotFoundError` (the data is absent): a transient error
    says nothing about the data, only that this attempt failed.  Retry
    helpers (:mod:`repro.faults.retry`) key off this type.
    """


class ChunkError(ForkBaseError):
    """Base class for chunk-layer errors."""


class ChunkNotFoundError(ChunkError, KeyError):
    """A chunk id was not present in the physical store."""

    def __init__(self, uid: object) -> None:
        super().__init__(uid)
        self.uid = uid

    def __str__(self) -> str:
        return f"chunk not found: {self.uid}"


class ChunkCorruptionError(ChunkError):
    """A chunk's bytes do not hash to its id (tampering or bit rot)."""


class ChunkEncodingError(ChunkError):
    """A chunk payload could not be decoded."""


class StoreError(ForkBaseError):
    """Base class for physical-store errors."""


class StoreClosedError(StoreError):
    """Operation attempted on a closed store."""


class TransientStoreError(StoreError, TransientError):
    """A store operation failed for a reason that retrying may fix."""


class DiskFullError(TransientStoreError):
    """The filesystem refused a write for lack of space (ENOSPC/EDQUOT).

    Transient by design: space can be freed (compaction, operator
    action), so bounded retry is legitimate — unlike :class:`DiskFaultError`,
    where retrying can silently *lose* data (see the fsyncgate note there).
    """

    def __init__(self, message: str, syscall: str = "", path: str = "") -> None:
        super().__init__(message)
        self.syscall = syscall
        self.path = path


class DiskFaultError(StoreError):
    """The disk itself failed (EIO, a failed fsync, a poisoned writer).

    Deliberately *not* transient: after a failed ``fsync`` the kernel has
    already dropped the dirty pages and cleared the error flag, so a
    retried fsync on the same descriptor reports success for data that
    never reached the platter (the PostgreSQL "fsyncgate" bug class).
    The only sound reactions are reopen-and-rewrite from a known-durable
    watermark or refusing further writes — never a blind retry.
    """

    def __init__(self, message: str, syscall: str = "", path: str = "") -> None:
        super().__init__(message)
        self.syscall = syscall
        self.path = path


def map_os_error(exc: OSError, syscall: str, path: str) -> StoreError:
    """Classify an :class:`OSError` from a persistence path into the taxonomy.

    ENOSPC/EDQUOT become the retryable :class:`DiskFullError`; everything
    else (EIO above all) is an unrecoverable :class:`DiskFaultError`.
    """
    if exc.errno in (_errno.ENOSPC, _errno.EDQUOT):
        return DiskFullError(
            f"disk full during {syscall} on {path}: {exc}", syscall=syscall, path=path
        )
    return DiskFaultError(
        f"disk fault during {syscall} on {path}: {exc}", syscall=syscall, path=path
    )


class TreeError(ForkBaseError):
    """Base class for POS-Tree errors."""


class KeyOrderError(TreeError):
    """Entries supplied to a bulk build were not sorted/unique."""


class VersionError(ForkBaseError):
    """Base class for version-layer errors."""


class UnknownVersionError(VersionError, KeyError):
    """A version uid does not resolve to an FNode."""

    def __init__(self, uid: object) -> None:
        super().__init__(uid)
        self.uid = uid

    def __str__(self) -> str:
        return f"unknown version: {self.uid}"


class UnknownBranchError(VersionError, KeyError):
    """A branch name does not exist for the given key."""

    def __init__(self, key: object, branch: object) -> None:
        super().__init__((key, branch))
        self.key = key
        self.branch = branch

    def __str__(self) -> str:
        return f"unknown branch {self.branch!r} for key {self.key!r}"


class BranchExistsError(VersionError):
    """Attempted to create a branch that already exists."""


class HeadMovedError(VersionError):
    """A compare-and-swap head update found the branch head moved.

    Raised instead of silently overwriting when the caller's view of the
    head (``expected``) no longer matches the table (``actual``) — the
    signature of a concurrent writer.  Callers re-read the head, rebase
    their commit, and retry.
    """

    def __init__(self, key: object, branch: object, expected: object, actual: object) -> None:
        super().__init__(
            f"head of {branch!r}@{key!r} moved: expected {expected}, found {actual}"
        )
        self.key = key
        self.branch = branch
        self.expected = expected
        self.actual = actual


class JournalError(VersionError):
    """Base class for commit-journal errors."""


class JournalCorruptError(JournalError):
    """A complete interior journal record failed its CRC or decode.

    Contrast with a *torn tail* (a partial final record from a crash),
    which is expected damage and silently truncated: a corrupt interior
    record means the history it carries cannot be trusted, so recovery
    must stop loudly rather than skip it.
    """


class MergeConflictError(VersionError):
    """A three-way merge found conflicting edits and no resolver."""

    def __init__(self, conflicts: list) -> None:
        super().__init__(f"{len(conflicts)} merge conflict(s)")
        self.conflicts = conflicts


class EngineError(ForkBaseError):
    """Base class for engine-level errors."""


class UnknownKeyError(EngineError, KeyError):
    """A data key does not exist in the engine."""

    def __init__(self, key: object) -> None:
        super().__init__(key)
        self.key = key

    def __str__(self) -> str:
        return f"unknown key: {self.key!r}"


class TypeMismatchError(EngineError, TypeError):
    """An operation was applied to an object of the wrong ForkBase type."""


class EngineLockedError(EngineError):
    """Another process holds the advisory lock on the data directory.

    :meth:`repro.db.engine.ForkBase.open` takes an ``fcntl.flock`` on
    ``<directory>/.lock`` so two processes cannot interleave journal
    appends.  The lock dies with its holder, so a leftover ``.lock``
    file after a crash is harmless — only a *live* holder blocks.
    """

    def __init__(self, directory: object) -> None:
        super().__init__(
            f"data directory {directory!r} is locked by another live process"
        )
        self.directory = directory


class ReadOnlyError(EngineError):
    """A write verb was refused because the engine is not HEALTHY.

    Raised once an unrecoverable write-path disk fault has flipped the
    engine into ``degraded-read-only`` (or ``failed``): reads,
    verification, and scrubbing still serve, but nothing may mutate
    state until a fresh :meth:`repro.db.engine.ForkBase.open` recovers
    the store.
    """

    def __init__(self, state: str, reason: object = None) -> None:
        detail = f": {reason}" if reason else ""
        super().__init__(f"engine is {state}, writes are refused{detail}")
        self.state = state
        self.reason = reason


class TamperError(ForkBaseError):
    """Integrity validation failed: the storage returned tampered content."""


class AccessDeniedError(ForkBaseError):
    """The principal lacks the permission required for the operation."""


class SchemaError(ForkBaseError):
    """A table/dataset schema was violated."""


class ApiError(ForkBaseError):
    """Base class for API-surface errors (CLI / REST router)."""

    status = 400


class NotFoundApiError(ApiError):
    """REST-style 404."""

    status = 404


class SimulatedCrash(BaseException):
    """Raised by the disk-fault shim's ``crash`` flavor to simulate a SIGKILL.

    A ``BaseException``, as ``SystemExit`` is: no ``except ForkBaseError``
    or ``except Exception`` handler catches it, so it ends the process
    the way a kill does.  Once raised, the shim stays dead and every
    later write, fsync or rename raises it again, so no ``finally`` on
    the way out persists anything.  Test harnesses let it propagate,
    abandon the process state, and then assert what a fresh open
    recovers.
    """

    def __init__(self, boundary: int, syscall: str, label: str = "") -> None:
        where = f"{syscall}:{label}" if label else syscall
        super().__init__(f"simulated crash at boundary #{boundary} ({where})")
        self.boundary = boundary
        self.syscall = syscall
        self.label = label


class ClusterError(ForkBaseError):
    """Base class for simulated-cluster errors."""


class NodeDownError(ClusterError, TransientError):
    """A storage node (or every replica target) is down right now."""


class NetworkError(ClusterError):
    """Base class for simulated-network faults between cluster endpoints."""


class NetworkPartitionedError(NetworkError, TransientError):
    """The sender and receiver sit on different sides of a partition.

    Transient by design: partitions heal, and the retry/hint machinery
    must treat an unreachable peer exactly like a flaky one.
    """


class MessageDroppedError(NetworkError, TransientError):
    """The network silently lost this message (the sender times out)."""


class NetworkTimeoutError(NetworkError, TransientError):
    """The message was delayed past the sender's deadline.

    The payload may still be delivered later (a late packet applying a
    stale write), which is why idempotent, content-addressed puts matter.
    """


class DeadlineExceededError(ClusterError, TransientError):
    """A client verb's deadline budget ran out before it could complete.

    Raised instead of letting a gray-failed (up but slow) replica chain
    retries and replica failovers past the caller's latency budget: the
    verb gives up deterministically once the remaining budget cannot
    cover another attempt.  Transient by design — the data says nothing
    about correctness, only that *this* attempt ran out of time; a caller
    with a fresh budget may simply try again.
    """

    def __init__(self, message: str, budget: int = 0, elapsed: int = 0) -> None:
        super().__init__(message)
        self.budget = budget
        self.elapsed = elapsed


class QuorumWriteError(ClusterError):
    """A write reached some replicas but fewer than the write quorum.

    Carries how many acknowledgements arrived so callers can decide
    whether hinted handoff has the write covered.
    """

    def __init__(self, message: str, acked: int = 0, required: int = 0) -> None:
        super().__init__(message)
        self.acked = acked
        self.required = required
