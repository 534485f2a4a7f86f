"""The ForkBase engine.

An extended key-value model (§II-D): "each object is identified by a key,
and contains a value of a specific type.  A key may have multiple
branches.  Given a key we can retrieve not only the current value in each
branch, but also its historical versions."

All writes are immutable — a Put creates an FNode whose uid is the
tamper-evident version stamped onto the branch (Fig. 6) — and all shared
content deduplicates at the page level in the chunk store (Fig. 4).
"""

from __future__ import annotations

import errno
import functools
import os
import time
from dataclasses import dataclass
from typing import IO, Any, Callable, Dict, List, Optional, Tuple, TypeVar, Union

try:  # POSIX advisory locking; absent on some platforms.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]

T = TypeVar("T")

from repro.chunk import Uid
from repro.errors import (
    ChunkCorruptionError,
    DiskFaultError,
    DiskFullError,
    EngineError,
    EngineLockedError,
    MergeConflictError,
    ReadOnlyError,
    TypeMismatchError,
    UnknownKeyError,
    map_os_error,
)
from repro.faults.retry import RetryPolicy
from repro.postree.diff import TreeDiff
from repro.postree.merge import MergeConflict, Resolver
from repro.store import FileStore, InMemoryStore, NodeCacheStore, PackStore
from repro.store.base import ChunkStore
from repro.store.nodecache import DURABLE_CAPACITY
from repro.types import FBlob, FList, FMap, FObject, FSet, load_object, type_for_python
from repro.types.convert import PyValue, unwrap, wrap
from repro.vcs import CommitJournal, FNode, Heads, VersionGraph
from repro.vcs.branches import DEFAULT_BRANCH

#: Engine health states: a disk fault that may have lost acknowledged
#: state demotes the engine to read-only; a disk fault on the *read*
#: path while already degraded fails it outright.  Reopening the
#: directory runs recovery and yields a fresh, healthy engine.
HEALTH_HEALTHY = "healthy"
HEALTH_DEGRADED = "degraded-read-only"
HEALTH_FAILED = "failed"

#: What :meth:`ForkBase.open` accepts as ``backend``.
BACKENDS = ("auto", "file", "pack")


@dataclass(frozen=True)
class HealthReport:
    """What :meth:`ForkBase.health` returns."""

    state: str
    reason: Optional[str] = None

    @property
    def writable(self) -> bool:
        return self.state == HEALTH_HEALTHY


def _writable_verb(fn: Callable[..., T]) -> Callable[..., T]:
    """Gate a mutating verb on engine health and degrade on disk faults.

    A :class:`DiskFullError` passes through untouched: ENOSPC exhausts
    its bounded retries with the op cleanly un-acked, so the engine
    stays healthy and the caller may free space and try again.  A
    :class:`DiskFaultError` means state on disk can no longer be
    trusted to advance: the engine drops to read-only.
    """

    @functools.wraps(fn)
    def wrapper(self: "ForkBase", *args: Any, **kwargs: Any) -> T:
        self._check_writable()
        try:
            return fn(self, *args, **kwargs)
        except DiskFaultError as exc:
            self._degrade(str(exc))
            raise

    return wrapper


@dataclass(frozen=True)
class VersionInfo:
    """What a Put/Merge returns: the stamped version and its context."""

    key: str
    branch: str
    uid: Uid
    type_name: str
    author: str
    message: str

    @property
    def version(self) -> str:
        """Base32 rendering of the uid (the demo UI's version string)."""
        return self.uid.base32()

    def __repr__(self) -> str:
        return f"VersionInfo({self.key!r}@{self.branch}: {self.uid.short(16)})"


class ForkBase:
    """Git-for-data engine over an immutable chunk store.

    Single-threaded: an engine serves one caller at a time, and no module
    in ``src/`` starts a thread (``tests/test_single_threaded.py``).  No
    lock remains in ``src/``: the node cache, the branch table and every
    counter are updated unguarded, so nothing here is safe to share
    between threads.
    """

    def __init__(
        self,
        store: Optional[ChunkStore] = None,
        author: str = "anonymous",
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        """An engine over ``store``; with none, an in-memory one.

        The in-memory default is a :class:`NodeCacheStore` of
        :data:`~repro.store.nodecache.DEFAULT_CAPACITY` decoded
        nodes over an :class:`InMemoryStore`, so a whole-value put's walk
        over the head and the read that follows it skip the node codec.
        ``ForkBase(InMemoryStore())`` is the same engine without the
        cache.  Uids, roots and answers are the same either way; a cached
        node can outlive rot in its chunk until :meth:`verify` or
        :meth:`scrub`, which read the chunks themselves, looks.
        :meth:`open` keeps a smaller cache by default
        (:data:`~repro.store.nodecache.DURABLE_CAPACITY`).
        """
        self.store = store if store is not None else NodeCacheStore(InMemoryStore())
        self.graph = VersionGraph(self.store)
        #: Branch heads and, on a durable engine, their commit journal.
        self.heads = Heads(self.store)
        self.author = author
        # Commit timestamps are metadata, not identity: the wall-clock
        # default is the injectable-clock escape hatch, not a hashing input.
        self._clock = clock if clock is not None else time.time  # fbcheck: ignore[FB-DETERM]
        #: Open handle on ``<directory>/.lock`` while this engine holds the
        #: single-writer advisory lock (durable engines only).
        self._lock_handle: Optional[IO[str]] = None
        #: Transparent retry for transient store faults on read verbs.
        self.retry = RetryPolicy.instant()
        #: Disk-fault health machine: HEALTHY → DEGRADED_READ_ONLY → FAILED.
        self._health = HEALTH_HEALTHY
        self._health_reason: Optional[str] = None

    # -- health machine -----------------------------------------------------------

    def health(self) -> HealthReport:
        """Current engine health (see :class:`HealthReport`)."""
        return HealthReport(self._health, self._health_reason)

    def _degrade(self, reason: str) -> None:
        """Demote to read-only after a write-path disk fault (one-way).

        A durable engine re-derives its heads with :meth:`open`'s replay:
        the fault may have un-acked chunks under journaled heads.
        """
        if self._health == HEALTH_HEALTHY:
            self._health = HEALTH_DEGRADED
            self._health_reason = reason
            self.heads.reload()

    def _fail(self, reason: str) -> None:
        """Terminal state: the read path faulted while already degraded."""
        if self._health != HEALTH_FAILED:
            self._health = HEALTH_FAILED
            self._health_reason = reason

    def _check_writable(self) -> None:
        if self._health != HEALTH_HEALTHY:
            raise ReadOnlyError(self._health, self._health_reason)

    def _guarded(self, fn: Callable[[], T]) -> T:
        """Run a read verb with transient retry and corruption self-healing:
        on a detected-corrupt read, scrub the store (quarantine + repair
        where replicas allow) and run it once more — it then returns
        healed data or an honest ChunkNotFoundError, never wrong bytes."""
        try:
            return self.retry.call(fn)
        except ChunkCorruptionError:
            self.scrub()
            return self.retry.call(fn)
        except DiskFaultError as exc:
            if self._health == HEALTH_DEGRADED:
                self._fail(str(exc))
            raise

    # -- persistence -------------------------------------------------------------

    @classmethod
    def open(
        cls,
        directory: str,
        author: str = "anonymous",
        fsync: str = "batch",
        journal_limit: int = 1 << 20,
        backend: str = "auto",
        node_cache: int = DURABLE_CAPACITY,
    ) -> "ForkBase":
        """Open (or create) a durable engine rooted at ``directory``.

        Chunks live in an append-only durable store — ``backend`` picks
        one-record-per-read :class:`FileStore` (``"file"``, the default
        for fresh directories) or mmap-backed, compressed
        :class:`~repro.store.packstore.PackStore` (``"pack"``);
        ``"auto"`` detects which layout already lives on disk.  Both
        yield bit-identical uids and roots — the backend is invisible
        above the chunk layer.  A pack store compresses with zstd when
        zstandard is importable, zlib otherwise.  A pack record keeps
        its compressed form only if that saves at least 1/8 of its
        bytes; after a miss, the next 63 records of the same chunk type
        are stored raw untried, so digest-heavy index and commit records
        skip the codec while text keeps shrinking.  ``node_cache`` is the
        capacity, in decoded nodes, of the write-through LRU
        (:class:`NodeCacheStore`) layered on the backend:
        :data:`~repro.store.nodecache.DURABLE_CAPACITY` by default, so
        the index levels a verb walks and the leaves a branch → edit →
        diff → merge cycle revisits are decoded once, not fetched again
        by every verb; ``0`` is the cacheless engine, whose every node
        read reaches the device.  The cache never answers ``verify``,
        ``scrub`` or gc, which read the chunks themselves, and a reopen
        starts it empty.  Branch heads (the client-side head record of
        the paper's threat model) live in one file, the write-ahead
        commit journal ``journal.wal``: a checkpoint of every head, then
        each head move since, all made by the engine's
        :class:`~repro.vcs.heads.Heads`.  ``journal_limit`` is how many
        bytes appended since a checkpoint trigger the next; ``close``
        writes one too.  Recovery replays the file onto an empty table,
        stops at the first head made since the checkpoint whose FNode the
        store does not hold, and rewrites the journal if it dropped
        anything.  ``fsync`` is the journal's policy: under ``always`` an
        acknowledged op survives a power loss; under ``batch`` and
        ``never`` recovery gives a prefix of acknowledged history, and
        every recovered head verifies.  A directory holding an older
        format's ``branches.json`` is refused.

        The directory is guarded by an advisory ``fcntl.flock`` on
        ``<directory>/.lock``: a second live process opening the same
        directory gets :class:`~repro.errors.EngineLockedError` instead
        of interleaving journal appends.  The OS releases the lock when
        its holder dies, so a stale ``.lock`` file never wedges the
        store.
        """
        # Every argument is checked before the directory is touched.
        if backend not in BACKENDS:
            raise EngineError(f"unknown storage backend {backend!r}")
        if isinstance(node_cache, bool) or not isinstance(node_cache, int) or node_cache < 0:
            raise ValueError(f"node_cache must be an int >= 0, got {node_cache!r}")
        os.makedirs(directory, exist_ok=True)
        legacy = os.path.join(directory, "branches.json")
        if os.path.exists(legacy):
            raise EngineError(f"{legacy}: heads file of an older format; not opening")
        lock_handle = cls._acquire_lock(directory)
        store: Optional[ChunkStore] = None
        journal: Optional[CommitJournal] = None
        try:
            chunk_dir = os.path.join(directory, "chunks")
            store = cls._open_store(chunk_dir, backend, node_cache)
            engine = cls(store, author=author)
            engine._lock_handle = lock_handle
            journal = CommitJournal(os.path.join(directory, "journal.wal"), fsync=fsync)
            engine.heads = Heads(store, journal, journal_limit)
        except BaseException:
            # A failed open persists nothing and keeps no handle.
            if journal is not None:
                journal.abandon()
            if store is not None:
                store.abandon()
            cls._release_lock(lock_handle)
            raise
        return engine

    @staticmethod
    def _open_store(chunk_dir: str, backend: str, node_cache: int) -> ChunkStore:
        """Build the durable chunk store for :meth:`open`.

        ``auto`` keeps reopen honest: an existing layout on disk decides
        the backend, and a *fresh* directory defaults to the file layout
        (seed-compatible) — overridable via the ``FORKBASE_BACKEND``
        environment variable, which is how CI runs the whole suite against
        each backend.  Asking explicitly for the wrong backend on a
        populated directory is an :class:`~repro.errors.EngineError`
        rather than a silently empty store.
        """
        file_layout = os.path.isdir(os.path.join(chunk_dir, "segments"))
        pack_layout = os.path.isdir(os.path.join(chunk_dir, "packs"))
        if backend == "auto":
            if pack_layout and file_layout:
                raise EngineError(
                    f"{chunk_dir} holds both a file layout (segments/) and "
                    f"a pack layout (packs/); open with an explicit backend"
                )
            if pack_layout:
                backend = "pack"
            elif file_layout:
                backend = "file"
            else:
                backend = os.environ.get("FORKBASE_BACKEND", "file")
        elif backend == "file" and pack_layout and not file_layout:
            raise EngineError(
                f"{chunk_dir} holds a pack-layout store; open with "
                f"backend='pack' (or 'auto')"
            )
        elif backend == "pack" and file_layout and not pack_layout:
            raise EngineError(
                f"{chunk_dir} holds a file-layout store; open with "
                f"backend='file' (or 'auto')"
            )
        store: ChunkStore
        if backend == "file":
            store = FileStore(chunk_dir)
        elif backend == "pack":
            store = PackStore(chunk_dir)
        else:
            # FORKBASE_BACKEND names something else.
            raise EngineError(f"unknown storage backend {backend!r}")
        if node_cache:
            store = NodeCacheStore(store, capacity=node_cache)
        return store

    @staticmethod
    def _acquire_lock(directory: str) -> Optional[IO[str]]:
        """Take the single-writer advisory lock on ``<directory>/.lock``.

        ``flock`` is bound to the open file description, so the OS drops
        the lock the moment the holder exits or crashes — stale lock
        files are harmless.  Returns None where ``fcntl`` is unavailable
        (no advisory locking on this platform).
        """
        if fcntl is None:  # pragma: no cover - non-POSIX platform
            return None
        handle = open(os.path.join(directory, ".lock"), "a+", encoding="utf-8")
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as exc:
            handle.close()
            # Contention is the only OSError that means "locked"; a disk
            # fault here must not masquerade as a second live writer.
            if exc.errno in (errno.EAGAIN, errno.EACCES, errno.EWOULDBLOCK):
                raise EngineLockedError(directory) from None
            raise map_os_error(exc, "flock", directory) from exc
        return handle

    @staticmethod
    def _release_lock(handle: Optional[IO[str]]) -> None:
        """Release and close the advisory lock handle (idempotent)."""
        if handle is None or handle.closed:
            return
        try:
            if fcntl is not None:  # pragma: no branch
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
        finally:
            handle.close()

    def close(self) -> None:
        """Checkpoint branch heads (if durable) and close the store.

        A degraded or failed engine does **not** rewrite its journal over a
        faulty device — it abandons, leaving the journal exactly as the
        last successful append left it; the next :meth:`open` recovers.
        """
        if self._health != HEALTH_HEALTHY:
            self.abandon()
            return
        try:
            self.heads.close()
            self.store.close()
        except (DiskFullError, DiskFaultError) as exc:
            self._degrade(str(exc))
            self.abandon()
            raise
        finally:
            self._release_lock(self._lock_handle)
            self._lock_handle = None

    def abandon(self) -> None:
        """Drop the engine without persisting anything (crash simulation).

        The in-process SIGKILL analogue for tests: OS handles are
        released, no checkpoint is written, and the journal stays
        exactly as the last append left it — recovery happens in the
        next :meth:`open`.
        """
        self.heads.abandon()
        self.store.abandon()
        self._release_lock(self._lock_handle)
        self._lock_handle = None

    def __enter__(self) -> "ForkBase":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- resolution helpers --------------------------------------------------------

    def _resolve(
        self,
        key: str,
        branch: Optional[str] = None,
        version: Optional[Union[Uid, str]] = None,
    ) -> Uid:
        """Resolve a (branch | version) reference to a version uid."""
        if version is not None:
            uid = Uid.parse(version) if isinstance(version, str) else version
            if not self.graph.exists(uid):
                raise UnknownKeyError(f"{key}@{uid.short(16)}")
            return uid
        branch = branch or DEFAULT_BRANCH
        return self.heads.table.head(key, branch)

    def _load_fnode(
        self, key: str, branch: Optional[str], version: Optional[Union[Uid, str]]
    ) -> FNode:
        return self.graph.load(self._resolve(key, branch, version))

    # -- core verbs -------------------------------------------------------------------

    @_writable_verb
    def put(
        self,
        key: str,
        value: Union[PyValue, FObject],
        branch: str = DEFAULT_BRANCH,
        message: str = "",
        author: Optional[str] = None,
    ) -> VersionInfo:
        """Store a new version of ``key`` on ``branch``.

        The first Put on a branch creates it (from nothing for a new key).
        Every Put is "stamped with a unique version that is appended to
        the corresponding branch" (§III-C).
        """
        bases: Tuple[Uid, ...] = ()
        expected: Optional[Uid] = None
        onto: Optional[FObject] = None
        if self.heads.table.has_branch(key, branch):
            parent_uid = self.heads.table.head(key, branch)
            parent = self.graph.load(parent_uid)
            # Checked before the value is wrapped: a plain value of the
            # wrong type must not leave its chunks behind.
            type_name = type_for_python(value)
            if parent.type_name != type_name:
                raise TypeMismatchError(
                    f"{key!r} is {parent.type_name}, cannot put {type_name}"
                )
            if isinstance(value, (dict, set, frozenset)):
                # The head a whole-value put can edit; loading a map or a
                # set is a view on its root, no read.
                onto = load_object(self.store, parent.type_name, parent.value_root)
            bases = (parent_uid,)
            expected = parent_uid
        obj = wrap(self.store, value, onto=onto)
        fnode = FNode(
            key=key,
            type_name=obj.TYPE_NAME,
            value_root=obj.root,
            bases=bases,
            author=author or self.author,
            message=message,
            timestamp=float(self._clock()),
        )
        uid = self.graph.commit(fnode)
        # CAS against the parent this commit was derived from: if another
        # writer moved the head in between, fail instead of orphaning them.
        self.heads.move(
            {"op": "set-head", "key": key, "branch": branch, "head": uid, "prev": expected}
        )
        return VersionInfo(key, branch, uid, obj.TYPE_NAME, fnode.author, message)

    def get(
        self,
        key: str,
        branch: Optional[str] = None,
        version: Optional[Union[Uid, str]] = None,
    ) -> FObject:
        """Fetch the typed object at a branch head or explicit version."""
        return self._guarded(lambda: self._read(key, branch, version))

    def get_value(
        self,
        key: str,
        branch: Optional[str] = None,
        version: Optional[Union[Uid, str]] = None,
    ) -> PyValue:
        """Like :meth:`get` but materialized to a plain Python value.

        One guard around the load and the materialization, which reads
        the value's nodes: a transient fault is retried and a corrupt
        read scrubbed once, as for :meth:`get`.
        """
        return self._guarded(lambda: unwrap(self._read(key, branch, version)))

    def _read(
        self, key: str, branch: Optional[str], version: Optional[Union[Uid, str]]
    ) -> FObject:
        """The unguarded body of :meth:`get`."""
        fnode = self._load_fnode(key, branch, version)
        return load_object(self.store, fnode.type_name, fnode.value_root)

    def head(self, key: str, branch: str = DEFAULT_BRANCH) -> Uid:
        """Current head version of a branch."""
        return self.heads.table.head(key, branch)

    def latest(self, key: str) -> Dict[str, Uid]:
        """All branch heads for a key."""
        return self.heads.table.heads(key)

    def keys(self) -> List[str]:
        """All data keys (the List verb)."""
        return self.heads.table.keys()

    def exists(self, key: str, branch: Optional[str] = None) -> bool:
        """Does the key (and optionally the branch) exist?"""
        if branch is None:
            return key in self.heads.table
        return self.heads.table.has_branch(key, branch)

    def branches(self, key: str) -> List[str]:
        """Branch names for a key."""
        if key not in self.heads.table:
            raise UnknownKeyError(key)
        return self.heads.table.branches(key)

    @_writable_verb
    def branch(
        self,
        key: str,
        new_branch: str,
        from_branch: Optional[str] = None,
        version: Optional[Union[Uid, str]] = None,
    ) -> Uid:
        """Fork a branch from another branch's head or from a version."""
        head = self._resolve(key, from_branch, version)
        self.heads.move({"op": "create-branch", "key": key, "branch": new_branch, "head": head})
        return head

    fork = branch  # the paper uses both words for the same operation

    @_writable_verb
    def rename_branch(self, key: str, old: str, new: str) -> None:
        """Rename a branch (head preserved)."""
        self.heads.move({"op": "rename-branch", "key": key, "old": old, "new": new})

    @_writable_verb
    def delete_branch(self, key: str, branch: str) -> None:
        """Drop a branch head; its versions remain addressable."""
        self.heads.move({"op": "delete-branch", "key": key, "branch": branch})

    @_writable_verb
    def rename(self, key: str, new_key: str) -> None:
        """Rename a data key (branch heads move; history keeps old name)."""
        self.heads.move({"op": "rename-key", "old": key, "new": new_key})

    @_writable_verb
    def drop(self, key: str) -> None:
        """Forget every branch head of ``key`` (versions stay addressable)."""
        if key not in self.heads.table:
            raise UnknownKeyError(key)
        self.heads.move({"op": "drop-key", "key": key})

    def history(
        self,
        key: str,
        branch: Optional[str] = None,
        version: Optional[Union[Uid, str]] = None,
        limit: Optional[int] = None,
    ) -> List[FNode]:
        """Versions reachable from a head, newest first."""
        head = self._resolve(key, branch, version)
        return self._guarded(lambda: list(self.graph.history(head, limit=limit)))

    def meta(self, key: str, branch: str = DEFAULT_BRANCH) -> Dict[str, object]:
        """The Meta verb: descriptive facts about a branch head."""
        head = self.heads.table.head(key, branch)
        fnode = self.graph.load(head)
        obj = load_object(self.store, fnode.type_name, fnode.value_root)
        size: Optional[int]
        if isinstance(obj, (FMap, FSet, FList)):
            size = len(obj)
        elif isinstance(obj, FBlob):
            size = obj.size()
        else:
            size = None
        return {
            "key": key,
            "branch": branch,
            "version": head.base32(),
            "type": fnode.type_name,
            "author": fnode.author,
            "message": fnode.message,
            "timestamp": fnode.timestamp,
            "bases": [base.base32() for base in fnode.bases],
            "size": size,
            "branches": self.heads.table.branches(key),
        }

    # -- diff / merge -------------------------------------------------------------------

    def diff(
        self,
        key: str,
        branch_a: Optional[str] = None,
        branch_b: Optional[str] = None,
        version_a: Optional[Union[Uid, str]] = None,
        version_b: Optional[Union[Uid, str]] = None,
    ) -> TreeDiff:
        """Differential query between two branches/versions of one key.

        Supported for map and set values (the POS-Tree-backed types); the
        result prunes shared sub-trees, so cost is O(D log N).  The
        one-key case of :meth:`diff_objects`.
        """
        return self.diff_objects(key, key, branch_a, branch_b, version_a, version_b)

    @_writable_verb
    def merge(
        self,
        key: str,
        from_branch: str,
        into_branch: str = DEFAULT_BRANCH,
        resolver: Optional[Resolver] = None,
        message: str = "",
        author: Optional[str] = None,
    ) -> VersionInfo:
        """Three-way merge of ``from_branch`` into ``into_branch``.

        The merge base is the lowest common ancestor in the derivation
        graph.  Fast-forwards are detected (head simply moves).  Map/set
        values merge at sub-tree granularity; other types merge only when
        one side is unchanged (or via ``resolver`` on whole values).
        """
        head_into = self.heads.table.head(key, into_branch)
        head_from = self.heads.table.head(key, from_branch)
        if head_into == head_from or self.graph.is_ancestor(head_from, head_into):
            fnode = self.graph.load(head_into)
            return VersionInfo(
                key, into_branch, head_into, fnode.type_name, fnode.author,
                "already up to date",
            )
        if self.graph.is_ancestor(head_into, head_from):
            # Fast-forward: no new commit needed, the head just advances.
            self.heads.move({"op": "set-head", "key": key, "branch": into_branch,
                             "head": head_from, "prev": head_into})
            fnode = self.graph.load(head_from)
            return VersionInfo(
                key, into_branch, head_from, fnode.type_name, fnode.author,
                "fast-forward",
            )

        base_uid = self.graph.lowest_common_ancestor(head_into, head_from)
        if base_uid is None:
            raise EngineError(
                f"no common ancestor between {into_branch!r} and {from_branch!r}"
            )
        fnode_base = self.graph.load(base_uid)
        fnode_a = self.graph.load(head_into)
        fnode_b = self.graph.load(head_from)
        if not (fnode_a.type_name == fnode_b.type_name == fnode_base.type_name):
            raise TypeMismatchError("cannot merge versions of different types")

        merged_root = self._merge_values(fnode_base, fnode_a, fnode_b, resolver)
        fnode = FNode(
            key=key,
            type_name=fnode_a.type_name,
            value_root=merged_root,
            bases=(head_into, head_from),
            author=author or self.author,
            message=message or f"merge {from_branch} into {into_branch}",
            timestamp=float(self._clock()),
        )
        uid = self.graph.commit(fnode)
        self.heads.move({"op": "set-head", "key": key, "branch": into_branch,
                         "head": uid, "prev": head_into})
        return VersionInfo(
            key, into_branch, uid, fnode.type_name, fnode.author, fnode.message
        )

    def _merge_values(
        self,
        base: FNode,
        side_a: FNode,
        side_b: FNode,
        resolver: Optional[Resolver],
    ) -> Uid:
        """Merge two value roots against a base; return the merged root."""
        if side_a.value_root == side_b.value_root:
            return side_a.value_root
        if side_a.value_root == base.value_root:
            return side_b.value_root
        if side_b.value_root == base.value_root:
            return side_a.value_root
        obj_base = load_object(self.store, base.type_name, base.value_root)
        obj_a = load_object(self.store, side_a.type_name, side_a.value_root)
        obj_b = load_object(self.store, side_b.type_name, side_b.value_root)
        if isinstance(obj_a, FMap):
            merged, _ = obj_a.merge(obj_base, obj_b, resolver)
            return merged.root
        if isinstance(obj_a, FSet):
            from repro.postree.merge import three_way_merge

            result = three_way_merge(
                obj_base.tree, obj_a.tree, obj_b.tree, resolver
            )
            return result.root
        # Whole-value conflict for non-mergeable types.
        conflict = MergeConflict(
            key=base.key.encode("utf-8"),
            base_value=bytes(base.value_root),
            a_value=bytes(side_a.value_root),
            b_value=bytes(side_b.value_root),
        )
        if resolver is None:
            raise MergeConflictError([conflict])
        choice = resolver(conflict)
        if choice == conflict.a_value:
            return side_a.value_root
        if choice == conflict.b_value:
            return side_b.value_root
        raise MergeConflictError([conflict])

    def diff_objects(
        self,
        key_a: str,
        key_b: str,
        branch_a: Optional[str] = None,
        branch_b: Optional[str] = None,
        version_a: Optional[Union[Uid, str]] = None,
        version_b: Optional[Union[Uid, str]] = None,
    ) -> TreeDiff:
        """Differential query across two *different* keys.

        The demo loads two near-identical CSVs as Dataset-1 and Dataset-2
        and compares them; structural invariance makes this exactly as
        cheap as a branch diff — the trees share pages purely by content.
        """
        fnode_a = self._load_fnode(key_a, branch_a, version_a)
        fnode_b = self._load_fnode(key_b, branch_b, version_b)
        if fnode_a.type_name != fnode_b.type_name:
            raise TypeMismatchError(
                f"cannot diff {fnode_a.type_name} against {fnode_b.type_name}"
            )
        obj_a = load_object(self.store, fnode_a.type_name, fnode_a.value_root)
        obj_b = load_object(self.store, fnode_b.type_name, fnode_b.value_root)
        if isinstance(obj_a, (FMap, FSet)):
            from repro.postree.diff import diff_trees

            return diff_trees(obj_a.tree, obj_b.tree)
        raise TypeMismatchError(
            f"differential query unsupported for type {fnode_a.type_name}"
        )

    # -- maintenance & integrity --------------------------------------------------------

    def verify(
        self,
        key: str,
        branch: Optional[str] = None,
        version: Optional[Union[Uid, str]] = None,
        check_history: bool = True,
    ):
        """Client-side tamper-evidence validation of a head or version.

        Returns a :class:`repro.security.verify.VerificationReport`.
        """
        from repro.security.verify import Verifier

        uid = self._resolve(key, branch, version)
        return Verifier(self.store).verify_version(uid, check_history=check_history)

    def scrub(self):
        """One integrity-scrub pass over the chunk store.

        Re-hashes every materialized copy against its content address and
        quarantines rot; on a replicated store one anti-entropy pass then
        puts it back from trusted replicas.  Returns a
        :class:`repro.store.scrub.ScrubReport`.
        A healthy engine checkpoints first, as :meth:`collect_garbage` does.
        """
        from repro.store.scrub import scrub

        if self._health == HEALTH_HEALTHY:
            try:
                self.heads.checkpoint()
            except DiskFaultError as exc:
                self._degrade(str(exc))
        return scrub(self.store)

    @_writable_verb
    def collect_garbage(self, dry_run: bool = False, compact: bool = False):
        """Checkpoint, so replay never takes a swept FNode for a crash
        loss, then sweep chunks unreachable from any branch head (see
        :mod:`repro.store.gc`).  ``compact=True`` additionally rewrites a
        segmented store's segments so swept bytes return to the OS."""
        from repro.store.gc import collect_garbage

        if not dry_run:
            self.heads.checkpoint()
        return collect_garbage(self, dry_run=dry_run, compact=compact)

    # -- storage accounting ----------------------------------------------------------

    def storage_stats(self):
        """The chunk store's accounting (Fig. 4 / Table I numbers)."""
        return self.store.stats

    def storage_snapshot(self):
        """One self-contained :class:`~repro.store.stats.StoreStats` copy:
        logical/physical bytes, dedup ratio, cache hit rate, and I/O
        amplification — the row the storage benches report per backend."""
        return self.store.stats_snapshot()

    def physical_size(self) -> int:
        """Total materialized payload bytes."""
        return self.store.physical_size()
