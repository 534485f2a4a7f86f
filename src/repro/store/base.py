"""Abstract chunk store.

Subclasses implement the four raw primitives (``_insert``, ``_fetch``,
``_contains``, ``_ids``); the base class layers uniform accounting,
optional read verification, and batch helpers on top.
"""

from __future__ import annotations

import weakref
from typing import Any, Iterable, Iterator, List, Optional, Set, Tuple

from repro.chunk import Chunk, Uid
from repro.errors import ChunkCorruptionError, ChunkNotFoundError, StoreError
from repro.store.stats import StoreStats


def physical_store(store: "ChunkStore") -> "ChunkStore":
    """Peel every :class:`WrapperStore` down to the physical store.

    Sweep notification and segment compaction must talk to the physical
    layer — the one whose holdings actually change.
    """
    while isinstance(store, WrapperStore):
        store = store.backing
    return store


class ChunkStore:
    """Content-addressed key-value store for immutable chunks.

    ``put`` is idempotent: storing an already-present chunk is a no-op that
    is counted as a dedup hit.  ``verify_reads=True`` makes every ``get``
    recompute the SHA-256 of the returned chunk — the client-side defence
    the tamper-evidence demo (§III-C) relies on.
    """

    #: True when :meth:`delete` reclaims durably in place, so the garbage
    #: collector may sweep this store directly instead of copying live
    #: chunks out (see :mod:`repro.store.gc`).
    supports_in_place_sweep: bool = False

    def __init__(self, verify_reads: bool = False) -> None:
        self.stats = StoreStats()
        self.verify_reads = verify_reads
        #: Weak refs to stores that asked to hear about bulk removals
        #: (see :meth:`subscribe_sweeps`); weak so a subscribing cache
        #: wrapper can be dropped without unsubscribing.
        self._sweep_listeners: List["weakref.ReferenceType[ChunkStore]"] = []

    # -- primitives to implement -------------------------------------------

    def _insert(self, chunk: Chunk) -> None:
        raise NotImplementedError

    def _insert_many(self, chunks: List[Chunk]) -> None:
        """Materialize several novel chunks (pre-deduplicated by the caller).

        The default loops :meth:`_insert`; durable backends override it to
        amortize per-chunk costs (one flush/fsync and one index snapshot
        per batch instead of per chunk).
        """
        for chunk in chunks:
            self._insert(chunk)

    def _fetch(self, uid: Uid) -> Optional[Chunk]:
        raise NotImplementedError

    def _contains(self, uid: Uid) -> bool:
        raise NotImplementedError

    def _ids(self) -> Iterator[Uid]:
        raise NotImplementedError

    def _delete(self, uid: Uid) -> bool:
        raise NotImplementedError

    # -- public API ----------------------------------------------------------

    def put(self, chunk: Chunk) -> bool:
        """Store ``chunk`` if absent; return True if newly materialized."""
        new = not self._contains(chunk.uid)
        if new:
            self._insert(chunk)
        self.stats.record_put(chunk.type.name, chunk.size(), new)
        return new

    def put_many(self, chunks: Iterable[Chunk]) -> int:
        """Store several chunks in one batch; return how many were new.

        Deduplication happens up front (against the store and within the
        batch itself), then every novel chunk goes through the
        :meth:`_insert_many` hook so backends can batch the physical
        appends, fsyncs, and index snapshots.
        """
        fresh: List[Chunk] = []
        seen: Set[Uid] = set()
        for chunk in chunks:
            new = chunk.uid not in seen and not self._contains(chunk.uid)
            self.stats.record_put(chunk.type.name, chunk.size(), new)
            if new:
                seen.add(chunk.uid)
                fresh.append(chunk)
        if fresh:
            self._insert_many(fresh)
        return len(fresh)

    def get(self, uid: Uid) -> Chunk:
        """Fetch a chunk or raise :class:`ChunkNotFoundError`."""
        chunk = self._fetch(uid)
        self.stats.record_get(chunk is not None, chunk.size() if chunk else 0)
        if chunk is None:
            raise ChunkNotFoundError(uid)
        if self.verify_reads:
            chunk.verify()
        return chunk

    def get_maybe(self, uid: Uid) -> Optional[Chunk]:
        """Fetch a chunk or return None."""
        chunk = self._fetch(uid)
        self.stats.record_get(chunk is not None, chunk.size() if chunk else 0)
        if chunk is not None and self.verify_reads:
            chunk.verify()
        return chunk

    def has(self, uid: Uid) -> bool:
        """True if the chunk is materialized here."""
        return self._contains(uid)

    def verify_holdings(self) -> Tuple[Set[Uid], List[Uid]]:
        """Re-hash every listed copy once: ``(valid uids, suspect uids)``.

        A suspect is a copy whose first read failed with a
        :class:`StoreError`, found no bytes, or did not hash to its uid
        (a verifying store's read raises :class:`ChunkCorruptionError`);
        suspects keep the listing's order.  Telling rot from a wire
        mismatch or a transient error is the caller's re-read
        (:func:`~repro.store.scrub.diagnose_copy`).  This default spends
        one :meth:`get_maybe` per copy, so a wrapper's faults act per
        read here exactly as for any other reader.
        """
        valid: Set[Uid] = set()
        suspects: List[Uid] = []
        for uid in self.ids():
            try:
                chunk = self.get_maybe(uid)
            except (StoreError, ChunkCorruptionError):
                chunk = None
            if chunk is not None and chunk.is_valid():
                valid.add(uid)
            else:
                suspects.append(uid)
        return valid, suspects

    # -- the node I/O seam -----------------------------------------------------

    def put_nodes(self, pairs: Iterable[Tuple[Chunk, Any]]) -> int:
        """Store one verb's writes: ``(chunk, decoded form)`` pairs, children
        before parents; return how many chunks were new.

        Everything above the store that writes tree nodes or an FNode
        hands it here, one call per verb.  A store that caches nothing
        has no use for the decoded forms, and a durable backend gains
        nothing from the batch (its per-chunk flush is a sliver of a
        commit): this default is one plain :meth:`put` per chunk.
        """
        return sum(self.put(chunk) for chunk, _ in pairs)

    def get_node(self, uid: Uid) -> Any:
        """Fetch a chunk for a reader that wants its decoded form.

        Returns the decoded node when the store remembers one, else the
        raw :class:`Chunk` for the reader to decode itself.  A store that
        caches nothing — this default — is a plain :meth:`get`.
        """
        return self.get(uid)

    def cut_index(self) -> Any:
        """The blob leaves this store remembers, indexed by their first
        bytes (a :class:`~repro.store.nodecache.NodeLRU`), or None.

        :meth:`~repro.postree.listtree.BlobTree.from_bytes` reuses a
        leaf from it wherever the bytes it slices repeat one at a cut.
        A store that caches nothing — this default — has none.
        """
        return None

    def delete(self, uid: Uid) -> bool:
        """Unmaterialize a chunk; return True if it was present.

        Chunks are immutable but not sacred: garbage collection, replica
        rebalancing, and scrub quarantine all legitimately remove physical
        copies.  Deleting a chunk never invalidates its uid — re-putting
        identical content restores it bit-for-bit.
        """
        return self._delete(uid)

    def ids(self) -> List[Uid]:
        """All chunk ids currently materialized (unspecified order)."""
        return list(self._ids())

    def __contains__(self, uid: Uid) -> bool:
        return self._contains(uid)

    def __len__(self) -> int:
        return sum(1 for _ in self._ids())

    def physical_size(self) -> int:
        """Total payload bytes currently materialized."""
        total = 0
        for uid in self._ids():
            chunk = self._fetch(uid)
            if chunk is not None:
                total += chunk.size()
        return total

    def stats_snapshot(self) -> StoreStats:
        """One self-contained accounting snapshot (benchmark surface).

        Copies the live counters and fills ``materialized_bytes`` with the
        store's current physical payload size, so a single object carries
        logical size, physical size, dedup ratio, cache hit rate, and I/O
        amplification.  Wrapper stores override this to merge their cache
        counters with the backing store's device traffic.
        """
        snap = self.stats.snapshot()
        io_read = self.stats.io_read_bytes
        snap.materialized_bytes = self.physical_size()
        # The default physical_size() walks _fetch; that diagnostic scan
        # is not workload traffic, so keep it out of the amplification.
        self.stats.io_read_bytes = io_read
        return snap

    # -- sweep notification ---------------------------------------------------

    def subscribe_sweeps(self, listener: "ChunkStore") -> None:
        """Register a store to be told when chunks are bulk-removed here.

        Content addressing means a cached chunk can never be *stale*, but
        it can be *unbacked*: garbage collection and quarantine resync
        remove chunks from the physical store, and a cache wrapper that
        was not on the delete path would keep serving them — reads that
        succeed against storage that no longer holds the bytes.  Cache
        wrappers subscribe to their :func:`physical_store` at
        construction; :meth:`notify_swept` fans removals out to every
        live subscriber's :meth:`invalidate_swept`.  Held weakly:
        dropping the subscriber is enough to unsubscribe.
        """
        if all(existing() is not listener for existing in self._sweep_listeners):
            self._sweep_listeners.append(weakref.ref(listener))

    def notify_swept(self, uids: Iterable[Uid]) -> None:
        """Tell every subscribed store these uids were removed here."""
        swept = list(uids)
        if not swept or not self._sweep_listeners:
            return
        alive: List["weakref.ReferenceType[ChunkStore]"] = []
        for ref in self._sweep_listeners:
            listener = ref()
            if listener is None:
                continue
            alive.append(ref)
            listener.invalidate_swept(swept)
        self._sweep_listeners = alive

    def invalidate_swept(self, uids: List[Uid]) -> None:
        """Drop any cached state for removed uids; default is a no-op."""

    def sync(self) -> None:
        """Make every chunk stored so far survive power loss.

        The engine calls this before anything that makes a head durable
        (a journal fsync, a journal checkpoint), so no durable head points at
        a chunk that is not.  A store with nothing to fsync — this
        default — has nothing to do.
        """

    def close(self) -> None:
        """Release resources; default is a no-op."""

    def abandon(self) -> None:
        """Drop the store without orderly shutdown (crash simulation).

        Durable stores override this to release OS handles while skipping
        the snapshot/flush work ``close`` does; the default is ``close``.
        """
        self.close()

    def __enter__(self) -> "ChunkStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class WrapperStore(ChunkStore):
    """A store that stands in front of another one (its public ``backing``).

    Every primitive passes straight through; a subclass overrides only
    the ones it caches, counts or lies in.  ``_insert_many`` and
    ``put_nodes`` are deliberately *not* forwarded: with the loop
    defaults a batch reaches a subclass's ``_insert`` once per chunk and
    cannot bypass it; a cache that wants the backend's batch overrides
    them.  ``sync`` is forwarded.
    ``verify_reads=None`` inherits the backing store's setting — wrapping
    a verifying store must not silently disable its tamper check.
    """

    def __init__(self, backing: ChunkStore, verify_reads: Optional[bool] = None) -> None:
        super().__init__(backing.verify_reads if verify_reads is None else verify_reads)
        self.backing = backing
        # delete() passes through, so it is as durable as the backing's.
        self.supports_in_place_sweep = backing.supports_in_place_sweep

    def _insert(self, chunk: Chunk) -> None:
        self.backing.put(chunk)

    def _fetch(self, uid: Uid) -> Optional[Chunk]:
        return self.backing.get_maybe(uid)

    def _contains(self, uid: Uid) -> bool:
        return self.backing.has(uid)

    def _ids(self) -> Iterator[Uid]:
        return iter(self.backing.ids())

    def _delete(self, uid: Uid) -> bool:
        return self.backing.delete(uid)

    def __len__(self) -> int:
        return len(self.backing)

    def physical_size(self) -> int:
        return self.backing.physical_size()

    def sync(self) -> None:
        self.backing.sync()

    def close(self) -> None:
        self.backing.close()

    def abandon(self) -> None:
        self.backing.abandon()
