"""LRU read-through cache over another chunk store.

Chunks are immutable, so the cache never needs invalidation — the single
nicest systems consequence of content addressing.

Read verification is **inherited from the backing store** by default:
for years-of-PRs this layer hardcoded ``verify_reads=False``, which meant
wrapping a verifying store in a cache silently disabled the client-side
tamper check on every cache hit (a miss was verified by the backing
store; a hit returned the cached chunk unexamined).  FB-TAMPER now flags
that class of bypass; pass ``verify_reads`` explicitly to opt out.

The cache is also the first store layer prepared for the multi-client
serving work (ROADMAP item 1): the LRU map and its counters are guarded
by a lock with the discipline declared via ``# guarded-by:`` annotations
that FB-LOCKED checks against the CFG.  The backing store is deliberately
called *outside* the lock — device reads must not serialize cache hits.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import List, Optional

from repro.chunk import Chunk, Uid
from repro.store.base import ChunkStore, WrapperStore, physical_store
from repro.store.stats import StoreStats


class CachedStore(WrapperStore):
    """Wraps a backing store with an LRU cache of raw chunks."""

    def __init__(
        self,
        backing: ChunkStore,
        capacity: int = 4096,
        verify_reads: Optional[bool] = None,
    ) -> None:
        super().__init__(backing, verify_reads)
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._cache: "OrderedDict[Uid, Chunk]" = OrderedDict()  # guarded-by: self._lock
        self.hits = 0  # guarded-by: self._lock
        self.lookups = 0  # guarded-by: self._lock
        # GC and quarantine resync remove chunks at the physical layer; a
        # sibling wrapper's delete path never passes through this cache,
        # so sweep notifications are how those entries get evicted.
        physical_store(backing).subscribe_sweeps(self)

    def _remember(self, chunk: Chunk) -> None:  # holds-lock: self._lock
        cache = self._cache
        cache[chunk.uid] = chunk
        cache.move_to_end(chunk.uid)
        while len(cache) > self.capacity:
            cache.popitem(last=False)

    def _insert(self, chunk: Chunk) -> None:
        self.backing.put(chunk)
        with self._lock:
            self._remember(chunk)

    def _insert_many(self, chunks: List[Chunk]) -> None:
        """Pass the whole batch down so durable backends batch fsyncs."""
        self.backing.put_many(chunks)
        with self._lock:
            for chunk in chunks:
                self._remember(chunk)

    def _fetch(self, uid: Uid) -> Optional[Chunk]:
        with self._lock:
            self.lookups += 1
            cached = self._cache.get(uid)
            if cached is not None:
                self.hits += 1
                self._cache.move_to_end(uid)
                return cached
        chunk = self.backing.get_maybe(uid)
        if chunk is not None:
            with self._lock:
                self._remember(chunk)
        return chunk

    def _contains(self, uid: Uid) -> bool:
        with self._lock:
            if uid in self._cache:
                return True
        return self.backing.has(uid)

    def _delete(self, uid: Uid) -> bool:
        with self._lock:
            self._cache.pop(uid, None)
        return self.backing.delete(uid)

    def invalidate_swept(self, uids: List[Uid]) -> None:
        """Evict entries whose backing copies were swept elsewhere."""
        with self._lock:
            for uid in uids:
                self._cache.pop(uid, None)

    @property
    def hit_rate(self) -> float:
        """Fraction of fetches served from cache."""
        with self._lock:
            if self.lookups == 0:
                return 0.0
            return self.hits / self.lookups

    def stats_snapshot(self) -> StoreStats:
        """The backing store's snapshot plus this layer's cache counters."""
        snap = self.backing.stats_snapshot()
        with self._lock:
            snap.cache_hits += self.hits
            snap.cache_lookups += self.lookups
        return snap
