"""LRU cache of *decoded* POS-Tree nodes over another chunk store.

A cache of raw chunks would save the device read but still pay entry
decoding on every descent.  At tree fan-outs of ~60 the decode dominates
a hot lookup, so this wrapper — the one cache in the store stack —
caches the decoded node objects themselves: a hot descent touches no
codec, no CRC, and no disk.  ``get`` deliberately always reaches the
backing store, so ``verify()`` and the scrubber see on-disk damage
through the cache.  Content addressing makes this safe: a uid names one
immutable byte string forever, so a decoded node never needs
invalidation, and sharing the cached object across readers is sound
because nodes are sealed (FB-IMMUT).

The cache is consumed through the duck-typed :meth:`get_node` hook: tree
handles probe ``getattr(store, "get_node", None)`` and fall back to
``get`` + decode when absent.  That keeps :mod:`repro.postree` (layer 5)
ignorant of this module (layer 9, beside gc/scrub) — the tree knows only
that *some* stores can hand it pre-decoded nodes.

This is the shared cache ROADMAP item 1 puts in front of concurrent
clients, so the node map and its counters are lock-guarded with the
discipline declared via ``# guarded-by:`` annotations (FB-LOCKED proves
every access sits under a dominating ``with self._lock``).  Decoding and
backing-store reads happen outside the lock: a cache miss must not stall
every hit behind the codec.  Read verification is inherited from the
backing store unless overridden — wrapping a verifying store must not
silently disable its tamper checks.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import List, Optional, Union

from repro.chunk import Chunk, ChunkType, Uid
from repro.postree.listtree import ListIndexNode, ListLeafNode
from repro.postree.node import IndexNode, LeafNode, load_node
from repro.store.base import ChunkStore, WrapperStore, physical_store
from repro.store.stats import StoreStats

#: Everything ``get_node`` can hand back: keyed-tree nodes, list-tree
#: nodes, or the raw chunk itself for types with no richer decoding
#: (BLOB, FNODE, META, ...).
DecodedNode = Union[LeafNode, IndexNode, ListLeafNode, ListIndexNode, Chunk]


def decode_chunk(chunk: Chunk) -> DecodedNode:
    """Decode one chunk into its natural in-memory node form."""
    if chunk.type in (ChunkType.LEAF, ChunkType.INDEX):
        return load_node(chunk)
    if chunk.type == ChunkType.LIST_LEAF:
        return ListLeafNode.from_chunk(chunk)
    if chunk.type == ChunkType.LIST_INDEX:
        return ListIndexNode.from_chunk(chunk)
    return chunk


class NodeCacheStore(WrapperStore):
    """Wraps a backing store with an LRU cache of decoded tree nodes."""

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
        self._nodes: "OrderedDict[Uid, DecodedNode]" = OrderedDict()  # guarded-by: self._lock
        self.node_hits = 0  # guarded-by: self._lock
        self.node_lookups = 0  # guarded-by: self._lock
        # Decoded nodes outlive their chunks unless the physical layer
        # tells us it swept them (gc, quarantine resync): a descent must
        # not keep resolving through storage that no longer holds it.
        physical_store(backing).subscribe_sweeps(self)

    # -- the decoded-node surface --------------------------------------------

    def get_node(self, uid: Uid) -> DecodedNode:
        """Fetch a chunk decoded to its node form, via the LRU cache.

        Raises :class:`~repro.errors.ChunkNotFoundError` like ``get``.
        """
        with self._lock:
            self.node_lookups += 1
            cached = self._nodes.get(uid)
            if cached is not None:
                self.node_hits += 1
                self._nodes.move_to_end(uid)
                return cached
        decoded = decode_chunk(self.backing.get(uid))
        with self._lock:
            self._remember(uid, decoded)
        return decoded

    def _remember(self, uid: Uid, decoded: DecodedNode) -> None:  # holds-lock: self._lock
        nodes = self._nodes
        nodes[uid] = decoded
        nodes.move_to_end(uid)
        while len(nodes) > self.capacity:
            nodes.popitem(last=False)

    # -- chunk primitives pass through (WrapperStore); a batch stays a batch --

    def _insert_many(self, chunks: List[Chunk]) -> None:
        self.backing.put_many(chunks)

    def _delete(self, uid: Uid) -> bool:
        with self._lock:
            self._nodes.pop(uid, None)
        return self.backing.delete(uid)

    def invalidate_swept(self, uids: List[Uid]) -> None:
        """Evict decoded nodes whose backing chunks were swept elsewhere."""
        with self._lock:
            for uid in uids:
                self._nodes.pop(uid, None)

    @property
    def node_hit_rate(self) -> float:
        """Fraction of ``get_node`` calls served without decoding."""
        with self._lock:
            if self.node_lookups == 0:
                return 0.0
            return self.node_hits / self.node_lookups

    def stats_snapshot(self) -> StoreStats:
        """The backing store's snapshot plus this layer's cache counters."""
        snap = self.backing.stats_snapshot()
        with self._lock:
            snap.cache_hits += self.node_hits
            snap.cache_lookups += self.node_lookups
        return snap
