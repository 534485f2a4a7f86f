"""Physical chunk storage.

The key-value physical layer of Fig. 1: "chunks are materialized into the
key-value based physical storage so that each distinct chunk is stored
exactly once" (§II-C).  All stores share a :class:`~repro.store.base.ChunkStore`
interface and a :class:`~repro.store.stats.StoreStats` accounting object —
the stats are what the Fig. 4 / Table I benchmarks read to report logical
vs physical bytes and dedup hits.

Implementations:

- :class:`~repro.store.memory.InMemoryStore` — dict-backed, the default.
- :class:`~repro.store.segments.SegmentStore` — the one durable layout: a
  directory of append-only segments (each written through
  :class:`~repro.store.appendlog.AppendLog`) plus a watermarked index
  snapshot; owns discovery, recovery, roll, un-ack and close.  Two record
  formats sit on it and survive close/reopen:

  - :class:`~repro.store.filestore.FileStore` — ``[tag][len][payload]``
    records under ``segments/`` + FBIX ``index.dat``; one open/seek/read
    per fetch; a garbage tail ends a scan quietly (no checksum); bytes
    are reclaimed only by copying live chunks out.
  - :class:`~repro.store.packstore.PackStore` — CRC-framed, per-record
    compressed records under ``packs/`` + FBPX ``pack-index.dat`` (entries
    carry the record length); mmap reads; interior rot stops recovery
    loudly; segment compaction.  The throughput-oriented backend.
- :class:`~repro.store.nodecache.NodeCacheStore` — write-through LRU
  cache of *decoded* nodes (tree nodes, blob leaves, FNodes) behind the
  ``get_node`` / ``put_nodes`` seam every store has, so hot descents and
  warm commits skip fetching and parsing entirely.  Its LRU core,
  :class:`~repro.store.nodecache.NodeLRU`, is also the cluster
  coordinator's cache of verified nodes — the only cache there is.

Maintenance: :mod:`repro.store.scrub` re-hashes every materialized copy
against its content address and quarantines silent corruption (on
replicated stores, the cluster's anti-entropy pass then puts it back);
:mod:`repro.store.gc` sweeps unreachable chunks and drives pack segment
compaction.
"""

from repro.store.base import ChunkStore, physical_store
from repro.store.filestore import FileStore
from repro.store.memory import InMemoryStore
from repro.store.nodecache import NodeCacheStore
from repro.store.packstore import PackStore
from repro.store.scrub import ScrubReport
from repro.store.stats import StoreStats

__all__ = [
    "ChunkStore",
    "FileStore",
    "InMemoryStore",
    "NodeCacheStore",
    "PackStore",
    "ScrubReport",
    "StoreStats",
    "physical_store",
]
