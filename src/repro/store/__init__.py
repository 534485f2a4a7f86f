"""Physical chunk storage.

The key-value physical layer of Fig. 1: "chunks are materialized into the
key-value based physical storage so that each distinct chunk is stored
exactly once" (§II-C).  All stores share a :class:`~repro.store.base.ChunkStore`
interface and a :class:`~repro.store.stats.StoreStats` accounting object —
the stats are what the Fig. 4 / Table I benchmarks read to report logical
vs physical bytes and dedup hits.

Implementations:

- :class:`~repro.store.memory.InMemoryStore` — dict-backed, the default.
- :class:`~repro.store.filestore.FileStore` — append-only segment files
  with a persisted index; survives close/reopen.
- :class:`~repro.store.packstore.PackStore` — append-only pack files with
  CRC-framed compressed records, mmap reads, an in-RAM uid index, and
  segment compaction; the throughput-oriented durable backend.
- :class:`~repro.store.cached.CachedStore` — LRU read-through cache of
  raw chunks over any other store.
- :class:`~repro.store.nodecache.NodeCacheStore` — LRU cache of *decoded*
  POS-Tree nodes, so hot descents skip parsing entirely.

Maintenance: :mod:`repro.store.scrub` re-hashes every materialized copy
against its content address, quarantining (and, on replicated stores,
repairing) silent corruption; :mod:`repro.store.gc` sweeps unreachable
chunks and drives pack segment compaction.
"""

from repro.store.base import ChunkStore, physical_store
from repro.store.cached import CachedStore
from repro.store.filestore import FileStore
from repro.store.memory import InMemoryStore
from repro.store.nodecache import NodeCacheStore
from repro.store.packstore import PackStore
from repro.store.scrub import ScrubReport, Scrubber, scrub
from repro.store.stats import StoreStats

__all__ = [
    "ChunkStore",
    "CachedStore",
    "FileStore",
    "InMemoryStore",
    "NodeCacheStore",
    "PackStore",
    "ScrubReport",
    "Scrubber",
    "StoreStats",
    "physical_store",
    "scrub",
]
