"""Storage accounting.

Every benchmark number about storage efficiency in this reproduction comes
from here: Fig. 4's "+338.54 KB then +0.04 KB" is
``delta(physical_bytes)`` across two loads, and Table I's dedup comparison
is ``dedup_ratio`` across systems.  The indexing-structure survey
(arXiv:2003.02090) adds two more axes the pack backend is judged on —
read and write *amplification*, the ratio of device I/O to useful payload
bytes — so durable stores also account raw device traffic here
(``io_read_bytes`` / ``io_write_bytes``) and caches report their hit rate
in the same snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class StoreStats:
    """Counters maintained by every :class:`~repro.store.base.ChunkStore`."""

    #: put() calls that inserted a new chunk.
    puts_new: int = 0
    #: put() calls whose chunk already existed (deduplicated writes).
    puts_dup: int = 0
    #: Bytes of new chunk payloads actually materialized.
    physical_bytes: int = 0
    #: Bytes offered across all put() calls (new + duplicate).
    logical_bytes: int = 0
    #: get() calls that found the chunk.
    gets: int = 0
    #: get() calls that missed.
    misses: int = 0
    #: Payload bytes returned by successful get() calls.
    served_bytes: int = 0
    #: Raw bytes read from the device (record frames, index loads).
    io_read_bytes: int = 0
    #: Raw bytes written to the device (record frames, index snapshots).
    io_write_bytes: int = 0
    #: Lookups served from a cache layer (decoded nodes or raw chunks).
    cache_hits: int = 0
    #: Lookups that consulted a cache layer at all.
    cache_lookups: int = 0
    #: Records a pack store ran its codec on.
    codec_tries: int = 0
    #: Codec attempts whose output was stored (it met the savings floor).
    codec_kept: int = 0
    #: Payload bytes currently materialized (filled by ``stats_snapshot``).
    materialized_bytes: int = 0
    #: New-chunk counts per ChunkType name (where do bytes go?).
    by_type: Dict[str, int] = field(default_factory=dict)

    def record_put(self, type_name: str, size: int, new: bool) -> None:
        """Account one put() of ``size`` payload bytes."""
        self.logical_bytes += size
        if new:
            self.puts_new += 1
            self.physical_bytes += size
            self.by_type[type_name] = self.by_type.get(type_name, 0) + 1
        else:
            self.puts_dup += 1

    def record_get(self, hit: bool, size: int = 0) -> None:
        """Account one get() that served ``size`` payload bytes."""
        if hit:
            self.gets += 1
            self.served_bytes += size
        else:
            self.misses += 1

    def record_io(self, read: int = 0, written: int = 0) -> None:
        """Account raw device traffic (durable backends only)."""
        self.io_read_bytes += read
        self.io_write_bytes += written

    @property
    def dedup_ratio(self) -> float:
        """logical / physical bytes; 1.0 means no sharing at all."""
        if self.physical_bytes == 0:
            return 1.0
        return self.logical_bytes / self.physical_bytes

    @property
    def dedup_hit_rate(self) -> float:
        """Fraction of put() calls that were absorbed by deduplication."""
        total = self.puts_new + self.puts_dup
        if total == 0:
            return 0.0
        return self.puts_dup / total

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of cache lookups that hit (0.0 when no cache layer)."""
        if self.cache_lookups == 0:
            return 0.0
        return self.cache_hits / self.cache_lookups

    @property
    def read_amplification(self) -> float:
        """Device bytes read per payload byte served (arXiv:2003.02090)."""
        if self.served_bytes == 0:
            return 0.0
        return self.io_read_bytes / self.served_bytes

    @property
    def write_amplification(self) -> float:
        """Device bytes written per payload byte materialized."""
        if self.physical_bytes == 0:
            return 0.0
        return self.io_write_bytes / self.physical_bytes

    def snapshot(self) -> "StoreStats":
        """Copy the counters (for before/after deltas)."""
        return StoreStats(
            puts_new=self.puts_new,
            puts_dup=self.puts_dup,
            physical_bytes=self.physical_bytes,
            logical_bytes=self.logical_bytes,
            gets=self.gets,
            misses=self.misses,
            served_bytes=self.served_bytes,
            io_read_bytes=self.io_read_bytes,
            io_write_bytes=self.io_write_bytes,
            cache_hits=self.cache_hits,
            cache_lookups=self.cache_lookups,
            codec_tries=self.codec_tries,
            codec_kept=self.codec_kept,
            materialized_bytes=self.materialized_bytes,
            by_type=dict(self.by_type),
        )

    def delta(self, earlier: "StoreStats") -> "StoreStats":
        """Counters accumulated since ``earlier`` (a prior snapshot)."""
        by_type = {
            name: count - earlier.by_type.get(name, 0)
            for name, count in self.by_type.items()
            if count - earlier.by_type.get(name, 0)
        }
        return StoreStats(
            puts_new=self.puts_new - earlier.puts_new,
            puts_dup=self.puts_dup - earlier.puts_dup,
            physical_bytes=self.physical_bytes - earlier.physical_bytes,
            logical_bytes=self.logical_bytes - earlier.logical_bytes,
            gets=self.gets - earlier.gets,
            misses=self.misses - earlier.misses,
            served_bytes=self.served_bytes - earlier.served_bytes,
            io_read_bytes=self.io_read_bytes - earlier.io_read_bytes,
            io_write_bytes=self.io_write_bytes - earlier.io_write_bytes,
            cache_hits=self.cache_hits - earlier.cache_hits,
            cache_lookups=self.cache_lookups - earlier.cache_lookups,
            codec_tries=self.codec_tries - earlier.codec_tries,
            codec_kept=self.codec_kept - earlier.codec_kept,
            materialized_bytes=self.materialized_bytes - earlier.materialized_bytes,
            by_type=by_type,
        )

    def summary(self) -> Dict[str, object]:
        """The one-shot backend report the storage benches consume."""
        return {
            "physical_size": self.materialized_bytes,
            "physical_bytes": self.physical_bytes,
            "logical_bytes": self.logical_bytes,
            "dedup_ratio": round(self.dedup_ratio, 4),
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            "read_amplification": round(self.read_amplification, 4),
            "write_amplification": round(self.write_amplification, 4),
            "io_read_bytes": self.io_read_bytes,
            "io_write_bytes": self.io_write_bytes,
        }

    def describe(self) -> str:
        """One-line human summary."""
        return (
            f"physical={self.physical_bytes}B logical={self.logical_bytes}B "
            f"dedup_ratio={self.dedup_ratio:.2f} "
            f"new={self.puts_new} dup={self.puts_dup}"
        )
