"""One segmented append-only log under both durable backends.

A segment store is a directory of numbered append-only segment files
plus one index snapshot that maps each uid to where its record starts.
What does not depend on what a record looks like lives here, once;
:class:`~repro.store.filestore.FileStore` and
:class:`~repro.store.packstore.PackStore` are two record formats over it.

The snapshot is ``magic, entry count, segment count``, one ``(segment,
indexed length)`` watermark per segment, then one entry per uid.  Each
watermark is an exact record boundary, so records appended after the
snapshot (a crash before ``close``) are recovered by scanning every
segment from its watermark, and a deleted record below the watermark is
never scanned back in.
"""

from __future__ import annotations

import os
import struct
from typing import IO, Dict, Iterator, List, Optional, Tuple, Union

from repro.chunk import Chunk, ChunkType, Uid
from repro.errors import (
    ChunkCorruptionError,
    DiskFaultError,
    DiskFullError,
    StoreClosedError,
    map_os_error,
)
from repro.store.appendlog import AppendLog
from repro.store.base import ChunkStore
from repro.store.durability import (
    durable_replace,
    fsync_dir,
    fsync_file,
    labels_observed,
    write_bytes,
)

_COUNTS = struct.Struct(">QQ")  # index entries, watermarked segments
_WATERMARK = struct.Struct(">IQ")  # segment number, indexed length

#: Tag decode shared by both formats: a dict probe is ~10x cheaper than
#: ``ChunkType(tag)``, and a rotted tag is a ``None``, not a ``ValueError``.
TAG_TO_TYPE: Dict[int, ChunkType] = {int(member): member for member in ChunkType}

#: What :meth:`SegmentStore._parse_record` returns: ``(uid, record
#: length)`` for a whole valid record, ``None`` where the scan should
#: stop quietly, or a ``str`` naming the damage where it must stop loudly.
Parsed = Union[Tuple[Uid, int], str, None]


class SegmentStore(ChunkStore):
    """Durable chunk store over numbered append-only segment files.

    Owns segment discovery, the watermarked snapshot (staleness rules,
    watermark-resume scan, rebuild, durable save), the scan loop, opening
    the :class:`~repro.store.appendlog.AppendLog` only after recovery,
    segment roll, un-ack after a poison, compaction, and ``close`` /
    ``abandon``.  A format supplies the class attributes below and four
    methods: :meth:`_encode_record`, :meth:`_parse_record`,
    :meth:`_record_at` and ``_fetch``.
    ``_index`` maps a uid to its entry's fields after the digest:
    ``(segment, offset)``, plus the record length where the format
    persists it (``_LOCATION_FIELDS``).

    Where the two formats used to disagree, the rule is decided here:

    - A *torn* record (incomplete at EOF, the signature of a crashed
      append) always ends the scan; the log that opens the active
      segment truncates it away.  The verdict on a *complete but
      invalid* record is the format's, and is the visible return value
      of :meth:`_parse_record`: a CRC-framed format names the damage and
      the scan raises (appends are prefix writes, so damage inside a
      whole frame cannot be a crash artifact); a format with no checksum
      cannot tell rot from a garbage tail and returns ``None``.
    - A snapshot with no watermark table is rejected, and index and
      scan reads are counted in ``stats``, for both.
    - Both compact the same way (:meth:`compact_segments`: live
      records copied verbatim into fresh segments, snapshot, unlink),
      so both finish a compaction that died before its unlinks
      (:meth:`_drop_leftovers`).
    - Every record append, fsync and snapshot step goes through the disk
      seam for both, so both are crash- and fault-injectable at each.
    """

    _SEGMENT_DIR: str
    _SEGMENT_STEM: str
    _INDEX_STEM: str
    _INDEX_MAGIC: bytes
    _INDEX_ENTRY: struct.Struct
    _LOCATION_FIELDS: int
    #: Fixed bytes in front of a record's payload: what an entry is known
    #: to cover where the format records no length.
    _HEADER_SIZE: int

    # Deletes drop index entries durably (the watermark table keeps them
    # from being rescanned) and compaction returns the bytes.
    supports_in_place_sweep = True

    def __init__(
        self,
        directory: str,
        verify_reads: bool = False,
        segment_limit: int = 64 * 1024 * 1024,
    ) -> None:
        super().__init__(verify_reads=verify_reads)
        self._dir = directory
        self._seg_dir = os.path.join(directory, self._SEGMENT_DIR)
        self._segment_limit = segment_limit
        self._index: Dict[Uid, Tuple[int, ...]] = {}
        self._closed = False
        os.makedirs(self._seg_dir, exist_ok=True)
        prefix = self._SEGMENT_STEM + "-"
        self._segments = sorted(
            int(name[len(prefix) : -4])
            for name in os.listdir(self._seg_dir)
            if name.startswith(prefix) and name.endswith(".dat")
        )
        if not self._segments:
            self._segments = [0]
            open(self._segment_path(0), "ab").close()
        end = self._load_index()
        if end is None:
            end = self._rebuild_index()
        # Only now, with the surviving segments and the active one's last
        # whole record known, does the writer open: the log drops any
        # torn tail first, so appends are indexed at the offset they land on.
        self._active = self._segments[-1]
        self._log = self._open_log(self._active, end)

    @property
    def poisoned(self) -> bool:
        """True once an unrecoverable disk fault disabled the writer."""
        return self._log.poisoned

    def _segment_path(self, number: int) -> str:
        return os.path.join(self._seg_dir, f"{self._SEGMENT_STEM}-{number:06d}.dat")

    def _index_path(self) -> str:
        return os.path.join(self._dir, self._INDEX_STEM + ".dat")

    def _segment_size(self, segment: int) -> int:
        path = self._segment_path(segment)
        try:
            return os.path.getsize(path)
        except FileNotFoundError:
            return 0  # never-flushed fresh segment
        except OSError as exc:
            raise map_os_error(exc, "stat", path) from exc

    # -- format hooks --------------------------------------------------------

    def _encode_record(self, chunk: Chunk) -> bytes:
        """The bytes one chunk is appended as."""
        raise NotImplementedError

    def _parse_record(self, handle: IO[bytes]) -> Parsed:
        """Read the record at ``handle``'s position: record | tear | rot."""
        raise NotImplementedError

    def _record_at(self, location: Tuple[int, ...]) -> bytes:
        """The stored bytes of the whole record an index entry points at."""
        raise NotImplementedError

    def _release(self) -> None:
        """Drop read-side OS resources (a format that keeps none: no-op)."""

    # -- index persistence ---------------------------------------------------

    def _load_index(self) -> Optional[int]:
        """Load the index snapshot; None if absent, corrupt, or stale.

        On success returns the active segment's last record boundary.
        Any rejection falls back to :meth:`_rebuild_index`.
        """
        watermarks = self._read_snapshot()
        if watermarks is None or self._stale(watermarks):
            self._index.clear()
            return None
        self._drop_leftovers(watermarks)
        end = 0
        for segment in self._segments:
            end = self._scan_segment(segment, start=watermarks.get(segment, 0))
        return end

    def _drop_leftovers(self, watermarks: Dict[int, int]) -> None:
        """Finish a compaction that died between its snapshot and its unlinks.

        A segment file *below* the newest watermarked segment that the
        snapshot does not track had its live records rewritten, and the
        snapshot saying so is durable: finishing the unlink is safe.
        Files *above* it post-date the snapshot and are scanned from zero.
        """
        newest = max(watermarks)
        survivors: List[int] = []
        for segment in self._segments:
            if segment not in watermarks and segment < newest:
                self._drop_segment_file(segment)
            else:
                survivors.append(segment)
        self._segments = survivors

    def _read_snapshot(self) -> Optional[Dict[int, int]]:
        """Fill ``_index`` from the snapshot; return its watermark table."""
        path = self._index_path()
        if not os.path.exists(path):
            return None
        watermarks: Dict[int, int] = {}
        entry = self._INDEX_ENTRY
        try:
            with open(path, "rb") as handle:
                if handle.read(len(self._INDEX_MAGIC)) != self._INDEX_MAGIC:
                    return None
                count, seg_count = _COUNTS.unpack(handle.read(_COUNTS.size))
                for _ in range(seg_count):
                    segment, length = _WATERMARK.unpack(handle.read(_WATERMARK.size))
                    watermarks[segment] = length
                for _ in range(count):
                    fields = entry.unpack(handle.read(entry.size))
                    self._index[bytes.__new__(Uid, fields[0])] = fields[1:]
                self.stats.record_io(read=handle.tell())
        except (OSError, struct.error):
            return None  # unreadable, or truncated inside a table
        return watermarks

    def _stale(self, watermarks: Dict[int, int]) -> bool:
        """Does the loaded snapshot no longer describe the segment files?

        Every watermarked segment must still exist and must not have
        shrunk below its watermark (offsets would dangle), and every
        entry must fall inside its segment's indexed region.
        """
        if not watermarks:
            return True  # a snapshot always tracks the active segment
        known = set(self._segments)
        for segment, watermark in watermarks.items():
            if segment not in known:
                return True  # indexed segment vanished
            if self._segment_size(segment) < watermark:
                return True  # segment shrank
        for location in self._index.values():
            segment, offset = location[0], location[1]
            if segment not in watermarks:
                return True  # entry points into an untracked segment
            # An entry covers its record's recorded length, else its header.
            covered = location[2] if len(location) > 2 else self._HEADER_SIZE
            if offset + covered > watermarks[segment]:
                return True  # past the indexed region
        return False

    def _rebuild_index(self) -> int:
        """Reconstruct the index by scanning every segment file.

        Returns the active segment's last record boundary.
        """
        self._index.clear()
        end = 0
        for segment in self._segments:
            end = self._scan_segment(segment)
        return end

    def _scan_segment(self, segment: int, start: int = 0) -> int:
        """Index whole records from ``start``; return where they end."""
        path = self._segment_path(segment)
        with open(path, "rb") as handle:
            handle.seek(start)
            offset = start
            while True:
                parsed = self._parse_record(handle)
                if parsed is None:
                    break
                if isinstance(parsed, str):
                    raise ChunkCorruptionError(
                        f"{os.path.basename(path)} has a rotten record at "
                        f"offset {offset} ({parsed})"
                    )
                uid, length = parsed
                self._index[uid] = (segment, offset, length)[: self._LOCATION_FIELDS]
                offset += length
        self.stats.record_io(read=offset - start)
        return offset

    def _save_index(self) -> None:
        """Write the index snapshot durably (fsync before rename)."""
        path = self._index_path()
        tmp = path + ".tmp"
        parts = [self._INDEX_MAGIC, _COUNTS.pack(len(self._index), len(self._segments))]
        parts.extend(_WATERMARK.pack(seg, self._segment_size(seg)) for seg in self._segments)
        pack = self._INDEX_ENTRY.pack
        parts.extend(pack(uid, *location) for uid, location in self._index.items())
        payload = b"".join(parts)
        with open(tmp, "wb") as handle:
            write_bytes(handle, payload, label=self._INDEX_STEM)
            fsync_file(handle)
        durable_replace(tmp, path)
        self.stats.record_io(written=len(payload))

    # -- primitives ----------------------------------------------------------

    def _open_log(self, segment: int, end: int) -> AppendLog:
        return AppendLog(self._segment_path(segment), end, on_unack=self._unack)

    def _unack(self, log: AppendLog) -> None:
        """Un-index what a poisoned log never made durable (acked ⇒ durable)."""
        if log is not self._log:
            return  # a compaction rewrite: the index still describes the old layout
        doomed = [
            uid
            for uid, location in self._index.items()
            if location[0] == self._active and location[1] >= log.durable_size
        ]
        for uid in doomed:
            del self._index[uid]
        # A decoded-node cache above must not keep serving what was just
        # un-acked: tell it, as a sweep would.
        self.notify_swept(doomed)

    def _check_writer(self) -> None:
        if self._closed:
            raise StoreClosedError("store is closed")
        self._log.check()

    def _append(self, chunk: Chunk) -> None:
        """Append one record to the active segment (no flush)."""
        record = self._encode_record(chunk)
        if self._log.size >= self._segment_limit:
            # Retire the active segment: it gets watermarked at its full
            # size by the next index snapshot, so it is fsynced before a
            # fresh log takes over — a power loss cannot shrink it.
            self._log.close(f"roll:{self._active}")
            self._active += 1
            self._segments.append(self._active)
            self._log = self._open_log(self._active, 0)
        # The label names the record a torture run died in; rendering it
        # is Base32 work nobody reads unless a disk shim is listening.
        label = chunk.uid.short() if labels_observed() else ""
        offset = self._log.append(record, label)
        self._index[chunk.uid] = (self._active, offset, len(record))[: self._LOCATION_FIELDS]
        self.stats.record_io(written=len(record))

    def _insert(self, chunk: Chunk) -> None:
        self._check_writer()
        self._append(chunk)
        self._log.flush()

    def _insert_many(self, chunks: List[Chunk]) -> None:
        """Batched append: one fsync and one index snapshot per batch.

        Single :meth:`put` stays cheap (flush only, index saved at close);
        a batch is acknowledged durable as a unit — the whole point of
        routing bulk loads through ``put_many``.
        """
        self._check_writer()
        for chunk in chunks:
            self._append(chunk)
        self._log.sync(f"batch:{len(chunks)}")
        self._save_index()

    def sync(self) -> None:
        """Fsync what was appended since the last durable point.

        The index snapshot is not rewritten: records past a watermark are recovered by the
        scan.  A failed fsync that recovery cannot repair un-acks the
        tail and raises, so the caller never makes a head durable over
        chunks that are not.
        """
        if self._log.durable_size == self._log.size and not self._log.poisoned:
            return  # nothing new since the last durable point (or a clean close)
        self._check_writer()
        self._log.sync("sync")

    def _drop_segment_file(self, segment: int) -> None:
        path = self._segment_path(segment)
        try:
            os.remove(path)
        except FileNotFoundError:
            pass  # already gone: unlink is idempotent across crashes
        except OSError as exc:
            raise map_os_error(exc, "unlink", path) from exc

    def disk_size(self) -> int:
        """Bytes currently occupied on disk by segment files."""
        return sum(self._segment_size(segment) for segment in self._segments)

    def compact_segments(self) -> Dict[str, int]:
        """Rewrite live records into fresh segments; unlink dead ones.

        Records are copied verbatim (no re-encoding), so uids, codecs,
        and CRCs are preserved bit-for-bit.  The new index snapshot is
        durable *before* the old segments are unlinked; a crash anywhere
        in between leaves either the old layout (new segments are simply
        rescanned or cleaned) or the new one — never data loss.
        """
        self._check_writer()
        old_segments = list(self._segments)
        bytes_before = self.disk_size()
        # Establish a durable floor before retiring the old log.
        old_end = self._log.size
        self._log.close("compact-prep")

        ordered = sorted(self._index.items(), key=lambda kv: (kv[1][0], kv[1][1]))
        next_segment = self._active + 1
        new_segments: List[int] = [next_segment]
        log = self._open_log(next_segment, 0)
        new_index: Dict[Uid, Tuple[int, ...]] = {}
        try:
            for uid, location in ordered:
                record = self._record_at(location)
                if log.size >= self._segment_limit:
                    log.close("")
                    next_segment += 1
                    new_segments.append(next_segment)
                    log = self._open_log(next_segment, 0)
                position = log.append(record, f"compact:{uid.short()}")
                new_index[uid] = (next_segment, position, len(record))[: self._LOCATION_FIELDS]
                self.stats.record_io(written=len(record))
            log.sync()
            fsync_dir(self._seg_dir)
        except (DiskFullError, DiskFaultError):
            # The old layout is untouched on disk: drop the half-built
            # segments and resume appending to the old active one.
            log.abandon()
            for segment in new_segments:
                self._drop_segment_file(segment)
            self._log = self._open_log(self._active, old_end)
            raise

        self._index = new_index
        self._segments = new_segments
        self._active = new_segments[-1]
        self._log = log
        self._save_index()
        # The snapshot no longer references the old segments: unlink them.
        for segment in old_segments:
            self._drop_segment_file(segment)
        return {
            "segments_before": len(old_segments),
            "segments_after": len(new_segments),
            "bytes_before": bytes_before,
            "bytes_after": self.disk_size(),
            "live_records": len(self._index),
        }

    def _contains(self, uid: Uid) -> bool:
        return uid in self._index

    def _delete(self, uid: Uid) -> bool:
        """Drop the index entry; :meth:`compact_segments` reclaims the bytes.

        Durable across reopen once an index snapshot lands (batch put,
        compaction, or close): the watermark table keeps an unindexed
        record below the watermark from being scanned back in.
        """
        return self._index.pop(uid, None) is not None

    def _ids(self) -> Iterator[Uid]:
        return iter(list(self._index.keys()))

    def __len__(self) -> int:
        return len(self._index)

    def close(self) -> None:
        if self._closed:
            return
        if self._log.poisoned:
            # The writer is disabled and the in-memory index already had
            # its un-durable entries removed; persisting a snapshot would
            # launder the poisoned state into "clean close".  Abandon and
            # let reopen rebuild from the watermark scan.
            self.abandon()
            return
        self._log.close()
        self._save_index()
        self._release()
        self._closed = True

    def abandon(self) -> None:
        """Release OS handles without persisting the index (crash sim).

        Models a SIGKILL minus page-cache loss: appended records survive
        on disk (every ``_insert`` flushed them) but no fresh index
        snapshot is written — reopen recovers via the watermark scan.
        """
        if self._closed:
            return
        self._log.abandon()
        self._release()
        self._closed = True
