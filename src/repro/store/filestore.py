"""Append-only file-backed chunk store.

Layout under the store directory::

    segments/seg-000000.dat   length-prefixed records: [tag][len][payload]
    index.dat                 uid -> (segment, offset) snapshot

Chunks are immutable, so segments are strictly append-only; the index file
is rewritten on close and reconstructed by scanning segments if missing or
stale (crash tolerance).  A new segment is rolled when the active one
exceeds ``segment_limit`` bytes.
"""

from __future__ import annotations

import os
import struct
from typing import Dict, Iterator, List, Optional, Tuple

from repro.chunk import Chunk, ChunkType, Uid
from repro.errors import StoreClosedError, StoreError, map_os_error
from repro.store.appendlog import AppendLog
from repro.store.base import ChunkStore
from repro.store.durability import durable_replace, fsync_file, read_check

_RECORD_HEADER = struct.Struct(">BI")  # type tag, payload length
_INDEX_ENTRY = struct.Struct(">32sII")  # digest, segment number, offset
_WATERMARK_ENTRY = struct.Struct(">IQ")  # segment number, indexed length
_INDEX_MAGIC = b"FBIX0002"  # 0002 added the per-segment watermark table


class FileStore(ChunkStore):
    """Durable chunk store over append-only segment files."""

    def __init__(
        self,
        directory: str,
        verify_reads: bool = False,
        segment_limit: int = 64 * 1024 * 1024,
    ) -> None:
        super().__init__(verify_reads=verify_reads)
        self._dir = directory
        self._seg_dir = os.path.join(directory, "segments")
        self._segment_limit = segment_limit
        self._index: Dict[Uid, Tuple[int, int]] = {}
        self._closed = False
        os.makedirs(self._seg_dir, exist_ok=True)
        self._segments = sorted(
            int(name[4:-4])
            for name in os.listdir(self._seg_dir)
            if name.startswith("seg-") and name.endswith(".dat")
        )
        if not self._segments:
            self._segments = [0]
            open(self._segment_path(0), "ab").close()
        self._active = self._segments[-1]
        end = self._load_index()
        if end is None:
            end = self._rebuild_index()
        # Only now, with the active segment's last whole record known,
        # does the writer open: the log drops any torn tail first.
        self._log = self._open_log(end)

    @property
    def poisoned(self) -> bool:
        """True once an unrecoverable disk fault disabled the writer."""
        return self._log.poisoned

    def _segment_path(self, number: int) -> str:
        return os.path.join(self._seg_dir, f"seg-{number:06d}.dat")

    def _index_path(self) -> str:
        return os.path.join(self._dir, "index.dat")

    # -- index persistence --------------------------------------------------

    def _load_index(self) -> Optional[int]:
        """Load the index snapshot; None if absent, corrupt, or stale.

        On success returns the active segment's last record boundary.

        Staleness check: every indexed segment must still exist on disk,
        no segment may have shrunk below its recorded watermark (that
        would leave dangling offsets), and every entry's offset must fall
        inside its segment's indexed region.  Any violation falls back to
        :meth:`_rebuild_index`; records appended after the snapshot (a
        crash before ``close``) are picked up by scanning each segment
        from its watermark.
        """
        path = self._index_path()
        if not os.path.exists(path):
            return None
        watermarks: Dict[int, int] = {}
        try:
            with open(path, "rb") as handle:
                magic = handle.read(len(_INDEX_MAGIC))
                if magic != _INDEX_MAGIC:
                    return None
                (count,) = struct.unpack(">Q", handle.read(8))
                (seg_count,) = struct.unpack(">Q", handle.read(8))
                for _ in range(seg_count):
                    raw = handle.read(_WATERMARK_ENTRY.size)
                    if len(raw) != _WATERMARK_ENTRY.size:
                        return None
                    segment, length = _WATERMARK_ENTRY.unpack(raw)
                    watermarks[segment] = length
                for _ in range(count):
                    raw = handle.read(_INDEX_ENTRY.size)
                    if len(raw) != _INDEX_ENTRY.size:
                        return None
                    digest, segment, offset = _INDEX_ENTRY.unpack(raw)
                    self._index[Uid(digest)] = (segment, offset)
        except (OSError, struct.error):
            self._index.clear()
            return None
        known = set(self._segments)
        for segment, watermark in watermarks.items():
            if segment not in known:
                self._index.clear()
                return None  # indexed segment vanished
            if os.path.getsize(self._segment_path(segment)) < watermark:
                self._index.clear()
                return None  # segment shrank: offsets can dangle
        for segment, offset in self._index.values():
            if segment not in watermarks:
                self._index.clear()
                return None  # entry points into an untracked segment
            if offset + _RECORD_HEADER.size > watermarks[segment]:
                self._index.clear()
                return None  # offset past the indexed region
        # Records appended after the snapshot (a crash before close): each
        # watermark is an exact record boundary, so resuming there cannot
        # split a record.
        end = 0
        for segment in self._segments:
            end = self._scan_segment(segment, start=watermarks.get(segment, 0))
        return end

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
                header = handle.read(_RECORD_HEADER.size)
                if len(header) < _RECORD_HEADER.size:
                    break  # clean EOF or torn header: ignore tail
                tag, length = _RECORD_HEADER.unpack(header)
                payload = handle.read(length)
                if len(payload) < length:
                    break  # torn record from a crash: ignore tail
                try:
                    chunk = Chunk(ChunkType(tag), payload)
                except ValueError:
                    break  # unknown tag: treat as corruption tail
                self._index[chunk.uid] = (segment, offset)
                offset += _RECORD_HEADER.size + length
        return offset

    def _save_index(self) -> None:
        path = self._index_path()
        tmp = path + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(_INDEX_MAGIC)
            handle.write(struct.pack(">Q", len(self._index)))
            handle.write(struct.pack(">Q", len(self._segments)))
            for segment in self._segments:
                try:
                    length = os.path.getsize(self._segment_path(segment))
                except FileNotFoundError:
                    length = 0  # never-flushed fresh segment: watermark at zero
                except OSError as exc:
                    raise map_os_error(exc, "stat", self._segment_path(segment)) from exc
                handle.write(_WATERMARK_ENTRY.pack(segment, length))
            for uid, (segment, offset) in self._index.items():
                handle.write(_INDEX_ENTRY.pack(uid.digest, segment, offset))
            written = handle.tell()
            fsync_file(handle)
        durable_replace(tmp, path)
        self.stats.record_io(written=written)

    # -- primitives ----------------------------------------------------------

    def _open_log(self, end: int) -> AppendLog:
        return AppendLog(self._segment_path(self._active), end, on_unack=self._unack)

    def _unack(self, log: AppendLog) -> None:
        """Un-index what a poisoned log never made durable (acked ⇒ durable)."""
        doomed = [
            uid
            for uid, (segment, offset) in self._index.items()
            if segment == self._active and offset >= log.durable_size
        ]
        for uid in doomed:
            del self._index[uid]

    def _check_writer(self) -> None:
        if self._closed:
            raise StoreClosedError("store is closed")
        self._log.check()

    def _append(self, chunk: Chunk) -> None:
        """Append one record to the active segment (no flush)."""
        if self._log.size >= self._segment_limit:
            # Retire the active segment: it gets watermarked at its full
            # size by the next index snapshot, so it is fsynced before a
            # fresh log takes over — a power loss cannot shrink it.
            self._log.close(f"roll:{self._active}")
            self._active += 1
            self._segments.append(self._active)
            self._log = self._open_log(0)
        record = _RECORD_HEADER.pack(int(chunk.type), len(chunk.data)) + chunk.data
        self._index[chunk.uid] = (self._active, self._log.append(record))
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

    def _fetch(self, uid: Uid) -> Optional[Chunk]:
        if self._closed:
            raise StoreClosedError("store is closed")
        location = self._index.get(uid)
        if location is None:
            return None
        segment, offset = location
        path = self._segment_path(segment)
        try:
            read_check(path)
            with open(path, "rb") as handle:
                handle.seek(offset)
                header = handle.read(_RECORD_HEADER.size)
                if len(header) != _RECORD_HEADER.size:
                    raise StoreError(f"torn record for {uid.short()}")
                tag, length = _RECORD_HEADER.unpack(header)
                payload = handle.read(length)
        except OSError as exc:
            raise map_os_error(exc, "read", path) from exc
        if len(payload) != length:
            raise StoreError(f"torn record for {uid.short()}")
        self.stats.record_io(read=_RECORD_HEADER.size + length)
        return Chunk(ChunkType(tag), payload, uid=uid)

    def _contains(self, uid: Uid) -> bool:
        return uid in self._index

    def _delete(self, uid: Uid) -> bool:
        """Drop the index entry; segment bytes are reclaimed by compaction.

        Durable across reopen: the saved index carries per-segment
        watermarks, so an unindexed record below the watermark is never
        re-scanned back in.
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
        self._closed = True
