"""Append-only pack-file chunk store: the inode-frugal durable backend.

Where :class:`~repro.store.filestore.FileStore` pays an open/seek/read/
close syscall trio per fetch, a PackStore serves reads from mmap-backed
pack segments — one file per ~64 MB of chunks instead of one file per
chunk family — with three additions the indexing-structure survey
(arXiv:2003.02090) shows matter at scale:

- **CRC-framed records with per-record compression.**  Each record is
  ``[tag][codec][stored_len][raw_len][digest][crc32]`` followed by the
  stored payload.  The codec byte is negotiated per record: ``zstd`` when
  the optional ``zstandard`` module is importable, stdlib ``zlib``
  otherwise, raw whenever compression does not shrink the payload.  The
  CRC covers header and payload, so frame rot is detected before bytes
  are ever decompressed; the embedded digest lets index rebuilds recover
  uids without decompressing.
- **A durable FBPX offset index** with per-segment watermarks, written
  with the same fsync-before-rename discipline as every other snapshot in
  the repo (:mod:`repro.store.durability`) and instrumented with
  crash-points so the torture suite can kill the store at every append
  and index-save boundary.  Torn tails truncate on recovery; interior rot
  raises the :mod:`repro.errors` taxonomy errors.
- **An in-RAM uid index**: ``has()`` and every miss are one dict probe
  on the uid's precomputed hash — no disk.

Deletes drop the index entry (durable at the next index snapshot, exactly
like FileStore); dead bytes are reclaimed by :meth:`PackStore.compact_segments`,
which rewrites live records into fresh segments and unlinks the old ones —
the pack-aware sweep :mod:`repro.store.gc` drives.
"""

from __future__ import annotations

import mmap
import os
import struct
import zlib
from typing import Dict, Iterator, List, Optional, Tuple

from repro.chunk import Chunk, ChunkType, Uid
from repro.errors import (
    ChunkCorruptionError,
    DiskFaultError,
    DiskFullError,
    StoreClosedError,
    StoreError,
    TransientStoreError,
    map_os_error,
)
from repro.faults.crash import crashing_write, crashpoint
from repro.store.appendlog import AppendLog
from repro.store.base import ChunkStore
from repro.store.durability import durable_replace, fsync_dir, fsync_file, read_check

try:  # optional accelerator: per-record zstd compression
    import zstandard as _zstd
except ImportError:  # pragma: no cover - optional dependency
    _zstd = None  # type: ignore[assignment]

#: Record frame: type tag, codec id, stored length, raw length, digest.
#: A >I crc32 over these fields plus the stored payload follows.
_FRAME = struct.Struct(">BBII32s")
_CRC = struct.Struct(">I")
_FRAME_SIZE = _FRAME.size + _CRC.size

#: Codec ids carried in the frame's second byte.
_CODEC_RAW = 0
_CODEC_ZLIB = 1
_CODEC_ZSTD = 2

_INDEX_MAGIC = b"FBPX0001"
_INDEX_ENTRY = struct.Struct(">32sIQI")  # digest, segment, offset, record length
_WATERMARK_ENTRY = struct.Struct(">IQ")  # segment number, indexed length

#: Hot-path tag decode: a dict probe is ~10x cheaper than ChunkType(tag).
_TAG_TO_TYPE: Dict[int, ChunkType] = {int(member): member for member in ChunkType}


class PackStore(ChunkStore):
    """Durable chunk store over compressed, CRC-framed pack files."""

    supports_in_place_sweep = True

    def __init__(
        self,
        directory: str,
        verify_reads: bool = False,
        segment_limit: int = 64 * 1024 * 1024,
        compression: str = "auto",
        compress_min: int = 64,
    ) -> None:
        super().__init__(verify_reads=verify_reads)
        self._dir = directory
        self._pack_dir = os.path.join(directory, "packs")
        self._segment_limit = segment_limit
        self._compress_min = compress_min
        self._codec = self._resolve_codec(compression)
        #: uid -> (segment, offset, record length incl. frame)
        self._index: Dict[Uid, Tuple[int, int, int]] = {}
        self._maps: Dict[int, mmap.mmap] = {}
        self._closed = False
        self._dead_records = 0
        self._dead_bytes = 0
        os.makedirs(self._pack_dir, exist_ok=True)
        self._segments = sorted(
            int(name[5:-4])
            for name in os.listdir(self._pack_dir)
            if name.startswith("pack-") and name.endswith(".dat")
        )
        if not self._segments:
            self._segments = [0]
            open(self._segment_path(0), "ab").close()
        end = self._load_index()
        if end is None:
            end = self._rebuild_index()
        # Only now (index loading may have dropped compaction leftovers)
        # does the writer open: the log truncates any torn tail first, so
        # appended records are indexed at the offset they land on.
        self._active = self._segments[-1]
        self._log = self._open_log(self._active, end)

    @property
    def poisoned(self) -> bool:
        """True once an unrecoverable disk fault disabled the writer."""
        return self._log.poisoned

    # -- codec negotiation ---------------------------------------------------

    @staticmethod
    def _resolve_codec(compression: str) -> Optional[int]:
        """Map the requested policy to a codec id (None = store raw)."""
        if compression == "none":
            return None
        if compression == "zlib":
            return _CODEC_ZLIB
        if compression == "zstd":
            if _zstd is None:
                raise ValueError("compression='zstd' but zstandard is not importable")
            return _CODEC_ZSTD
        if compression == "auto":
            return _CODEC_ZSTD if _zstd is not None else _CODEC_ZLIB
        raise ValueError(f"unknown compression policy {compression!r}")

    @staticmethod
    def _compress(codec: int, raw: bytes) -> bytes:
        if codec == _CODEC_ZSTD:
            return _zstd.ZstdCompressor().compress(raw)  # type: ignore[union-attr]
        return zlib.compress(raw, 6)

    @staticmethod
    def _decompress(codec: int, stored: bytes, uid: Uid) -> bytes:
        if codec == _CODEC_RAW:
            return stored
        if codec == _CODEC_ZLIB:
            try:
                return zlib.decompress(stored)
            except zlib.error as exc:
                raise ChunkCorruptionError(
                    f"pack record for {uid.short()} fails zlib inflate: {exc}"
                ) from exc
        if codec == _CODEC_ZSTD:
            if _zstd is None:
                # The data is (probably) fine; this environment cannot read
                # it.  Transient, not rot: do not let a scrub quarantine it.
                raise TransientStoreError(
                    f"record for {uid.short()} is zstd-compressed but "
                    f"zstandard is not importable here"
                )
            try:
                return _zstd.ZstdDecompressor().decompress(stored)
            except _zstd.ZstdError as exc:
                raise ChunkCorruptionError(
                    f"pack record for {uid.short()} fails zstd inflate: {exc}"
                ) from exc
        raise ChunkCorruptionError(
            f"pack record for {uid.short()} carries unknown codec {codec}"
        )

    # -- paths ---------------------------------------------------------------

    def _segment_path(self, number: int) -> str:
        return os.path.join(self._pack_dir, f"pack-{number:06d}.dat")

    def _index_path(self) -> str:
        return os.path.join(self._dir, "pack-index.dat")

    # -- record framing ------------------------------------------------------

    def _encode_record(self, chunk: Chunk) -> bytes:
        raw = chunk.data
        codec = _CODEC_RAW
        stored = raw
        if self._codec is not None and len(raw) >= self._compress_min:
            candidate = self._compress(self._codec, raw)
            if len(candidate) < len(raw):
                codec = self._codec
                stored = candidate
        fields = _FRAME.pack(
            int(chunk.type), codec, len(stored), len(raw), chunk.uid.digest
        )
        return fields + _CRC.pack(zlib.crc32(fields + stored)) + stored

    @staticmethod
    def _parse_frame(frame: bytes) -> Tuple[int, int, int, int, bytes, int]:
        tag, codec, stored_len, raw_len, digest = _FRAME.unpack(frame[: _FRAME.size])
        (crc,) = _CRC.unpack(frame[_FRAME.size : _FRAME_SIZE])
        return tag, codec, stored_len, raw_len, digest, crc

    def _decode_record(self, record: bytes, uid: Uid) -> Chunk:
        """Frame-check, decompress, and rehydrate one packed record."""
        tag, codec, stored_len, raw_len, digest = _FRAME.unpack_from(record)
        (crc,) = _CRC.unpack_from(record, _FRAME.size)
        stored = record[_FRAME_SIZE : _FRAME_SIZE + stored_len]
        if len(stored) != stored_len:
            raise StoreError(f"torn pack record for {uid.short()}")
        # Chained crc32 equals crc32(fields + stored) without the concat.
        if zlib.crc32(stored, zlib.crc32(record[: _FRAME.size])) != crc:
            raise ChunkCorruptionError(
                f"pack record for {uid.short()} fails frame CRC"
            )
        if digest != uid.digest:
            raise ChunkCorruptionError(
                f"pack record for {uid.short()} carries digest "
                f"{Uid(digest).short()}"
            )
        if codec == _CODEC_RAW:
            raw = stored
        else:
            raw = self._decompress(codec, stored, uid)
        if len(raw) != raw_len:
            raise ChunkCorruptionError(
                f"pack record for {uid.short()} inflates to {len(raw)}B, "
                f"frame says {raw_len}B"
            )
        chunk_type = _TAG_TO_TYPE.get(tag)
        if chunk_type is None:
            raise ChunkCorruptionError(
                f"pack record for {uid.short()} carries unknown tag {tag}"
            )
        return Chunk(chunk_type, raw, uid=uid)

    # -- index persistence ---------------------------------------------------

    def _load_index(self) -> Optional[int]:
        """Load the FBPX snapshot; None if absent, corrupt, or stale.

        On success returns the active segment's last record boundary.

        Same staleness rules as FileStore's FBIX (every watermarked
        segment must exist, none may have shrunk, every entry must fall
        inside its watermark), plus two pack-specific steps: segment files
        *below* the newest watermarked segment but absent from the table
        are compaction leftovers from a crash and are unlinked; segment
        files *above* it post-date the snapshot and are scanned from zero.
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
                    digest, segment, offset, length = _INDEX_ENTRY.unpack(raw)
                    self._index[Uid(digest)] = (segment, offset, length)
                self.stats.record_io(read=handle.tell())
        except (OSError, struct.error):
            self._index.clear()
            return None
        if not watermarks:
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
        for segment, offset, length in self._index.values():
            if segment not in watermarks:
                self._index.clear()
                return None  # entry points into an untracked segment
            if offset + length > watermarks[segment]:
                self._index.clear()
                return None  # record past the indexed region
        newest = max(watermarks)
        survivors: List[int] = []
        for segment in self._segments:
            if segment not in watermarks and segment < newest:
                # A segment older than the snapshot that the snapshot does
                # not track: compaction rewrote its live records and died
                # before the unlink.  Finishing the unlink is safe.
                self._drop_segment_file(segment)
            else:
                survivors.append(segment)
        self._segments = survivors
        end = 0
        for segment in self._segments:
            end = self._scan_segment(segment, start=watermarks.get(segment, 0))
        return end

    def _rebuild_index(self) -> int:
        """Reconstruct the index by scanning every pack segment.

        Returns the active segment's last record boundary.
        """
        self._index.clear()
        end = 0
        for segment in self._segments:
            end = self._scan_segment(segment)
        return end

    def _scan_segment(self, segment: int, start: int = 0) -> int:
        """Index records from ``start``; stop at a tear, raise on rot.

        Returns the offset where whole records end.  A *torn tail* — an
        incomplete frame or payload at EOF, the signature of a crashed
        append — stops the scan; the log that opens the active segment
        truncates it away.  A *complete* record that fails
        its CRC (or carries an unknown tag) is interior rot: appends are
        prefix writes, so damage inside a full frame cannot be a crash
        artifact, and recovery stops loudly rather than silently dropping
        indexed history.  The embedded digest means no decompression is
        needed here, so even zstd-packed segments rebuild in an
        environment without zstandard.
        """
        path = self._segment_path(segment)
        with open(path, "rb") as handle:
            handle.seek(start)
            offset = start
            while True:
                frame = handle.read(_FRAME_SIZE)
                if len(frame) < _FRAME_SIZE:
                    break  # clean EOF, or a partial frame at EOF
                tag, codec, stored_len, raw_len, digest, crc = self._parse_frame(frame)
                stored = handle.read(stored_len)
                if len(stored) < stored_len:
                    break  # partial payload at EOF
                if zlib.crc32(frame[: _FRAME.size] + stored) != crc:
                    raise ChunkCorruptionError(
                        f"pack segment {segment} has a rotten record at "
                        f"offset {offset} (frame CRC mismatch)"
                    )
                try:
                    ChunkType(tag)
                except ValueError as exc:
                    raise ChunkCorruptionError(
                        f"pack segment {segment} has a rotten record at "
                        f"offset {offset} (unknown tag {tag})"
                    ) from exc
                length = _FRAME_SIZE + stored_len
                self._index[Uid(digest)] = (segment, offset, length)
                offset += length
            self.stats.record_io(read=offset - start)
        return offset

    def _save_index(self) -> None:
        """Write the FBPX snapshot durably (fsync before rename).

        Instrumented as the ``packindex-write`` / ``packindex-fsync`` /
        ``packindex-replace`` crash boundaries so the torture suite can
        kill the store around every step.
        """
        path = self._index_path()
        tmp = path + ".tmp"
        parts: List[bytes] = [_INDEX_MAGIC]
        parts.append(struct.pack(">Q", len(self._index)))
        parts.append(struct.pack(">Q", len(self._segments)))
        for segment in self._segments:
            try:
                length = os.path.getsize(self._segment_path(segment))
            except FileNotFoundError:
                length = 0  # never-flushed fresh segment: watermark at zero
            except OSError as exc:
                raise map_os_error(exc, "stat", self._segment_path(segment)) from exc
            parts.append(_WATERMARK_ENTRY.pack(segment, length))
        for uid, (segment, offset, length) in self._index.items():
            parts.append(_INDEX_ENTRY.pack(uid.digest, segment, offset, length))
        payload = b"".join(parts)
        with open(tmp, "wb") as handle:
            crashing_write(handle, payload, kind="packindex-write", label="pack-index")
            crashpoint("packindex-fsync", "pack-index")
            fsync_file(handle)
        crashpoint("packindex-replace", "pack-index")
        durable_replace(tmp, path)
        self.stats.record_io(written=len(payload))

    # -- mmap read path ------------------------------------------------------

    def _view(self, segment: int, offset: int, length: int) -> bytes:
        """Slice ``length`` bytes out of a segment through its mmap.

        Maps lazily and remaps when the active segment has grown past the
        cached map.  An empty or shrunken segment yields a torn-record
        error rather than wrong bytes.
        """
        mapped = self._maps.get(segment)
        if mapped is None or offset + length > len(mapped):
            if mapped is not None:
                mapped.close()
                self._maps.pop(segment, None)
            path = self._segment_path(segment)
            if segment == self._active:
                self._log.flush()
            try:
                read_check(path, label=f"pack:{segment}")
                size = os.path.getsize(path)
            except FileNotFoundError as exc:
                raise StoreError(f"pack segment {segment} vanished") from exc
            except OSError as exc:
                raise map_os_error(exc, "read", path) from exc
            if offset + length > size:
                raise StoreError(
                    f"pack segment {segment} holds {size}B, record needs "
                    f"{offset + length}"
                )
            try:
                with open(path, "rb") as handle:
                    mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
            except OSError as exc:
                raise map_os_error(exc, "read", path) from exc
            self._maps[segment] = mapped
        return mapped[offset : offset + length]

    def _drop_maps(self) -> None:
        for mapped in self._maps.values():
            mapped.close()
        self._maps.clear()

    def _drop_segment_file(self, segment: int) -> None:
        mapped = self._maps.pop(segment, None)
        if mapped is not None:
            mapped.close()
        try:
            os.remove(self._segment_path(segment))
        except FileNotFoundError:
            pass  # already gone: unlink is idempotent across crashes
        except OSError as exc:
            raise map_os_error(exc, "unlink", self._segment_path(segment)) from exc

    # -- primitives ----------------------------------------------------------

    def _open_log(self, segment: int, end: int) -> AppendLog:
        # Only the batch and compaction fsyncs are declared crash
        # boundaries (marked where they happen), so no ``fsync_kind``.
        return AppendLog(
            self._segment_path(segment), end, write_kind="pack-write", on_unack=self._unack
        )

    def _unack(self, log: AppendLog) -> None:
        """Un-index what a poisoned log never made durable (acked ⇒ durable)."""
        if log is not self._log:
            return  # a compaction rewrite: the index still describes the old layout
        doomed = [
            uid
            for uid, (segment, offset, _length) in self._index.items()
            if segment == self._active and offset >= log.durable_size
        ]
        for uid in doomed:
            del self._index[uid]

    def _check_writer(self) -> None:
        if self._closed:
            raise StoreClosedError("store is closed")
        self._log.check()

    def _append(self, chunk: Chunk) -> None:
        """Append one framed record (write boundary; no flush)."""
        record = self._encode_record(chunk)
        if self._log.size >= self._segment_limit:
            # Retire the active segment: it gets watermarked at its full
            # size by the next index snapshot, so it is fsynced before a
            # fresh log takes over — a power loss cannot shrink it.
            self._log.close(f"roll:{self._active}")
            self._active += 1
            self._segments.append(self._active)
            self._log = self._open_log(self._active, 0)
        offset = self._log.append(record, chunk.uid.short())
        self._index[chunk.uid] = (self._active, offset, len(record))
        self.stats.record_io(written=len(record))

    def _insert(self, chunk: Chunk) -> None:
        self._check_writer()
        self._append(chunk)
        self._log.flush()

    def _insert_many(self, chunks: List[Chunk]) -> None:
        """Batched append: one fsync and one index snapshot per batch."""
        self._check_writer()
        for chunk in chunks:
            self._append(chunk)
        crashpoint("pack-fsync", f"batch:{len(chunks)}")
        self._log.sync(f"batch:{len(chunks)}")
        self._save_index()

    def _fetch(self, uid: Uid) -> Optional[Chunk]:
        if self._closed:
            raise StoreClosedError("store is closed")
        location = self._index.get(uid)
        if location is None:
            return None
        segment, offset, length = location
        record = self._view(segment, offset, length)
        self.stats.record_io(read=length)
        return self._decode_record(record, uid)

    def _contains(self, uid: Uid) -> bool:
        return uid in self._index

    def _delete(self, uid: Uid) -> bool:
        """Drop the index entry; pack bytes die at the next compaction.

        Durable across reopen once an index snapshot lands (batch put,
        compaction, or close): the watermark table keeps dead records
        below the watermark from being rescanned back in.
        """
        location = self._index.pop(uid, None)
        if location is None:
            return False
        self._dead_records += 1
        self._dead_bytes += location[2]
        return True

    def _ids(self) -> Iterator[Uid]:
        return iter(list(self._index.keys()))

    def __len__(self) -> int:
        return len(self._index)

    # -- diagnostics ---------------------------------------------------------

    def diagnose_record(self, uid: Uid) -> str:
        """Frame-level verdict for one packed record (scrub integration).

        Returns ``'ok' | 'missing' | 'torn' | 'crc' | 'codec'`` without
        raising: the scrubber uses this to tell deterministic on-disk
        frame rot from transient wire trouble, skipping the pointless
        re-read it would otherwise spend on a packed store.
        """
        location = self._index.get(uid)
        if location is None:
            return "missing"
        segment, offset, length = location
        try:
            record = self._view(segment, offset, length)
        except StoreError:
            return "torn"
        try:
            self._decode_record(record, uid)
        except TransientStoreError:
            return "codec"
        except StoreError:  # ChunkCorruptionError is a ChunkError, not Store
            return "torn"
        except ChunkCorruptionError:
            return "crc"
        return "ok"

    def dead_space(self) -> Tuple[int, int]:
        """(records, bytes) deleted but not yet compacted away."""
        return self._dead_records, self._dead_bytes

    def disk_size(self) -> int:
        """Bytes currently occupied on disk by pack segments."""
        total = 0
        for segment in self._segments:
            try:
                total += os.path.getsize(self._segment_path(segment))
            except FileNotFoundError:
                pass  # fresh segment not yet materialized
            except OSError as exc:
                raise map_os_error(exc, "stat", self._segment_path(segment)) from exc
        return total

    # -- compaction ----------------------------------------------------------

    def compact_segments(self) -> Dict[str, int]:
        """Rewrite live records into fresh segments; unlink dead ones.

        Records are copied verbatim (no recompression), so uids, codecs,
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
        new_index: Dict[Uid, Tuple[int, int, int]] = {}
        try:
            for uid, (segment, offset, length) in ordered:
                record = self._view(segment, offset, length)
                if log.size >= self._segment_limit:
                    log.close("")
                    next_segment += 1
                    new_segments.append(next_segment)
                    log = self._open_log(next_segment, 0)
                position = log.append(record, f"compact:{uid.short()}")
                new_index[uid] = (next_segment, position, length)
                self.stats.record_io(written=length)
            crashpoint("pack-fsync", "compact")
            log.sync()
            fsync_dir(self._pack_dir)
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
        self._dead_records = 0
        self._dead_bytes = 0
        return {
            "segments_before": len(old_segments),
            "segments_after": len(new_segments),
            "bytes_before": bytes_before,
            "bytes_after": self.disk_size(),
            "live_records": len(self._index),
        }

    # -- lifecycle -----------------------------------------------------------

    def physical_size(self) -> int:
        """Total *logical* payload bytes currently indexed (pre-compression)."""
        total = 0
        for segment, offset, length in self._index.values():
            frame = self._view(segment, offset, _FRAME.size)
            total += _FRAME.unpack(frame)[3]  # raw_len
        return total

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
        self._drop_maps()
        self._closed = True

    def abandon(self) -> None:
        """Release OS handles without persisting the index (crash sim)."""
        if self._closed:
            return
        self._log.abandon()
        self._drop_maps()
        self._closed = True
