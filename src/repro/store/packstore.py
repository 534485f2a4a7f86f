"""Append-only pack-file chunk store: the framed, compressed record format.

The directory of segments, its watermarked index snapshot and its crash
recovery are :class:`~repro.store.segments.SegmentStore`, shared with
:class:`~repro.store.filestore.FileStore`.  Where FileStore pays an
open/seek/read/close syscall trio per fetch, a PackStore serves reads
from mmap-backed pack segments, with three additions the
indexing-structure survey (arXiv:2003.02090) shows matter at scale:

- **CRC-framed records with per-record compression.**  Each record is
  ``[tag][codec][stored_len][raw_len][digest][crc32]`` followed by the
  stored payload.  The codec byte is negotiated per record: ``zstd`` when
  the optional ``zstandard`` module is importable, stdlib ``zlib``
  otherwise, raw whenever compression saves less than 1/8 of the
  payload.  A record that misses that floor also puts its chunk type on
  a back-off: the next 63 records of that type are written raw without
  trying, then the codec probes again.  Digest-heavy index and commit
  records stop paying for a deflate that saves nothing, while text blob
  leaves, which keep shrinking, keep being tried; the price is a few
  percent more bytes on records that would have shrunk a little.  The
  CRC covers header and payload, so frame rot is detected before bytes
  are ever decompressed; the embedded digest lets index rebuilds recover
  uids without decompressing.
- **An FBPX offset index that records each record's length**, so a
  fetch is one mmap slice, and whose every step — like every append and
  batch fsync — crosses the disk seam, where the torture suites fault
  the store or kill it.  Torn tails truncate on recovery; interior rot
  raises the :mod:`repro.errors` taxonomy errors.
- **An in-RAM uid index**: ``has()`` and every miss are one dict probe
  on the uid's precomputed hash — no disk.

Deletes and compaction are the segment store's, exactly as for
FileStore: a delete drops the index entry (durable at the next index
snapshot), and :meth:`~repro.store.segments.SegmentStore.compact_segments`
copies live records verbatim into fresh segments and unlinks the old
ones.  A pack store also counts what its deletes left dead
(:meth:`PackStore.dead_space`) until the next compaction.
"""

from __future__ import annotations

import mmap
import os
import struct
import zlib
from typing import IO, Dict, Optional, Tuple

from repro.chunk import Chunk, ChunkType, Uid
from repro.errors import (
    ChunkCorruptionError,
    StoreClosedError,
    StoreError,
    TransientStoreError,
    map_os_error,
)
from repro.store.durability import read_check
from repro.store.segments import TAG_TO_TYPE, Parsed, SegmentStore

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

#: Payloads shorter than this are stored raw: a codec header would eat the gain.
_COMPRESS_MIN = 64
#: A compressed payload is kept only if it saves at least 1/_COMPRESS_FLOOR
#: of the raw bytes.
_COMPRESS_FLOOR = 8
#: After a miss, this many further records of the same chunk type are
#: stored raw without a codec attempt.
_COMPRESS_BACKOFF = 63


class PackStore(SegmentStore):
    """Durable chunk store over compressed, CRC-framed pack files."""

    _SEGMENT_DIR = "packs"
    _SEGMENT_STEM = "pack"
    _INDEX_STEM = "pack-index"
    _INDEX_MAGIC = b"FBPX0001"
    _INDEX_ENTRY = struct.Struct(">32sIQI")  # digest, segment, offset, record length
    _LOCATION_FIELDS = 3  # the record length includes the frame

    def __init__(
        self,
        directory: str,
        verify_reads: bool = False,
        segment_limit: int = 64 * 1024 * 1024,
        compression: str = "auto",
    ) -> None:
        self._codec = self._resolve_codec(compression)
        # Per chunk type: records still to store raw before the next attempt.
        self._codec_backoff: Dict[ChunkType, int] = {}
        self._maps: Dict[int, mmap.mmap] = {}
        self._dead_records = 0
        self._dead_bytes = 0
        # Recovery runs in here, and may already unlink compaction leftovers.
        super().__init__(directory, verify_reads=verify_reads, segment_limit=segment_limit)

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

    # -- record framing ------------------------------------------------------

    def _encode_record(self, chunk: Chunk) -> bytes:
        raw = chunk.data
        codec = _CODEC_RAW
        stored = raw
        if self._codec is not None and len(raw) >= _COMPRESS_MIN:
            skip = self._codec_backoff.get(chunk.type, 0)
            if skip:
                self._codec_backoff[chunk.type] = skip - 1
            else:
                self.stats.codec_tries += 1
                candidate = self._compress(self._codec, raw)
                if (len(raw) - len(candidate)) * _COMPRESS_FLOOR >= len(raw):
                    self.stats.codec_kept += 1
                    codec = self._codec
                    stored = candidate
                else:
                    self._codec_backoff[chunk.type] = _COMPRESS_BACKOFF
        fields = _FRAME.pack(
            int(chunk.type), codec, len(stored), len(raw), chunk.uid
        )
        return fields + _CRC.pack(zlib.crc32(fields + stored)) + stored

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
        if digest != uid:
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
        chunk_type = TAG_TO_TYPE.get(tag)
        if chunk_type is None:
            raise ChunkCorruptionError(
                f"pack record for {uid.short()} carries unknown tag {tag}"
            )
        return Chunk(chunk_type, raw, uid=uid)

    def _parse_record(self, handle: IO[bytes]) -> Parsed:
        """Frame-check the record at ``handle``; name interior rot.

        A *complete* frame that fails its CRC or carries an unknown tag
        is rot, not a tear, and recovery stops loudly rather than silently
        dropping indexed history.  The embedded digest means no
        decompression is needed here, so even zstd-packed segments
        rebuild in an environment without zstandard.
        """
        frame = handle.read(_FRAME_SIZE)
        if len(frame) < _FRAME_SIZE:
            return None  # clean EOF, or a partial frame at EOF
        tag, _codec, stored_len, _raw_len, digest = _FRAME.unpack_from(frame)
        (crc,) = _CRC.unpack_from(frame, _FRAME.size)
        stored = handle.read(stored_len)
        if len(stored) < stored_len:
            return None  # partial payload at EOF
        if zlib.crc32(stored, zlib.crc32(frame[: _FRAME.size])) != crc:
            return "frame CRC mismatch"
        if tag not in TAG_TO_TYPE:
            return f"unknown tag {tag}"
        return bytes.__new__(Uid, digest), _FRAME_SIZE + stored_len

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

    _release = _drop_maps

    def _drop_segment_file(self, segment: int) -> None:
        mapped = self._maps.pop(segment, None)
        if mapped is not None:
            mapped.close()
        super()._drop_segment_file(segment)

    def _record_at(self, location: Tuple[int, ...]) -> bytes:
        return self._view(*location)

    # -- primitives ----------------------------------------------------------

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

    def physical_size(self) -> int:
        """Total *logical* payload bytes currently indexed (pre-compression)."""
        total = 0
        for segment, offset, length in self._index.values():
            frame = self._view(segment, offset, _FRAME.size)
            total += _FRAME.unpack(frame)[3]  # raw_len
        return total

    # -- compaction ----------------------------------------------------------

    def compact_segments(self) -> Dict[str, int]:
        # Every dead record was dropped with its old segment.
        outcome = super().compact_segments()
        self._dead_records = 0
        self._dead_bytes = 0
        return outcome
