"""Append-only file-backed chunk store: the plain record format.

Layout under the store directory::

    segments/seg-000000.dat   length-prefixed records: [tag][len][payload]
    index.dat                 FBIX snapshot: uid -> (segment, offset)

Everything about the directory of segments — discovery, the watermarked
index snapshot, crash recovery, segment roll, the writer's un-ack
protocol, compaction — is :class:`~repro.store.segments.SegmentStore`;
this module is only what a record looks like and how one is read back.
Records carry no checksum and no digest: a scan hashes each payload to
recover its uid, and cannot tell rot from a garbage tail, so a complete
record with an unknown tag ends the scan like a tear does.
"""

from __future__ import annotations

import struct
from typing import IO, Optional, Tuple

from repro.chunk import Chunk, Uid
from repro.errors import ChunkCorruptionError, StoreClosedError, StoreError, map_os_error
from repro.store.durability import read_check
from repro.store.segments import TAG_TO_TYPE, Parsed, SegmentStore

_RECORD_HEADER = struct.Struct(">BI")  # type tag, payload length


class FileStore(SegmentStore):
    """Durable chunk store over segments of length-prefixed records."""

    _SEGMENT_DIR = "segments"
    _SEGMENT_STEM = "seg"
    _INDEX_STEM = "index"
    _INDEX_MAGIC = b"FBIX0002"  # 0002 added the per-segment watermark table
    _INDEX_ENTRY = struct.Struct(">32sII")  # digest, segment number, offset
    _LOCATION_FIELDS = 2
    _HEADER_SIZE = _RECORD_HEADER.size

    def _encode_record(self, chunk: Chunk) -> bytes:
        return _RECORD_HEADER.pack(int(chunk.type), len(chunk.data)) + chunk.data

    def _parse_record(self, handle: IO[bytes]) -> Parsed:
        header = handle.read(_RECORD_HEADER.size)
        if len(header) < _RECORD_HEADER.size:
            return None  # clean EOF or torn header
        tag, length = _RECORD_HEADER.unpack(header)
        payload = handle.read(length)
        if len(payload) < length:
            return None  # torn record from a crash
        chunk_type = TAG_TO_TYPE.get(tag)
        if chunk_type is None:
            return None  # unknown tag: treat as a corruption tail
        return Chunk(chunk_type, payload).uid, _RECORD_HEADER.size + length

    def _record_at(self, location: Tuple[int, ...]) -> bytes:
        segment, offset = location
        path = self._segment_path(segment)
        try:
            read_check(path)
            with open(path, "rb") as handle:
                handle.seek(offset)
                header = handle.read(_RECORD_HEADER.size)
                if len(header) != _RECORD_HEADER.size:
                    raise StoreError(f"torn record at {segment}:{offset}")
                length = _RECORD_HEADER.unpack(header)[1]
                payload = handle.read(length)
        except OSError as exc:
            raise map_os_error(exc, "read", path) from exc
        if len(payload) != length:
            raise StoreError(f"torn record at {segment}:{offset}")
        return header + payload

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
        chunk_type = TAG_TO_TYPE.get(tag)
        if chunk_type is None:
            raise ChunkCorruptionError(f"record for {uid.short()} carries unknown tag {tag}")
        return Chunk(chunk_type, payload, uid=uid)
