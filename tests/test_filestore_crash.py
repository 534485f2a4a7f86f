"""Crash-recovery tests for the segmented stores' index and scan loop.

Simulates the classic failure modes of an append-only log: the process
dies mid-append (torn header, torn payload), garbage lands in the tail
(unknown tag), and the index snapshot is deleted, corrupted, or goes stale
relative to the segment files.  In every case reopening must recover all
intact records and ignore the damaged tail — never serve wrong bytes.

``FileStore`` and ``PackStore`` share one snapshot loader and one scan
loop (``repro.store.segments``), so every case runs on both layouts: the
``...OnPack`` subclasses re-run the same bodies with pack's paths and
record packer.
"""

import os
import random
import struct
import zlib
from typing import Callable, NamedTuple

import pytest

from repro.chunk import Chunk, ChunkType
from repro.errors import StoreError
from repro.store import FileStore, PackStore

_HEADER = struct.Struct(">BI")
_FRAME = struct.Struct(">BBII32s")  # pack: tag, codec (0 = raw), stored, raw, digest


def _chunk(n: int) -> Chunk:
    return Chunk(ChunkType.BLOB, b"durable-payload-%04d" % n)


def _file_record(chunk: Chunk) -> bytes:
    return _HEADER.pack(int(chunk.type), len(chunk.data)) + chunk.data


def _pack_record(chunk: Chunk) -> bytes:
    size = len(chunk.data)
    fields = _FRAME.pack(int(chunk.type), 0, size, size, chunk.uid.digest)
    return fields + struct.pack(">I", zlib.crc32(fields + chunk.data)) + chunk.data


class Layout(NamedTuple):
    """One on-disk format: its store, its paths, a by-hand record packer."""

    store: type
    segment_name: str
    index_name: str
    pack_record: Callable[[Chunk], bytes]

    def segment(self, directory: str, number: int = 0) -> str:
        return os.path.join(directory, self.segment_name % number)

    def index(self, directory: str) -> str:
        return os.path.join(directory, self.index_name)

    def assert_recovers(self, directory, expected_present, expected_absent=()):
        with self.store(directory) as store:
            # Every intact record and nothing else: damage is never indexed.
            assert set(store.ids()) == {chunk.uid for chunk in expected_present}
            for chunk in expected_present:
                got = store.get(chunk.uid)
                assert got.data == chunk.data and got.is_valid()
            for chunk in expected_absent:
                assert not store.has(chunk.uid)


FILE = Layout(FileStore, os.path.join("segments", "seg-%06d.dat"), "index.dat", _file_record)
PACK = Layout(PackStore, os.path.join("packs", "pack-%06d.dat"), "pack-index.dat", _pack_record)


@pytest.fixture
def populated(request, tmp_path):
    """A closed store directory holding 20 chunks, plus the chunk list."""
    directory = str(tmp_path / "store")
    chunks = [_chunk(i) for i in range(20)]
    with request.cls.layout.store(directory) as store:
        store.put_many(chunks)
    return directory, chunks


class TestTornTail:
    layout = FILE

    def _append_crash(self, directory, blob: bytes) -> None:
        """Simulate a crash that left ``blob`` at the end of the segment."""
        os.remove(self.layout.index(directory))  # crash also means no fresh snapshot
        with open(self.layout.segment(directory), "ab") as handle:
            handle.write(blob)

    def test_torn_header(self, populated):
        directory, chunks = populated
        self._append_crash(directory, b"\x01\x00")  # 2 header bytes of 5 (46)
        self.layout.assert_recovers(directory, chunks)

    def test_torn_payload(self, populated):
        directory, chunks = populated
        victim = _chunk(999)
        self._append_crash(directory, self.layout.pack_record(victim)[:-13])  # 7B of payload
        self.layout.assert_recovers(directory, chunks, expected_absent=[victim])

    def test_unknown_tag_tail(self, populated):
        """File-only: with no CRC a complete record of garbage ends the scan
        like a tear.  Pack raises instead (``test_packstore``'s
        ``test_interior_rot_raises_on_rebuild`` pins that verdict)."""
        directory, chunks = populated
        self._append_crash(directory, _HEADER.pack(0xEE, 4) + b"junk")
        self.layout.assert_recovers(directory, chunks)

    def test_records_after_snapshot_are_recovered(self, populated):
        """A crash after appends but before close: the index snapshot is
        stale but valid; the watermark scan must pick up the tail."""
        directory, chunks = populated
        late = [_chunk(i) for i in range(100, 105)]
        store = self.layout.store(directory)
        store.put_many(late)
        store.abandon()  # the crash: no close(), so no fresh index snapshot
        self.layout.assert_recovers(directory, chunks + late)

    def test_truncated_mid_record(self, populated):
        """The active segment loses its tail mid-record (torn at the disk)."""
        directory, chunks = populated
        os.remove(self.layout.index(directory))
        size = os.path.getsize(self.layout.segment(directory))
        with open(self.layout.segment(directory), "r+b") as handle:
            handle.truncate(size - 9)  # rips into the last record
        self.layout.assert_recovers(directory, chunks[:-1], expected_absent=[chunks[-1]])

    def test_truncated_under_an_open_store(self, populated):
        """The segment loses its tail while the store is open: reading the
        ripped record, or compacting over it, raises — a short payload is
        never served, or copied, under its uid."""
        directory, chunks = populated
        store = self.layout.store(directory)
        path = self.layout.segment(directory)
        os.truncate(path, os.path.getsize(path) - 9)
        with pytest.raises(StoreError):
            store.get(chunks[-1].uid)
        with pytest.raises(StoreError):
            store.compact_segments()
        store.abandon()


class TestTornTailOnPack(TestTornTail):
    layout = PACK
    test_unknown_tag_tail = None  # the one per-format verdict: see its docstring


class TestIndexDamage:
    layout = FILE

    def test_deleted_index_rebuilds(self, populated):
        directory, chunks = populated
        os.remove(self.layout.index(directory))
        self.layout.assert_recovers(directory, chunks)

    def test_corrupt_magic_rebuilds(self, populated):
        """A snapshot with a bad magic is not trusted at all.  Its body is
        well-formed here but names each other's record for two uids, so
        loading it anyway would serve one chunk's bytes under the other's
        uid."""
        directory, chunks = populated
        with open(self.layout.index(directory), "r+b") as handle:
            snapshot = bytearray(handle.read())
            size = self.layout.store._INDEX_ENTRY.size
            first = len(snapshot) - len(chunks) * size  # entries end the file
            second = first + size
            snapshot[first : first + 32], snapshot[second : second + 32] = (
                snapshot[second : second + 32],
                snapshot[first : first + 32],
            )
            snapshot[:8] = b"XXXXXXXX"
            handle.seek(0)
            handle.write(snapshot)
        self.layout.assert_recovers(directory, chunks)

    def test_truncated_index_rebuilds(self, populated):
        directory, chunks = populated
        size = os.path.getsize(self.layout.index(directory))
        with open(self.layout.index(directory), "r+b") as handle:
            handle.truncate(size // 2)
        self.layout.assert_recovers(directory, chunks)

    def test_garbage_index_rebuilds(self, populated):
        directory, chunks = populated
        with open(self.layout.index(directory), "wb") as handle:
            handle.write(random.Random(64).randbytes(64))
        self.layout.assert_recovers(directory, chunks)

    def test_vanished_segment_rebuilds(self, populated):
        """The index references a segment that no longer exists on disk:
        the staleness check must reject the snapshot, not serve dangling
        offsets."""
        directory, chunks = populated
        late = [_chunk(i) for i in range(200, 230)]
        with self.layout.store(directory, segment_limit=256) as store:
            store.put_many(late)  # rolls extra segments
        seg_dir = os.path.dirname(self.layout.segment(directory))
        victims = sorted(os.listdir(seg_dir))[1:]
        for name in victims:
            os.remove(os.path.join(seg_dir, name))
        with self.layout.store(directory) as store:
            for chunk in chunks:  # first segment still fully intact
                assert store.get(chunk.uid).data == chunk.data

    def test_shrunken_segment_rebuilds(self, populated):
        """A segment shorter than its watermark invalidates the snapshot
        (offsets could dangle); rebuild recovers the intact prefix."""
        directory, chunks = populated
        size = os.path.getsize(self.layout.segment(directory))
        with open(self.layout.segment(directory), "r+b") as handle:
            handle.truncate(size - 9)
        self.layout.assert_recovers(directory, chunks[:-1], expected_absent=[chunks[-1]])

    def test_out_of_range_offset_rebuilds(self, populated):
        """Index entries pointing past the watermark are rejected."""
        directory, chunks = populated
        data = bytearray(open(self.layout.index(directory), "rb").read())
        # Rewrite every entry's offset field to a huge value.  Layout:
        # magic(8) count(8) seg_count(8) watermarks(12 each) entries
        # (digest, segment, offset[, length]: 40 bytes each, 48 for pack).
        entry = self.layout.store._INDEX_ENTRY
        (count,) = struct.unpack_from(">Q", data, 8)
        (seg_count,) = struct.unpack_from(">Q", data, 16)
        entries_at = 24 + seg_count * 12
        for at in range(entries_at, entries_at + count * entry.size, entry.size):
            fields = list(entry.unpack_from(data, at))
            fields[2] = 2**31
            entry.pack_into(data, at, *fields)
        with open(self.layout.index(directory), "wb") as handle:
            handle.write(bytes(data))
        self.layout.assert_recovers(directory, chunks)

    def test_clean_reopen_uses_snapshot(self, populated):
        """Sanity: an undamaged snapshot loads without a rebuild."""
        directory, chunks = populated
        store = self.layout.store(directory)
        spy = []
        store._scan_segment = lambda *a, **k: spy.append(a) or 0  # type: ignore
        assert store._load_index() is not None  # snapshot accepted
        # Only watermark-tail scans happened, all no-ops at EOF.
        store.close()
        self.layout.assert_recovers(directory, chunks)


class TestIndexDamageOnPack(TestIndexDamage):
    layout = PACK
