"""Crash-recovery tests for FileStore.

Simulates the classic failure modes of an append-only log: the process
dies mid-append (torn header, torn payload), garbage lands in the tail
(unknown tag), and the index snapshot is deleted, corrupted, or goes stale
relative to the segment files.  In every case reopening must recover all
intact records and ignore the damaged tail — never serve wrong bytes.
"""

import os
import struct

import pytest

from repro.chunk import Chunk, ChunkType
from repro.store import FileStore

_HEADER = struct.Struct(">BI")


def _chunk(n: int) -> Chunk:
    return Chunk(ChunkType.BLOB, b"durable-payload-%04d" % n)


def _segment(directory: str, number: int = 0) -> str:
    return os.path.join(directory, "segments", "seg-%06d.dat" % number)


def _index(directory: str) -> str:
    return os.path.join(directory, "index.dat")


@pytest.fixture
def populated(tmp_path):
    """A closed store directory holding 20 chunks, plus the chunk list."""
    directory = str(tmp_path / "fs")
    chunks = [_chunk(i) for i in range(20)]
    with FileStore(directory) as store:
        store.put_many(chunks)
    return directory, chunks


def _assert_recovers(directory, expected_present, expected_absent=()):
    with FileStore(directory) as store:
        for chunk in expected_present:
            got = store.get(chunk.uid)
            assert got.data == chunk.data and got.is_valid()
        for chunk in expected_absent:
            assert not store.has(chunk.uid)


class TestTornTail:
    def _append_crash(self, directory, blob: bytes) -> None:
        """Simulate a crash that left ``blob`` at the end of the segment."""
        os.remove(_index(directory))  # crash also means no fresh snapshot
        with open(_segment(directory), "ab") as handle:
            handle.write(blob)

    def test_torn_header(self, populated):
        directory, chunks = populated
        self._append_crash(directory, b"\x01\x00")  # 2 of 5 header bytes
        _assert_recovers(directory, chunks)

    def test_torn_payload(self, populated):
        directory, chunks = populated
        victim = _chunk(999)
        record = _HEADER.pack(int(victim.type), len(victim.data)) + victim.data[:7]
        self._append_crash(directory, record)
        _assert_recovers(directory, chunks, expected_absent=[victim])

    def test_unknown_tag_tail(self, populated):
        directory, chunks = populated
        self._append_crash(directory, _HEADER.pack(0xEE, 4) + b"junk")
        _assert_recovers(directory, chunks)

    def test_records_after_snapshot_are_recovered(self, populated):
        """A crash after appends but before close: the index snapshot is
        stale but valid; the watermark scan must pick up the tail."""
        directory, chunks = populated
        late = [_chunk(i) for i in range(100, 105)]
        store = FileStore(directory)
        store.put_many(late)
        store.abandon()  # the crash: no close(), so no fresh index snapshot
        _assert_recovers(directory, chunks + late)

    def test_truncated_mid_record(self, populated):
        """The active segment loses its tail mid-record (torn at the disk)."""
        directory, chunks = populated
        os.remove(_index(directory))
        size = os.path.getsize(_segment(directory))
        with open(_segment(directory), "r+b") as handle:
            handle.truncate(size - 9)  # rips into the last record
        _assert_recovers(directory, chunks[:-1], expected_absent=[chunks[-1]])


class TestIndexDamage:
    def test_deleted_index_rebuilds(self, populated):
        directory, chunks = populated
        os.remove(_index(directory))
        _assert_recovers(directory, chunks)

    def test_corrupt_magic_rebuilds(self, populated):
        directory, chunks = populated
        with open(_index(directory), "r+b") as handle:
            handle.write(b"XXXXXXXX")
        _assert_recovers(directory, chunks)

    def test_truncated_index_rebuilds(self, populated):
        directory, chunks = populated
        size = os.path.getsize(_index(directory))
        with open(_index(directory), "r+b") as handle:
            handle.truncate(size // 2)
        _assert_recovers(directory, chunks)

    def test_garbage_index_rebuilds(self, populated):
        directory, chunks = populated
        with open(_index(directory), "wb") as handle:
            handle.write(os.urandom(64))
        _assert_recovers(directory, chunks)

    def test_vanished_segment_rebuilds(self, populated):
        """The index references a segment that no longer exists on disk:
        the staleness check must reject the snapshot, not serve dangling
        offsets."""
        directory, chunks = populated
        late = [_chunk(i) for i in range(200, 230)]
        with FileStore(directory, segment_limit=256) as store:
            store.put_many(late)  # rolls extra segments
        seg_dir = os.path.join(directory, "segments")
        victims = sorted(os.listdir(seg_dir))[1:]
        for name in victims:
            os.remove(os.path.join(seg_dir, name))
        with FileStore(directory) as store:
            for chunk in chunks:  # first segment still fully intact
                assert store.get(chunk.uid).data == chunk.data

    def test_shrunken_segment_rebuilds(self, populated):
        """A segment shorter than its watermark invalidates the snapshot
        (offsets could dangle); rebuild recovers the intact prefix."""
        directory, chunks = populated
        size = os.path.getsize(_segment(directory))
        with open(_segment(directory), "r+b") as handle:
            handle.truncate(size - 9)
        _assert_recovers(directory, chunks[:-1], expected_absent=[chunks[-1]])

    def test_out_of_range_offset_rebuilds(self, populated):
        """Index entries pointing past the watermark are rejected."""
        directory, chunks = populated
        data = bytearray(open(_index(directory), "rb").read())
        # Rewrite every entry's offset field to a huge value.  Layout:
        # magic(8) count(8) seg_count(8) watermarks(12 each) entries(40 each).
        (count,) = struct.unpack_from(">Q", data, 8)
        (seg_count,) = struct.unpack_from(">Q", data, 16)
        entries_at = 24 + seg_count * 12
        for i in range(count):
            struct.pack_into(">I", data, entries_at + i * 40 + 36, 2**31)
        with open(_index(directory), "wb") as handle:
            handle.write(bytes(data))
        _assert_recovers(directory, chunks)

    def test_clean_reopen_uses_snapshot(self, populated):
        """Sanity: an undamaged snapshot loads without a rebuild."""
        directory, chunks = populated
        store = FileStore(directory)
        spy = []
        store._scan_segment = lambda *a, **k: spy.append(a) or 0  # type: ignore
        assert store._load_index() is not None  # snapshot accepted
        # Only watermark-tail scans happened, all no-ops at EOF.
        store.close()
        _assert_recovers(directory, chunks)
