"""Unit tests for the pack-file chunk store.

Covers the record frame (compression negotiation, the savings floor and
per-type back-off, CRC, embedded digest),
``has()`` presence probes, the FBPX index lifecycle (save, load, stale
rejection, rebuild), deletes, segment compaction, and the frame-level
``diagnose_record`` verdicts the scrubber consumes.
"""

import os
import random
import struct
import zlib

import pytest

from repro.chunk import Chunk, ChunkType, Uid
from repro.errors import ChunkCorruptionError, StoreClosedError, TransientStoreError
from repro.store import PackStore
from repro.store.packstore import (
    _CODEC_RAW,
    _CODEC_ZLIB,
    _CODEC_ZSTD,
    _COMPRESS_BACKOFF,
    _CRC,
    _FRAME,
)

_FRAME_SIZE = _FRAME.size + _CRC.size


def _chunk(n: int, size: int = 40) -> Chunk:
    return Chunk(ChunkType.BLOB, (b"pack-payload-%04d-" % n) * (1 + size // 18))


def _segment(directory: str, number: int = 0) -> str:
    return os.path.join(directory, "packs", "pack-%06d.dat" % number)


def _index(directory: str) -> str:
    return os.path.join(directory, "pack-index.dat")


@pytest.fixture
def populated(tmp_path):
    """A closed pack directory holding 30 chunks, plus the chunk list."""
    directory = str(tmp_path / "ps")
    chunks = [_chunk(i) for i in range(30)]
    with PackStore(directory) as store:
        store.put_many(chunks)
    return directory, chunks


def _assert_recovers(directory, expected_present, expected_absent=()):
    with PackStore(directory) as store:
        for chunk in expected_present:
            got = store.get(chunk.uid)
            assert got.data == chunk.data and got.is_valid()
        for chunk in expected_absent:
            assert not store.has(chunk.uid)


class TestRoundTrip:
    def test_all_chunk_types_roundtrip(self, tmp_path):
        with PackStore(str(tmp_path / "ps")) as store:
            chunks = [
                Chunk(type_, b"payload for %s " % type_.name.encode() * 5)
                for type_ in ChunkType
            ]
            store.put_many(chunks)
            for chunk in chunks:
                got = store.get(chunk.uid)
                assert got.type == chunk.type and got.data == chunk.data

    def test_single_put_and_reopen(self, tmp_path):
        directory = str(tmp_path / "ps")
        chunk = _chunk(1)
        with PackStore(directory) as store:
            assert store.put(chunk) is True
            assert store.put(chunk) is False  # dedup
            assert store.get(chunk.uid).data == chunk.data
        _assert_recovers(directory, [chunk])

    def test_closed_store_refuses(self, tmp_path):
        store = PackStore(str(tmp_path / "ps"))
        store.close()
        with pytest.raises(StoreClosedError):
            store.put(_chunk(0))

    def test_segment_rolls(self, tmp_path):
        directory = str(tmp_path / "ps")
        chunks = [_chunk(i, size=100) for i in range(40)]
        with PackStore(directory, segment_limit=512) as store:
            store.put_many(chunks)
        assert len(os.listdir(os.path.join(directory, "packs"))) > 1
        _assert_recovers(directory, chunks)

    def test_wide_segment_numbers_round_trip(self, tmp_path):
        """Segment counters past 999999 overflow the 06d name padding;
        discovery must parse the full number, not the first six digits."""
        directory = str(tmp_path / "ps")
        chunk = _chunk(1)
        with PackStore(directory) as store:
            store.put(chunk)
        packs = os.path.join(directory, "packs")
        os.rename(
            os.path.join(packs, "pack-000000.dat"), os.path.join(packs, "pack-1000000.dat")
        )
        os.remove(os.path.join(directory, "pack-index.dat"))
        with PackStore(directory) as store:
            assert store._segments == [1_000_000]
            assert store.get(chunk.uid).data == chunk.data


class TestCompression:
    def test_compressible_payload_stored_smaller(self, tmp_path):
        chunk = Chunk(ChunkType.BLOB, b"abcd" * 2000)
        with PackStore(str(tmp_path / "ps"), compression="zlib") as store:
            store.put(chunk)
            assert store.disk_size() < len(chunk.data)
            assert store.get(chunk.uid).data == chunk.data

    def test_incompressible_payload_stored_raw(self, tmp_path):
        chunk = Chunk(ChunkType.BLOB, random.Random(1024).randbytes(1024))  # incompressible
        with PackStore(str(tmp_path / "ps"), compression="zlib") as store:
            store.put(chunk)
        with open(_segment(str(tmp_path / "ps")), "rb") as handle:
            frame = handle.read(_FRAME.size)
        assert _FRAME.unpack(frame)[1] == _CODEC_RAW

    def test_small_payload_skips_codec(self, tmp_path):
        chunk = Chunk(ChunkType.BLOB, b"tiny")
        with PackStore(str(tmp_path / "ps"), compression="zlib") as store:
            store.put(chunk)
        with open(_segment(str(tmp_path / "ps")), "rb") as handle:
            frame = handle.read(_FRAME.size)
        assert _FRAME.unpack(frame)[1] == _CODEC_RAW

    def test_compression_none_is_always_raw(self, tmp_path):
        chunk = Chunk(ChunkType.BLOB, b"abcd" * 2000)
        with PackStore(str(tmp_path / "ps"), compression="none") as store:
            store.put(chunk)
            assert store.disk_size() >= len(chunk.data)

    def test_unknown_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            PackStore(str(tmp_path / "ps"), compression="lz77")

    def test_mixed_codecs_survive_reopen(self, tmp_path):
        directory = str(tmp_path / "ps")
        compressible = Chunk(ChunkType.BLOB, b"abab" * 500)
        with PackStore(directory, compression="zlib") as store:
            store.put(compressible)
        raw = Chunk(ChunkType.BLOB, b"plain-bytes " * 10)
        with PackStore(directory, compression="none") as store:
            store.put(raw)
        _assert_recovers(directory, [compressible, raw])

    def test_zstd_record_without_zstandard_is_transient(self, tmp_path, monkeypatch):
        """A zstd-coded record read where zstandard is not importable must
        raise the *transient* taxonomy error — the bytes are fine, this
        environment just cannot inflate them; scrub must not quarantine."""
        import repro.store.packstore as packstore_mod

        directory = str(tmp_path / "ps")
        chunk = Chunk(ChunkType.BLOB, b"abcd" * 200)
        with PackStore(directory, compression="zlib") as store:
            store.put(chunk)
            location = store._index[chunk.uid]
        segment, offset, length = location
        path = _segment(directory, segment)
        with open(path, "r+b") as handle:
            handle.seek(offset)
            frame = bytearray(handle.read(_FRAME.size))
            assert frame[1] == _CODEC_ZLIB
            frame[1] = _CODEC_ZSTD  # re-badge the codec, re-seal the CRC
            handle.seek(offset + _FRAME_SIZE)
            stored = handle.read(length - _FRAME_SIZE)
            handle.seek(offset)
            handle.write(bytes(frame))
            handle.write(_CRC.pack(zlib.crc32(bytes(frame) + stored)))
        monkeypatch.setattr(packstore_mod, "_zstd", None)
        with PackStore(directory) as store:
            with pytest.raises(TransientStoreError):
                store.get(chunk.uid)
            assert store.diagnose_record(chunk.uid) == "codec"


def _noise(type_: ChunkType, n: int, size: int = 512) -> Chunk:
    """A record zlib cannot shrink (seeded, so the suite replays)."""
    return Chunk(type_, random.Random(n).randbytes(size))


def _text(type_: ChunkType, n: int) -> Chunk:
    """A record zlib shrinks by far more than the floor."""
    return Chunk(type_, b"word text %d, more word text; " % n * 20)


def _codec_of(store: PackStore, uid: Uid) -> int:
    segment, offset, _length = store._index[uid]
    return _FRAME.unpack(store._view(segment, offset, _FRAME.size))[1]


class TestCompressionBackoff:
    """A record keeps its deflated form only if that saves >= 1/8; a miss
    stores the next 63 records of that chunk type raw, untried."""

    def test_saving_under_an_eighth_is_stored_raw(self, tmp_path):
        data = bytes(random.Random(3).choices(range(128), k=1024))  # 7-bit noise
        saved = len(data) - len(zlib.compress(data, 6))
        assert 0 < saved * 8 < len(data)  # shrinks, but by less than 1/8
        chunk = Chunk(ChunkType.LEAF, data)
        with PackStore(str(tmp_path / "ps"), compression="zlib") as store:
            store.put(chunk)
            assert (store.stats.codec_tries, store.stats.codec_kept) == (1, 0)
            assert _codec_of(store, chunk.uid) == _CODEC_RAW
            assert store.get(chunk.uid).data == data

    def test_miss_skips_exactly_the_next_63_records_of_its_type(self, tmp_path):
        assert _COMPRESS_BACKOFF == 63
        with PackStore(str(tmp_path / "ps"), compression="zlib") as store:
            store.put(_noise(ChunkType.INDEX, 0))
            assert (store.stats.codec_tries, store.stats.codec_kept) == (1, 0)
            window = [_text(ChunkType.INDEX, i) for i in range(63)]
            for chunk in window:
                store.put(chunk)
            assert store.stats.codec_tries == 1
            assert all(_codec_of(store, c.uid) == _CODEC_RAW for c in window)
            probe = _text(ChunkType.INDEX, 63)
            store.put(probe)
            assert (store.stats.codec_tries, store.stats.codec_kept) == (2, 1)
            assert _codec_of(store, probe.uid) == _CODEC_ZLIB

    def test_digest_records_do_not_stop_text_blobs_compressing(self, tmp_path):
        blobs = [_text(ChunkType.BLOB, i) for i in range(200)]
        with PackStore(str(tmp_path / "ps"), compression="zlib") as store:
            for i, blob in enumerate(blobs):
                store.put_many([_noise(ChunkType.INDEX, i), _noise(ChunkType.FNODE, 1000 + i)])
                store.put(blob)
            assert all(_codec_of(store, b.uid) == _CODEC_ZLIB for b in blobs)
            # 200 blob tries, plus one probe per 64 records of each other type.
            assert store.stats.codec_tries == 200 + 4 + 4
            assert store.stats.codec_kept == 200

    def test_compressible_record_inside_a_window_reads_back(self, tmp_path):
        directory = str(tmp_path / "ps")
        text = _text(ChunkType.BLOB, 1)
        with PackStore(directory, compression="zlib") as store:
            store.put_many([_noise(ChunkType.BLOB, 0), text])
            assert _codec_of(store, text.uid) == _CODEC_RAW
            assert store.stats.codec_tries == 1
            got = store.get(text.uid)
            assert got.data == text.data and got.is_valid()
        _assert_recovers(directory, [text])

    def test_mixed_records_of_one_type_survive_reopen_and_compaction(self, tmp_path):
        directory = str(tmp_path / "ps")
        kept = [_text(ChunkType.LEAF, i) for i in range(3)]
        missed = _noise(ChunkType.LEAF, 0)
        windowed = [_text(ChunkType.LEAF, i) for i in range(3, 6)]
        doomed = _text(ChunkType.LEAF, 6)
        with PackStore(directory, compression="zlib") as store:
            store.put_many(kept + [missed] + windowed + [doomed])
            codecs = {c.uid: _codec_of(store, c.uid) for c in kept + [missed] + windowed}
        assert [codecs[c.uid] for c in kept] == [_CODEC_ZLIB] * 3
        assert [codecs[c.uid] for c in [missed] + windowed] == [_CODEC_RAW] * 4
        _assert_recovers(directory, kept + [missed] + windowed + [doomed])
        with PackStore(directory, compression="zlib") as store:
            store.delete(doomed.uid)
            store.compact_segments()
            assert {uid: _codec_of(store, uid) for uid in codecs} == codecs
        _assert_recovers(directory, kept + [missed] + windowed, expected_absent=[doomed])

    def test_backoff_restarts_after_reopen(self, tmp_path):
        directory = str(tmp_path / "ps")
        with PackStore(directory, compression="zlib") as store:
            store.put(_noise(ChunkType.INDEX, 0))
        text = _text(ChunkType.INDEX, 0)
        with PackStore(directory, compression="zlib") as store:
            store.put(text)
            assert (store.stats.codec_tries, store.stats.codec_kept) == (1, 1)
            assert _codec_of(store, text.uid) == _CODEC_ZLIB


class TestHas:
    def test_ghost_uids_are_absent(self, populated):
        directory, chunks = populated
        with PackStore(directory) as store:
            for i in range(512):
                ghost = Uid(struct.pack(">Q", i) * 4)
                assert not store.has(ghost)

    def test_present_chunks_are_found(self, populated):
        directory, chunks = populated
        with PackStore(directory) as store:
            for chunk in chunks:
                assert store.has(chunk.uid)

    def test_has_keeps_up_with_a_growing_store(self, tmp_path):
        with PackStore(str(tmp_path / "ps")) as store:
            store.put_many([_chunk(i, size=8) for i in range(1100)])
            for i in range(1050, 1100):
                assert store.has(_chunk(i, size=8).uid)


class TestDeleteAndCompact:
    def test_delete_then_reopen(self, populated):
        directory, chunks = populated
        with PackStore(directory) as store:
            assert store.delete(chunks[0].uid) is True
            assert store.delete(chunks[0].uid) is False
            records, dead = store.dead_space()
            assert records == 1 and dead > 0
        _assert_recovers(directory, chunks[1:], expected_absent=[chunks[0]])

    def test_compaction_reclaims_disk(self, populated):
        directory, chunks = populated
        with PackStore(directory) as store:
            before = store.disk_size()
            for chunk in chunks[:20]:
                store.delete(chunk.uid)
            outcome = store.compact_segments()
            assert outcome["bytes_after"] < before
            assert outcome["live_records"] == len(chunks) - 20
            assert store.dead_space() == (0, 0)
            for chunk in chunks[20:]:
                assert store.get(chunk.uid).data == chunk.data
        _assert_recovers(directory, chunks[20:], expected_absent=chunks[:20])

    def test_compaction_drops_old_segment_files(self, populated):
        directory, chunks = populated
        with PackStore(directory) as store:
            old = set(os.listdir(os.path.join(directory, "packs")))
            for chunk in chunks[:10]:
                store.delete(chunk.uid)
            store.compact_segments()
            new = set(os.listdir(os.path.join(directory, "packs")))
        assert old.isdisjoint(new)

    def test_store_still_writable_after_compaction(self, populated):
        directory, chunks = populated
        late = [_chunk(i) for i in range(500, 520)]
        with PackStore(directory) as store:
            store.compact_segments()
            store.put_many(late)
        _assert_recovers(directory, chunks + late)


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

    def test_rebuild_works_without_decompression(self, tmp_path, monkeypatch):
        """The frame's embedded digest lets an environment *without* the
        zstd codec rebuild the index over zstd-compressed records."""
        import repro.store.packstore as packstore_mod

        directory = str(tmp_path / "ps")
        chunks = [Chunk(ChunkType.BLOB, b"zz" * 300 + bytes([i])) for i in range(5)]
        with PackStore(directory, compression="zlib") as store:
            store.put_many(chunks)
        os.remove(_index(directory))
        monkeypatch.setattr(packstore_mod, "_zstd", None)
        with PackStore(directory) as store:
            assert sorted(u.digest for u in store.ids()) == sorted(
                c.uid.digest for c in chunks
            )

    def test_clean_reopen_uses_snapshot(self, populated):
        directory, chunks = populated
        store = PackStore(directory)
        spy = []
        store._scan_segment = lambda *a, **k: spy.append(a) or 0  # type: ignore
        store._index.clear()
        assert store._load_index() is not None  # snapshot accepted
        assert len(store._index) == len(chunks)
        store.close()


class TestDiagnoseRecord:
    def test_verdicts(self, populated):
        directory, chunks = populated
        with PackStore(directory) as store:
            assert store.diagnose_record(chunks[0].uid) == "ok"
            ghost = Uid(b"\x42" * 32)
            assert store.diagnose_record(ghost) == "missing"

    def test_crc_verdict_on_flipped_byte(self, populated):
        directory, chunks = populated
        store = PackStore(directory)
        segment, offset, length = store._index[chunks[3].uid]
        store.abandon()
        with open(_segment(directory, segment), "r+b") as handle:
            handle.seek(offset + _FRAME_SIZE + 2)
            byte = handle.read(1)
            handle.seek(offset + _FRAME_SIZE + 2)
            handle.write(bytes([byte[0] ^ 0xFF]))
        store = PackStore(directory)
        assert store.diagnose_record(chunks[3].uid) == "crc"
        with pytest.raises(ChunkCorruptionError):
            store.get(chunks[3].uid)
        # Compaction copies records verbatim: it must not launder rot by
        # re-framing the rotten bytes under a fresh CRC.
        store.compact_segments()
        assert store.diagnose_record(chunks[3].uid) == "crc"
        with pytest.raises(ChunkCorruptionError):
            store.get(chunks[3].uid)
        store.abandon()

    def test_torn_verdict_on_shrunken_segment(self, populated):
        directory, chunks = populated
        store = PackStore(directory)
        last = max(store._index.values(), key=lambda loc: loc[1])
        victim = next(u for u, loc in store._index.items() if loc == last)
        path = _segment(directory, last[0])
        store._drop_maps()
        os.truncate(path, last[1] + 10)  # rip into the final record
        assert store.diagnose_record(victim) == "torn"
        store.abandon()


class TestPhysicalSize:
    def test_counts_raw_payload_not_compressed(self, tmp_path):
        chunks = [Chunk(ChunkType.BLOB, b"abcd" * 500 + bytes([i])) for i in range(4)]
        with PackStore(str(tmp_path / "ps"), compression="zlib") as store:
            store.put_many(chunks)
            assert store.physical_size() == sum(len(c.data) for c in chunks)
            assert store.disk_size() < store.physical_size()

    def test_snapshot_reports_all_axes(self, tmp_path):
        with PackStore(str(tmp_path / "ps")) as store:
            store.put_many([_chunk(i) for i in range(10)])
            store.put(_chunk(0))  # a dup
            for i in range(10):
                store.get(_chunk(i).uid)
            summary = store.stats_snapshot().summary()
        assert summary["physical_size"] > 0
        assert summary["logical_bytes"] > summary["physical_bytes"]
        assert summary["dedup_ratio"] > 1.0
        assert summary["io_read_bytes"] > 0
        assert summary["io_write_bytes"] > 0
