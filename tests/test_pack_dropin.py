"""The pack backend as a drop-in: engine, gc, scrub, cache.

The acceptance bar for the backend swap: everything above the chunk layer
behaves identically — roots and uids are bit-for-bit the same as with
FileStore, the garbage collector can sweep and compact it, the scrubber
understands its record frames, and the decoded-node cache layers on top.
The engine-level crash torture runs on both layouts in
``test_crash_torture.py``.
"""

from __future__ import annotations

import os

import pytest

from repro.chunk import Uid
from repro.db.engine import ForkBase
from repro.errors import EngineError, JournalCorruptError
from repro.store import NodeCacheStore, PackStore, physical_store
from repro.store.scrub import diagnose_copy
from repro.vcs.journal import _HEADER, MAGIC
from tests.conftest import head_map


def _fill(engine: ForkBase) -> None:
    engine.put("doc", {("k%03d" % i): ("v%d" % i) for i in range(200)})
    engine.put("doc", {("k%03d" % i): ("v%d" % (i + 1)) for i in range(200)})
    engine.branch("doc", "dev")
    engine.put("doc", {"only": "dev"}, branch="dev")
    engine.put("blob", "payload " * 400)


class TestBackendParity:
    def test_roots_and_uids_bit_identical(self, tmp_path):
        engines = {
            name: ForkBase.open(str(tmp_path / name), backend=name)
            for name in ("file", "pack")
        }
        for engine in engines.values():
            engine._clock = lambda: 1234.5
            _fill(engine)
        assert head_map(engines["file"]) == head_map(engines["pack"])
        assert sorted(u.digest for u in engines["file"].store.ids()) == sorted(
            u.digest for u in engines["pack"].store.ids()
        )
        for uid in engines["file"].store.ids():
            assert (
                engines["file"].store.get(uid).data
                == engines["pack"].store.get(uid).data
            )
        for engine in engines.values():
            engine.close()

    def test_auto_detects_existing_layout(self, tmp_path):
        directory = str(tmp_path / "db")
        with ForkBase.open(directory, backend="pack") as engine:
            engine.put("k", {"a": "1"})
        with ForkBase.open(directory) as engine:  # backend="auto"
            assert isinstance(physical_store(engine.store), PackStore)
            assert engine.get_value("k") == {b"a": b"1"}

    def test_explicit_backend_mismatch_is_an_error(self, tmp_path):
        directory = str(tmp_path / "db")
        with ForkBase.open(directory, backend="pack") as engine:
            engine.put("k", {"a": "1"})
        with pytest.raises(EngineError):
            ForkBase.open(directory, backend="file")

    def test_auto_rejects_ambiguous_layout(self, tmp_path):
        """Both layouts present (crashed migration, stray dir): 'auto'
        must error like the explicit-mismatch cases, not silently open
        one layout and hide the other's chunks."""
        directory = str(tmp_path / "db")
        with ForkBase.open(directory, backend="pack") as engine:
            engine.put("k", {"a": "1"})
        os.makedirs(os.path.join(directory, "chunks", "segments"))
        with pytest.raises(EngineError):
            ForkBase.open(directory)

    def test_unknown_backend_rejected(self, tmp_path):
        with pytest.raises(EngineError):
            ForkBase.open(str(tmp_path / "db"), backend="tape")

    def test_unknown_compression_rejected_before_the_directory_exists(self, tmp_path):
        directory = str(tmp_path / "chunks")
        with pytest.raises(ValueError):
            PackStore(directory, compression="lz77")
        assert not os.path.exists(directory)

    @pytest.mark.parametrize("node_cache", [-1, 1.5, "64", True])
    def test_bad_node_cache_rejected_before_the_directory_exists(self, tmp_path, node_cache):
        directory = str(tmp_path / "db")
        with pytest.raises(ValueError):
            ForkBase.open(directory, node_cache=node_cache)
        assert not os.path.exists(directory)
        # Nothing was laid out, so any backend may still claim it.
        with ForkBase.open(directory, backend="pack") as engine:
            engine.put("k", {"a": "1"})

    def test_unknown_backend_rejected_before_the_directory_exists(self, tmp_path):
        directory = str(tmp_path / "db")
        with pytest.raises(EngineError):
            ForkBase.open(directory, backend="bogus")
        assert not os.path.exists(directory)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    @pytest.mark.parametrize("backend", ["file", "pack"])
    def test_failed_open_closes_the_store_it_built(self, tmp_path, backend):
        directory = str(tmp_path / "db")
        with ForkBase.open(directory, backend=backend) as engine:
            engine.put("k", {"a": "1"})
        journal = os.path.join(directory, "journal.wal")
        with open(journal, "rb") as handle:
            good = handle.read()
        # Rot in the checkpoint's first record: every byte present, the
        # CRC fails — an interior record, not a torn tail.
        bad = bytearray(good)
        bad[len(MAGIC) + _HEADER.size] ^= 0xFF
        with open(journal, "wb") as handle:
            handle.write(bytes(bad))
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(3):
            with pytest.raises(JournalCorruptError):
                ForkBase.open(directory, node_cache=16)
        assert len(os.listdir("/proc/self/fd")) == before
        with open(journal, "wb") as handle:
            handle.write(good)
        with ForkBase.open(directory) as engine:  # the lock was released too
            assert engine.get_value("k") == {b"a": b"1"}

    def test_file_backend_does_not_need_zstandard(self, tmp_path, monkeypatch):
        import repro.store.packstore as packstore_mod

        monkeypatch.setattr(packstore_mod, "_zstd", None)
        with ForkBase.open(str(tmp_path / "db"), backend="file") as engine:
            engine.put("k", {"a": "1"})
            assert engine.get_value("k") == {b"a": b"1"}
        directory = str(tmp_path / "chunks")
        with pytest.raises(ValueError):
            PackStore(directory, compression="zstd")
        assert not os.path.exists(directory)

    def test_verify_and_history_on_pack(self, tmp_path):
        with ForkBase.open(str(tmp_path / "db"), backend="pack") as engine:
            _fill(engine)
            assert engine.verify("doc").ok
            assert engine.verify("doc", branch="dev").ok
            assert len(engine.history("doc")) == 2


class TestGcOnPack:
    def test_in_place_sweep_and_compaction(self, tmp_path):
        engine = ForkBase.open(str(tmp_path / "db"), backend="pack")
        _fill(engine)
        engine.put("dead", {"x": "y" * 500})
        engine.drop("dead")
        physical = physical_store(engine.store)
        disk_before = physical.disk_size()
        report = engine.collect_garbage(compact=True)
        assert report.swept_chunks > 0
        assert report.segments_before >= report.segments_after >= 1
        assert physical.disk_size() < disk_before
        # The live data is untouched and still verifies.
        assert engine.get_value("doc", branch="dev") == {b"only": b"dev"}
        assert engine.verify("doc").ok
        engine.close()
        # ... and the swept store survives reopen.
        with ForkBase.open(str(tmp_path / "db")) as reopened:
            assert reopened.verify("doc").ok

    def test_sweep_through_node_cache_wrapper(self, tmp_path):
        engine = ForkBase.open(str(tmp_path / "db"), backend="pack", node_cache=128)
        _fill(engine)
        engine.put("dead", {"x": "y" * 500})
        assert engine.get_value("dead") == {b"x": b"y" * 500}  # warm the cache
        engine.drop("dead")
        report = engine.collect_garbage(compact=True)
        assert report.swept_chunks > 0
        assert engine.get_value("doc", branch="dev") == {b"only": b"dev"}
        engine.close()


class TestScrubOnPack:
    def _flip_record_byte(self, store: PackStore, uid: Uid) -> None:
        segment, offset, length = store._index[uid]
        path = os.path.join(store._dir, "packs", "pack-%06d.dat" % segment)
        store._drop_maps()
        with open(path, "r+b") as handle:
            handle.seek(offset + length - 1)  # last payload byte
            byte = handle.read(1)
            handle.seek(offset + length - 1)
            handle.write(bytes([byte[0] ^ 0xFF]))

    def test_scrub_quarantines_frame_rot(self, tmp_path):
        engine = ForkBase.open(str(tmp_path / "db"), backend="pack")
        _fill(engine)
        victim = next(iter(engine.store.ids()))
        self._flip_record_byte(physical_store(engine.store), victim)
        report = engine.scrub()
        assert report.corrupt == 1
        assert report.corrupt_uids == [victim]
        assert report.quarantined == 1
        assert not engine.store.has(victim)
        engine.close()

    def test_diagnose_copy_skips_reread_on_disk_rot(self, tmp_path):
        store = PackStore(str(tmp_path / "ps"))
        from repro.chunk import Chunk, ChunkType

        chunk = Chunk(ChunkType.BLOB, b"scrub-me " * 30)
        store.put(chunk)
        self._flip_record_byte(store, chunk.uid)
        reads = {"n": 0}
        original = store._fetch

        def counting_fetch(uid):
            reads["n"] += 1
            return original(uid)

        store._fetch = counting_fetch  # type: ignore[method-assign]
        status, _, resolved = diagnose_copy(store, chunk.uid)
        assert status == "corrupt" and resolved is False
        # Frame CRC settled it: exactly one data read, no wasted re-read.
        assert reads["n"] == 1
        store.abandon()


class TestNodeCache:
    def test_hot_descents_hit_the_cache(self, tmp_path):
        engine = ForkBase.open(str(tmp_path / "db"), backend="pack", node_cache=512)
        assert isinstance(engine.store, NodeCacheStore)
        _fill(engine)
        engine.get_value("doc")  # cold: populates
        before = engine.store.node_hits
        for _ in range(5):
            assert engine.get_value("doc")[b"k000"] == b"v1"
        assert engine.store.node_hits > before
        snap = engine.storage_snapshot()
        assert snap.cache_lookups > 0 and snap.cache_hit_rate > 0.0
        engine.close()

    def test_cached_reads_are_correct_across_types(self, tmp_path):
        with ForkBase.open(str(tmp_path / "db"), backend="pack", node_cache=64) as engine:
            engine.put("m", {"a": "1", "b": "2"})
            engine.put("l", ["x", "y", "z"])
            engine.put("b", "blob " * 100)
            for _ in range(3):  # repeated: served from decoded nodes
                assert engine.get_value("m") == {b"a": b"1", b"b": b"2"}
                assert engine.get_value("l") == [b"x", b"y", b"z"]
                assert engine.get_value("b") == "blob " * 100

    def test_cache_share_of_lookups_grows(self, tmp_path):
        engine = ForkBase.open(str(tmp_path / "db"), backend="pack", node_cache=1024)
        _fill(engine)
        for _ in range(10):
            engine.get_value("doc")
        assert engine.store.node_hit_rate > 0.5
        engine.close()
