"""Tests for the physical chunk stores (repro.store)."""

import os
import random

import pytest

from repro.chunk import Chunk, ChunkType, Uid
from repro.errors import ChunkCorruptionError, ChunkNotFoundError, StoreClosedError
from repro.store import FileStore, InMemoryStore, NodeCacheStore
from repro.store.stats import StoreStats


def _chunk(payload: bytes, type_=ChunkType.BLOB) -> Chunk:
    return Chunk(type_, payload)


class TestInMemoryStore:
    def test_put_get_round_trip(self, store):
        chunk = _chunk(b"hello")
        assert store.put(chunk) is True
        assert store.get(chunk.uid).data == b"hello"

    def test_put_is_idempotent_dedup(self, store):
        chunk = _chunk(b"dup")
        assert store.put(chunk) is True
        assert store.put(chunk) is False
        assert len(store) == 1
        assert store.stats.puts_dup == 1

    def test_get_missing_raises(self, store):
        with pytest.raises(ChunkNotFoundError):
            store.get(Uid.of(b"missing"))

    def test_get_maybe(self, store):
        chunk = _chunk(b"x")
        store.put(chunk)
        assert store.get_maybe(chunk.uid) is not None
        assert store.get_maybe(Uid.of(b"nope")) is None

    def test_contains_and_has(self, store):
        chunk = _chunk(b"y")
        store.put(chunk)
        assert chunk.uid in store
        assert store.has(chunk.uid)
        assert Uid.of(b"z") not in store

    def test_ids_enumerates_everything(self, store):
        chunks = [_chunk(bytes([i])) for i in range(10)]
        store.put_many(chunks)
        assert set(store.ids()) == {c.uid for c in chunks}

    def test_physical_size(self, store):
        store.put(_chunk(b"12345"))
        store.put(_chunk(b"123"))
        assert store.physical_size() == 8

    def test_put_many_returns_new_count(self, store):
        chunk = _chunk(b"once")
        assert store.put_many([chunk, chunk, _chunk(b"two")]) == 2

    def test_verify_reads_catches_corruption(self):
        store = InMemoryStore(verify_reads=True)
        bad = Chunk(ChunkType.BLOB, b"evil", uid=Uid.of(b"claimed"))
        store._insert(bad)
        with pytest.raises(ChunkCorruptionError):
            store.get(bad.uid)
        with pytest.raises(ChunkCorruptionError):
            store.get_maybe(bad.uid)


class TestStoreStats:
    def test_logical_vs_physical(self, store):
        chunk = _chunk(b"0123456789")
        store.put(chunk)
        store.put(chunk)
        assert store.stats.physical_bytes == 10
        assert store.stats.logical_bytes == 20
        assert store.stats.dedup_ratio == 2.0
        assert store.stats.dedup_hit_rate == 0.5

    def test_snapshot_delta(self, store):
        store.put(_chunk(b"aaa"))
        before = store.stats.snapshot()
        store.put(_chunk(b"bbbb"))
        delta = store.stats.delta(before)
        assert delta.puts_new == 1
        assert delta.physical_bytes == 4

    def test_by_type_accounting(self, store):
        store.put(_chunk(b"a", ChunkType.BLOB))
        store.put(_chunk(b"b", ChunkType.LEAF))
        store.put(_chunk(b"c", ChunkType.LEAF))
        assert store.stats.by_type == {"BLOB": 1, "LEAF": 2}

    def test_get_accounting(self, store):
        chunk = _chunk(b"g")
        store.put(chunk)
        store.get(chunk.uid)
        store.get_maybe(Uid.of(b"no"))
        assert store.stats.gets == 1
        assert store.stats.misses == 1

    def test_empty_stats_defaults(self):
        stats = StoreStats()
        assert stats.dedup_ratio == 1.0
        assert stats.dedup_hit_rate == 0.0
        assert "physical=0B" in stats.describe()


class TestFileStore:
    def test_round_trip_and_reopen(self, tmp_path):
        path = str(tmp_path / "store")
        chunk = _chunk(b"persistent")
        with FileStore(path) as fs:
            fs.put(chunk)
        with FileStore(path) as fs:
            assert fs.get(chunk.uid).data == b"persistent"
            assert len(fs) == 1

    def test_index_rebuild_after_crash(self, tmp_path):
        path = str(tmp_path / "store")
        chunks = [_chunk(b"c%d" % i) for i in range(20)]
        fs = FileStore(path)
        fs.put_many(chunks)
        fs.close()
        os.remove(os.path.join(path, "index.dat"))
        with FileStore(path) as fs2:
            assert len(fs2) == 20
            for chunk in chunks:
                assert fs2.get(chunk.uid).data == chunk.data

    def test_unsaved_tail_recovered(self, tmp_path):
        """Records appended after the last index snapshot are found."""
        path = str(tmp_path / "store")
        first = _chunk(b"first")
        with FileStore(path) as fs:
            fs.put(first)
        fs2 = FileStore(path)
        second = _chunk(b"second")
        fs2.put(second)
        fs2.abandon()  # simulate crash: no close(), so no index rewrite
        with FileStore(path) as fs3:
            assert fs3.get(first.uid).data == b"first"
            assert fs3.get(second.uid).data == b"second"

    def test_torn_record_ignored(self, tmp_path):
        path = str(tmp_path / "store")
        chunk = _chunk(b"whole")
        fs = FileStore(path)
        fs.put(chunk)
        seg = fs._segment_path(fs._active)
        fs.close()
        os.remove(os.path.join(path, "index.dat"))
        with open(seg, "ab") as handle:
            handle.write(b"\x01\x00\x00\x01\x00ga")  # torn garbage tail
        with FileStore(path) as fs2:
            assert fs2.get(chunk.uid).data == b"whole"
            assert len(fs2) == 1

    def test_segment_rollover(self, tmp_path):
        path = str(tmp_path / "store")
        with FileStore(path, segment_limit=256) as fs:
            rng = random.Random(100)
            chunks = [_chunk(rng.randbytes(100)) for _ in range(10)]
            fs.put_many(chunks)
            assert len(fs._segments) > 1
            for chunk in chunks:
                assert fs.get(chunk.uid).data == chunk.data

    def test_closed_store_rejects_ops(self, tmp_path):
        fs = FileStore(str(tmp_path / "store"))
        fs.close()
        with pytest.raises(StoreClosedError):
            fs.put(_chunk(b"late"))
        fs.close()  # double close is fine

    def test_dedup_across_sessions(self, tmp_path):
        path = str(tmp_path / "store")
        chunk = _chunk(b"shared")
        with FileStore(path) as fs:
            fs.put(chunk)
        with FileStore(path) as fs:
            assert fs.put(chunk) is False  # already present after reopen


class TestCachedStore:
    """What the cache wrapper (``NodeCacheStore``) shares with every
    ``WrapperStore``; its decoded-node cache is ``test_pack_dropin``'s."""

    def test_eviction_respects_capacity(self):
        cache = NodeCacheStore(InMemoryStore(), capacity=2)
        chunks = [_chunk(bytes([i])) for i in range(5)]
        for chunk in chunks:
            cache.put(chunk)
            cache.get_node(chunk.uid)
        assert len(cache.node_cache.entries) <= 2
        # Evicted chunks still come from backing.
        assert cache.get_node(chunks[0].uid).data == chunks[0].data

    def test_write_through(self):
        backing = InMemoryStore()
        cache = NodeCacheStore(backing, capacity=4)
        chunk = _chunk(b"w")
        cache.put(chunk)
        assert backing.has(chunk.uid)

    def test_contains_checks_backing(self):
        backing = InMemoryStore()
        chunk = _chunk(b"b")
        backing.put(chunk)
        cache = NodeCacheStore(backing, capacity=4)
        assert chunk.uid in cache

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            NodeCacheStore(InMemoryStore(), capacity=0)

    def test_verify_reads_inherited_from_backing(self):
        # Regression: a cache wrapper once hardcoded verify_reads=False,
        # silently disabling the tamper check on every read through the
        # cache when the backing store had verification on.
        assert NodeCacheStore(InMemoryStore(verify_reads=True), capacity=4).verify_reads
        assert not NodeCacheStore(InMemoryStore(), capacity=4).verify_reads

