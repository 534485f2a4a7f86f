"""Tests for integrity scrubbing (repro.store.scrub) and the delete API."""

import os
import sys
import types

import pytest

from repro.chunk import Chunk, ChunkType, Uid
from repro.cluster import ClusterStore
from repro.errors import ChunkNotFoundError
from repro.faults import FaultPlan, FaultyStore
from repro.store import FileStore, InMemoryStore, NodeCacheStore
from repro.store.scrub import scrub


def _chunk(n: int) -> Chunk:
    return Chunk(ChunkType.BLOB, b"scrub-payload-%d" % n)


def _rot(store: InMemoryStore, uid: Uid, data: bytes = b"ROT") -> None:
    """Plant corrupt bytes under an existing uid (in-place bit rot)."""
    original = store._chunks[uid]
    store._chunks[uid] = Chunk(original.type, data, uid=uid)


def test_repro_store_scrub_is_the_module(monkeypatch):
    """The package re-exports no ``scrub`` function over its submodule, so
    the dotted path reaches the module and what it defines."""
    import repro.store
    import repro.store.scrub as module

    assert isinstance(module, types.ModuleType)
    assert repro.store.scrub is module is sys.modules["repro.store.scrub"]
    marker = object()
    monkeypatch.setattr("repro.store.scrub.diagnose_copy", marker)
    assert module.diagnose_copy is marker


class TestDeleteApi:
    def test_memory_delete(self):
        store = InMemoryStore()
        chunk = _chunk(0)
        store.put(chunk)
        assert store.delete(chunk.uid) is True
        assert store.delete(chunk.uid) is False
        assert not store.has(chunk.uid)

    def test_cached_delete_evicts(self):
        backing = InMemoryStore()
        store = NodeCacheStore(backing, capacity=8)
        chunk = _chunk(1)
        store.put(chunk)
        store.get_node(chunk.uid)  # warm the cache
        assert store.delete(chunk.uid) is True
        assert chunk.uid not in store.node_cache.entries
        assert store.get_maybe(chunk.uid) is None
        assert not backing.has(chunk.uid)

    def test_filestore_delete_survives_reopen(self, tmp_path):
        directory = str(tmp_path / "fs")
        chunks = [_chunk(i) for i in range(10)]
        with FileStore(directory) as store:
            store.put_many(chunks)
            assert store.delete(chunks[3].uid) is True
        with FileStore(directory) as store:
            assert not store.has(chunks[3].uid)
            assert all(store.has(c.uid) for c in chunks if c is not chunks[3])

    def test_cluster_delete_removes_all_replicas(self):
        cluster = ClusterStore(node_count=4, replication=3)
        chunk = _chunk(2)
        cluster.put(chunk)
        assert cluster.delete(chunk.uid) is True
        assert cluster.total_replica_count() == 0

    def test_reput_after_delete_restores(self):
        store = InMemoryStore()
        chunk = _chunk(3)
        store.put(chunk)
        store.delete(chunk.uid)
        assert store.put(chunk) is True
        assert store.get(chunk.uid).data == chunk.data


class TestScrubFlat:
    def test_clean_store_is_healthy(self):
        store = InMemoryStore()
        store.put_many(_chunk(i) for i in range(40))
        report = scrub(store)
        assert report.healthy and report.ok == 40 and report.scanned == 40

    def test_rot_is_quarantined(self):
        store = InMemoryStore()
        chunks = [_chunk(i) for i in range(40)]
        store.put_many(chunks)
        for chunk in chunks[:3]:
            _rot(store, chunk.uid)
        report = scrub(store)
        assert report.corrupt == 3 and report.quarantined == 3
        assert sorted(map(bytes, report.corrupt_uids)) == sorted(
            bytes(c.uid) for c in chunks[:3]
        )
        # Quarantine turns wrong bytes into honest misses.
        for chunk in chunks[:3]:
            with pytest.raises(ChunkNotFoundError):
                store.get(chunk.uid)

    def test_filestore_bitrot_on_disk(self, tmp_path):
        directory = str(tmp_path / "fs")
        chunks = [_chunk(i) for i in range(20)]
        with FileStore(directory) as store:
            store.put_many(chunks)
        # Flip one payload byte of the first record on disk, and the tag
        # byte of the second (a tag no ChunkType has: rot, not ValueError).
        segment = os.path.join(directory, "segments", "seg-000000.dat")
        with open(segment, "r+b") as handle:
            # header (5B) + 3 bytes into the payload; then the next header
            for offset in (5 + 3, 5 + len(chunks[0].data)):
                handle.seek(offset)
                byte = handle.read(1)
                handle.seek(-1, os.SEEK_CUR)
                handle.write(bytes([byte[0] ^ 0xFF]))
        store = FileStore(directory)
        report = scrub(store)
        assert report.corrupt == 2 and report.quarantined == report.corrupt
        assert scrub(store).healthy
        with pytest.raises(ChunkNotFoundError):
            store.get(chunks[1].uid)
        store.close()

    def test_transient_wire_corruption_not_quarantined(self):
        """A mismatch that a re-read resolves is counted, not punished."""
        backing = InMemoryStore()
        chunks = [_chunk(i) for i in range(60)]
        backing.put_many(chunks)
        store = FaultyStore(backing, FaultPlan(seed=21, corrupt_read_rate=0.25))
        report = scrub(store)
        assert report.transient_mismatches > 0
        # Nothing was actually rotten, so nothing may be lost for good.
        assert len(backing) + report.quarantined == 60
        # Re-reading filters most wire corruption: only double-corrupt
        # draws (p = rate**2 per copy) slip through to quarantine.
        assert report.quarantined < report.transient_mismatches + report.ok

    def test_unreadable_after_retries_is_skipped(self):
        backing = InMemoryStore()
        chunks = [_chunk(i) for i in range(30)]
        backing.put_many(chunks)
        store = FaultyStore(backing, FaultPlan(seed=22, transient_error_rate=0.9))
        report = scrub(store)
        assert report.unreadable > 0
        assert len(backing) == 30  # skipped, never deleted

    def test_report_describe(self):
        report = scrub(InMemoryStore())
        assert "scrub:" in report.describe()


class TestScrubCluster:
    def test_rot_repaired_from_healthy_replica(self):
        cluster = ClusterStore(node_count=4, replication=2)
        chunks = [_chunk(i) for i in range(100)]
        cluster.put_many(chunks)
        rotted = 0
        for chunk in chunks[:10]:
            node = cluster.replica_nodes(chunk.uid)[0]
            _rot(node.store, chunk.uid)
            rotted += 1
        report = scrub(cluster)
        assert report.corrupt == rotted
        assert report.repaired == rotted and report.quarantined == 0
        # Every replica of every chunk verifies now.
        assert scrub(cluster).healthy
        assert cluster.durability_check() == {
            "lost": 0, "single": 0, "replicated": 100,
        }

    def test_rot_everywhere_is_quarantined_not_spread(self):
        cluster = ClusterStore(node_count=3, replication=2)
        chunk = _chunk(0)
        cluster.put(chunk)
        for node in cluster.replica_nodes(chunk.uid):
            _rot(node.store, chunk.uid)
        report = scrub(cluster)
        assert report.corrupt == 2 and report.repaired == 0
        assert report.quarantined == 2
        assert cluster.get_maybe(chunk.uid) is None  # honest miss

    def test_down_nodes_are_skipped(self):
        cluster = ClusterStore(node_count=3, replication=2)
        cluster.put_many(_chunk(i) for i in range(50))
        cluster.kill_node("node-00")
        report = scrub(cluster)
        held_by_live = sum(n.chunk_count() for n in cluster.live_nodes())
        assert report.scanned == held_by_live

    def test_cluster_scrub_shortcut(self):
        cluster = ClusterStore(node_count=2, replication=2)
        cluster.put(_chunk(1))
        assert cluster.scrub().healthy


class TestEngineScrub:
    def test_engine_scrub_verb(self):
        from repro.db import ForkBase

        engine = ForkBase(clock=lambda: 0.0)
        engine.put("k", {"a": "1", "b": "2"})
        assert engine.scrub().healthy

    def test_engine_self_heals_on_corrupt_read(self):
        """A detected-corrupt read triggers scrub + retry: the caller gets
        healed data (replicated store), never wrong bytes."""
        from repro.db import ForkBase

        cluster = ClusterStore(node_count=3, replication=2)
        # Through a client endpoint: the coordinator's node cache would
        # answer the read from what the put remembered, never meeting rot.
        engine = ForkBase(store=cluster.client("api"), clock=lambda: 0.0)
        engine.put("k", {"x%02d" % i: "v%d" % i for i in range(50)})
        # Rot every copy of one value chunk on its primary replica.
        for uid in list(cluster.ids()):
            node = cluster.replica_nodes(uid)[0]
            _rot(node.store, uid)
        value = engine.get_value("k")
        assert value[b"x00"] == b"v0"
        assert cluster.scrub().healthy
