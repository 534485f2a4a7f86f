"""Deeper coverage for repro.store.gc and the cache wrapper.

Three scenarios the basic suites skip: sweeping with live roots explicitly
pinned (version archival on top of GC), reads through the cache when the
backing store verifies every read, and cache coherence across deletes.
"""

import pytest

from repro.chunk import Chunk, ChunkType, Uid
from repro.cluster import ClusterStore
from repro.db import ForkBase
from repro.errors import ChunkCorruptionError, ChunkNotFoundError
from repro.faults import flip_at
from repro.store import InMemoryStore, NodeCacheStore
from repro.store.gc import collect_garbage, mark_live


def _chunk(payload: bytes) -> Chunk:
    return Chunk(ChunkType.BLOB, payload)


class TestSweepWithPinnedRoots:
    def test_pinned_version_survives_then_dies_unpinned(self):
        """A pinned unreachable head keeps its whole subtree alive; dropping
        the pin makes the next sweep reclaim it."""
        engine = ForkBase(clock=lambda: 0.0)
        engine.put("keep", {f"k{i:03d}": "v" for i in range(200)})
        engine.put("doomed", {f"d{i:03d}": "x" * 40 for i in range(200)})
        pinned_head = engine.head("doomed")
        pinned_set = mark_live(engine.store, [pinned_head])
        engine.delete_branch("doomed", "master")

        collect_garbage(engine, extra_roots=[pinned_head])
        # Every chunk of the pinned version is still present.
        for uid in pinned_set:
            assert engine.store.has(uid)

        report = collect_garbage(engine)  # pin dropped
        assert report.swept_chunks > 0
        assert not engine.store.has(pinned_head)
        # The live branch never noticed either sweep.
        assert engine.get_value("keep")[b"k000"] == b"v"

    def test_post_sweep_store_is_exactly_the_live_set(self):
        engine = ForkBase(clock=lambda: 0.0)
        engine.put("keep", {f"k{i:03d}": "v" for i in range(300)})
        engine.put("doomed", {f"d{i:03d}": "y" * 30 for i in range(300)})
        engine.delete_branch("doomed", "master")
        collect_garbage(engine)
        heads = [head for _, _, head in engine.branch_table.all_heads()]
        live = mark_live(engine.store, heads)
        assert set(engine.store.ids()) == live

    def test_report_accounting_matches_physical_sizes(self):
        engine = ForkBase(clock=lambda: 0.0)
        engine.put("keep", {f"k{i:03d}": "v" for i in range(100)})
        engine.put("doomed", {f"d{i:03d}": "z" * 20 for i in range(100)})
        engine.delete_branch("doomed", "master")
        before = engine.store.physical_size()
        dry = collect_garbage(engine, dry_run=True)
        assert dry.live_bytes + dry.swept_bytes == before

        wet = collect_garbage(engine)
        assert (wet.live_chunks, wet.swept_chunks) == (dry.live_chunks, dry.swept_chunks)
        assert engine.store.physical_size() == dry.live_bytes
        assert collect_garbage(engine, dry_run=True).swept_chunks == 0


class TestCachedStoreVerifyReads:
    def test_corrupt_backing_chunk_caught_through_cache(self):
        backing = InMemoryStore(verify_reads=True)
        cache = NodeCacheStore(backing, capacity=4)
        bad = Chunk(ChunkType.BLOB, b"evil", uid=Uid.of(b"claimed"))
        backing._insert(bad)
        with pytest.raises(ChunkCorruptionError):
            cache.get_node(bad.uid)
        # The corrupt chunk must not have been cached by the failed read.
        assert bad.uid not in cache._nodes
        with pytest.raises(ChunkCorruptionError):
            cache.get(bad.uid)


class TestDeleteWhileCached:
    def test_delete_through_wrapper_drops_cache_entry(self):
        backing = InMemoryStore()
        cache = NodeCacheStore(backing, capacity=4)
        chunk = _chunk(b"gone")
        cache.put(chunk)
        assert cache.get_node(chunk.uid).data == b"gone"  # now cached

        assert cache.delete(chunk.uid) is True
        assert not cache.has(chunk.uid)
        assert cache.get_maybe(chunk.uid) is None
        with pytest.raises(ChunkNotFoundError):
            cache.get(chunk.uid)

    def test_backing_delete_then_wrapper_delete_is_coherent(self):
        backing = InMemoryStore()
        cache = NodeCacheStore(backing, capacity=4)
        chunk = _chunk(b"stale")
        cache.put(chunk)
        cache.get_node(chunk.uid)

        backing.delete(chunk.uid)  # out-of-band delete: cache is now stale
        assert cache.delete(chunk.uid) is False  # backing already empty...
        assert chunk.uid not in cache._nodes  # ...but the entry is gone
        with pytest.raises(ChunkNotFoundError):
            cache.get_node(chunk.uid)

    def test_reinsert_after_delete_serves_fresh_chunk(self):
        backing = InMemoryStore()
        cache = NodeCacheStore(backing, capacity=4)
        chunk = _chunk(b"again")
        cache.put(chunk)
        cache.delete(chunk.uid)
        cache.put(chunk)
        assert cache.get_node(chunk.uid).data == b"again"
        assert backing.has(chunk.uid)


class TestSweepInvalidationBus:
    """GC and quarantine resync delete *around* cache wrappers; the
    physical store's sweep bus must keep every subscribed cache coherent."""

    def test_gc_then_cached_descent_misses_swept_chunks(self):
        backing = InMemoryStore()
        engine = ForkBase(store=backing, clock=lambda: 0.0)
        engine.put("keep", {f"k{i:03d}": "v" for i in range(100)})
        engine.put("doomed", {f"d{i:03d}": "x" * 40 for i in range(200)})
        doomed_head = engine.head("doomed")
        doomed_only = mark_live(backing, [doomed_head]) - mark_live(
            backing, [engine.head("keep")]
        )
        # Two independent cached readers over the same physical store,
        # both warmed with the doomed subtree before the sweep.
        other_cache = NodeCacheStore(backing, capacity=4096)
        node_cache = NodeCacheStore(backing, capacity=4096)
        for uid in doomed_only:
            assert other_cache.get_node(uid) is not None
        node_cache.get_node(doomed_head)
        assert all(uid in other_cache._nodes for uid in doomed_only)
        assert doomed_head in node_cache._nodes

        engine.delete_branch("doomed", "master")
        report = collect_garbage(engine)
        assert report.swept_chunks > 0
        # The sweep fanned out: neither cache may serve a chunk the
        # physical layer no longer holds.
        for uid in doomed_only:
            if not backing.has(uid):
                assert uid not in other_cache._nodes
        assert not backing.has(doomed_head)
        assert doomed_head not in node_cache._nodes
        with pytest.raises(ChunkNotFoundError):
            node_cache.get_node(doomed_head)
        # The live branch's descent is untouched.
        assert engine.get_value("keep")[b"k000"] == b"v"

    def test_quarantine_resync_invalidates_shared_cache(self):
        cluster = ClusterStore(node_count=3, replication=2)
        cache = NodeCacheStore(cluster, capacity=64)
        chunks = [_chunk(b"resync-%d" % n) for n in range(30)]
        cluster.put_many(chunks)
        victim = "node-01"
        node = cluster.nodes[victim]
        held = [c for c in chunks if node.store.has(c.uid)][:4]
        assert held
        for chunk in held:  # warm the shared cache through the cluster
            assert cache.get_node(chunk.uid).data == chunk.data
        for chunk in held:  # the node's copies rot while it is quarantined
            node.store.delete(chunk.uid)
            node.store._insert(
                Chunk(chunk.type, flip_at(chunk.data, 0), uid=chunk.uid)
            )
        board = cluster.accountability
        board.record_strike("t", victim, held[0].uid, op="get", kind="audit-mismatch")
        board.record_strike("t", victim, held[1].uid, op="get", kind="audit-mismatch")
        assert board.is_quarantined(victim)

        dropped = cluster.readmit(victim)
        assert dropped == len(held)
        for chunk in held:
            # The resync's drops were broadcast: no stale entries survive,
            # and a re-read refetches the repaired copy through the cluster.
            assert chunk.uid not in cache._nodes
            assert cache.get_node(chunk.uid).data == chunk.data
