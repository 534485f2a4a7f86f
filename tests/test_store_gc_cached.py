"""Deeper coverage for repro.store.gc and the cache wrapper.

Four scenarios the basic suites skip: sweeping with live roots explicitly
pinned (version archival on top of GC), reads through the cache when the
backing store verifies every read, cache coherence across deletes, and
write-through (``put_nodes``) never remembering more than the device holds.

The ``TestCachedStore*`` classes test :class:`NodeCacheStore`, the one
cache; they keep the name of the raw-chunk cache it replaced because
their test ids are pinned.
"""

import os

import pytest

from repro.chunk import Chunk, ChunkType, Uid
from repro.cluster import ClusterStore
from repro.db import ForkBase
from repro.errors import (
    ChunkCorruptionError,
    ChunkNotFoundError,
    DiskFaultError,
    DiskFullError,
    ReadOnlyError,
)
from repro.faults import FsFaultPlan, flip_at, fs_zone
from repro.postree.node import LeafNode
from repro.store import FileStore, InMemoryStore, NodeCacheStore, PackStore, physical_store
from repro.store.gc import collect_garbage, mark_live
from repro.store.nodecache import DURABLE_CAPACITY
from repro.types import FMap

#: The two ways a decoded node gets into the cache.  Tests that predate
#: write-through loop over both (their names are pinned), new ones
#: parametrise.
POPULATE = ("read", "write-through")


def _chunk(payload: bytes) -> Chunk:
    return Chunk(ChunkType.BLOB, payload)


def _cache(cache: NodeCacheStore, chunk: Chunk, populate: str) -> None:
    """Store ``chunk`` and get its decoded form (itself: a BLOB) cached."""
    if populate == "read":
        cache.put(chunk)
        cache.get_node(chunk.uid)
    else:
        cache.put_nodes([(chunk, chunk)])
    assert chunk.uid in cache.node_cache.entries


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
        heads = [head for _, _, head in engine.heads.table.all_heads()]
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
        assert bad.uid not in cache.node_cache.entries
        with pytest.raises(ChunkCorruptionError):
            cache.get(bad.uid)


class TestDeleteWhileCached:
    def test_delete_through_wrapper_drops_cache_entry(self):
        for populate in POPULATE:
            backing = InMemoryStore()
            cache = NodeCacheStore(backing, capacity=4)
            chunk = _chunk(b"gone")
            _cache(cache, chunk, populate)
            assert cache.get_node(chunk.uid).data == b"gone"

            assert cache.delete(chunk.uid) is True
            assert not cache.has(chunk.uid)
            assert cache.get_maybe(chunk.uid) is None
            with pytest.raises(ChunkNotFoundError):
                cache.get(chunk.uid)

    def test_backing_delete_then_wrapper_delete_is_coherent(self):
        for populate in POPULATE:
            backing = InMemoryStore()
            cache = NodeCacheStore(backing, capacity=4)
            chunk = _chunk(b"stale")
            _cache(cache, chunk, populate)

            backing.delete(chunk.uid)  # out-of-band delete: cache is now stale
            assert cache.delete(chunk.uid) is False  # backing already empty...
            assert chunk.uid not in cache.node_cache.entries  # ...but the entry is gone
            with pytest.raises(ChunkNotFoundError):
                cache.get_node(chunk.uid)

    def test_reinsert_after_delete_serves_fresh_chunk(self):
        for populate in POPULATE:
            backing = InMemoryStore()
            cache = NodeCacheStore(backing, capacity=4)
            chunk = _chunk(b"again")
            _cache(cache, chunk, populate)
            cache.delete(chunk.uid)
            _cache(cache, chunk, populate)
            assert cache.get_node(chunk.uid).data == b"again"
            assert backing.has(chunk.uid)


class TestSweepInvalidationBus:
    """GC and quarantine resync delete *around* cache wrappers; the
    physical store's sweep bus must keep every subscribed cache coherent."""

    def test_gc_then_cached_descent_misses_swept_chunks(self):
        for populate in POPULATE:
            self._gc_then_cached_descent(populate)

    def _gc_then_cached_descent(self, populate):
        backing = InMemoryStore()
        engine = ForkBase(store=backing, clock=lambda: 0.0)
        engine.put("keep", {f"k{i:03d}": "v" for i in range(100)})
        # Two independent cached readers over the same physical store,
        # both holding the doomed subtree before the sweep.
        other_cache = NodeCacheStore(backing, capacity=4096)
        node_cache = NodeCacheStore(backing, capacity=4096)
        doomed = {f"d{i:03d}": "x" * 40 for i in range(200)}
        if populate == "read":
            engine.put("doomed", doomed)
            doomed_head = engine.head("doomed")
        else:
            # Another client wrote it through its own cache; the sweeping
            # engine never learns the branch, so to it the subtree is garbage.
            doomed_head = ForkBase(store=node_cache, clock=lambda: 0.0).put("doomed", doomed).uid
        doomed_only = mark_live(backing, [doomed_head]) - mark_live(
            backing, [engine.head("keep")]
        )
        for uid in doomed_only:
            assert other_cache.get_node(uid) is not None
        if populate == "read":
            node_cache.get_node(doomed_head)
            engine.delete_branch("doomed", "master")
        else:
            assert all(uid in node_cache.node_cache.entries for uid in doomed_only)
        assert all(uid in other_cache.node_cache.entries for uid in doomed_only)
        assert doomed_head in node_cache.node_cache.entries

        report = collect_garbage(engine)
        assert report.swept_chunks > 0
        # The sweep fanned out: neither cache may serve a chunk the
        # physical layer no longer holds.
        for uid in doomed_only:
            if not backing.has(uid):
                assert uid not in other_cache.node_cache.entries
                assert uid not in node_cache.node_cache.entries
        assert not backing.has(doomed_head)
        assert doomed_head not in node_cache.node_cache.entries
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
            assert chunk.uid not in cache.node_cache.entries
            assert cache.get_node(chunk.uid).data == chunk.data


class TestWriteThroughNeverOutrunsTheDevice:
    """``put_nodes`` remembers a node only once its chunk is stored."""

    @pytest.mark.parametrize("factory", [FileStore, PackStore], ids=["file", "pack"])
    def test_failed_put_leaves_no_entry(self, tmp_path, factory):
        cache = NodeCacheStore(factory(str(tmp_path / "chunks")))
        leaf = LeafNode([(b"key", b"value")])
        # Every write fails: ENOSPC outlasts the append path's bounded retry.
        with fs_zone(FsFaultPlan(enospc_rate=1.0)):
            with pytest.raises(DiskFullError):
                cache.put_nodes([(leaf.to_chunk(), leaf)])
        assert leaf.uid not in cache.node_cache.entries
        with pytest.raises(ChunkNotFoundError):
            cache.get_node(leaf.uid)
        # ENOSPC un-acks cleanly: with space back the same write goes through.
        assert cache.put_nodes([(leaf.to_chunk(), leaf)]) == 1
        assert cache.get_node(leaf.uid) is leaf
        # A poisoned writer refuses the put outright: still nothing remembered.
        with fs_zone(FsFaultPlan(fsync_fail_rate=1.0)):
            with pytest.raises(DiskFaultError):
                cache.put_many([_chunk(b"a"), _chunk(b"b")])
        other = LeafNode([(b"other", b"value")])
        with pytest.raises(DiskFaultError):
            cache.put_nodes([(other.to_chunk(), other)])
        assert other.uid not in cache.node_cache.entries
        cache.close()

    def test_degraded_engine_remembers_nothing(self, tmp_path):
        db = ForkBase.open(str(tmp_path / "db"), node_cache=64)
        db.put("doc", {"a": "1"})
        db._degrade("test: disk fault")
        remembered = set(db.store.node_cache.entries)
        with pytest.raises(ReadOnlyError):
            db.put("doc", {"a": "2"})
        assert set(db.store.node_cache.entries) == remembered
        db.close()

    def test_dedup_hit_still_remembers(self):
        backing = InMemoryStore()
        cache = NodeCacheStore(backing)
        leaf = LeafNode([(b"key", b"value")])
        backing.put(leaf.to_chunk())
        assert cache.put_nodes([(leaf.to_chunk(), leaf)]) == 0
        assert cache.get_node(leaf.uid) is leaf
        assert cache.node_hits == 1

    @staticmethod
    def _flip_payload_byte(store, uid: Uid) -> None:
        """Rot the last payload byte of ``uid``'s record on disk."""
        location = store._index[uid]
        path = store._segment_path(location[0])
        if isinstance(store, PackStore):
            store._drop_maps()
            position = location[1] + location[2] - 1
        else:
            position = location[1] + store._HEADER_SIZE  # first payload byte
        with open(path, "r+b") as handle:
            handle.seek(position)
            byte = handle.read(1)
            handle.seek(position)
            handle.write(bytes([byte[0] ^ 0xFF]))
            handle.flush()
            os.fsync(handle.fileno())

    @pytest.mark.parametrize("backend", ["file", "pack"])
    def test_rot_under_a_warm_cache_is_still_reported(self, tmp_path, backend):
        """The documented trade: ``db.get`` serves the cached head and
        nodes, ``verify()`` and ``scrub()`` read the device and see rot."""
        db = ForkBase.open(str(tmp_path / "db"), backend=backend, node_cache=256)
        db.put("doc", FMap.from_dict(db.store, {b"k%04d" % i: b"v" * 60 for i in range(400)}))
        edited = db.get("doc").set(b"k0200", b"edited")
        head = db.put("doc", edited).uid
        backing = physical_store(db.store)
        gets = backing.stats.gets
        # The head and the leaf the edit just wrote are cached by write-through.
        leaf = next(leaf for leaf in edited.tree.leaves(b"k0200"))
        assert backing.stats.gets == gets
        assert db.verify("doc").ok
        # Served from the cache, so the warm engine does not notice; the
        # checks that exist to notice read the device and do.
        self._flip_payload_byte(backing, leaf.uid)
        assert db.get("doc").get(b"k0200") == b"edited"
        report = db.verify("doc")
        assert not report.ok and report.corrupt == 1
        self._flip_payload_byte(backing, head)
        assert db.get("doc").get(b"k0200") == b"edited"
        assert not db.verify("doc").ok
        scrubbed = db.scrub()
        assert set(scrubbed.corrupt_uids) == {leaf.uid, head}
        db.abandon()


class TestDurableDefaultCache:
    """``ForkBase.open`` caches decoded nodes unless told ``node_cache=0``;
    the checks that exist to see the device still see it."""

    DOC = {b"k%04d" % i: b"v" * 60 for i in range(400)}

    @pytest.mark.parametrize("backend", ["file", "pack"])
    def test_checks_and_a_reopened_read_reach_the_device(self, tmp_path, backend):
        directory = str(tmp_path / "db")
        db = ForkBase.open(directory, backend=backend)
        assert isinstance(db.store, NodeCacheStore)
        assert db.store.node_cache.capacity == DURABLE_CAPACITY
        db.put("doc", FMap.from_dict(db.store, self.DOC))
        backing = physical_store(db.store)
        gets = backing.stats.gets
        assert db.get_value("doc") == self.DOC
        assert backing.stats.gets == gets  # write-through: nothing fetched
        # An EIO on every read: the warm read does not notice, the checks
        # do, and scrub reports the copies unreadable, quarantining none.
        with fs_zone(FsFaultPlan(eio_read_rate=1.0)):
            assert db.get_value("doc") == self.DOC
            with pytest.raises(DiskFaultError):
                db.verify("doc")
            scrubbed = db.scrub()
        assert scrubbed.unreadable == scrubbed.scanned > 0
        assert scrubbed.corrupt == scrubbed.quarantined == 0
        assert db.verify("doc").ok
        # A reopen starts the cache empty: the first read reaches the device.
        db.close()
        db = ForkBase.open(directory)
        backing = physical_store(db.store)
        with fs_zone(FsFaultPlan(eio_read_rate=1.0)):
            with pytest.raises(DiskFaultError):
                db.get_value("doc")
        gets = backing.stats.gets
        assert db.get_value("doc") == self.DOC
        assert backing.stats.gets > gets
        # Frame rot under a cached leaf: served from the cache, seen by the checks.
        leaf = next(iter(db.store.node_cache.leaves))
        TestWriteThroughNeverOutrunsTheDevice._flip_payload_byte(backing, leaf)
        assert db.get_value("doc") == self.DOC
        report = db.verify("doc")
        assert not report.ok and report.corrupt == 1
        scrubbed = db.scrub()
        assert scrubbed.corrupt_uids == [leaf] and scrubbed.quarantined == 1
        assert leaf not in db.store.node_cache.entries
        db.abandon()

    @pytest.mark.parametrize("shutdown", ["close", "abandon"])
    def test_a_closed_engine_holds_no_decoded_nodes(self, tmp_path, shutdown):
        db = ForkBase.open(str(tmp_path / "db"))
        db.put("doc", FMap.from_dict(db.store, self.DOC))
        assert db.get_value("doc") == self.DOC
        cache = db.store.node_cache
        assert cache.entries and cache.leaves
        before = cache.counters()
        getattr(db, shutdown)()
        assert not cache.entries and not cache.leaves
        # The counters outlive the nodes.
        assert cache.counters() == dict(before, size=0, leaves=0)
