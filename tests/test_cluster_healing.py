"""Tests for ClusterStore self-healing: quorum writes, hinted handoff,
read-repair, retry of transient node faults, and the drop/delete API."""

import pytest

from repro.chunk import Chunk, ChunkType
from repro.cluster import ClusterStore, StorageNode
from repro.db import ForkBase
from repro.errors import (
    ChunkCorruptionError,
    ChunkNotFoundError,
    NodeDownError,
    QuorumWriteError,
)
from repro.faults import FaultPlan, FaultyStore, RetryPolicy
from repro.store.memory import InMemoryStore


def _chunk(n: int) -> Chunk:
    return Chunk(ChunkType.BLOB, b"heal-payload-%d" % n)


def _rot(node: StorageNode, chunk: Chunk) -> None:
    node.store.delete(chunk.uid)
    node.store.put(Chunk(chunk.type, b"ROT" + chunk.data, uid=chunk.uid))


class TestQuorumWrites:
    def test_quorum_validated(self):
        with pytest.raises(ValueError):
            ClusterStore(node_count=3, replication=2, write_quorum=3)
        with pytest.raises(ValueError):
            ClusterStore(node_count=3, replication=2, write_quorum=0)

    def test_write_below_quorum_raises_typed_error(self):
        cluster = ClusterStore(node_count=2, replication=2, write_quorum=2)
        cluster.kill_node("node-01")
        with pytest.raises(QuorumWriteError) as excinfo:
            cluster.put(_chunk(0))
        assert excinfo.value.acked == 1 and excinfo.value.required == 2
        assert isinstance(excinfo.value, NodeDownError.__bases__[0])  # ClusterError

    def test_write_at_quorum_succeeds_with_hint(self):
        cluster = ClusterStore(node_count=3, replication=3, write_quorum=2)
        name = cluster.ring.replicas(_chunk(1).uid, 3)[0]
        cluster.kill_node(name)
        cluster.put(_chunk(1))
        assert cluster.pending_hints() == {name: 1}

    def test_all_down_still_node_down_error(self):
        cluster = ClusterStore(node_count=2, replication=2, write_quorum=2)
        cluster.kill_node("node-00")
        cluster.kill_node("node-01")
        with pytest.raises(NodeDownError):
            cluster.put(_chunk(2))


class TestHintedHandoff:
    def test_hints_replayed_on_revive(self):
        cluster = ClusterStore(node_count=4, replication=3, write_quorum=2)
        cluster.kill_node("node-00")
        chunks = [_chunk(i) for i in range(200)]
        cluster.put_many(chunks)
        queued = cluster.pending_hints().get("node-00", 0)
        assert queued > 0 and cluster.hints_queued == queued
        replayed = cluster.revive_node("node-00")
        assert replayed == queued
        assert cluster.pending_hints() == {}
        # The revived node now holds every chunk it owns.
        node = cluster.nodes["node-00"]
        for chunk in chunks:
            if "node-00" in cluster.ring.replicas(chunk.uid, 3):
                assert node.store.has(chunk.uid)

    def test_hinted_chunks_count_as_durable(self):
        cluster = ClusterStore(node_count=2, replication=2, write_quorum=1)
        cluster.kill_node("node-01")
        cluster.put_many(_chunk(i) for i in range(50))
        assert cluster.durability_check()["lost"] == 0

    def test_hints_deduplicate(self):
        cluster = ClusterStore(node_count=2, replication=2, write_quorum=1)
        cluster.kill_node("node-01")
        chunk = _chunk(3)
        cluster.put(chunk)
        cluster._insert(chunk)  # a second raw write of the same chunk
        assert cluster.pending_hints() == {"node-01": 1}

    def test_wipe_revive_then_repair_still_heals(self):
        cluster = ClusterStore(node_count=3, replication=2, write_quorum=1)
        chunks = [_chunk(i) for i in range(100)]
        cluster.put_many(chunks)
        cluster.kill_node("node-02")
        cluster.revive_node("node-02", wipe=True)
        cluster.repair()
        assert cluster.durability_check() == {
            "lost": 0, "single": 0, "replicated": 100,
        }


class TestReadRepair:
    def test_missing_copy_restored_on_read(self):
        cluster = ClusterStore(node_count=4, replication=2)
        chunk = _chunk(0)
        cluster.put(chunk)
        primary = cluster.replica_nodes(chunk.uid)[0]
        primary.drop(chunk.uid)
        assert cluster.get(chunk.uid).data == chunk.data
        assert primary.store.has(chunk.uid)
        assert cluster.read_repairs == 1

    def test_rotten_copy_replaced_on_read(self):
        cluster = ClusterStore(node_count=4, replication=2)
        chunk = _chunk(1)
        cluster.put(chunk)
        primary = cluster.replica_nodes(chunk.uid)[0]
        _rot(primary, chunk)
        got = cluster.get(chunk.uid)
        assert got.data == chunk.data and got.is_valid()
        assert cluster.corrupt_reads > 0
        healed = primary.store.get_maybe(chunk.uid)
        assert healed is not None and healed.is_valid()

    def test_rot_everywhere_raises_corruption_not_wrong_data(self):
        """Every replica read is checked against the uid, so rot on every
        copy surfaces as corruption on each read verb — ``get``,
        ``get_maybe`` and ``get_node``, the read behind every
        ``ForkBase(cluster).get`` — and none of them serves the bytes or
        leaves the node in the coordinator's cache.  (One test over the
        three readers, so its id stays put.)"""
        for reader in ("get", "get_maybe", "get_node"):
            cluster = ClusterStore(node_count=3, replication=2)
            if reader == "get_node":
                engine = ForkBase(cluster)
                engine.put("doc", {"k": "v"})
                chunk = cluster.get(engine.get("doc").root)  # a real tree node
                cluster.node_cache.clear()  # the put remembered it; read the replicas
            else:
                chunk = _chunk(2)
                cluster.put(chunk)
            for node in cluster.replica_nodes(chunk.uid):
                _rot(node, chunk)
            with pytest.raises(ChunkCorruptionError):
                getattr(cluster, reader)(chunk.uid)
            assert chunk.uid not in cluster.node_cache.entries, reader
            if reader == "get_node":
                # The engine's verb heals: its scrub drops the rotten
                # copies and the retried read answers "not found".
                with pytest.raises(ChunkNotFoundError):
                    engine.get_value("doc")
                assert chunk.uid not in cluster.node_cache.entries


class TestTransientRetry:
    def _faulty_cluster(self, rate: float, seed: int = 31) -> ClusterStore:
        plan = FaultPlan(seed=seed, transient_error_rate=rate)
        return ClusterStore(
            node_count=4,
            replication=2,
            write_quorum=2,
            retry=RetryPolicy.instant(attempts=6),
            node_store_factory=lambda name: FaultyStore(
                InMemoryStore(), plan, name=name
            ),
        )

    def test_flaky_nodes_are_retried_through(self):
        cluster = self._faulty_cluster(rate=0.3)
        chunks = [_chunk(i) for i in range(100)]
        cluster.put_many(chunks)
        for chunk in chunks:
            assert cluster.get(chunk.uid).data == chunk.data
        assert cluster.retry.retries > 0  # retries actually happened
        assert cluster.durability_check()["lost"] == 0

    def test_repair_copies_are_verified(self):
        """repair() must never propagate a rotten source copy."""
        cluster = ClusterStore(node_count=3, replication=2)
        chunk = _chunk(7)
        cluster.put(chunk)
        primary, secondary = cluster.replica_nodes(chunk.uid)
        _rot(primary, chunk)
        secondary.drop(chunk.uid)
        cluster.repair()
        restored = secondary.store.get_maybe(chunk.uid)
        assert restored is None or restored.is_valid()


class TestRebalanceDropApi:
    def test_rebalance_works_without_inmemory_nodes(self):
        """Regression: rebalance used to reach into node.store._chunks,
        which only exists on InMemoryStore.  With FaultyStore-backed nodes
        it must still work, via the StorageNode.drop API."""
        plan = FaultPlan(seed=41)  # all rates zero: transparent wrapper
        cluster = ClusterStore(
            node_count=3,
            replication=2,
            node_store_factory=lambda name: FaultyStore(InMemoryStore(), plan),
        )
        chunks = [_chunk(i) for i in range(200)]
        cluster.put_many(chunks)
        cluster.add_node()
        cluster.rebalance()
        assert cluster.placement_histogram()["node-03"] > 0
        for chunk in chunks:
            assert cluster.get(chunk.uid).data == chunk.data
        assert cluster.durability_check()["lost"] == 0

    def test_node_drop_management_plane(self):
        node = StorageNode("n0")
        chunk = _chunk(0)
        node.put(chunk)
        node.kill()
        assert node.drop(chunk.uid) is True  # works while down
        assert node.chunk_count() == 0

    def test_health_report_shape(self):
        cluster = ClusterStore(node_count=2, replication=2)
        cluster.put(_chunk(0))
        report = cluster.health_report()
        for field in ("nodes_up", "corrupt_reads", "read_repairs", "hints_pending"):
            assert field in report
        assert "durability" not in report

    def test_health_report_rehashes_no_replica(self, monkeypatch):
        cluster = ClusterStore(node_count=3, replication=2)
        for n in range(20):
            cluster.put(_chunk(n))
        scans = []
        real = InMemoryStore.verify_holdings

        def counted(store):
            scans.append(store)
            return real(store)

        monkeypatch.setattr(InMemoryStore, "verify_holdings", counted)
        for _ in range(3):
            cluster.health_report()
        assert scans == []
        # The spy sees the scan the durability check does ask for.
        assert cluster.durability_check()["replicated"] == 20
        assert len(scans) == 3
