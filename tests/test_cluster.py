"""Tests for the simulated distributed store (repro.cluster)."""

import pytest

from repro.chunk import Chunk, ChunkType, Uid
from repro.cluster import ClusterStore, HashRing
from repro.db import ForkBase
from repro.errors import NodeDownError
from repro.faults import PartitionedTransport


def _chunk(n: int) -> Chunk:
    return Chunk(ChunkType.BLOB, b"payload-%d" % n)


class TestHashRing:
    def test_replicas_distinct_and_stable(self):
        ring = HashRing(["a", "b", "c", "d"])
        uid = Uid.of(b"x")
        replicas = ring.replicas(uid, 3)
        assert len(set(replicas)) == 3
        assert ring.replicas(uid, 3) == replicas

    def test_replica_count_clamped(self):
        ring = HashRing(["a", "b"])
        assert len(ring.replicas(Uid.of(b"y"), 5)) == 2

    def test_balance(self):
        ring = HashRing([f"n{i}" for i in range(4)])
        counts = {f"n{i}": 0 for i in range(4)}
        for index in range(4000):
            counts[ring.primary(Uid.of(b"c%d" % index))] += 1
        for count in counts.values():
            assert 0.5 * 1000 < count < 1.6 * 1000

    def test_node_removal_moves_little(self):
        """Consistent hashing: removing one node remaps only its share."""
        ring = HashRing(["a", "b", "c", "d"])
        uids = [Uid.of(b"k%d" % i) for i in range(2000)]
        before = {uid: ring.primary(uid) for uid in uids}
        ring.remove_node("d")
        moved = sum(
            1 for uid in uids if before[uid] != "d" and ring.primary(uid) != before[uid]
        )
        assert moved == 0  # only d's keys remap

    def test_membership_errors(self):
        ring = HashRing(["a"])
        with pytest.raises(ValueError):
            ring.add_node("a")
        with pytest.raises(ValueError):
            ring.remove_node("ghost")


class TestClusterStore:
    def test_put_get_round_trip(self):
        cluster = ClusterStore(node_count=4, replication=2)
        chunk = _chunk(1)
        cluster.put(chunk)
        assert cluster.get(chunk.uid).data == chunk.data

    def test_a_client_put_costs_what_a_coordinator_put_costs(self):
        """A client's put is the cluster's put issued from another origin:
        one ``has`` probe and one write exchange per home, accounted once,
        in the cluster's stats (as a client's ``put_nodes`` is)."""
        cluster = ClusterStore(
            node_count=4, replication=3, write_quorum=2, transport=PartitionedTransport()
        )
        client = cluster.client("b")

        def messages(store, chunk):
            before = cluster.transport.messages_sent
            assert store.put(chunk)
            return cluster.transport.messages_sent - before

        assert messages(cluster, _chunk(1)) == messages(client, _chunk(2)) == 6
        assert cluster.stats.puts_new == 2
        assert client.stats.puts_new == 0

    def test_replication_factor_respected(self):
        cluster = ClusterStore(node_count=5, replication=3)
        for index in range(50):
            cluster.put(_chunk(index))
        assert cluster.total_replica_count() == 150

    def test_sharding_is_balanced(self):
        cluster = ClusterStore(node_count=4, replication=1)
        for index in range(2000):
            cluster.put(_chunk(index))
        histogram = cluster.placement_histogram()
        assert all(200 < count < 900 for count in histogram.values())

    def test_failover_read(self):
        """A replica that is *attempted* and misses counts as a failover."""
        cluster = ClusterStore(node_count=4, replication=2)
        chunks = [_chunk(i) for i in range(200)]
        cluster.put_many(chunks)
        # Wipe every primary copy: the first replica answers "missing" and
        # the read falls over to (and repairs from) the second.
        for chunk in chunks:
            cluster.replica_nodes(chunk.uid)[0].drop(chunk.uid)
        for chunk in chunks:
            assert cluster.get(chunk.uid).data == chunk.data
        assert cluster.failovers > 0
        assert cluster.read_repairs > 0

    def test_down_replica_skip_is_not_a_failover(self):
        """Dead nodes are skipped, not attempted: no failover is counted.

        Regression for the old accounting, which keyed on replica *index*
        and so billed a failover for every read whose primary happened to
        be down — inflating the counter without a single failed attempt.
        """
        cluster = ClusterStore(node_count=4, replication=2)
        chunks = [_chunk(i) for i in range(200)]
        cluster.put_many(chunks)
        cluster.kill_node("node-00")
        for chunk in chunks:
            assert cluster.get(chunk.uid).data == chunk.data
        assert cluster.failovers == 0

    def test_unreplicated_data_lost_on_failure(self):
        cluster = ClusterStore(node_count=4, replication=1)
        chunks = [_chunk(i) for i in range(100)]
        cluster.put_many(chunks)
        cluster.kill_node("node-01")
        missing = sum(1 for c in chunks if cluster.get_maybe(c.uid) is None)
        assert missing > 0  # RF=1 is genuinely fragile

    def test_repair_restores_replication(self):
        cluster = ClusterStore(node_count=4, replication=2)
        for index in range(300):
            cluster.put(_chunk(index))
        cluster.kill_node("node-02")
        cluster.revive_node("node-02", wipe=True)
        assert cluster.durability_check()["single"] > 0
        cluster.repair()
        report = cluster.durability_check()
        assert report["lost"] == 0
        assert report["single"] == 0

    def test_add_node_and_rebalance(self):
        cluster = ClusterStore(node_count=3, replication=2)
        for index in range(400):
            cluster.put(_chunk(index))
        cluster.add_node()
        cluster.rebalance()
        histogram = cluster.placement_histogram()
        assert histogram["node-03"] > 0
        for index in range(400):
            assert cluster.get(_chunk(index).uid) is not None
        assert cluster.durability_check()["lost"] == 0

    def test_all_replicas_down_write_fails(self):
        cluster = ClusterStore(node_count=2, replication=2)
        cluster.kill_node("node-00")
        cluster.kill_node("node-01")
        with pytest.raises(NodeDownError):
            cluster.put(_chunk(7))

    def test_engine_runs_unmodified_on_cluster(self):
        """The substitution argument: the whole stack works over the
        simulated distributed store with zero changes."""
        cluster = ClusterStore(node_count=4, replication=2)
        engine = ForkBase(store=cluster, clock=lambda: 0.0)
        engine.put("data", {"k%03d" % i: "v%d" % i for i in range(500)})
        engine.branch("data", "dev")
        engine.put("data", {"k%03d" % i: "v%d" % i for i in range(501)}, branch="dev")
        diff = engine.diff("data", branch_a="master", branch_b="dev")
        assert len(diff.added) == 1
        cluster.kill_node("node-03")
        assert engine.get_value("data", branch="dev")[b"k000"] == b"v0"

    def test_verification_over_cluster(self):
        from repro.security import Verifier

        cluster = ClusterStore(node_count=3, replication=2)
        engine = ForkBase(store=cluster, clock=lambda: 0.0)
        engine.put("d", {"a": "1"})
        report = Verifier(cluster).verify_version(engine.head("d"))
        assert report.ok

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterStore(node_count=0)
        with pytest.raises(ValueError):
            ClusterStore(node_count=1, replication=0)
