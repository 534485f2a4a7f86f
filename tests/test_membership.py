"""Tests for failure detection and membership (repro.cluster.membership)."""

import pytest

from repro.chunk import Chunk, ChunkType
from repro.cluster import ALIVE, DEAD, SUSPECT, ClusterStore
from repro.cluster.membership import DEAD_THRESHOLD, SUSPICION_THRESHOLD
from repro.errors import NodeDownError, QuorumWriteError
from repro.faults import NetworkPlan, PartitionedTransport, RetryPolicy


def _chunk(n: int, size: int = 64) -> Chunk:
    return Chunk(ChunkType.BLOB, (b"member-%d-" % n) * (size // 10 + 1))


def _cluster(**kwargs) -> ClusterStore:
    kwargs.setdefault("retry", RetryPolicy.instant(attempts=2))
    return ClusterStore(**kwargs)


def _suspect_rounds(tick) -> None:
    """Just enough heartbeat rounds for every missed probe to suspect."""
    for _ in range(SUSPICION_THRESHOLD):
        tick()


class TestFailureDetector:
    def test_all_alive_on_healthy_cluster(self):
        cluster = _cluster(node_count=3)
        detector = cluster.failure_detector()
        states = detector.probe_round()
        assert set(states.values()) == {ALIVE}
        assert detector.suspected() == []

    def test_dead_node_decays_to_suspect_then_dead(self):
        cluster = _cluster(node_count=3)
        detector = cluster.failure_detector()
        cluster.kill_node("node-01")
        for _ in range(SUSPICION_THRESHOLD - 1):
            detector.probe_round()
            assert detector.state("node-01") == ALIVE  # isolated misses are absorbed
        detector.probe_round()
        assert detector.state("node-01") == SUSPECT
        for _ in range(DEAD_THRESHOLD - SUSPICION_THRESHOLD - 1):
            detector.probe_round()
            assert detector.state("node-01") == SUSPECT
        detector.probe_round()
        assert detector.state("node-01") == DEAD
        assert detector.suspected() == ["node-01"]

    def test_recovery_snaps_back_to_alive(self):
        cluster = _cluster(node_count=3)
        detector = cluster.failure_detector()
        cluster.kill_node("node-02")
        _suspect_rounds(detector.probe_round)
        assert detector.is_suspect("node-02")
        cluster.revive_node("node-02")
        detector.probe_round()
        assert detector.state("node-02") == ALIVE
        assert detector.missed("node-02") == 0
        assert detector.report()["recoveries"] == 1

    def test_isolated_drop_does_not_trigger_suspicion(self):
        # drop_rate > 0 loses individual heartbeats; the threshold absorbs
        # them as long as losses are not consecutive enough.
        transport = PartitionedTransport(NetworkPlan(seed=3, drop_rate=0.15))
        cluster = _cluster(node_count=3, transport=transport)
        detector = cluster.failure_detector()
        for _ in range(20):
            detector.probe_round()
        assert detector.suspected() == []

    def test_partition_is_suspected_per_origin(self):
        transport = PartitionedTransport()
        cluster = _cluster(node_count=4, transport=transport)
        left = cluster.failure_detector("left")
        right = cluster.failure_detector("right")
        transport.partition(
            {"left", "node-00", "node-01"}, {"right", "node-02", "node-03"}
        )
        for _ in range(SUSPICION_THRESHOLD):
            left.probe_round()
            right.probe_round()
        # Split-brain: each side suspects exactly the other side's nodes.
        assert left.suspected() == ["node-02", "node-03"]
        assert right.suspected() == ["node-00", "node-01"]
        transport.heal()
        left.probe_round()
        right.probe_round()
        assert left.suspected() == []
        assert right.suspected() == []

    def test_probe_rounds_are_deterministic(self):
        def run():
            transport = PartitionedTransport(NetworkPlan(seed=77, drop_rate=0.3))
            cluster = _cluster(node_count=3, transport=transport)
            detector = cluster.failure_detector()
            trace = []
            for _ in range(12):
                trace.append(tuple(sorted(detector.probe_round().items())))
            return trace

        assert run() == run()


class TestSuspicionRouting:
    def test_writes_route_around_suspected_nodes(self):
        transport = PartitionedTransport()
        cluster = _cluster(node_count=4, replication=2, transport=transport)
        chunk = _chunk(1)
        victim = cluster.replica_nodes(chunk.uid)[0].name
        others = {name for name in cluster.nodes if name != victim}
        transport.partition(others | {"client"}, {victim})
        _suspect_rounds(cluster.tick)
        assert cluster.failure_detector().is_suspect(victim)
        cluster.put(chunk)
        # The suspected home replica was skipped without burning retries,
        # got a hint instead, and a stand-in took the write.
        assert cluster.suspect_skips >= 1
        assert not cluster.nodes[victim].store.has(chunk.uid)
        assert cluster.pending_hints().get(victim) == 1
        holders = [n for n in cluster.nodes.values() if n.store.has(chunk.uid)]
        assert len(holders) >= 1

    def test_sloppy_quorum_meets_quorum_via_standin(self):
        transport = PartitionedTransport()
        cluster = _cluster(
            node_count=4,
            replication=2,
            write_quorum=2,
            transport=transport,
        )
        chunk = _chunk(2)
        home = [node.name for node in cluster.replica_nodes(chunk.uid)]
        transport.partition(
            {"client"} | {n for n in cluster.nodes if n not in home[:1]}, {home[0]}
        )
        _suspect_rounds(cluster.tick)
        cluster.put(chunk)  # would fail quorum without the sloppy extension
        assert cluster.sloppy_writes >= 1
        holders = [n.name for n in cluster.nodes.values() if n.store.has(chunk.uid)]
        assert len(holders) >= 2

    def test_quorum_error_only_when_no_reachable_quorum(self):
        transport = PartitionedTransport()
        cluster = _cluster(
            node_count=3, replication=2, write_quorum=2, transport=transport
        )
        # Client alone on its side: nobody reachable at all.
        transport.partition({"client"}, set(cluster.nodes))
        chunk = _chunk(3)
        with pytest.raises(NodeDownError):
            cluster.put(chunk)
        # One node reachable, quorum needs two: typed quorum failure.
        transport.partition({"client", "node-00"}, {"node-01", "node-02"})
        chunk2 = _chunk(4)
        with pytest.raises(QuorumWriteError) as info:
            cluster.put(chunk2)
        assert info.value.acked == 1
        assert info.value.required == 2

    def test_clients_keep_separate_views(self):
        transport = PartitionedTransport()
        cluster = _cluster(node_count=2, transport=transport)
        a = cluster.client("client-a")
        b = cluster.client("client-b")
        transport.partition({"client-a", "node-00", "node-01"}, {"client-b"})
        _suspect_rounds(a.tick)
        _suspect_rounds(b.tick)
        assert a.failure_detector().suspected() == []
        assert b.failure_detector().suspected() == ["node-00", "node-01"]
