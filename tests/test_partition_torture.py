"""Partition-tolerance torture: split-brain writes must converge.

The drill, end to end: partition the network, keep writing on both sides
through the engine, heal, run Merkle anti-entropy — then every
*acknowledged* write must be durable on its full replica set, replica
digests must agree, and the reconciliation must have shipped
O(divergence) chunks rather than sweeping the whole store.

``FORKBASE_SEED`` picks the deterministic fault universe (the CI
chaos matrix runs several); ``FORKBASE_AE_CHUNKS`` scales the acceptance
scenario (default 10k chunks).
"""

import os

import pytest

from repro.chunk import Chunk, ChunkType
from repro.cluster import (
    ClusterStore,
    anti_entropy_pass,
    digests_agree,
)
from repro.db import ForkBase
from repro.errors import ClusterError
from repro.faults import (
    NetworkPlan,
    PartitionedTransport,
    RetryPolicy,
    apply_schedule_event,
)
from repro.types import load_object
from repro.vcs import VersionGraph
from tests.conftest import fault_seed

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is in the toolchain
    HAVE_HYPOTHESIS = False

SEED = fault_seed(20260805)
AE_CHUNKS = int(os.environ.get("FORKBASE_AE_CHUNKS", "10000"))


def _chunk(tag: str, n: int) -> Chunk:
    payload = (b"torture-%s-%d-" % (tag.encode("utf-8"), n)) * 4
    return Chunk(ChunkType.BLOB, payload)


def _cluster(**kwargs):
    transport = PartitionedTransport(NetworkPlan(seed=kwargs.pop("net_seed", SEED)))
    kwargs.setdefault("retry", RetryPolicy.instant(attempts=2))
    kwargs.setdefault("node_count", 4)
    kwargs.setdefault("replication", 2)
    cluster = ClusterStore(transport=transport, **kwargs)
    return cluster, transport


def _fully_replicated(cluster: ClusterStore, chunk: Chunk) -> bool:
    copies = 0
    for node in cluster.replica_nodes(chunk.uid):
        if not (node.up and node.store.has(chunk.uid)):
            return False
        got = node.store.get_maybe(chunk.uid)
        if got is None or not got.is_valid():
            return False
        copies += 1
    return copies == cluster.replication


class TestSplitBrainEngines:
    def test_disjoint_and_overlapping_writes_converge(self):
        cluster, transport = _cluster()
        left = ForkBase(cluster.client("left"))
        right = ForkBase(cluster.client("right"))

        shared = left.put("shared", {"rows": "1,2,3"})
        transport.partition(
            {"left", "node-00", "node-01"}, {"right", "node-02", "node-03"}
        )

        # Disjoint keys on each side, plus both sides writing the same
        # value under the same key (content addressing dedups the chunks).
        left_versions = [
            left.put("left-%d" % i, ["row-%d" % i, "row-%d" % (i + 1)])
            for i in range(8)
        ]
        right_versions = [
            right.put("right-%d" % i, {"i": str(i)}) for i in range(8)
        ]
        both_left = left.put("both", "identical-value")
        both_right = right.put("both", "identical-value")

        transport.heal()
        # The writers' hint queues die with them (client restart): the
        # Merkle pass must re-derive every repair from the replicas alone.
        cluster.drop_hints()
        report = anti_entropy_pass(cluster)
        assert report.chunks_transferred > 0

        # Every acknowledged version is durable on the FULL replica set
        # and loadable by a third party that saw neither side's writes.
        reader_store = cluster.client("reader")
        graph = VersionGraph(reader_store)
        for info in (
            [shared, both_left, both_right] + left_versions + right_versions
        ):
            fnode = graph.load(info.uid)
            load_object(reader_store, fnode.type_name, fnode.value_root)
        assert digests_agree(cluster)
        check = cluster.durability_check()
        assert check["lost"] == 0 and check["single"] == 0

    def test_replay_is_identical(self):
        def run():
            cluster, transport = _cluster()
            left = cluster.client("left")
            right = cluster.client("right")
            transport.partition(
                {"left", "node-00", "node-01"}, {"right", "node-02", "node-03"}
            )
            for i in range(20):
                left.put(_chunk("replay-l", i))
                right.put(_chunk("replay-r", i))
            transport.heal()
            report = anti_entropy_pass(cluster)
            return (
                report.chunks_transferred,
                report.tree_nodes_compared,
                cluster.sloppy_writes,
                transport.stats(),
                sorted(
                    (name, len(list(node.store.ids())))
                    for name, node in cluster.nodes.items()
                ),
            )

        assert run() == run()


class TestAcceptanceScenario:
    def test_10k_partition_heal_transfers_below_full_sweep(self):
        """On the 10k-chunk cluster, the anti-entropy transfer counter
        stays strictly below the chunks a full sweep would walk."""
        cluster, transport = _cluster()
        total = AE_CHUNKS
        divergent = max(1, total // 100)  # ~1% written during the split

        for i in range(total - divergent):
            cluster.put(_chunk("bulk", i))
        transport.partition(
            {"client", "node-00", "node-01"}, {"node-02", "node-03"}
        )
        acked = []
        for i in range(divergent):
            chunk = _chunk("split", i)
            cluster.put(chunk)  # sloppy quorum keeps these acked
            acked.append(chunk)
        transport.heal()
        # Hinted handoff is best-effort: lose the queue, force the Merkle
        # machinery to find the divergence from digests alone.
        assert cluster.drop_hints() > 0

        report = anti_entropy_pass(cluster)
        # A walk of every uid (the O(N) baseline) touches every chunk.
        assert len(cluster.ids()) == total
        assert 0 < report.chunks_transferred < total
        # Transfers are O(divergence): bounded by replication x divergent
        # writes (each split-era chunk may need copies on both homes),
        # nowhere near the O(N) sweep.
        assert report.chunks_transferred <= cluster.replication * divergent

        for chunk in acked:
            assert _fully_replicated(cluster, chunk)
        assert digests_agree(cluster)


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
class TestPartitionScheduleProperty:
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_random_schedules_eventually_converge(self, seed):
        """Under ANY deterministic partition schedule: after heal plus one
        anti-entropy pass, no acknowledged write is lost and all replicas
        agree."""
        plan = NetworkPlan(seed=seed)
        cluster, transport = _cluster(net_seed=seed)
        endpoints = sorted(cluster.nodes) + ["client"]
        events = plan.partition_schedule(endpoints, events=4, horizon=40)
        acked = []
        cursor = 0
        for op in range(40):
            while cursor < len(events) and events[cursor][0] <= op:
                apply_schedule_event(transport, events[cursor][1])
                cursor += 1
            chunk = _chunk("prop-%d" % seed, op)
            try:
                cluster.put(chunk)
            except ClusterError:
                continue  # unacknowledged: no durability promise made
            acked.append(chunk)

        transport.heal()
        anti_entropy_pass(cluster)
        for chunk in acked:
            assert _fully_replicated(cluster, chunk)
        assert digests_agree(cluster)
