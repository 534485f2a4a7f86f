"""Differential test: the digest state anti-entropy keeps is invisible.

Two identically seeded clusters are driven through the same script of
holdings changes — most of them made *behind the nodes' backs*, which is
what the per-pass reconcile exists for — with a pass after every step.
One keeps its :class:`~repro.cluster.antientropy.ReplicaDigests` from pass
to pass; the other throws it away before every pass (the parent commit's
behaviour).  Every report, every node's holdings, the health report and
the convergence check must be equal, step by step.

Seeded, no timing.  ``FORKBASE_SEED`` picks the fault universe.
"""

from dataclasses import asdict

from repro.chunk import Chunk, ChunkType
from repro.cluster import ClusterStore, digests_agree
from repro.faults import (
    ByzantinePlan,
    ByzantineStore,
    NetworkPlan,
    PartitionedTransport,
    RetryPolicy,
    make_byzantine,
)
from tests.conftest import fault_seed

SEED = fault_seed(20260808)
LIAR = "node-02"


def _chunk(tag: str, n: int) -> Chunk:
    return Chunk(ChunkType.BLOB, (b"state-%s-%d-" % (tag.encode(), n)) * 6)


def _rot(cluster: ClusterStore, chunk: Chunk, replica: int) -> None:
    node = cluster.replica_nodes(chunk.uid)[replica]
    node.store.delete(chunk.uid)
    node.store.put(Chunk(chunk.type, b"ROT" + chunk.data, uid=chunk.uid))


def _held(cluster: ClusterStore, name: str, every: int) -> list:
    return sorted(cluster.nodes[name].store.ids())[::every]


def _run(forget: bool) -> list:
    """Drive the script; returns one observation per step."""
    transport = PartitionedTransport(NetworkPlan(seed=SEED))
    cluster = ClusterStore(
        node_count=4,
        replication=3,
        write_quorum=2,
        transport=transport,
        retry=RetryPolicy.instant(attempts=2),
        verify_writes=False,  # so the forger below hides behind its digests
        audit_rate=0.3,
    )
    if forget:
        # Shadow the verb on the instance so the passes inside ``readmit``
        # and ``rebalance`` start from scratch too.
        kept_pass = cluster.anti_entropy_pass

        def fresh_pass():
            cluster.replica_digests = None
            return kept_pass()

        cluster.anti_entropy_pass = fresh_pass
    observed = []

    def observe(label: str, report) -> None:
        observed.append(
            {
                "step": label,
                "report": asdict(report),
                "ids": {name: sorted(node.store.ids()) for name, node in cluster.nodes.items()},
                "health": cluster.health_report(),
                "agree": digests_agree(cluster),
            }
        )

    def step(label: str) -> None:
        observe(label, cluster.anti_entropy_pass())

    chunks = [_chunk("base", n) for n in range(150)]
    for chunk in chunks:
        cluster.put(chunk)
    step("puts")

    _rot(cluster, chunks[3], 0)
    _rot(cluster, chunks[40], 2)
    step("rot planted between passes")

    for uid in _held(cluster, "node-01", 9):
        cluster.nodes["node-01"].store.delete(uid)
    step("store.delete behind the node's back")

    for uid in _held(cluster, "node-03", 11):
        cluster.nodes["node-03"].drop(uid)
    step("node.drop")

    cluster.kill_node("node-00")
    cluster.revive_node("node-00", wipe=True)
    step("kill + revive(wipe)")

    left, right = cluster.client("left"), cluster.client("right")
    transport.partition({"left", "node-00", "node-01"}, {"right", "node-02", "node-03"})
    for n in range(15):
        left.put(_chunk("left", n))
        right.put(_chunk("right", n))
    transport.heal()
    step("partition + heal with hints")

    for uid in _held(cluster, "node-01", 13):
        cluster.nodes["node-01"].store.delete(uid)
    step("store.delete behind node-01's back, again")

    make_byzantine(
        cluster.nodes[LIAR], ByzantinePlan(seed=SEED, fake_ack_rate=1.0, forge_index=True)
    )
    for n in range(60):
        cluster.put(_chunk("forged", n))
    for attempt in range(3):
        if not cluster.accountability.is_quarantined(LIAR):
            step("forged claimed_ids, audit on (%d)" % attempt)
    assert cluster.accountability.is_quarantined(LIAR)
    step("liar quarantined, sits out")

    ByzantineStore.remove(cluster.nodes[LIAR])
    cluster.readmit(LIAR)
    observe("readmit", cluster.last_sync_report)

    cluster.add_node()
    cluster.rebalance()
    observe("add_node + rebalance", cluster.last_sync_report)
    step("after rebalance")
    return observed


def test_kept_state_is_invisible():
    keeping, forgetting = _run(forget=False), _run(forget=True)
    assert [o["step"] for o in keeping] == [o["step"] for o in forgetting]
    for kept, fresh in zip(keeping, forgetting):
        for field in ("report", "ids", "health", "agree"):
            assert kept[field] == fresh[field], (kept["step"], field)
    # The script did what it says: it moved chunks, caught rot and a liar,
    # and ended converged.
    assert sum(o["report"]["chunks_transferred"] for o in keeping) > 100
    assert sum(o["report"]["rotten_quarantined"] for o in keeping) == 2
    assert sum(o["report"]["audit_failures"] for o in keeping) > 0
    assert keeping[-1]["agree"]


def test_state_is_kept_until_the_ring_changes():
    cluster = ClusterStore(node_count=3, replication=2)
    for n in range(40):
        cluster.put(_chunk("keep", n))
    assert cluster.replica_digests is None
    cluster.anti_entropy_pass()
    state = cluster.replica_digests
    cluster.nodes["node-01"].store.delete(_chunk("keep", 0).uid)
    cluster.anti_entropy_pass()
    assert digests_agree(cluster)
    assert cluster.replica_digests is state
    cluster.add_node()
    cluster.anti_entropy_pass()
    assert cluster.replica_digests is not state
    assert digests_agree(cluster)
