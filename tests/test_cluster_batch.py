"""A commit is one write batch: ``ClusterStore.put_nodes``.

Three claims about the batched write path, each against the per-chunk
``put`` it replaces on the node seam:

- **equality** — fault-free, a ForkBase script over a cluster written in
  batches ends exactly where the same script over a cluster written one
  ``put`` at a time does: roots, values, per-node holdings and
  durability; per-node store accounting is equal to the last counter
  against one-chunk batches, and against single ``put`` up to exactly
  the dedup hits its ``has`` precheck used to absorb;
- **safety under faults** — with drops, partitions, a fake-acking liar
  and a slow node (and honest write rot everywhere), a batch that
  returns has every chunk on at least ``write_quorum`` verified copies,
  every home it missed is owed a hint, the liar ends quarantined on
  strikes naming only it, and no honest node is quarantined;
- **work bound** — a one-key commit sends no ``has`` and at most one
  put exchange per node for the edit plus one per replica for the FNode.
"""

import itertools
import random
from collections import Counter

import pytest

from repro.chunk import Chunk, ChunkType
from repro.cluster import ClusterStore
from repro.db import ForkBase
from repro.errors import ForkBaseError, MessageDroppedError, NetworkTimeoutError
from repro.faults import (
    ByzantinePlan,
    FaultPlan,
    FaultyStore,
    NetworkPlan,
    PartitionedTransport,
    RetryPolicy,
    make_byzantine,
)
from repro.store import InMemoryStore, physical_store
from repro.store.base import WrapperStore
from repro.types import FMap
from tests.conftest import fault_seed

SEED = fault_seed(2025)


class ClusterReads(WrapperStore):
    """Reads nodes the way the cluster itself does (through its cache), so
    a wrapper changes only how the script's writes reach the cluster."""

    def get_node(self, uid):
        return self.backing.get_node(uid)


class SinglePuts(ClusterReads):
    """The cluster behind a store that exposes only single ``put``: the
    seam's per-chunk default, ``has`` precheck included.  Once the puts
    stand, it remembers what it wrote as the cluster's batch write does."""

    def put_nodes(self, pairs):
        pairs = list(pairs)
        new = super().put_nodes(pairs)
        self.backing.node_cache.remember((chunk.uid, node) for chunk, node in pairs)
        return new


class OneChunkBatches(ClusterReads):
    """The cluster fed one chunk per batch: the same node writes as a
    batch makes, one write walk each."""

    def put_nodes(self, pairs):
        return sum(self.backing.put_nodes([pair]) for pair in pairs)


def _cluster() -> ClusterStore:
    return ClusterStore(
        node_count=4, replication=3, write_quorum=2, transport=PartitionedTransport()
    )


def _script(db: ForkBase) -> dict:
    """Put, ``FMap.set``, branch, a 3-way merge, a blob and a list."""
    db.put("m", {f"k{i:04d}": f"value-{i}-" + "x" * (i % 37) for i in range(600)})
    db.put("m", db.get("m").set(b"k0300", b"edited"))
    db.branch("m", "dev")
    db.put("m", db.get("m", "dev").set(b"k0010", b"on-dev"), branch="dev")
    db.put("m", db.get("m").set(b"k0590", b"on-master"))
    db.merge("m", "dev")
    payload = bytes(random.Random(7).getrandbits(8) for _ in range(40_000))
    db.put("blob", payload)
    db.put("list", [f"item-{i}" for i in range(500)])
    return {
        (key, branch): (db.get(key, branch).root, db.get_value(key, branch))
        for key, branch in (("m", "master"), ("m", "dev"), ("blob", "master"), ("list", "master"))
    }


def _run(wrap=lambda cluster: cluster):
    cluster = _cluster()
    db = ForkBase(wrap(cluster), clock=itertools.count(1_700_000_000).__next__)
    return cluster, _script(db)


class TestFaultFreeEquality:
    def test_batches_end_where_single_puts_do(self):
        batched, got = _run()
        single, want = _run(SinglePuts)
        assert got == want
        for name, node in batched.nodes.items():
            other = single.nodes[name]
            assert sorted(node.store.ids()) == sorted(other.store.ids())
            stats, reference = node.store.stats, other.store.stats
            # Materialized exactly the same.
            for field in ("puts_new", "physical_bytes", "by_type", "misses"):
                assert getattr(stats, field) == getattr(reference, field), field
            # The only extra node work is what the ``has`` precheck used to
            # absorb: a chunk the cluster already held costs each home one
            # dedup hit and its read-back, nothing else.
            rewrites = stats.puts_dup - reference.puts_dup
            assert rewrites >= 0 and stats.gets - reference.gets == rewrites
            assert (
                stats.logical_bytes - reference.logical_bytes
                == stats.served_bytes - reference.served_bytes
            )
        assert batched.durability_check() == single.durability_check()
        assert batched.durability_check()["single"] == 0
        # Same writes, far fewer conversations.
        assert batched.transport.messages_sent < single.transport.messages_sent

    def test_grouping_changes_no_node_write(self):
        batched, got = _run()
        ungrouped, want = _run(OneChunkBatches)
        assert got == want
        for name, node in batched.nodes.items():
            other = ungrouped.nodes[name]
            assert sorted(node.store.ids()) == sorted(other.store.ids())
            assert node.store.stats == other.store.stats
            assert node.requests == other.requests
        assert batched.durability_check() == ungrouped.durability_check()
        assert batched.transport.messages_sent < ungrouped.transport.messages_sent


# -- safety under faults ------------------------------------------------------

LIAR = "node-03"
SLOW = "node-01"
PLANS = ("drop", "partition", "byzantine", "slow")


def _faulty_cluster(seed: int, plan: str) -> ClusterStore:
    network = NetworkPlan(seed=seed, drop_rate=0.12 if plan == "drop" else 0.0, dup_rate=0.05)
    rot = FaultPlan(seed=seed, drop_put_rate=0.04, torn_put_rate=0.04, transient_error_rate=0.03)
    cluster = ClusterStore(
        node_count=5,
        replication=3,
        write_quorum=2,
        transport=PartitionedTransport(network),
        retry=RetryPolicy.instant(attempts=3),
        node_store_factory=lambda name: FaultyStore(InMemoryStore(), rot, name=name),
        deadline_budget=60 if plan == "slow" else None,
    )
    if plan == "byzantine":
        make_byzantine(cluster.nodes[LIAR], ByzantinePlan(seed=seed, fake_ack_rate=1.0))
    return cluster


def _events(cluster: ClusterStore, plan: str) -> dict:
    transport = cluster.transport
    if plan == "partition":
        split = (["client", "node-00", "node-01", "node-02"], ["node-03", "node-04"])
        return {8: lambda: transport.partition(*split), 20: transport.heal}
    if plan == "slow":
        return {5: lambda: transport.slow(SLOW, 80), 25: lambda: transport.recover(SLOW)}
    return {}


def _valid_on(cluster: ClusterStore, name: str, chunk: Chunk) -> bool:
    """Does the node *physically* hold bytes that hash to the uid?"""
    held = physical_store(cluster.nodes[name].store).get_maybe(chunk.uid)
    return held is not None and held.is_valid()


@pytest.mark.parametrize("plan", PLANS)
@pytest.mark.parametrize("seed", [SEED, SEED + 1, SEED + 2])
def test_acked_batches_are_durable_and_attributed(seed, plan):
    cluster = _faulty_cluster(seed, plan)
    events = _events(cluster, plan)
    rng = random.Random(seed)
    acked = 0
    for op in range(36):
        if op in events:
            events[op]()
        batch = []
        for n in range(rng.randrange(1, 9)):
            payload = b"batch-%d-%d-%d-" % (seed, op, n) + rng.randbytes(rng.randrange(40, 400))
            batch.append(Chunk(ChunkType.LEAF, payload))
        try:
            cluster.put_nodes([(chunk, chunk) for chunk in batch])
        except ForkBaseError:
            continue
        acked += 1
        hints = {name: set(queued) for name, queued in cluster.hints.items()}
        for chunk in batch:
            # Acked implies at least W copies whose bytes hash to the uid.
            copies = [name for name in cluster.nodes if _valid_on(cluster, name, chunk)]
            assert len(copies) >= cluster.write_quorum, (op, chunk.uid.short(), copies)
            # Every home that missed the write is owed it.
            for home in cluster.replica_nodes(chunk.uid):
                if home.name in copies:
                    continue
                assert chunk.uid in hints.get(home.name, ()) or (
                    cluster.accountability.is_quarantined(home.name)
                ), (op, home.name, chunk.uid.short())
    assert acked >= 18, acked
    board = cluster.accountability
    strikes = [record for record in board.evidence if record.strike]
    # The plan bit, and homes were missed and hinted along the way.
    network, health = cluster.transport.stats(), cluster.health_report()
    bites = {
        "drop": network["dropped"],
        "partition": health["sloppy_writes"],
        "byzantine": len(strikes),
        "slow": network["timeout_abandons"],
    }
    assert bites[plan] > 0 and health["hints_queued"] > 0
    if plan == "byzantine":
        assert board.is_quarantined(LIAR)
        assert strikes and {record.node for record in strikes} == {LIAR}
    # Honest rot, drops, partitions and slowness are repaired, never punished.
    assert board.quarantined() == ([LIAR] if plan == "byzantine" else [])


class LateThenLost(PartitionedTransport):
    """Every put to ``victim`` fails: the first arrives only after the
    sender gave up on it (landing during the retry), the retries are lost."""

    def __init__(self, victim: str) -> None:
        super().__init__()
        self.victim = victim
        self.late = None
        self.attempts = 0

    def send(self, src, dst, op, uid, fn, timeout_ticks=None):
        if dst != self.victim or op != "put":
            return super().send(src, dst, op, uid, fn, timeout_ticks=timeout_ticks)
        self.attempts += 1
        if self.attempts == 1:
            self.late = fn
            raise NetworkTimeoutError(f"put {src}->{dst} delayed past the deadline")
        if self.late is not None:
            late, self.late = self.late, None
            late()  # lands now; nobody is waiting for its reply
        raise MessageDroppedError(f"put {src}->{dst} lost in transit")


def test_only_a_reply_the_sender_waited_for_acks():
    victim = "node-02"
    cluster = ClusterStore(
        node_count=4,
        replication=3,
        write_quorum=2,
        transport=LateThenLost(victim),
        retry=RetryPolicy.instant(attempts=3),
    )
    batch = [Chunk(ChunkType.LEAF, b"late-%d" % n) for n in range(8)]
    cluster.put_nodes([(chunk, chunk) for chunk in batch])
    homed = [chunk for chunk in batch if cluster.nodes[victim] in cluster.replica_nodes(chunk.uid)]
    assert homed and cluster.transport.attempts == 3
    hinted = set(cluster.hints[victim])
    for chunk in homed:
        # The late delivery stored a good copy, but the walk never heard
        # of it: the victim stays owed the write.
        assert _valid_on(cluster, victim, chunk)
        assert chunk.uid in hinted
    assert cluster.transient_failures == 1


# -- work bound -----------------------------------------------------------------


class CountingTransport(PartitionedTransport):
    """A fault-free transport that counts messages by kind."""

    def __init__(self) -> None:
        super().__init__()
        self.by_op: Counter = Counter()

    def send(self, src, dst, op, uid, fn, timeout_ticks=None):
        self.by_op[op] += 1
        return super().send(src, dst, op, uid, fn, timeout_ticks=timeout_ticks)


class TestWorkBound:
    def test_one_key_commit_is_one_exchange_per_node_and_replica(self):
        transport = CountingTransport()
        cluster = ClusterStore(node_count=4, replication=3, write_quorum=2, transport=transport)
        db = ForkBase(cluster, clock=itertools.count(1_700_000_000).__next__)
        rng = random.Random(3)
        initial = {b"k%06d" % i: rng.randbytes(100) for i in range(4000)}
        db.put("m", FMap.from_dict(db.store, initial))
        for commit in range(10):
            edited = db.get("m").set(b"k%06d" % (commit * 397), rng.randbytes(100))
            transport.by_op.clear()
            db.put("m", edited)
            assert transport.by_op["has"] == 0
            assert transport.by_op["put"] == cluster.replication  # the FNode
            transport.by_op.clear()
            db.put("m", db.get("m").set(b"k%06d" % (commit * 397 + 1), rng.randbytes(100)))
            assert transport.by_op["has"] == 0
            assert transport.by_op["put"] <= len(cluster.nodes) + cluster.replication
        assert cluster.durability_check() == {
            "lost": 0, "single": 0, "replicated": len(cluster.ids())
        }
