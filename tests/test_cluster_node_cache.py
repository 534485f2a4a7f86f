"""The cluster coordinator's decoded-node cache (``ClusterStore.get_node``).

The coordinator remembers a node only after a replicated read verified
it or a write of it was acked at quorum, and only ``get_node`` answers
from it.  These tests pin each half of that contract:

- **invisible** — a script read through the coordinator (cached) and
  through a :class:`~repro.cluster.cluster.ClusterClient` (uncached)
  answers the same values and roots and leaves the same holdings;
- **never ahead of the replicas** — a write that missed quorum
  remembers nothing, and a cached node is still written to every home;
- **coherent** — deletes and re-admission drops evict;
- **the trade** — a cached node outlives rot in every copy for
  ``db.get``, while ``verify()`` and ``scrub()`` still see the rot;
- **clients unchanged** — a client engine's reads still reach the
  replicas and send messages.
"""

import itertools
import random

import pytest

from repro.chunk import Chunk, ChunkType, Uid
from repro.cluster import ClusterStore
from repro.db import ForkBase
from repro.errors import ChunkCorruptionError, ChunkNotFoundError, QuorumWriteError
from repro.faults import PartitionedTransport
from repro.postree.node import LeafNode
from repro.store import InMemoryStore
from repro.store.gc import mark_live
from repro.types import FMap


def _cluster(**kwargs) -> ClusterStore:
    options = dict(node_count=4, replication=3, write_quorum=2, transport=PartitionedTransport())
    options.update(kwargs)
    return ClusterStore(**options)


def _engine(store) -> ForkBase:
    return ForkBase(store, clock=itertools.count(1_700_000_000).__next__)


def _leaf(n: int) -> LeafNode:
    return LeafNode([(b"key-%04d" % n, b"value-%d" % n)])


def _rot(store: InMemoryStore, uid: Uid) -> None:
    """Plant bytes that do not hash to ``uid`` under it (in-place rot)."""
    original = store._chunks[uid]
    store._chunks[uid] = Chunk(original.type, b"ROT" + original.data[3:], uid=uid)


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
    db.put("list", db.get("list").append(b"one more"))
    return {
        (key, branch): (db.head(key, branch), db.get(key, branch).root, db.get_value(key, branch))
        for key, branch in (
            ("m", "master"), ("m", "dev"), ("blob", "master"), ("list", "master")
        )
    }


def test_cached_and_uncached_reads_agree():
    cached = _cluster()
    uncached = _cluster()
    got = _script(_engine(cached))
    want = _script(_engine(uncached.client("api")))
    assert got == want
    for name, node in cached.nodes.items():
        assert sorted(node.store.ids()) == sorted(uncached.nodes[name].store.ids())
    assert cached.durability_check() == uncached.durability_check()
    # The coordinator's engine read through its cache; the client never did.
    assert cached.node_hits > 0
    assert uncached.node_lookups == 0
    assert cached.transport.messages_sent < uncached.transport.messages_sent


def test_write_short_of_quorum_remembers_nothing():
    cluster = _cluster(node_count=3)
    for name in ("node-00", "node-01"):
        cluster.kill_node(name)
    leaf = _leaf(0)
    with pytest.raises(QuorumWriteError):
        cluster.put_nodes([(leaf.to_chunk(), leaf)])
    assert leaf.uid not in cluster.node_cache.entries
    assert len(cluster.node_cache.entries) == 0
    for name in ("node-00", "node-01"):
        cluster.revive_node(name)
    cluster.put_nodes([(leaf.to_chunk(), leaf)])
    assert cluster.get_node(leaf.uid) is leaf
    assert cluster.node_hits == 1


def test_a_cached_node_is_still_written_to_every_home():
    cluster = _cluster()
    leaves = [_leaf(n) for n in range(24)]
    pairs = [(leaf.to_chunk(), leaf) for leaf in leaves]
    cluster.put_nodes(pairs)
    assert all(leaf.uid in cluster.node_cache.entries for leaf in leaves)
    # The cluster loses every copy behind the coordinator's back...
    for node in cluster.nodes.values():
        for leaf in leaves:
            node.drop(leaf.uid)
    assert cluster.total_replica_count() == 0
    # ...and a re-put of nodes the cache holds restores every home.
    cluster.put_nodes(pairs)
    assert cluster.total_replica_count() / len(cluster.ids()) == 3.0
    for leaf in leaves:
        assert all(home.store.has(leaf.uid) for home in cluster.replica_nodes(leaf.uid))


def test_sweeping_through_delete_evicts():
    cluster = _cluster()
    db = _engine(cluster)
    db.put("keep", {f"k{i:03d}": "v" for i in range(200)})
    db.put("doomed", {f"d{i:03d}": "x" * 40 for i in range(200)})
    doomed_head = db.head("doomed")
    assert doomed_head in cluster.node_cache.entries
    db.delete_branch("doomed", "master")
    # The sweep gc runs: delete everything no head reaches.
    heads = [head for _, _, head in db.heads.table.all_heads()]
    live = mark_live(cluster, heads)
    doomed = [uid for uid in cluster.ids() if uid not in live]
    assert doomed_head in doomed
    for uid in doomed:
        cluster.delete(uid)
    assert not any(uid in cluster.node_cache.entries for uid in doomed)
    with pytest.raises(ChunkNotFoundError):
        cluster.get_node(doomed_head)
    assert db.get_value("keep")[b"k000"] == b"v"


def test_readmit_drops_evict():
    cluster = _cluster(transport=None, node_count=3, replication=2, write_quorum=None)
    leaves = [_leaf(n) for n in range(30)]
    cluster.put_nodes([(leaf.to_chunk(), leaf) for leaf in leaves])
    victim = cluster.nodes["node-01"]
    held = [leaf for leaf in leaves if victim.store.has(leaf.uid)][:4]
    assert held
    for leaf in held:  # the node's copies rot while it is quarantined
        _rot(victim.store, leaf.uid)
    board = cluster.accountability
    for leaf in held[:2]:
        board.record_strike("t", victim.name, leaf.uid, op="get", kind="audit-mismatch")
    assert board.is_quarantined(victim.name)
    assert cluster.readmit(victim.name) == len(held)
    for leaf in held:
        assert leaf.uid not in cluster.node_cache.entries
        # A re-read verifies a healthy copy and remembers it again.
        assert cluster.get_node(leaf.uid).entries == leaf.entries
        assert leaf.uid in cluster.node_cache.entries


@pytest.mark.parametrize("checker", ["verify", "scrub"])
def test_rot_under_a_warm_cache_is_still_reported(checker):
    """The documented trade, as for local stores: ``db.get`` serves the
    cached node, ``verify()`` and ``scrub()`` read the replicas and see rot."""
    cluster = _cluster()
    db = _engine(cluster)
    db.put("doc", FMap.from_dict(db.store, {b"k%04d" % i: b"v" * 60 for i in range(400)}))
    edited = db.get("doc").set(b"k0200", b"edited")
    db.put("doc", edited)
    leaf = next(edited.tree.leaves(b"k0200"))
    assert db.verify("doc").ok
    holders = [node for node in cluster.nodes.values() if node.store.has(leaf.uid)]
    assert len(holders) == cluster.replication
    for node in holders:
        _rot(node.store, leaf.uid)
    sent = cluster.transport.messages_sent
    assert db.get("doc").get(b"k0200") == b"edited"
    assert cluster.transport.messages_sent == sent  # answered by the cache
    if checker == "verify":
        report = db.verify("doc")
        assert not report.ok and report.corrupt == 1
    else:
        assert leaf.uid in db.scrub().corrupt_uids
    assert db.get("doc").get(b"k0200") == b"edited"


def test_client_reads_still_reach_the_replicas():
    cluster = _cluster()
    client = _engine(cluster.client("api"))
    client.put("doc", {f"k{i:03d}": "v%d" % i for i in range(300)})
    for _ in range(3):
        sent = cluster.transport.messages_sent
        assert client.get_value("doc")[b"k000"] == b"v0"
        assert cluster.transport.messages_sent > sent
    assert cluster.node_lookups == 0
    # The client's writes were acked at quorum, so the coordinator's own
    # engine reads the same version from its cache, sending nothing.
    expected = client.get_value("doc")
    coordinator = _engine(cluster)
    coordinator.heads.table = client.heads.table
    sent = cluster.transport.messages_sent
    assert coordinator.get_value("doc") == expected
    assert cluster.transport.messages_sent == sent
    assert cluster.node_hits > 0


def test_unverifying_cluster_checks_before_remembering():
    cluster = _cluster(transport=None)
    chunk = Chunk(ChunkType.BLOB, b"payload")
    cluster.put(chunk)
    for node in cluster.replica_nodes(chunk.uid):
        _rot(node.store, chunk.uid)
    with pytest.raises(ChunkCorruptionError):
        cluster.get_node(chunk.uid)
    assert chunk.uid not in cluster.node_cache.entries
