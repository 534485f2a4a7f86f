"""Which node the decoded-node cache gives up (``NodeLRU``'s eviction rule).

A node the cache had to *fetch* displaces the least recently used leaf;
a node a *write* remembers displaces the least recently used node.
These tests pin what that buys and what it must not cost:

- **cold point reads** — with room for every index node and a few
  leaves, a warm cache keeps the whole index path, so each get of an
  uncached leaf costs exactly one backend get;
- **sustained commits** — past capacity, leaves are never starved and a
  commit stream fetches within 5% of what plain LRU fetches;
- **reads that fit** — a list or blob read twice after a reopen is all
  hits the second time;
- **the cluster** — a verified replicated read is a fetch and a
  quorum-acked write is a write;
- **the bookkeeping** — ``entries`` holds every cached node, ``leaves``
  exactly the cached leaves, and ``counters()`` reports both and the
  evictions.
"""

from __future__ import annotations

import itertools
import random
from collections import OrderedDict
from typing import Dict, List, Set, Tuple

from repro.chunk import Chunk, ChunkType, Uid
from repro.cluster import ClusterStore
from repro.db import ForkBase
from repro.faults import PartitionedTransport
from repro.postree.node import AnyIndexNode, IndexEntry, IndexNode, LeafNode, load_node
from repro.store import InMemoryStore, NodeCacheStore, physical_store
from repro.store.base import ChunkStore, WrapperStore
from repro.store.nodecache import NodeLRU, decode_chunk, is_leaf


def _clock():
    return itertools.count(1_700_000_000).__next__


def _map(size: int) -> Dict[str, str]:
    return {"k%06d" % i: "value-%d-" % i + "x" * 60 for i in range(size)}


def _leaf(n: int) -> LeafNode:
    return LeafNode([(b"key-%04d" % n, b"value-%d" % n)])


def _index(*children: LeafNode) -> IndexNode:
    return IndexNode(1, [IndexEntry(c.entries[-1][0], c.uid, len(c.entries)) for c in children])


def _walk(store: ChunkStore, root: Uid) -> Tuple[Set[Uid], Dict[bytes, Uid]]:
    """Index uids of a map tree, and the leaf uid that holds each key,
    read with chunk verbs (which no node cache sees)."""
    index: Set[Uid] = set()
    leaf_of: Dict[bytes, Uid] = {}
    pending = [root]
    while pending:
        uid = pending.pop()
        node = load_node(store.get(uid))
        if isinstance(node, AnyIndexNode):
            index.add(uid)
            pending.extend(node.children())
        else:
            for key, _ in node.entries:
                leaf_of[key] = uid
    return index, leaf_of


def _assert_consistent(cache: NodeLRU) -> None:
    assert set(cache.leaves) == {uid for uid, node in cache.entries.items() if is_leaf(node)}
    assert len(cache.entries) <= cache.capacity


class PlainLRUStore(WrapperStore):
    """The reference: one LRU in which every node displaces the oldest."""

    def __init__(self, backing: ChunkStore, capacity: int) -> None:
        super().__init__(backing)
        self.capacity = capacity
        self.entries: "OrderedDict[Uid, object]" = OrderedDict()

    def _remember(self, uid: Uid, node: object) -> None:
        self.entries[uid] = node
        self.entries.move_to_end(uid)
        while len(self.entries) > self.capacity:
            self.entries.popitem(last=False)

    def put_nodes(self, pairs):
        pairs = list(pairs)
        new = sum(self.put(chunk) for chunk, _ in pairs)
        for chunk, node in pairs:
            self._remember(chunk.uid, node)
        return new

    def get_node(self, uid):
        node = self.entries.get(uid)
        if node is None:
            node = decode_chunk(self.backing.get(uid))
        self._remember(uid, node)
        return node


def test_cold_point_reads_keep_the_index_and_fetch_one_leaf(tmp_path):
    directory = str(tmp_path / "db")
    with ForkBase.open(directory) as db:
        db.put("m", _map(6000))
        head = db.head("m")
        index, leaf_of = _walk(db.store, db.get("m").root)
    assert len(set(leaf_of.values())) > 10 * len(index)  # far larger than the cache
    capacity = len(index) + 1 + 8  # every index node, the FNode, eight leaves
    keys = sorted(leaf_of)
    rng = random.Random(3)
    with ForkBase.open(directory, node_cache=capacity) as db:
        cache = db.store.node_cache
        backend = physical_store(db.store)
        for key in rng.sample(keys, len(keys)):  # the warm-up pass
            assert db.get("m").get(key) is not None
        assert index <= set(cache.entries) and head in cache.entries
        for key in (rng.choice(keys) for _ in range(2000)):
            cached = leaf_of[key] in cache.entries
            before = backend.stats.gets
            assert db.get("m").get(key) is not None
            assert backend.stats.gets - before == (0 if cached else 1), key
        assert index <= set(cache.entries) and head in cache.entries
        counters = cache.counters()
        assert counters["size"] == capacity and counters["evictions"] > 2000
        assert counters["leaves"] == capacity - len(index) - 1
        _assert_consistent(cache)


def test_sustained_commits_past_capacity_keep_leaves_and_fetch_like_plain_lru():
    def commits(store: ChunkStore) -> Tuple[List[int], Uid, List[int]]:
        backing = physical_store(store)
        db = ForkBase(store, clock=_clock())
        db.put("m", _map(3000))
        keys = sorted(db.get_value("m"))
        rng = random.Random(11)
        fetches, leaves = [], []
        for n in range(400):
            before = backing.stats.gets
            key = keys[min(int(rng.paretovariate(1.0)) - 1, len(keys) - 1) * 7919 % len(keys)]
            db.put("m", db.get("m").set(key, b"commit-%d" % n))
            fetches.append(backing.stats.gets - before)
            cache = getattr(store, "node_cache", None)
            if cache is not None:
                leaves.append(cache.counters()["leaves"])
        return fetches, db.head("m"), leaves

    for capacity in (24, 48, 96):
        reference, reference_head, _ = commits(PlainLRUStore(InMemoryStore(), capacity))
        store = NodeCacheStore(InMemoryStore(), capacity=capacity)
        fetched, head, leaves = commits(store)
        assert head == reference_head  # the same commits, only the cache differs
        assert sum(fetched) > 0  # the stream does run past capacity
        assert sum(fetched) <= 1.05 * sum(reference), (capacity, sum(fetched), sum(reference))
        assert min(leaves) > 0  # writes keep leaves in the cache
        assert store.node_cache.counters()["evictions"] > 0
        _assert_consistent(store.node_cache)


def test_a_list_and_a_blob_that_fit_read_twice_are_all_hits_the_second_time(tmp_path):
    directory = str(tmp_path / "db")
    with ForkBase.open(directory) as db:
        db.put("list", ["item-%d-" % i + "y" * 40 for i in range(3000)])
        db.put("blob", random.Random(5).randbytes(300_000))
        expected = {key: db.get_value(key) for key in ("list", "blob")}
    # Size the cache to exactly what one read of both holds.
    with ForkBase.open(directory, node_cache=4096) as db:
        for key in expected:
            db.get_value(key)
        capacity = db.store.node_cache.counters()["size"]
    with ForkBase.open(directory, node_cache=capacity) as db:
        backend = physical_store(db.store)
        for key in expected:
            assert db.get_value(key) == expected[key]
        before, first = backend.stats.gets, db.store.node_cache.counters()
        for key in expected:
            assert db.get_value(key) == expected[key]
        assert backend.stats.gets == before
        counters = db.store.node_cache.counters()
        assert counters["hits"] - first["hits"] == counters["lookups"] - first["lookups"] > 0
        assert counters["evictions"] == 0 and counters["leaves"] > 0


def test_cluster_verified_read_is_a_fetch_and_acked_write_a_write():
    cluster = ClusterStore(
        node_count=4, replication=3, write_quorum=2, transport=PartitionedTransport()
    )
    cluster.node_cache = NodeLRU(capacity=3)
    a, b, c, d = (_leaf(n) for n in range(4))
    index = _index(a, b)
    cluster.put_nodes([(index.to_chunk(), index), (a.to_chunk(), a), (b.to_chunk(), b)])
    assert list(cluster.node_cache.entries) == [index.uid, a.uid, b.uid]
    # A chunk verb bypasses the cache, so reading ``c`` back is a fetch:
    # it displaces the oldest leaf, not the older index node.
    cluster.put(c.to_chunk())
    assert cluster.get_node(c.uid).entries == c.entries
    assert list(cluster.node_cache.entries) == [index.uid, b.uid, c.uid]
    # An acked write displaces the oldest node of any kind.
    cluster.put_nodes([(d.to_chunk(), d)])
    assert list(cluster.node_cache.entries) == [b.uid, c.uid, d.uid]
    assert cluster.node_cache.counters()["evictions"] == 2
    assert cluster.health_report()["node_cache"]["leaves"] == 3


def test_fetch_evicts_the_least_recently_used_leaf_and_falls_back_to_any_node():
    cache = NodeLRU(capacity=3)
    a, b, c = _leaf(0), _leaf(1), _leaf(2)
    index = _index(a, b)
    blob = Chunk(ChunkType.BLOB, b"blob bytes")
    cache.remember([(a.uid, a), (index.uid, index), (b.uid, b)])
    assert cache.lookup(a.uid) is a  # a hit: ``b`` is now the oldest leaf
    cache.remember_fetched(c.uid, c)
    assert list(cache.entries) == [index.uid, a.uid, c.uid]
    assert list(cache.leaves) == [a.uid, c.uid]
    cache.remember_fetched(blob.uid, blob)  # a BLOB chunk is a leaf
    assert list(cache.leaves) == [c.uid, blob.uid]
    assert index.uid in cache.entries
    # Only index nodes cached: a fetch falls back to the oldest node.
    only_index = NodeLRU(capacity=2)
    first, second = _index(a), _index(b)
    only_index.remember([(first.uid, first), (second.uid, second)])
    only_index.remember_fetched(c.uid, c)
    assert list(only_index.entries) == [second.uid, c.uid]
    assert only_index.counters() == {
        "hits": 0, "lookups": 0, "size": 2, "capacity": 2, "evictions": 1, "leaves": 1
    }
    for lru in (cache, only_index):
        _assert_consistent(lru)


def test_forget_and_write_eviction_keep_the_leaf_order_in_step():
    cache = NodeLRU(capacity=4)
    leaves = [_leaf(n) for n in range(6)]
    cache.remember((leaf.uid, leaf) for leaf in leaves)
    assert list(cache.leaves) == [leaf.uid for leaf in leaves[2:]]
    cache.forget([leaves[3].uid])
    assert leaves[3].uid not in cache.leaves and leaves[3].uid not in cache.entries
    raw = Chunk(ChunkType.META, b"not a tree node")  # a raw chunk that is no leaf
    cache.remember_fetched(raw.uid, raw)
    assert raw.uid in cache.entries and raw.uid not in cache.leaves
    _assert_consistent(cache)
    assert cache.counters()["evictions"] == 2


def test_node_cache_store_hit_moves_a_leaf_in_both_orders():
    store = NodeCacheStore(InMemoryStore(), capacity=3)
    a, b, c = _leaf(0), _leaf(1), _leaf(2)
    store.put_nodes([(a.to_chunk(), a), (b.to_chunk(), b)])
    assert store.get_node(a.uid) is a
    assert list(store.node_cache.leaves) == [b.uid, a.uid]
    store.put(c.to_chunk())
    index = _index(a)
    store.node_cache.remember([(index.uid, index)])
    assert store.get_node(c.uid).entries == c.entries  # a fetch: ``b`` goes
    assert b.uid not in store.node_cache.entries and a.uid in store.node_cache.entries
    _assert_consistent(store.node_cache)
