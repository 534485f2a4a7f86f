"""A near-duplicate blob put re-chunks only what changed.

``BlobTree.from_bytes`` over a store with a cut index (a node cache)
reuses the cached leaf it finds at each cut and runs the chunker only
from a cut no known leaf starts at; its index levels reuse the cached
index node whose entries recur at each cut the same way.  These tests
pin:

- **roots** — a warm build has the root a cacheless build has, for
  random multi-region, length-changing edits (at 0, at the end, inside
  max-size zero runs), on two configs, on the numpy chunker and under
  ``pure_chunker()``, and with a cache small enough to evict mid-build;
  again under an index config small enough for three or more index
  levels, and for a level whose last node recurs with entries after it;
  and for edits in a block's first or last leaf or across two blocks
  (a block: the leaves of one level-1 node), cacheless, evicting and
  roomy;
- **work** — a 32-byte edit of a ≈ 400 KB blob hashes O(1) BLOB chunks,
  feeds the chunker a few probe slices and encodes O(height) index
  nodes; one of a 4 MiB blob probes the cut index about once per block;
  a cold put is one pass;
- **guards** — cuts noted under one config never serve another, a block
  takes only leaves noted under its put's config, and a config with
  ``min_size < window`` never consults the index;
- **lifetime** — an index entry goes with its node (evicted, forgotten,
  swept, closed, abandoned), and a block stops at a child that went; a
  node gc swept is written again; the cluster coordinator's cache
  serves the same roots.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import replace
from typing import List, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.postree.listtree as listtree
from repro.chunk import Chunk, ChunkType
from repro.cluster import ClusterStore
from repro.db import ForkBase
from repro.faults import PartitionedTransport
from repro.postree.config import DEFAULT_TREE_CONFIG, TreeConfig
from repro.postree.listtree import BlobTree
from repro.postree.node import ListIndexNode, node_level
from repro.rolling.chunker import BLOB_CONFIG, ChunkerConfig
from repro.store import InMemoryStore, NodeCacheStore, physical_store
from repro.store.gc import collect_garbage
from repro.store.nodecache import BlobWalk, NodeLRU
from tests.conftest import pure_chunker

SMALL = ChunkerConfig(pattern_bits=6, min_size=16, max_size=256)

#: Index nodes of about three entries: a few dozen leaves stand three or
#: more index levels, and a probe slice is nine entries.
TALL = TreeConfig(index=ChunkerConfig(pattern_bits=6, min_size=32, max_size=512, min_entries=2))

#: Blob configs and ``_base`` sizes that stand ≥ 3 index levels under TALL.
TALL_BASES = [(BLOB_CONFIG, 4), (SMALL, 16)]


def _text(rng: random.Random, size: int) -> bytes:
    words = [bytes(rng.choices(b"abcdefghijklmnop", k=rng.randint(2, 9))) for _ in range(400)]
    return b" ".join(rng.choices(words, k=size // 5 + 1))[:size]


def _base(config: ChunkerConfig, seed: int, units: int = 1) -> bytes:
    """Text with a zero run longer than ``max_size`` in the middle."""
    rng = random.Random(seed)
    unit = config.max_size
    return _text(rng, units * unit) + bytes(unit + unit // 3) + _text(rng, units * unit)


def _cacheless_root(data: bytes, config: ChunkerConfig, tree_config=DEFAULT_TREE_CONFIG):
    return BlobTree.from_bytes(InMemoryStore(), data, config, tree_config).root


def _spy_kernel(monkeypatch) -> List[int]:
    """Record the length of every buffer the blob builder hands the chunker."""
    fed: List[int] = []
    kernel = listtree.fast_chunk_spans

    def spy(data, config, preceding=b""):
        fed.append(len(data))
        return kernel(data, config, preceding)

    monkeypatch.setattr(listtree, "fast_chunk_spans", spy)
    return fed


def _spy_hashes(monkeypatch, kind: ChunkType = ChunkType.BLOB) -> List[int]:
    """Record the length of every ``kind`` payload SHA-256 sees."""
    hashed: List[int] = []
    compute = Chunk.compute_uid

    def spy(type_, data):
        if type_ == kind:
            hashed.append(len(data))
        return compute(type_, data)

    monkeypatch.setattr(Chunk, "compute_uid", staticmethod(spy))
    return hashed


def _edit(data: bytes, config: ChunkerConfig, where: str, fraction: float,
          cut: int, patch: bytes) -> bytes:
    zeros = data.find(bytes(config.max_size))
    at = {
        "start": 0,
        "end": len(data),
        "zeros": zeros + int(fraction * config.max_size) if zeros >= 0 else 0,
        "anywhere": int(fraction * len(data)),
    }[where]
    return data[:at] + patch + data[at + cut :]


edits = st.lists(
    st.tuples(
        st.sampled_from(["start", "end", "zeros", "anywhere"]),
        st.floats(0, 1),
        st.integers(0, 48),
        st.binary(max_size=48) | st.just(bytes(40)),
    ),
    min_size=1,
    max_size=4,
)


def _check_versions(
    config: ChunkerConfig, capacity: int, seed: int, versions, tree_config=DEFAULT_TREE_CONFIG,
    units: int = 1,
) -> BlobTree:
    data = _base(config, seed, units)
    warm = NodeCacheStore(InMemoryStore(), capacity=capacity)
    first = tree = BlobTree.from_bytes(warm, data, config, tree_config)
    assert tree.root == _cacheless_root(data, config, tree_config)
    for regions in versions:
        for where, fraction, cut, patch in regions:
            data = _edit(data, config, where, fraction, cut, patch)
        tree = BlobTree.from_bytes(warm, data, config, tree_config)
        assert tree.root == _cacheless_root(data, config, tree_config)
        assert tree.read() == data
    return first


class TestRootsStayBitIdentical:
    @pytest.mark.parametrize("capacity", [4096, 6], ids=["roomy", "evicting"])
    @pytest.mark.parametrize("config", [BLOB_CONFIG, SMALL], ids=["blob", "small"])
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow,
              HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**16), versions=st.lists(edits, min_size=1, max_size=4))
    def test_warm_build_equals_cacheless_build(self, config, capacity, seed, versions):
        _check_versions(config, capacity, seed, versions)

    @pytest.mark.parametrize("capacity", [4096, 12], ids=["roomy", "evicting"])
    @pytest.mark.parametrize("config, units", TALL_BASES, ids=["blob", "small"])
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow,
              HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**16), versions=st.lists(edits, min_size=1, max_size=4))
    def test_warm_index_levels_equal_cacheless_ones(self, config, units, capacity, seed, versions):
        first = _check_versions(config, capacity, seed, versions, TALL, units)
        assert node_level(first.node(first.root)) >= 3

    @pytest.mark.parametrize("config, units", TALL_BASES, ids=["blob", "small"])
    def test_a_level_end_is_not_reused_where_entries_follow(self, config, units):
        # Each prefix ends on a leaf cut of the full blob, so its levels
        # end on nodes that the full blob's levels may run on past: a
        # warm build must not take such a node for one a rule closed.
        data = _base(config, 23, units)
        cacheless = BlobTree.from_bytes(InMemoryStore(), data, config, TALL)
        ends = list(itertools.accumulate(len(leaf.data) for leaf in cacheless.iter_chunks()))
        assert len(ends) >= 24
        for end in ends[len(ends) // 3 :: max(1, len(ends) // 8)]:
            warm = NodeCacheStore(InMemoryStore())
            prefix = _cacheless_root(data[:end], config, TALL)
            for _ in range(2):  # a cold put, then one that walks the cut index
                assert BlobTree.from_bytes(warm, data[:end], config, TALL).root == prefix
            assert BlobTree.from_bytes(warm, data, config, TALL).root == cacheless.root

    def test_an_index_config_whose_probe_slice_rounds_to_no_entries(self):
        # (min_size + 4 << pattern_bits) // 32 is 0 here: a probe slice
        # still holds min_entries, so a warm put walks the cut index.
        tiny = TreeConfig(
            index=ChunkerConfig(pattern_bits=1, min_size=16, max_size=512, min_entries=2)
        )
        versions = [[("anywhere", 0.5, 8, b"edit")], [("start", 0.0, 0, b"x" * 40)]]
        _check_versions(SMALL, 4096, 31, versions, tiny, 4)

    @pytest.mark.parametrize("capacity", [4096, 6], ids=["roomy", "evicting"])
    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow,
              HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**16), versions=st.lists(edits, min_size=1, max_size=3))
    def test_pure_chunker_builds_the_same_roots(self, capacity, seed, versions):
        with pure_chunker():
            _check_versions(SMALL, capacity, seed, versions)
            _check_versions(replace(BLOB_CONFIG, max_size=4096), capacity, seed, versions[:1])


class TestWorkFollowsTheEdit:
    def test_a_32_byte_edit_hashes_a_few_leaves_and_probes_a_few_slices(self, monkeypatch):
        rng = random.Random(7)
        data = _text(rng, 400_000)
        store = NodeCacheStore(InMemoryStore())
        BlobTree.from_bytes(store, data)
        fed = _spy_kernel(monkeypatch)
        hashed = _spy_hashes(monkeypatch)
        leaves_before = physical_store(store).stats.puts_new
        for offset in (0, 123_456, len(data) - 20):
            data = data[:offset] + bytes(rng.choices(b"XYZ ", k=32)) + data[offset + 32 :]
            expected = _cacheless_root(data, BLOB_CONFIG)
            del fed[:], hashed[:]
            assert BlobTree.from_bytes(store, data).root == expected
            assert 1 <= len(hashed) <= 3, hashed
            assert 1 <= len(fed) <= 3 and sum(fed) <= 64 << 10, fed
        # A handful of new leaves and their index paths, not ≈ 80 leaves a put.
        assert physical_store(store).stats.puts_new - leaves_before <= 3 * 6

    def test_a_near_duplicate_put_encodes_the_index_path_above_its_edit(self, monkeypatch):
        rng = random.Random(7)
        data = _text(rng, 400_000)
        store = NodeCacheStore(InMemoryStore())
        tree = BlobTree.from_bytes(store, data, BLOB_CONFIG, TALL)
        height = node_level(tree.node(tree.root))
        index_nodes = sum(isinstance(node, ListIndexNode) for _, node in tree.reachable())
        assert height >= 4 and index_nodes >= 25
        encoded = _spy_hashes(monkeypatch, ChunkType.LIST_INDEX)
        for offset in (0, 123_456, 300_001, len(data) - 20):
            data = data[:offset] + bytes(rng.choices(b"XYZ ", k=32)) + data[offset + 32 :]
            expected = _cacheless_root(data, BLOB_CONFIG, TALL)
            del encoded[:]
            assert BlobTree.from_bytes(store, data, BLOB_CONFIG, TALL).root == expected
            # The path above the edit, each level's last node (never
            # noted: the level, not a rule, ended it) and a neighbour
            # where a boundary moved; not every index node.
            assert height <= len(encoded) <= 3 * height, encoded

    def test_a_cold_put_is_one_pass_over_all_the_bytes(self, monkeypatch):
        data = _text(random.Random(3), 200_000)
        fed = _spy_kernel(monkeypatch)
        store = NodeCacheStore(InMemoryStore())
        BlobTree.from_bytes(store, data)
        assert fed == [len(data)]
        assert store.node_cache.knows_cuts(BLOB_CONFIG)


class TestGuards:
    def test_cuts_noted_under_one_config_never_serve_another(self, monkeypatch):
        data = _text(random.Random(5), 120_000)
        other = replace(BLOB_CONFIG, seed=b"another-gamma")
        store = NodeCacheStore(InMemoryStore())
        BlobTree.from_bytes(store, data, BLOB_CONFIG)
        expected = {config: _cacheless_root(data, config) for config in (BLOB_CONFIG, other)}
        fed = _spy_kernel(monkeypatch)
        # Same bytes, same heads, another config: one full pass.
        assert BlobTree.from_bytes(store, data, other).root == expected[other]
        assert fed == [len(data)]
        # Now both configs know cuts; each reuses only its own, the
        # end-of-data leaf (noted as its level's end) too: nothing is sliced.
        for config in (BLOB_CONFIG, other):
            del fed[:]
            tree = BlobTree.from_bytes(store, data, config)
            assert tree.root == expected[config]
            assert fed == []

    def test_the_index_answers_only_the_config_it_was_told(self):
        leaf = Chunk(ChunkType.BLOB, b"a" * 40 + b"tail")
        cache = NodeLRU()
        cache.remember([(leaf.uid, leaf)])
        cache.note_cuts(BLOB_CONFIG, [leaf])
        assert cache.blob_walk(BLOB_CONFIG).leaf(b"x" + leaf.data + b"y", 1) is leaf
        assert cache.blob_walk(replace(BLOB_CONFIG, window=8)).leaf(leaf.data, 0) is None
        assert cache.blob_walk(BLOB_CONFIG).leaf(leaf.data[:-1], 0) is None  # bytes must repeat

    def test_min_size_below_window_never_consults_the_index(self, monkeypatch):
        narrow = ChunkerConfig(window=16, pattern_bits=5, min_size=8, max_size=256)
        consulted: List[str] = []
        for name in ("knows_cuts", "blob_walk", "node_probe", "note_cuts"):
            monkeypatch.setattr(NodeLRU, name, lambda *args, name=name: consulted.append(name))
        data = _text(random.Random(9), 20_000)
        store = NodeCacheStore(InMemoryStore())
        for version in (data, data[:5000] + b"edit" + data[5000:]):
            assert BlobTree.from_bytes(store, version, narrow).root == _cacheless_root(
                version, narrow
            )
        assert consulted == []


def _blocks(tree: BlobTree) -> List[List[Tuple[int, int]]]:
    """Each level-1 node's leaves as ``(start, end)`` byte spans, left to
    right (a one-leaf tree is one block of one)."""
    blocks: List[List[Tuple[int, int]]] = []
    at = 0

    def visit(uid) -> None:
        nonlocal at
        node = tree.node(uid)
        if not isinstance(node, ListIndexNode):
            blocks.append([(0, len(node.data))])
        elif node.level > 1:
            for entry in node.entries:
                visit(entry.child)
        else:
            spans = []
            for entry in node.entries:
                spans.append((at, at + entry.count))
                at += entry.count
            blocks.append(spans)

    visit(tree.root)
    return blocks


def _block_edit(data: bytes, blocks, where: str, which: float, fraction: float,
                cut: int, patch: bytes) -> bytes:
    """Edit ``data`` in one block's first or last leaf, or across the
    boundary after the block; ``len(patch) - cut`` grows or shrinks it."""
    block = blocks[min(int(which * len(blocks)), len(blocks) - 1)]
    start, end = block[0] if where == "first" else block[-1]
    if where == "across":
        at, cut = max(0, end - 8), cut + 16
    else:
        at = start + int(fraction * (end - start))
    return data[:at] + patch + data[at + cut :]


block_edits = st.lists(
    st.tuples(
        st.sampled_from(["first", "last", "across"]),
        st.floats(0, 1),
        st.floats(0, 1),
        st.integers(0, 48),
        st.binary(max_size=80),
    ),
    min_size=1,
    max_size=3,
)


class TestBlocks:
    @pytest.mark.parametrize(
        "config, units, small", [(BLOB_CONFIG, 4, 40), (SMALL, 24, 40)], ids=["blob", "small"]
    )
    @settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow,
              HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**16), versions=st.lists(block_edits, min_size=1, max_size=4))
    def test_edits_at_block_edges_build_cacheless_roots(self, config, units, small, seed, versions):
        data = _base(config, seed, units)
        # node_cache 0 (no cut index), one that evicts mid-build, the default.
        stores = [InMemoryStore(), NodeCacheStore(InMemoryStore(), small),
                  NodeCacheStore(InMemoryStore())]
        trees = [BlobTree.from_bytes(store, data, config) for store in stores]
        assert len(_blocks(trees[-1])) >= 3
        for edits in versions:
            blocks = _blocks(trees[-1])
            for edit in edits:
                data = _block_edit(data, blocks, *edit)
            expected = _cacheless_root(data, config)
            trees = [BlobTree.from_bytes(store, data, config) for store in stores]
            assert [tree.root for tree in trees] == [expected] * len(stores)
            assert trees[1].read() == trees[2].read() == data

    def test_a_block_takes_only_leaves_noted_under_its_own_config(self):
        # The same pattern cuts and a larger max size: the leaves ``a``'s
        # max size closed are no leaves of ``b``'s.  The index tables and
        # the level-1 parents serve both configs.
        a, b = SMALL, replace(SMALL, max_size=2 * SMALL.max_size)
        data = _base(a, 41, 8)
        store = NodeCacheStore(InMemoryStore())
        cache = store.node_cache
        BlobTree.from_bytes(store, data, a)
        b_tree = BlobTree.from_bytes(InMemoryStore(), data, b)
        b_leaves = [leaf.uid for leaf in b_tree.iter_chunks()][:-1]  # closed by b's rules
        # Leaves ``b`` cuts too, each followed in its ``a`` parent by one only ``a`` cuts.
        parents = {node.uid: node for node in cache.parents.values()}.values()
        shared = [
            cache.entries[first.child]
            for node in parents
            for first, then in zip(node.entries, node.entries[1:])
            if first.child in b_leaves and then.child not in b_leaves
        ]
        assert shared
        cache.note_cuts(b, shared)  # true: b's rules close them
        assert BlobTree.from_bytes(store, data, b).root == b_tree.root

    @pytest.mark.parametrize("drop", ["evict", "forget", "swept"])
    def test_a_block_stops_at_a_child_that_went_mid_series(self, drop, monkeypatch):
        rng = random.Random(37)
        data = _text(rng, 400_000)
        store = NodeCacheStore(InMemoryStore())
        cache, physical = store.node_cache, physical_store(store)
        tree = BlobTree.from_bytes(store, data)
        hashed = _spy_hashes(monkeypatch)
        for version in range(5):
            doomed = set()
            if version == 2:
                # A middle child of each of the tree's level-1 nodes goes.
                doomed = {node.entries[len(node.entries) // 2].child
                          for _, node in tree.reachable()
                          if isinstance(node, ListIndexNode) and node.level == 1}
                assert len(doomed) >= 3
                if drop == "evict":
                    for uid in doomed:
                        cache.entries.move_to_end(uid, last=False)
                    cache.capacity = len(cache.entries)
                    cache.remember((chunk.uid, chunk) for chunk in (
                        Chunk(ChunkType.META, b"%d" % n) for n in range(len(doomed))))
                    cache.capacity = 4096
                elif drop == "forget":
                    cache.forget(doomed)
                else:
                    for uid in doomed:
                        physical.delete(uid)
                    physical.notify_swept(list(doomed))
                assert not doomed & (set(cache.entries) | set(cache.cut_keys))
            offset = rng.randrange(len(data) - 32)
            data = data[:offset] + bytes(rng.choices(b"QRS", k=32)) + data[offset + 32 :]
            expected = _cacheless_root(data, BLOB_CONFIG)
            del hashed[:]
            tree = BlobTree.from_bytes(store, data)
            assert tree.root == expected
            # What went is sliced and hashed again; the rest is reused.
            kept = doomed & {leaf.uid for leaf in tree.iter_chunks()}
            assert len(kept) <= len(hashed) <= len(kept) + 3, (len(kept), hashed)
        assert all(physical.has(uid) for uid in tree.page_uids())

    def test_a_32_byte_edit_of_4_mib_probes_about_once_per_block(self, monkeypatch):
        rng = random.Random(43)
        data = _text(rng, 4 << 20)
        store = NodeCacheStore(InMemoryStore())
        tree = BlobTree.from_bytes(store, data)
        probes: List[int] = []
        probe = BlobWalk.leaf

        def spy(walk, data, at):
            probes.append(at)
            return probe(walk, data, at)

        monkeypatch.setattr(BlobWalk, "leaf", spy)
        for offset in (0, 1_234_567, 2_345_678, 3_456_789, len(data) - 20):
            before = {leaf.uid for leaf in tree.iter_chunks()}
            level1 = len(_blocks(tree))
            data = data[:offset] + bytes(rng.choices(b"XYZ ", k=32)) + data[offset + 32 :]
            del probes[:]
            tree = BlobTree.from_bytes(store, data)
            assert tree.root == _cacheless_root(data, BLOB_CONFIG)
            changed = sum(leaf.uid not in before for leaf in tree.iter_chunks())
            assert level1 >= 40 and 1 <= changed <= 3
            assert len(probes) <= level1 + changed + 4, (len(probes), level1, changed)


def _noted(cache: NodeLRU, config: ChunkerConfig = BLOB_CONFIG) -> int:
    """How many nodes ``cache`` has noted under ``config``."""
    return len(cache.cuts.get(config, {}))


class TestLifetime:
    def test_an_entry_goes_when_its_leaf_is_evicted_by_a_write_or_a_fetch(self):
        cache = NodeLRU(capacity=2)
        first, second, third = (Chunk(ChunkType.BLOB, bytes([n]) * 2000) for n in range(3))
        cache.remember([(first.uid, first), (second.uid, second)])
        cache.note_cuts(BLOB_CONFIG, [first, second])
        assert _noted(cache) == 2
        cache.remember([(third.uid, third)])  # a write evicts ``first``
        walk = cache.blob_walk(BLOB_CONFIG)
        assert walk.leaf(first.data, 0) is None and _noted(cache) == 1
        cache.remember_fetched(first.uid, first)  # a fetch evicts the oldest leaf
        assert second.uid not in cache.entries and _noted(cache) == 0
        assert cache.cuts == {}

    def test_an_entry_goes_when_its_leaf_is_forgotten_swept_or_closed(self):
        data = _text(random.Random(11), 60_000)
        for drop in ("forget", "swept", "close", "abandon"):
            store = NodeCacheStore(InMemoryStore())
            tree = BlobTree.from_bytes(store, data)
            uids = [leaf.uid for leaf in tree.iter_chunks()]
            assert _noted(store.node_cache) == len(uids) - 1  # not the end-of-data leaf
            if drop == "forget":
                store.node_cache.forget(uids[:3])
                assert _noted(store.node_cache) == len(uids) - 4
            elif drop == "swept":
                physical_store(store).notify_swept(uids)
                assert _noted(store.node_cache) == 0
                physical_store(store).notify_swept(tree.page_uids())  # the index nodes too
                assert store.node_cache.cuts == {}
            else:
                getattr(store, drop)()
                assert store.node_cache.cuts == {}

    @pytest.mark.parametrize("drop", ["evict", "forget", "swept"])
    def test_a_noted_index_node_goes_with_its_node_mid_series(self, drop):
        rng = random.Random(29)
        data = _text(rng, 120_000)
        store = NodeCacheStore(InMemoryStore(), capacity=4096)
        cache, physical = store.node_cache, physical_store(store)
        for version in range(6):
            offset = rng.randrange(len(data) - 32)
            data = data[:offset] + bytes(rng.choices(b"QRS", k=32)) + data[offset + 32 :]
            tree = BlobTree.from_bytes(store, data, BLOB_CONFIG, TALL)
            assert tree.root == _cacheless_root(data, BLOB_CONFIG, TALL)
            # Every node a key names is cached, and so is every keyed node
            # (a head noted again names the newer node).
            table = cache.cuts.get(TALL.index, {})
            assert table and set(cache.cut_keys) <= set(cache.entries)
            for head, node in table.items():
                assert cache.cut_keys[node.uid] == (TALL.index, head)
                assert cache.entries[node.uid] is node
            if version != 2:
                continue
            noted = [uid for uid, (config, _) in cache.cut_keys.items() if config == TALL.index]
            if drop == "evict":
                doomed = noted
                filler = [Chunk(ChunkType.META, b"%d" % n) for n in range(len(cache.entries))]
                cache.capacity = len(filler)
                cache.remember((chunk.uid, chunk) for chunk in filler)  # every node goes
                cache.capacity = 4096
                assert not cache.leaves and not cache.cuts and not cache.cut_keys
            elif drop == "forget":
                doomed = noted[::2]
                cache.forget(doomed)
            else:
                doomed = noted[::2]
                for uid in doomed:
                    physical.delete(uid)
                physical.notify_swept(doomed)
            assert not set(doomed) & set(cache.cut_keys)
            assert not any(node.uid in doomed for node in cache.cuts.get(TALL.index, {}).values())
        # A swept node the next versions still hold was written again.
        assert all(physical.has(uid) for uid in tree.page_uids())

    def test_a_leaf_gc_swept_is_written_again_by_the_next_put(self):
        db = ForkBase()
        data = _text(random.Random(13), 150_000)
        half = data[:75_000]
        db.put("kept", half)  # its leaves stay live
        uncommitted = BlobTree.from_bytes(db.store, data)  # second half: garbage
        garbage = {leaf.uid for leaf in uncommitted.iter_chunks()} - {
            leaf.uid for leaf in BlobTree(db.store, db.get("kept").root).iter_chunks()
        }
        assert garbage
        assert collect_garbage(db).swept_chunks >= len(garbage)
        physical = physical_store(db.store)
        assert not any(physical.has(uid) for uid in garbage)
        written = physical.stats.puts_new
        again = BlobTree.from_bytes(db.store, data)
        assert again.root == uncommitted.root == _cacheless_root(data, BLOB_CONFIG)
        assert all(physical.has(leaf.uid) for leaf in again.iter_chunks())
        assert physical.stats.puts_new - written >= len(garbage)

    def test_cluster_near_duplicate_puts_match_a_cacheless_build(self, monkeypatch):
        cluster = ClusterStore(
            node_count=4, replication=3, write_quorum=2, transport=PartitionedTransport()
        )
        db = ForkBase(cluster)
        rng = random.Random(17)
        data = _text(rng, 150_000)
        db.put("b", data)
        fed = _spy_kernel(monkeypatch)
        for _ in range(4):
            offset = rng.randrange(len(data) - 32)
            data = data[:offset] + bytes(rng.choices(b"QRS", k=32)) + data[offset + 32 :]
            del fed[:]
            db.put("b", data)
            assert 1 <= len(fed) <= 3 and sum(fed) < len(data) // 2, fed  # no full pass
            assert db.get("b").root == _cacheless_root(data, BLOB_CONFIG)
        assert db.get("b").read() == data
        assert cluster.node_cache.knows_cuts(BLOB_CONFIG)
