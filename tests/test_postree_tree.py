"""Tests for POS-Tree construction and reads (repro.postree.tree/builder)."""

import random

import pytest

from repro.errors import KeyOrderError, TreeError
from repro.postree import PosTree
from repro.postree.builder import bulk_build
from repro.postree.config import DEFAULT_TREE_CONFIG, TreeConfig
from repro.postree.listtree import BlobTree
from repro.postree.node import IndexNode, node_level
from repro.postree.tree import LevelCursor
from repro.rolling.chunker import ChunkerConfig
from repro.store import InMemoryStore
from repro.store.nodecache import NodeCacheStore

#: Small nodes, so a few thousand records make a tree four or five levels tall.
SMALL_CONFIG = TreeConfig(
    leaf=ChunkerConfig(pattern_bits=5, min_size=16, max_size=512),
    index=ChunkerConfig(pattern_bits=4, min_size=16, max_size=512, min_entries=2),
)


def _descend(tree: PosTree, key: bytes):
    """The per-level descent ``PosTree.get`` inlines: ``node``, then
    ``child_for`` at each index node, then the leaf's record for ``key``."""
    node = tree.node(tree.root)
    while isinstance(node, IndexNode):
        if not node.entries:
            return None
        node = tree.node(node.entries[node.child_for(key)].child)
    return dict(node.entries).get(key)


def _position(cursor: LevelCursor):
    """Where a cursor stands: its node, its path's frames and its offset."""
    frames = [(parent.uid, pos) for parent, pos in cursor.path()]
    return cursor.current.uid, frames, cursor.offset


def _stepped(cursor: LevelCursor):
    """A level read one ``advance()`` at a time, as positions."""
    positions = [_position(cursor)]
    while cursor.advance():
        positions.append(_position(cursor))
    return positions


def _streamed(cursor: LevelCursor):
    """The same level read through ``nodes()``, as positions."""
    positions = []
    for node in cursor.nodes():
        assert node is cursor.current
        positions.append(_position(cursor))
    return positions


class _CountingStore(InMemoryStore):
    """Records the uid of every ``get_node`` call, in order."""

    def __init__(self) -> None:
        super().__init__()
        self.reads = []

    def get_node(self, uid):
        self.reads.append(uid)
        return super().get_node(uid)


class TestBulkBuild:
    def test_empty_tree(self, store):
        tree = PosTree.empty(store)
        assert len(tree) == 0
        assert tree.get(b"anything") is None
        assert list(tree.items()) == []
        assert tree.height() == 0

    def test_single_entry(self, store):
        tree = PosTree.from_pairs(store, [(b"k", b"v")])
        assert len(tree) == 1
        assert tree.get(b"k") == b"v"

    def test_many_entries(self, store, sample_pairs):
        tree = PosTree.from_pairs(store, sample_pairs.items())
        assert len(tree) == len(sample_pairs)
        assert tree.height() >= 1
        tree.check_structure()

    def test_unsorted_input_is_sorted(self, store):
        tree = PosTree.from_pairs(store, [(b"z", b"1"), (b"a", b"2")])
        assert list(tree.keys()) == [b"a", b"z"]

    def test_duplicate_keys_last_wins(self, store):
        tree = PosTree.from_pairs(store, [(b"k", b"old"), (b"k", b"new")])
        assert tree.get(b"k") == b"new"
        assert len(tree) == 1

    def test_presorted_rejects_disorder(self, store):
        with pytest.raises(KeyOrderError):
            bulk_build(
                store,
                [(b"b", b""), (b"a", b"")],
                DEFAULT_TREE_CONFIG,
            )

    def test_same_content_same_root(self, store, sample_pairs):
        t1 = PosTree.from_pairs(store, sample_pairs.items())
        t2 = PosTree.from_pairs(store, reversed(list(sample_pairs.items())))
        assert t1.root == t2.root

    def test_different_stores_same_root(self, sample_pairs):
        from repro.store import InMemoryStore

        t1 = PosTree.from_pairs(InMemoryStore(), sample_pairs.items())
        t2 = PosTree.from_pairs(InMemoryStore(), sample_pairs.items())
        assert t1.root == t2.root


class TestPointReads:
    def test_get_every_key(self, store, sample_pairs):
        tree = PosTree.from_pairs(store, sample_pairs.items())
        for key, value in list(sample_pairs.items())[::37]:
            assert tree.get(key) == value

    def test_get_missing(self, store, sample_pairs):
        tree = PosTree.from_pairs(store, sample_pairs.items())
        assert tree.get(b"absent") is None
        assert tree.get(b"") is None
        assert tree.get(b"zzzzzz") is None

    def test_contains(self, store, small_pairs):
        tree = PosTree.from_pairs(store, small_pairs.items())
        assert b"k001" in tree
        assert b"nope" not in tree

    @pytest.mark.parametrize("cached", [False, True], ids=["cacheless", "node-cache"])
    def test_get_matches_the_per_level_descent(self, sample_pairs, cached):
        backing = InMemoryStore()
        # A cache smaller than the tree: the descent meets hits and misses.
        store = NodeCacheStore(backing, capacity=16) if cached else backing
        tree = PosTree.from_pairs(store, sample_pairs.items(), SMALL_CONFIG)
        assert tree.height() >= 3
        keys = sorted(sample_pairs)
        probes = keys + [b"", keys[0][:-1], keys[-1] + b"\x00", b"key01000x", b"\xff" * 9]
        for key in probes:
            assert tree.get(key) == _descend(tree, key) == sample_pairs.get(key)

    def test_get_on_the_empty_tree(self, store):
        tree = PosTree.empty(store)
        assert tree.get(b"") is None
        assert tree.get(b"any") is None


class TestScans:
    def test_items_in_key_order(self, store, sample_pairs):
        tree = PosTree.from_pairs(store, sample_pairs.items())
        keys = [key for key, _ in tree.items()]
        assert keys == sorted(sample_pairs)

    def test_range_scan(self, store, sample_pairs):
        tree = PosTree.from_pairs(store, sample_pairs.items())
        got = [key for key, _ in tree.iter_entries(b"key00500", b"key00510")]
        expected = [k for k in sorted(sample_pairs) if b"key00500" <= k < b"key00510"]
        assert got == expected

    def test_range_scan_open_ended(self, store, small_pairs):
        tree = PosTree.from_pairs(store, small_pairs.items())
        assert len(list(tree.iter_entries(start=b"k030"))) == 10
        assert len(list(tree.iter_entries(end=b"k010"))) == 10

    def test_range_scan_empty_window(self, store, small_pairs):
        tree = PosTree.from_pairs(store, small_pairs.items())
        assert list(tree.iter_entries(b"m", b"n")) == []

    def test_leaves_partition_entries(self, store, sample_pairs):
        tree = PosTree.from_pairs(store, sample_pairs.items())
        total = sum(leaf.count for leaf in tree.leaves())
        assert total == len(sample_pairs)

    @pytest.mark.parametrize("start", [None, b"key00100", b"key01234"])
    def test_walk_matches_a_stepped_cursor(self, sample_pairs, start):
        # ``nodes()`` reads the nodes ``advance()`` would, in its order, and
        # holds the cursor on the same path: a node cache ends the walk in
        # the state a stepped walk leaves it in.
        store = _CountingStore()
        tree = PosTree.from_pairs(store, sample_pairs.items(), SMALL_CONFIG)
        assert tree.height() >= 3
        store.reads.clear()
        stepped = _stepped(tree.cursor(start))
        stepped_reads = store.reads[:]
        store.reads.clear()
        assert _streamed(tree.cursor(start)) == stepped
        assert store.reads == stepped_reads
        store.reads.clear()
        assert [leaf.uid for leaf in tree.leaves(start)] == [uid for uid, _, _ in stepped]
        assert store.reads == stepped_reads
        if start is None:
            assert sorted(store.reads) == sorted(tree.page_uids())
        upper = LevelCursor(tree.node, 1, tree.node(tree.root), start)
        assert _streamed(upper) == _stepped(LevelCursor(tree.node, 1, tree.node(tree.root), start))

    @pytest.mark.parametrize("offset", [None, 12_345])
    def test_blob_walk_matches_a_stepped_cursor(self, offset):
        data = random.Random(3).randbytes(40_000)
        store = _CountingStore()
        blob = BlobTree.from_bytes(
            store, data, ChunkerConfig(pattern_bits=7, min_size=64, max_size=512), SMALL_CONFIG
        )
        assert node_level(blob.node(blob.root)) >= 2
        store.reads.clear()
        stepped = _stepped(blob.cursor(offset))
        stepped_reads = store.reads[:]
        store.reads.clear()
        assert _streamed(blob.cursor(offset)) == stepped
        assert store.reads == stepped_reads
        if offset is None:
            store.reads.clear()
            assert [chunk.uid for chunk in blob.iter_chunks()] == [uid for uid, _, _ in stepped]
            assert store.reads == stepped_reads
            assert sorted(store.reads) == sorted(blob.page_uids())
            assert blob.read() == data


class TestStructure:
    def test_check_structure_passes(self, store, sample_pairs):
        tree = PosTree.from_pairs(store, sample_pairs.items())
        tree.check_structure()

    def test_check_structure_catches_bad_count(self, store, small_pairs):
        tree = PosTree.from_pairs(store, small_pairs.items())
        root = tree.root_node()
        if isinstance(root, IndexNode):
            from repro.postree.node import IndexEntry

            bad = IndexNode(
                root.level,
                [IndexEntry(e.split_key, e.child, e.count + 1) for e in root.entries],
            )
            store.put(bad.to_chunk())
            with pytest.raises(TreeError):
                tree.with_root(bad.uid).check_structure()

    def test_node_count_by_level(self, store, sample_pairs):
        tree = PosTree.from_pairs(store, sample_pairs.items())
        counts = tree.node_count_by_level()
        assert counts[0] > 1  # multiple leaves
        assert max(counts) == tree.height()
        assert counts[max(counts)] == 1  # single root

    def test_page_uids_closed_under_children(self, store, sample_pairs):
        tree = PosTree.from_pairs(store, sample_pairs.items())
        pages = tree.page_uids()
        assert tree.root in pages
        for uid in pages:
            node = tree.node(uid)
            if isinstance(node, IndexNode):
                for entry in node.entries:
                    assert entry.child in pages

    def test_len_matches_root_aggregate(self, store, sample_pairs):
        tree = PosTree.from_pairs(store, sample_pairs.items())
        assert len(tree) == sum(1 for _ in tree.items())


class TestConfigScaling:
    def test_scaled_config_changes_structure(self, store, sample_pairs):
        small = TreeConfig().scaled(leaf_target=256)
        large = TreeConfig().scaled(leaf_target=8192)
        t_small = PosTree.from_pairs(store, sample_pairs.items(), small)
        t_large = PosTree.from_pairs(store, sample_pairs.items(), large)
        assert t_small.node_count_by_level()[0] > t_large.node_count_by_level()[0]
        # Content identical regardless of chunking parameters.
        assert list(t_small.items()) == list(t_large.items())


class TestConvergenceGuarantee:
    def test_adversarial_content_still_converges(self, store):
        """Regression: with tiny pattern_bits, random-byte entries fire a
        pattern inside almost every index entry; without min_entries >= 2
        the build loops forever stacking single-entry levels."""
        import random

        from repro.postree.config import TreeConfig
        from repro.rolling.chunker import ChunkerConfig

        config = TreeConfig(
            leaf=ChunkerConfig(pattern_bits=5, min_size=16, max_size=512),
            index=ChunkerConfig(pattern_bits=4, min_size=16, max_size=512,
                                min_entries=2),
        )
        rng = random.Random(7)
        mapping = {
            bytes(rng.randrange(256) for _ in range(rng.randint(1, 24))):
            bytes(rng.randrange(256) for _ in range(rng.randint(0, 40)))
            for _ in range(120)
        }
        tree = PosTree.from_pairs(store, mapping.items(), config)
        assert list(tree.items()) == sorted(mapping.items())
        assert tree.height() < 20  # converged, not a degenerate chain
        tree.check_structure()

    def test_unsafe_index_config_rejected(self):
        """TreeConfig refuses index chunkers that cannot guarantee
        convergence."""
        from repro.postree.config import TreeConfig
        from repro.rolling.chunker import ChunkerConfig

        with pytest.raises(ValueError):
            TreeConfig(
                leaf=ChunkerConfig(pattern_bits=5, min_size=16, max_size=512),
                index=ChunkerConfig(pattern_bits=4, min_size=16, max_size=512,
                                    min_entries=1),
            )
