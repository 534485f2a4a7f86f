"""Tests for positional trees and blob trees (repro.postree.listtree)."""

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chunk import Chunk, ChunkType
from repro.errors import ChunkEncodingError
from repro.postree.listtree import BlobTree, PositionalTree
from repro.postree.node import ListIndexNode, ListLeafNode, load_node, node_level
from repro.postree.tree import PosTree
from repro.store import InMemoryStore, NodeCacheStore
from repro.types import FList


def _items(n, seed=0):
    rng = random.Random(seed)
    return [b"item-%05d-%s" % (i, bytes([97 + rng.randrange(26)]) * rng.randrange(12))
            for i in range(n)]


class TestPositionalTree:
    def test_round_trip(self, store):
        items = _items(2500)
        tree = PositionalTree.from_items(store, items)
        assert len(tree) == 2500
        assert tree.items() == items

    def test_empty(self, store):
        tree = PositionalTree.from_items(store, [])
        assert len(tree) == 0
        assert tree.items() == []

    def test_get_by_position(self, store):
        items = _items(1000)
        tree = PositionalTree.from_items(store, items)
        for position in (0, 1, 499, 998, 999):
            assert tree.get(position) == items[position]

    def test_negative_indexing(self, store):
        items = _items(100)
        tree = PositionalTree.from_items(store, items)
        assert tree.get(-1) == items[-1]
        assert tree.get(-100) == items[0]

    def test_out_of_range(self, store):
        tree = PositionalTree.from_items(store, _items(10))
        with pytest.raises(IndexError):
            tree.get(10)
        with pytest.raises(IndexError):
            tree.get(-11)

    def test_iter_window(self, store):
        items = _items(1000)
        tree = PositionalTree.from_items(store, items)
        assert list(tree.iter_items(200, 210)) == items[200:210]
        assert list(tree.iter_items(995)) == items[995:]
        assert list(tree.iter_items(5, 5)) == []

    def test_structural_invariance(self, store):
        items = _items(1500, seed=1)
        direct = PositionalTree.from_items(store, items)
        grown = PositionalTree.from_items(store, items[:700]).extend(items[700:])
        assert direct.root == grown.root

    @pytest.mark.parametrize(
        "op",
        [
            lambda t, items: (t.append(b"TAIL"), items + [b"TAIL"]),
            lambda t, items: (t.insert(0, b"HEAD"), [b"HEAD"] + items),
            lambda t, items: (t.insert(500, b"MID"), items[:500] + [b"MID"] + items[500:]),
            lambda t, items: (t.delete(500), items[:500] + items[501:]),
            lambda t, items: (t.set(500, b"SET"), items[:500] + [b"SET"] + items[501:]),
        ],
    )
    def test_edit_operations_match_reference(self, store, op):
        items = _items(1000, seed=2)
        tree = PositionalTree.from_items(store, items)
        edited, expected = op(tree, items)
        assert edited.items() == expected
        assert edited.root == PositionalTree.from_items(store, expected).root

    def test_splice_range(self, store):
        items = _items(800, seed=3)
        tree = PositionalTree.from_items(store, items)
        edited = tree.splice(100, 200, [b"ONE", b"TWO"])
        expected = items[:100] + [b"ONE", b"TWO"] + items[200:]
        assert edited.items() == expected

    def test_splice_bounds_checked(self, store):
        tree = PositionalTree.from_items(store, _items(10))
        with pytest.raises(IndexError):
            tree.splice(5, 3)
        with pytest.raises(IndexError):
            tree.splice(0, 11)

    def test_edit_storage_locality(self, store):
        items = _items(3000, seed=4)
        tree = PositionalTree.from_items(store, items)
        edited = tree.set(1500, b"POKE")
        shared = tree.page_uids() & edited.page_uids()
        assert len(shared) >= 0.8 * len(tree.page_uids())


class TestBlobTree:
    def test_round_trip(self, store):
        data = random.Random(150).randbytes(150_000)
        blob = BlobTree.from_bytes(store, data)
        assert blob.read() == data
        assert blob.size() == len(data)

    def test_empty_blob(self, store):
        blob = BlobTree.from_bytes(store, b"")
        assert blob.read() == b""
        assert blob.size() == 0

    def test_small_blob_single_chunk(self, store):
        blob = BlobTree.from_bytes(store, b"tiny")
        assert blob.read() == b"tiny"

    def test_read_at(self, store):
        data = random.Random(80).randbytes(80_000)
        blob = BlobTree.from_bytes(store, data)
        assert blob.read_at(0, 10) == data[:10]
        assert blob.read_at(40_000, 1000) == data[40_000:41_000]
        assert blob.read_at(79_990, 100) == data[79_990:]

    def test_splice_replaces_bytes(self, store):
        data = random.Random(100).randbytes(100_000)
        blob = BlobTree.from_bytes(store, data)
        edited = blob.splice(500, 600, b"REPLACEMENT")
        assert edited.read() == data[:500] + b"REPLACEMENT" + data[600:]

    def test_one_byte_edit_shares_chunks(self, store):
        data = random.Random(200).randbytes(200_000)
        blob = BlobTree.from_bytes(store, data)
        edited = blob.splice(100_000, 100_001, b"Z")
        shared = blob.page_uids() & edited.page_uids()
        assert len(shared) >= 0.7 * len(blob.page_uids())

    def test_structural_invariance_via_splice(self, store):
        data = random.Random(60).randbytes(60_000)
        edited = data[:30_000] + b"X" + data[30_000:]
        direct = BlobTree.from_bytes(store, edited)
        spliced = BlobTree.from_bytes(store, data).splice(30_000, 30_000, b"X")
        assert direct.root == spliced.root

    def test_identical_blobs_share_all_pages(self, store):
        data = random.Random(50).randbytes(50_000)
        blob_1 = BlobTree.from_bytes(store, data)
        blob_2 = BlobTree.from_bytes(store, bytes(data))
        assert blob_1.root == blob_2.root
        assert blob_1.page_uids() == blob_2.page_uids()


def _gets(store):
    return store.stats.gets + store.stats.misses


SMALL = random.Random(70).randbytes(70_000)


@functools.lru_cache(maxsize=None)
def _small_blob():
    return BlobTree.from_bytes(InMemoryStore(), SMALL)


@functools.lru_cache(maxsize=None)
def _small_list():
    items = _items(2_000, seed=11)
    return items, FList.from_items(InMemoryStore(), items)


class TestReadsFetchWhatTheyReturn:
    """A positional read descends by cumulative count to where it starts:
    what lies before ``offset`` / ``start`` is never fetched."""

    #: Seed 0 chunks into a height-2 tree of 118 leaves (``_blob``'s precondition).
    DATA = random.Random(0).randbytes(600_000)

    def _blob(self):
        store = InMemoryStore()
        blob = BlobTree.from_bytes(store, self.DATA)
        height = node_level(blob.node(blob.root))
        assert height >= 2  # multi-level: index nodes over index nodes
        assert len(blob.page_uids()) > 100
        return store, blob, height

    def test_tail_read_costs_one_path(self):
        store, blob, height = self._blob()
        before = _gets(store)
        assert blob.read_at(len(self.DATA) - 100, 100) == self.DATA[-100:]
        assert _gets(store) - before <= height + 2

    def test_any_short_read_costs_one_path(self):
        store, blob, height = self._blob()
        for offset in (0, 4096, 300_000, 599_000):
            before = _gets(store)
            assert blob.read_at(offset, 100) == self.DATA[offset : offset + 100]
            assert _gets(store) - before <= height + 2

    def test_late_slice_of_a_list_costs_one_path(self):
        store = InMemoryStore()
        items = _items(30_000, seed=9)
        flist = FList.from_items(store, items)
        tree = PositionalTree(store, flist.root)
        height = node_level(tree.node(tree.root))
        assert height >= 2
        before = _gets(store)
        assert flist.slice(29_990) == items[29_990:]
        # ``len`` reads the root once more than the descent does.
        assert _gets(store) - before <= height + 3
        before = _gets(store)
        assert flist.slice(20_000, 20_005) == items[20_000:20_005]
        assert _gets(store) - before <= height + 3
        assert flist[29_999] == items[-1]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 75_000), st.integers(0, 75_000))
    def test_read_at_is_a_slice_of_read(self, offset, length):
        assert _small_blob().read_at(offset, length) == SMALL[offset : offset + length]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2_000), st.one_of(st.none(), st.integers(-5, 2_100)))
    def test_slice_is_a_slice_of_the_list(self, start, stop):
        items, flist = _small_list()
        assert flist.slice(start, stop) == items[start:stop if stop is None else max(stop, 0)]

    def test_bounds(self):
        blob = _small_blob()
        assert blob.read_at(len(SMALL), 10) == b""
        assert blob.read_at(10**9, 10) == b""
        assert blob.read_at(5, 0) == b""
        with pytest.raises(IndexError):
            blob.read_at(-1, 5)
        with pytest.raises(IndexError):
            blob.read_at(0, -1)
        single = BlobTree.from_bytes(InMemoryStore(), b"tiny")
        assert single.read_at(2, 10) == b"ny" and single.read_at(9, 1) == b""


class TestOneNodeSeam:
    """Every tree decodes through ``postree.node.load_node``; each view
    names the node classes it accepts."""

    def test_load_node_decodes_positional_kinds(self, store):
        tree = PositionalTree.from_items(store, _items(2_000))
        root = load_node(store.get(tree.root))
        assert isinstance(root, ListIndexNode)
        leaf = load_node(store.get(root.children()[0]))
        while isinstance(leaf, ListIndexNode):
            leaf = load_node(store.get(leaf.children()[0]))
        assert isinstance(leaf, ListLeafNode)
        blob_leaf = Chunk(ChunkType.BLOB, b"payload")
        assert load_node(blob_leaf) is blob_leaf  # its own decoded form

    def test_encode_once_matches_plain_encoding(self, store):
        tree = PositionalTree.from_items(store, _items(2_000))
        for _uid, node in tree.reachable():
            fresh = (
                ListIndexNode(node.level, node.entries)
                if isinstance(node, ListIndexNode)
                else ListLeafNode(node.entries)
            )
            assert fresh.to_chunk().data == node.to_chunk().data

    @pytest.mark.parametrize("cached", [False, True], ids=["plain", "node-cache"])
    def test_a_handle_on_the_wrong_kind_of_root_raises(self, cached):
        store = NodeCacheStore(InMemoryStore(), 64) if cached else InMemoryStore()
        keyed = PosTree.from_pairs(store, {b"k%04d" % i: b"v" for i in range(500)}.items())
        listed = PositionalTree.from_items(store, _items(500))
        blob = BlobTree.from_bytes(store, random.Random(30).randbytes(30_000))
        with pytest.raises(ChunkEncodingError):
            PosTree(store, listed.root).get(b"k0001")
        with pytest.raises(ChunkEncodingError):
            PosTree(store, blob.root).get(b"k0001")
        with pytest.raises(ChunkEncodingError):
            PosTree(store, blob.root).page_uids()
        with pytest.raises(ChunkEncodingError):
            len(PositionalTree(store, keyed.root))
        with pytest.raises(ChunkEncodingError):
            PositionalTree(store, blob.root).items()
        with pytest.raises(ChunkEncodingError):
            BlobTree(store, keyed.root).read()
        # A list index node is a positional index node too, but its
        # leaves are not blob chunks: the read fails where it reaches one.
        with pytest.raises(ChunkEncodingError):
            BlobTree(store, listed.root).read()
