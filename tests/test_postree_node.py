"""Tests for POS-Tree node encodings (repro.postree.node)."""

import gc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chunk import Chunk, ChunkType, Reader, Uid
from repro.errors import ChunkEncodingError
from repro.postree import PosTree
from repro.postree.config import TreeConfig
from repro.postree.node import (
    IndexEntry,
    IndexNode,
    LeafNode,
    empty_leaf,
    encode_index_entry,
    encode_leaf_entry,
    load_node,
    node_level,
)
from repro.rolling.chunker import ChunkerConfig
from repro.store import InMemoryStore

# Small nodes, so small hypothesis maps still span several leaves.
SMALL_CONFIG = TreeConfig(
    leaf=ChunkerConfig(pattern_bits=5, min_size=16, max_size=512),
    index=ChunkerConfig(pattern_bits=4, min_size=16, max_size=512, min_entries=2),
)


def _uid(n: int) -> Uid:
    return Uid.of(b"child-%d" % n)


class TestLeafNode:
    def test_round_trip(self):
        entries = [(b"a", b"1"), (b"b", b"2")]
        node = LeafNode(entries)
        decoded = LeafNode.from_chunk(node.to_chunk())
        assert decoded.entries == entries

    def test_uid_stable_across_encodes(self):
        node = LeafNode([(b"k", b"v")])
        assert node.uid == LeafNode([(b"k", b"v")]).uid

    def test_count_and_split_key(self):
        node = LeafNode([(b"a", b""), (b"z", b"")])
        assert node.count == 2
        assert node.split_key() == b"z"

    def test_descriptor(self):
        node = LeafNode([(b"m", b"v")])
        descriptor = node.descriptor()
        assert descriptor.split_key == b"m"
        assert descriptor.child == node.uid
        assert descriptor.count == 1

    def test_find_binary_search(self):
        entries = [(b"k%02d" % i, b"v%d" % i) for i in range(50)]
        tree = _leaf_tree(LeafNode(entries))
        assert tree.get(b"k25") == b"v25"
        assert tree.get(b"k00") == b"v0"
        assert tree.get(b"k49") == b"v49"
        assert tree.get(b"nope") is None

    def test_empty_leaf(self):
        node = empty_leaf()
        assert node.count == 0
        assert node.split_key() == b""
        assert LeafNode.from_chunk(node.to_chunk()).entries == []

    def test_entry_bytes_match_encoder(self):
        entry = (b"k", b"v")
        node = LeafNode([entry])
        assert node.entry_bytes() == [encode_leaf_entry(entry)]

    def test_tail_bytes(self):
        entries = [(b"a" * 10, b"b" * 10) for _ in range(3)]
        node = LeafNode(entries)
        stream = b"".join(node.entry_bytes())
        assert node.tail_bytes(16) == stream[-16:]
        assert node.tail_bytes(10_000) == stream[-10_000:]

    def test_wrong_chunk_type_rejected(self):
        with pytest.raises(ChunkEncodingError):
            LeafNode.from_chunk(Chunk(ChunkType.BLOB, b"raw"))

    def test_decoded_records_are_plain_untracked_tuples(self):
        # A tuple subclass per record (a NamedTuple) costs a second
        # allocation and stays in the collector's sight for good.
        entries = [(b"k%03d" % i, b"v" * i) for i in range(200)]
        decoded = LeafNode.from_chunk(LeafNode(entries).to_chunk()).entries
        assert decoded == entries
        assert all(type(entry) is tuple for entry in decoded)
        gc.collect()
        assert not any(gc.is_tracked(entry) for entry in decoded)


class TestIndexNode:
    def _node(self, level=1, n=3):
        entries = [IndexEntry(b"k%02d" % (i * 10), _uid(i), 5) for i in range(n)]
        return IndexNode(level, entries)

    def test_round_trip(self):
        node = self._node()
        decoded = IndexNode.from_chunk(node.to_chunk())
        assert decoded.level == node.level
        assert decoded.entries == node.entries

    def test_level_validation(self):
        with pytest.raises(ValueError):
            IndexNode(0, [])

    def test_count_aggregates_children(self):
        assert self._node(n=4).count == 20

    def test_child_for_routing(self):
        node = self._node(n=3)  # split keys k00, k10, k20
        assert node.child_for(b"k00") == 0
        assert node.child_for(b"k05") == 1
        assert node.child_for(b"k10") == 1
        assert node.child_for(b"k11") == 2
        assert node.child_for(b"k20") == 2
        # Keys beyond the last split route to the last child (insert pos).
        assert node.child_for(b"zzz") == 2

    def test_entry_bytes_match_encoder(self):
        node = self._node(n=2)
        assert node.entry_bytes() == [
            encode_index_entry(entry) for entry in node.entries
        ]

    def test_descriptor(self):
        node = self._node(n=3)
        descriptor = node.descriptor()
        assert descriptor.split_key == b"k20"
        assert descriptor.count == 15

    def test_levels_hash_differently(self):
        entries = [IndexEntry(b"k", _uid(0), 1)]
        assert IndexNode(1, entries).uid != IndexNode(2, entries).uid


class TestLoadNode:
    def test_dispatches_by_type(self):
        leaf = LeafNode([(b"a", b"b")])
        index = IndexNode(1, [IndexEntry(b"a", leaf.uid, 1)])
        assert isinstance(load_node(leaf.to_chunk()), LeafNode)
        assert isinstance(load_node(index.to_chunk()), IndexNode)

    def test_rejects_non_node(self):
        with pytest.raises(ChunkEncodingError):
            load_node(Chunk(ChunkType.FNODE, b"x"))

    def test_node_level(self):
        leaf = LeafNode([])
        index = IndexNode(3, [IndexEntry(b"a", leaf.uid, 0)])
        assert node_level(leaf) == 0
        assert node_level(index) == 3


# -- one-pass decoders ≡ the Reader-based ones they replaced ------------------
#
# The reference below is the decoder (and the two binary searches) this
# module had before the single-pass rewrite, kept here as the oracle.


def _reference_leaf(chunk: Chunk) -> LeafNode:
    reader = Reader(chunk.data)
    count = reader.uvarint()
    entries = [(reader.blob(), reader.blob()) for _ in range(count)]
    reader.expect_end()
    return LeafNode(entries)


def _reference_index(chunk: Chunk) -> IndexNode:
    reader = Reader(chunk.data)
    level = reader.uvarint()
    count = reader.uvarint()
    entries = [
        IndexEntry(reader.blob(), reader.uid(), reader.uvarint()) for _ in range(count)
    ]
    reader.expect_end()
    return IndexNode(level, entries)


def _reference_search(entries, key: bytes) -> int:
    """First position whose key is >= ``key`` (the old hand-written loop)."""
    lo, hi = 0, len(entries)
    while lo < hi:
        mid = (lo + hi) // 2
        if entries[mid][0] < key:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _leaf_tree(node: LeafNode) -> PosTree:
    """A one-leaf tree: ``PosTree.get`` searches the leaf in place."""
    store = InMemoryStore()
    store.put(node.to_chunk())
    return PosTree(store, node.uid)


def _reference_find(node: LeafNode, key: bytes):
    lo = _reference_search(node.entries, key)
    if lo < len(node.entries) and node.entries[lo][0] == key:
        return node.entries[lo][1]
    return None


def _reference_child_for(node: IndexNode, key: bytes) -> int:
    lo = _reference_search(node.entries, key)
    return lo - 1 if lo == len(node.entries) else lo


def _assert_same_node(new, reference, canonical: bool = True) -> None:
    assert type(new) is type(reference)
    assert new.entries == reference.entries
    assert all(type(entry) is type(ref) for entry, ref in zip(new.entries, reference.entries))
    assert node_level(new) == node_level(reference)
    if not canonical:
        return
    # The reference node re-encodes itself; the new one kept the chunk it
    # was decoded from.  For a payload an encoder wrote they are the same.
    assert new.uid == reference.uid
    for window in (0, 1, 16, 48, 10_000):
        assert new.tail_bytes(window) == reference.tail_bytes(window)


def _assert_both_reject(decode, reference, chunk: Chunk) -> None:
    with pytest.raises(ChunkEncodingError):
        reference(chunk)
    with pytest.raises(ChunkEncodingError):
        decode(chunk)


# Lengths on both sides of every varint width the format meets: 0, one
# byte (< 128), two bytes (keys >= 128 B), three (values >= 16 KiB).
_key = st.one_of(st.binary(max_size=12), st.binary(min_size=128, max_size=140))
_value = st.one_of(
    st.binary(max_size=40),
    st.binary(min_size=128, max_size=200),
    st.integers(16_384, 16_500).map(lambda size: b"v" * size),
)
_leaf_entries = st.one_of(
    st.dictionaries(_key, _value, max_size=12),
    # counts >= 128: a two-byte count varint
    st.integers(128, 300).flatmap(
        lambda count: st.dictionaries(
            st.binary(min_size=1, max_size=6), st.binary(max_size=3),
            min_size=count, max_size=count + 8,
        )
    ),
).map(lambda mapping: [(k, mapping[k]) for k in sorted(mapping)])

_index_entries = st.dictionaries(
    _key,
    # subtree counts >= 2**14 take three bytes
    st.tuples(st.integers(0, 10**6), st.one_of(st.integers(0, 200), st.integers(2**14, 2**40))),
    max_size=12,
).map(lambda mapping: [IndexEntry(k, _uid(mapping[k][0]), mapping[k][1]) for k in sorted(mapping)])
_level = st.one_of(st.integers(1, 5), st.integers(128, 300))

_probe_settings = settings(max_examples=60, deadline=None, suppress_health_check=list(HealthCheck))


class TestDecodersMatchReference:
    @given(entries=_leaf_entries)
    @_probe_settings
    def test_leaf_decode(self, entries):
        chunk = LeafNode(entries).to_chunk()
        _assert_same_node(LeafNode.from_chunk(chunk), _reference_leaf(chunk))
        _assert_same_node(load_node(chunk), _reference_leaf(chunk))

    @given(level=_level, entries=_index_entries)
    @_probe_settings
    def test_index_decode(self, level, entries):
        chunk = IndexNode(level, entries).to_chunk()
        _assert_same_node(IndexNode.from_chunk(chunk), _reference_index(chunk))
        _assert_same_node(load_node(chunk), _reference_index(chunk))

    def test_index_of_two_to_the_fourteen_children(self):
        entries = [IndexEntry(b"%05d" % i, _uid(i % 7), i) for i in range(2**14 + 3)]
        chunk = IndexNode(2, entries).to_chunk()
        _assert_same_node(IndexNode.from_chunk(chunk), _reference_index(chunk))

    @given(
        entries=_leaf_entries.filter(lambda entries: len(entries) < 20),
        garbage=st.binary(min_size=1, max_size=5),
    )
    @_probe_settings
    def test_leaf_truncation_and_garbage(self, entries, garbage):
        data = LeafNode(entries).to_chunk().data
        # Every cut point for small payloads; a spread of them for large.
        cuts = range(len(data)) if len(data) < 600 else range(0, len(data), len(data) // 97)
        for cut in cuts:
            _assert_both_reject(
                LeafNode.from_chunk, _reference_leaf, Chunk(ChunkType.LEAF, data[:cut])
            )
        _assert_both_reject(
            LeafNode.from_chunk, _reference_leaf, Chunk(ChunkType.LEAF, data + garbage)
        )

    @given(level=_level, entries=_index_entries, garbage=st.binary(min_size=1, max_size=5))
    @_probe_settings
    def test_index_truncation_and_garbage(self, level, entries, garbage):
        data = IndexNode(level, entries).to_chunk().data
        for cut in range(len(data)):
            _assert_both_reject(
                IndexNode.from_chunk, _reference_index, Chunk(ChunkType.INDEX, data[:cut])
            )
        _assert_both_reject(
            IndexNode.from_chunk, _reference_index, Chunk(ChunkType.INDEX, data + garbage)
        )

    @given(data=st.binary(max_size=80))
    @_probe_settings
    def test_arbitrary_bytes_agree(self, data):
        """Garbage in: the same entries out, or ChunkEncodingError from
        both — never an IndexError or a ValueError of the new decoder's own."""
        for kind, decode, reference in (
            (ChunkType.LEAF, LeafNode.from_chunk, _reference_leaf),
            (ChunkType.INDEX, IndexNode.from_chunk, _reference_index),
        ):
            chunk = Chunk(kind, data)
            try:
                expected = reference(chunk)
            except (ChunkEncodingError, ValueError) as exc:
                # ValueError: IndexNode refuses level 0, both ways alike.
                with pytest.raises(type(exc)):
                    decode(chunk)
            else:
                # Padded varints decode; nothing encodes them back.
                _assert_same_node(decode(chunk), expected, canonical=False)

    def test_overlong_varint_rejected(self):
        for kind, decode, reference in (
            (ChunkType.LEAF, LeafNode.from_chunk, _reference_leaf),
            (ChunkType.INDEX, IndexNode.from_chunk, _reference_index),
        ):
            _assert_both_reject(decode, reference, Chunk(kind, b"\x80" * 19 + b"\x01"))
            _assert_both_reject(decode, reference, Chunk(kind, b"\x01" + b"\xff" * 19 + b"\x01"))


class TestLookupsMatchReference:
    @given(entries=_leaf_entries, probes=st.lists(_key, max_size=8))
    @_probe_settings
    def test_find(self, entries, probes):
        node = LeafNode(entries)
        tree = _leaf_tree(node)
        keys = [key for key, _ in entries]
        edges = [b""] + [keys[0][:-1], keys[-1] + b"\x00"] if keys else [b""]
        for key in keys[:40] + probes + edges:
            assert tree.get(key) == _reference_find(node, key)

    @given(entries=_index_entries, probes=st.lists(_key, max_size=8))
    @_probe_settings
    def test_child_for(self, entries, probes):
        node = IndexNode(1, entries)
        keys = [entry.split_key for entry in entries]
        edges = [b""] + [keys[0][:-1], keys[-1] + b"\x00"] if keys else [b""]
        for key in keys + probes + edges:
            assert node.child_for(key) == _reference_child_for(node, key)

    @given(
        mapping=st.dictionaries(
            st.binary(min_size=1, max_size=8), st.binary(max_size=30), max_size=150
        ),
        bounds=st.lists(
            st.tuples(
                st.one_of(st.none(), st.binary(max_size=8)),
                st.one_of(st.none(), st.binary(max_size=8)),
            ),
            min_size=1, max_size=6,
        ),
    )
    @_probe_settings
    def test_iter_entries_is_the_per_entry_filter(self, mapping, bounds):
        tree = PosTree.from_pairs(InMemoryStore(), mapping.items(), SMALL_CONFIG)
        everything = sorted(mapping.items())
        # Bounds that are keys of the tree hit the leaf-edge cases.
        keys = [key for key, _ in everything]
        bounds = bounds + [(keys[len(keys) // 3], keys[-1])] if keys else bounds
        for start, end in bounds:
            expected = [
                (key, value) for key, value in everything
                if (start is None or key >= start) and (end is None or key < end)
            ]
            assert list(tree.iter_entries(start, end)) == expected
