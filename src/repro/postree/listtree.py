"""Positional POS-Trees: ordered sequences and blobs.

Lists and blobs have no keys, so their trees index by *position*: index
entries carry the child's uid and its element count (elements for lists,
bytes for blobs), and descent follows cumulative counts.  Node boundaries
still come from the rolling-hash pattern, so two sequences with equal
content are represented by identical pages regardless of how they were
assembled — the same SIRI behaviour as the keyed tree, and the same code:
the node classes live in :mod:`repro.postree.node` (re-exported here), the
index levels are stacked by :func:`repro.postree.builder.build_index_levels`,
and both handles are :class:`~repro.postree.tree.TreeView` s that read
through its :class:`~repro.postree.tree.LevelCursor`.

Updates are expressed as ``splice(start, stop, replacement)``.  The new
tree is re-chunked from the stream; content addressing guarantees that
every page outside the edited neighbourhood deduplicates against the old
version, so *storage* cost is proportional to the change.  For lists the
compute is still O(N) per edit (the keyed tree is the structure the
paper's hot paths use).  A blob built over a node cache slices only what
changed: :meth:`BlobTree.from_bytes` reuses every cached leaf its bytes
repeat at a cut, and every cached index node whose entries repeat at a
cut of its level, so the hash pass, the index encodes and SHA-256 follow
the edit.  Cached leaves that a cached level-1 node holds back to back
are taken as one block, with that node's entries as their descriptors.
What stays O(N) is a byte compare and a short check per reused leaf, and
the store's dedup check and cache refresh per chunk.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable, Iterator, List, Optional, Tuple

from repro.chunk import Chunk, ChunkType, Uid
from repro.postree.builder import WriteBatch, build_index_levels
from repro.postree.config import DEFAULT_TREE_CONFIG, TreeConfig
from repro.postree.node import (
    ListIndexEntry,
    ListIndexNode,
    ListLeafNode,
    encode_list_item,
)
from repro.postree.tree import TreeView
from repro.rolling.chunker import BLOB_CONFIG, ChunkerConfig
from repro.rolling.fast import fast_chunk_spans, fast_entry_spans
from repro.store.base import ChunkStore


class PositionalTree(TreeView):
    """Ordered sequence of byte items over a chunk store."""

    __slots__ = ()

    NODES = (ListLeafNode, ListIndexNode)

    @classmethod
    def from_items(
        cls,
        store: ChunkStore,
        items: Iterable[bytes],
        config: TreeConfig = DEFAULT_TREE_CONFIG,
    ) -> "PositionalTree":
        """Bulk-build a sequence tree (one ``put_nodes``)."""
        materialized = [bytes(item) for item in items]
        encoded = [encode_list_item(item) for item in materialized]
        batch: WriteBatch = []
        descriptors: List[ListIndexEntry] = []
        for start, end in fast_entry_spans(encoded, config.leaf):
            node = ListLeafNode(materialized[start:end], encoded=encoded[start:end])
            batch.append((node.to_chunk(), node))
            descriptors.append(node.descriptor())
        if descriptors:
            root = build_index_levels(batch, descriptors, config)
        else:
            node = ListLeafNode([])
            batch.append((node.to_chunk(), node))
            root = node.uid
        store.put_nodes(batch)
        return cls(store, root, config)

    def __len__(self) -> int:
        return self.node(self.root).count

    def get(self, position: int) -> bytes:
        """Element at ``position`` (supports negatives)."""
        size = len(self)
        if position < 0:
            position += size
        if not 0 <= position < size:
            raise IndexError(position)
        cursor = self.cursor(position)
        return cursor.current.entries[cursor.offset]

    def iter_items(self, start: int = 0, stop: Optional[int] = None) -> Iterator[bytes]:
        """Yield elements in ``[start, stop)``.

        Descends to the leaf holding ``start``; nothing before it is read.
        """
        size = len(self)
        if stop is None or stop > size:
            stop = size
        if start < 0 or start > size:
            raise IndexError(start)
        wanted = stop - start
        if wanted <= 0:
            return
        cursor = self.cursor(start)
        offset = cursor.offset
        for leaf in cursor.nodes():
            items = leaf.entries[offset : offset + wanted]
            yield from items
            wanted -= len(items)
            if wanted <= 0:
                return
            offset = 0

    def items(self) -> List[bytes]:
        """Materialize the whole sequence."""
        return list(self.iter_items())

    def splice(
        self, start: int, stop: int, replacement: Iterable[bytes] = ()
    ) -> "PositionalTree":
        """Replace elements ``[start, stop)`` with ``replacement``.

        Returns a new tree; unchanged pages deduplicate against this one.
        """
        size = len(self)
        if not 0 <= start <= stop <= size:
            raise IndexError((start, stop))
        stream = itertools.chain(
            self.iter_items(0, start), replacement, self.iter_items(stop, size)
        )
        return PositionalTree.from_items(self.store, stream, self.config)

    def append(self, item: bytes) -> "PositionalTree":
        """Add one element at the end."""
        size = len(self)
        return self.splice(size, size, [item])

    def extend(self, items: Iterable[bytes]) -> "PositionalTree":
        """Add elements at the end."""
        size = len(self)
        return self.splice(size, size, items)

    def insert(self, position: int, item: bytes) -> "PositionalTree":
        """Insert one element before ``position``."""
        return self.splice(position, position, [item])

    def delete(self, position: int) -> "PositionalTree":
        """Remove the element at ``position``."""
        return self.splice(position, position + 1, [])

    def set(self, position: int, item: bytes) -> "PositionalTree":
        """Replace the element at ``position``."""
        return self.splice(position, position + 1, [item])

    def __repr__(self) -> str:
        return f"PositionalTree({len(self)} items, root={self.root.short()}…)"


def _reuse_leaves(
    data: bytes, config: ChunkerConfig, cuts: Any
) -> Tuple[List[Chunk], List[ListIndexEntry], List[Chunk]]:
    """Slice ``data`` into BLOB leaves, reusing what the cut index
    ``cuts`` (a store's :meth:`~repro.store.base.ChunkStore.cut_index`)
    knows at each cut: a cached leaf, and with it the children after it
    in a cached level-1 node as far as ``data`` repeats them
    (:class:`~repro.store.nodecache.BlobWalk`).

    Returns every leaf in order, their descriptors (a reused block's are
    its node's own entries), and the new leaves that the pattern or
    max-size rule ended (not the end of ``data``) for the caller to note.

    Why a reused leaf is the chunk a full slicing cuts there: with
    ``min_size ≥ window`` the pattern is only tested once the window
    lies wholly past the last cut, so where the next cut falls depends
    only on the bytes from the last cut on.  A leaf that was ended by a
    rule under ``config`` is therefore the next chunk wherever its bytes
    recur at a cut, and a leaf the end of the data ended is the last
    chunk wherever the data ends with it from a cut; a block is such
    leaves back to back.  From a cut that starts no known leaf the
    chunker runs, primed with the preceding bytes, over a slice that
    doubles while none of its cuts starts a known leaf; a slice's last
    span was ended by the slice, so it is sliced again with the next one.
    """
    leaves: List[Chunk] = []
    descriptors: List[ListIndexEntry] = []
    ruled: List[Chunk] = []
    walk = cuts.blob_walk(config)
    size = len(data)
    first_slice = config.min_size + (4 << config.pattern_bits)
    at = 0
    known = walk.leaf(data, 0)
    while at < size:
        if known is not None:
            at = walk.take(data, at, known, leaves, descriptors)
            known = walk.leaf(data, at) if at < size else None
            continue
        width = first_slice
        while known is None and at < size:
            base = at
            end = min(size, base + width)
            spans = fast_chunk_spans(
                data[base:end], config, data[max(0, base - config.window) : base]
            )
            if end < size:
                spans.pop()
            for start, stop in spans:
                leaf = Chunk(ChunkType.BLOB, data[base + start : base + stop])
                leaves.append(leaf)
                descriptors.append(ListIndexEntry(leaf.uid, stop - start))
                at = base + stop
                if at == size:
                    break
                ruled.append(leaf)
                known = walk.leaf(data, at)
                if known is not None:
                    break
            width *= 2
    return leaves, descriptors, ruled


class BlobTree(TreeView):
    """Large byte payloads as a Merkle tree of content-defined chunks."""

    __slots__ = ("blob_config",)

    #: A blob leaf is a raw BLOB chunk, its own decoded form.
    NODES = (Chunk, ListIndexNode)

    def __init__(
        self,
        store: ChunkStore,
        root: Uid,
        blob_config: ChunkerConfig = BLOB_CONFIG,
        tree_config: TreeConfig = DEFAULT_TREE_CONFIG,
    ) -> None:
        TreeView.__init__(self, store, root, tree_config)
        self.blob_config = blob_config

    @classmethod
    def from_bytes(
        cls,
        store: ChunkStore,
        data: bytes,
        blob_config: ChunkerConfig = BLOB_CONFIG,
        tree_config: TreeConfig = DEFAULT_TREE_CONFIG,
    ) -> "BlobTree":
        """Slice ``data`` with the rolling hash and build the Merkle tree.

        Slices with the vectorized chunker (the streaming reference's
        spans at ≈ 200 MB/s instead of ≈ 3 MB/s on a 2-vCPU Xeon; see
        :mod:`repro.rolling.fast`).  Every chunk reaches the store in one
        ``put_nodes``.

        Over a store with a cut index (:meth:`ChunkStore.cut_index`: a
        node cache) that knows cuts under ``blob_config``, only what
        changed is sliced: wherever ``data`` repeats a known leaf at a
        cut, that leaf is reused as is — no hash pass, no SHA-256 — and
        so are the leaves after it in a cached level-1 node that holds
        it, as one block with the node's own entries as their
        descriptors; the chunker runs only from a cut no known leaf
        starts at, until one of its cuts lands on a known leaf again
        (see :func:`_reuse_leaves`).  The index levels do the same one
        level up: a cached index node whose entries recur at a cut is
        reused, not encoded and hashed again, so only the path above the
        edit is rebuilt (:func:`~repro.postree.builder.build_index_levels`).
        Each level's last leaf or node is noted too, and reused only
        where it ends its level again.  The tree is the one a full
        slicing builds, bit for bit.
        """
        cuts = store.cut_index() if blob_config.min_size >= blob_config.window else None
        if cuts is not None and cuts.knows_cuts(blob_config):
            leaves, descriptors, ruled = _reuse_leaves(data, blob_config, cuts)
        else:
            spans = fast_chunk_spans(data, blob_config)
            leaves = [Chunk(ChunkType.BLOB, data[start:end]) for start, end in spans]
            descriptors = [ListIndexEntry(leaf.uid, len(leaf.data)) for leaf in leaves]
            ruled = leaves[:-1]
        batch: WriteBatch = [(leaf, leaf) for leaf in leaves]
        ruled_index: List[ListIndexNode] = []
        ends: List[ListIndexNode] = []
        if leaves:
            root = build_index_levels(
                batch, descriptors, tree_config, cuts=cuts, ruled=ruled_index, ends=ends
            )
        else:
            chunk = Chunk(ChunkType.BLOB, b"")
            batch.append((chunk, chunk))
            root = chunk.uid
        store.put_nodes(batch)
        if cuts is not None:
            cuts.note_cuts(blob_config, ruled)
            cuts.note_cuts(blob_config, leaves[-1:], level_end=True)
            cuts.note_cuts(tree_config.index, ruled_index)
            cuts.note_cuts(tree_config.index, ends, level_end=True)
        return cls(store, root, blob_config, tree_config)

    def size(self) -> int:
        """Total byte length."""
        node = self.node(self.root)
        return len(node.data) if isinstance(node, Chunk) else node.count

    def iter_chunks(self) -> Iterator[Chunk]:
        """Yield the raw data chunks left-to-right."""
        yield from self.cursor().nodes()

    def read(self) -> bytes:
        """Reassemble the full payload."""
        return b"".join([chunk.data for chunk in self.iter_chunks()])

    def read_at(self, offset: int, length: int) -> bytes:
        """Read ``length`` bytes from ``offset`` without full assembly.

        Descends to the chunk holding ``offset`` and fetches only the
        chunks the range covers; a range past the end comes back short.
        """
        if offset < 0 or length < 0:
            raise IndexError((offset, length))
        cursor = self.cursor(offset)
        at = cursor.offset
        pieces: List[bytes] = []
        for chunk in cursor.nodes():
            piece = chunk.data[at : at + length]
            pieces.append(piece)
            length -= len(piece)
            if length <= 0:
                break
            at = 0
        return b"".join(pieces)

    def splice(self, start: int, stop: int, replacement: bytes = b"") -> "BlobTree":
        """Replace bytes ``[start, stop)``; unchanged chunks dedup."""
        data = self.read()
        if not 0 <= start <= stop <= len(data):
            raise IndexError((start, stop))
        new_data = data[:start] + replacement + data[stop:]
        return BlobTree.from_bytes(self.store, new_data, self.blob_config, self.config)

    def __repr__(self) -> str:
        return f"BlobTree({self.size()}B, root={self.root.short()}…)"
