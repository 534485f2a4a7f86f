"""Positional POS-Trees: ordered sequences and blobs.

Lists and blobs have no keys, so their trees index by *position*: index
entries carry the child's uid and its element count (elements for lists,
bytes for blobs), and descent follows cumulative counts.  Node boundaries
still come from the rolling-hash pattern, so two sequences with equal
content are represented by identical pages regardless of how they were
assembled — the same SIRI behaviour as the keyed tree.

Updates are expressed as ``splice(start, stop, replacement)``.  The new
tree is re-chunked from the stream; content addressing guarantees that
every page outside the edited neighbourhood deduplicates against the old
version, so *storage* cost is proportional to the change even though
compute is O(N) for positional edits (documented trade-off; the keyed
tree is the structure the paper's hot paths use).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, List, NamedTuple, Optional, Set, Tuple, Union

from repro.chunk import Chunk, ChunkType, Reader, Uid, Writer
from repro.errors import ChunkEncodingError
from repro.postree.config import DEFAULT_TREE_CONFIG, TreeConfig
from repro.rolling.chunker import BLOB_CONFIG, ChunkerConfig
from repro.rolling.fast import fast_entry_spans
from repro.store.base import ChunkStore


class ListIndexEntry(NamedTuple):
    """Child reference in a positional index node."""

    child: Uid
    count: int  # elements (list) or bytes (blob) beneath the child


def encode_list_item(item: bytes) -> bytes:
    """Serialize one list element (chunker input)."""
    return Writer().blob(item).getvalue()


def encode_list_index_entry(entry: ListIndexEntry) -> bytes:
    """Serialize one child reference (chunker input)."""
    return Writer().uid(entry.child).uvarint(entry.count).getvalue()


class ListLeafNode:
    """A run of list elements."""

    __slots__ = ("items", "_chunk")

    def __init__(self, items: List[bytes]) -> None:
        self.items = items
        self._chunk: Optional[Chunk] = None

    def to_chunk(self) -> Chunk:
        if self._chunk is None:
            writer = Writer().uvarint(len(self.items))
            for item in self.items:
                writer.blob(item)
            self._chunk = Chunk(ChunkType.LIST_LEAF, writer.getvalue())
        return self._chunk

    @classmethod
    def from_chunk(cls, chunk: Chunk) -> "ListLeafNode":
        if chunk.type != ChunkType.LIST_LEAF:
            raise ChunkEncodingError(f"expected LIST_LEAF, got {chunk.type.name}")
        reader = Reader(chunk.data)
        items = [reader.blob() for _ in range(reader.uvarint())]
        reader.expect_end()
        node = cls(items)
        node._chunk = chunk
        return node

    @property
    def uid(self) -> Uid:
        return self.to_chunk().uid

    @property
    def count(self) -> int:
        return len(self.items)

    def descriptor(self) -> ListIndexEntry:
        return ListIndexEntry(self.uid, self.count)


class ListIndexNode:
    """Index node over positional children."""

    __slots__ = ("level", "entries", "_chunk")

    def __init__(self, level: int, entries: List[ListIndexEntry]) -> None:
        if level < 1:
            raise ValueError("index nodes live at level >= 1")
        self.level = level
        self.entries = entries
        self._chunk: Optional[Chunk] = None

    def to_chunk(self) -> Chunk:
        if self._chunk is None:
            writer = Writer().uvarint(self.level).uvarint(len(self.entries))
            for entry in self.entries:
                writer.raw(encode_list_index_entry(entry))
            self._chunk = Chunk(ChunkType.LIST_INDEX, writer.getvalue())
        return self._chunk

    @classmethod
    def from_chunk(cls, chunk: Chunk) -> "ListIndexNode":
        if chunk.type != ChunkType.LIST_INDEX:
            raise ChunkEncodingError(f"expected LIST_INDEX, got {chunk.type.name}")
        reader = Reader(chunk.data)
        level = reader.uvarint()
        entries = [
            ListIndexEntry(reader.uid(), reader.uvarint())
            for _ in range(reader.uvarint())
        ]
        reader.expect_end()
        node = cls(level, entries)
        node._chunk = chunk
        return node

    @property
    def uid(self) -> Uid:
        return self.to_chunk().uid

    @property
    def count(self) -> int:
        return sum(entry.count for entry in self.entries)

    def descriptor(self) -> ListIndexEntry:
        return ListIndexEntry(self.uid, self.count)

    def child_for(self, position: int) -> Tuple[int, int]:
        """(child index, offset within child) for a global position."""
        remaining = position
        for index, entry in enumerate(self.entries):
            if remaining < entry.count:
                return index, remaining
            remaining -= entry.count
        raise IndexError(position)


def _build_list_index_levels(
    store: ChunkStore,
    descriptors: List[ListIndexEntry],
    config: TreeConfig,
    first_level: int = 1,
) -> Uid:
    """Stack positional index levels until a single root remains."""
    level = first_level
    while len(descriptors) > 1:
        encoded = [encode_list_index_entry(descriptor) for descriptor in descriptors]
        next_level: List[ListIndexEntry] = []
        for start, end in fast_entry_spans(encoded, config.index):
            node = ListIndexNode(level, descriptors[start:end])
            store.put_node(node.to_chunk(), node)
            next_level.append(node.descriptor())
        descriptors = next_level
        level += 1
    return descriptors[0].child


class PositionalTree:
    """Ordered sequence of byte items over a chunk store."""

    __slots__ = ("store", "root", "config")

    def __init__(
        self,
        store: ChunkStore,
        root: Uid,
        config: TreeConfig = DEFAULT_TREE_CONFIG,
    ) -> None:
        self.store = store
        self.root = root
        self.config = config

    @classmethod
    def from_items(
        cls,
        store: ChunkStore,
        items: Iterable[bytes],
        config: TreeConfig = DEFAULT_TREE_CONFIG,
    ) -> "PositionalTree":
        """Bulk-build a sequence tree."""
        materialized = [bytes(item) for item in items]
        encoded = [encode_list_item(item) for item in materialized]
        descriptors: List[ListIndexEntry] = []
        for start, end in fast_entry_spans(encoded, config.leaf):
            node = ListLeafNode(materialized[start:end])
            store.put_node(node.to_chunk(), node)
            descriptors.append(node.descriptor())
        if not descriptors:
            node = ListLeafNode([])
            store.put_node(node.to_chunk(), node)
            return cls(store, node.uid, config)
        return cls(store, _build_list_index_levels(store, descriptors, config), config)

    def _node(self, uid: Uid) -> Union["ListLeafNode", "ListIndexNode"]:
        node = self.store.get_node(uid)
        if node.__class__ is Chunk:
            if node.type == ChunkType.LIST_LEAF:
                return ListLeafNode.from_chunk(node)
            return ListIndexNode.from_chunk(node)
        if isinstance(node, (ListLeafNode, ListIndexNode)):
            return node
        raise ChunkEncodingError(f"not a list node: {uid.short()} is a {type(node).__name__}")

    def __len__(self) -> int:
        return self._node(self.root).count

    def get(self, position: int) -> bytes:
        """Element at ``position`` (supports negatives)."""
        size = len(self)
        if position < 0:
            position += size
        if not 0 <= position < size:
            raise IndexError(position)
        node = self._node(self.root)
        while isinstance(node, ListIndexNode):
            index, position = node.child_for(position)
            node = self._node(node.entries[index].child)
        return node.items[position]

    def iter_items(self, start: int = 0, stop: Optional[int] = None) -> Iterator[bytes]:
        """Yield elements in ``[start, stop)``."""
        size = len(self)
        if stop is None or stop > size:
            stop = size
        if start < 0 or start > size:
            raise IndexError(start)
        if start >= stop:
            return
        produced = start
        for leaf, leaf_start in self._leaves_from(start):
            for item in leaf.items[produced - leaf_start :]:
                if produced >= stop:
                    return
                yield item
                produced += 1

    def _leaves_from(self, position: int) -> Iterator[Tuple[ListLeafNode, int]]:
        """Yield (leaf, global position of its first element) from ``position``."""
        stack: List[Tuple[ListIndexNode, int, int]] = []  # node, child idx, base
        node = self._node(self.root)
        base = 0
        offset = position
        while isinstance(node, ListIndexNode):
            index, offset = node.child_for(offset) if node.count > offset else (
                len(node.entries) - 1,
                offset,
            )
            consumed = sum(entry.count for entry in node.entries[:index])
            stack.append((node, index, base))
            base += consumed
            node = self._node(node.entries[index].child)
        yield node, base
        while stack:
            parent, index, pbase = stack.pop()
            consumed = pbase + sum(e.count for e in parent.entries[: index + 1])
            index += 1
            if index >= len(parent.entries):
                continue
            stack.append((parent, index, pbase))
            child = self._node(parent.entries[index].child)
            base = consumed
            while isinstance(child, ListIndexNode):
                stack.append((child, 0, base))
                child = self._node(child.entries[0].child)
            yield child, base

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

    def page_uids(self) -> Set[Uid]:
        """All pages reachable from the root."""
        pages: Set[Uid] = set()
        stack = [self.root]
        while stack:
            uid = stack.pop()
            if uid in pages:
                continue
            pages.add(uid)
            node = self._node(uid)
            if isinstance(node, ListIndexNode):
                stack.extend(entry.child for entry in node.entries)
        return pages

    def __repr__(self) -> str:
        return f"PositionalTree({len(self)} items, root={self.root.short()}…)"


class BlobTree:
    """Large byte payloads as a Merkle tree of content-defined chunks."""

    __slots__ = ("store", "root", "blob_config", "tree_config")

    def __init__(
        self,
        store: ChunkStore,
        root: Uid,
        blob_config: ChunkerConfig = BLOB_CONFIG,
        tree_config: TreeConfig = DEFAULT_TREE_CONFIG,
    ) -> None:
        self.store = store
        self.root = root
        self.blob_config = blob_config
        self.tree_config = tree_config

    @classmethod
    def from_bytes(
        cls,
        store: ChunkStore,
        data: bytes,
        blob_config: ChunkerConfig = BLOB_CONFIG,
        tree_config: TreeConfig = DEFAULT_TREE_CONFIG,
    ) -> "BlobTree":
        """Slice ``data`` with the rolling hash and build the Merkle tree.

        Uses the vectorized chunker when numpy is available (identical
        spans, ~5x faster; see :mod:`repro.rolling.fast`).
        """
        from repro.rolling.fast import fast_chunk_spans

        descriptors: List[ListIndexEntry] = []
        for start, end in fast_chunk_spans(data, blob_config):
            chunk = Chunk(ChunkType.BLOB, data[start:end])
            store.put_node(chunk, chunk)
            descriptors.append(ListIndexEntry(chunk.uid, end - start))
        if not descriptors:
            chunk = Chunk(ChunkType.BLOB, b"")
            store.put_node(chunk, chunk)
            return cls(store, chunk.uid, blob_config, tree_config)
        root = _build_list_index_levels(store, descriptors, tree_config)
        return cls(store, root, blob_config, tree_config)

    def _node(self, uid: Uid) -> Union[Chunk, "ListIndexNode"]:
        node = self.store.get_node(uid)
        if node.__class__ is Chunk:
            # A blob leaf is its own decoded form.
            return node if node.type == ChunkType.BLOB else ListIndexNode.from_chunk(node)
        if isinstance(node, ListIndexNode):
            return node
        raise ChunkEncodingError(f"not a blob node: {uid.short()} is a {type(node).__name__}")

    def size(self) -> int:
        """Total byte length."""
        node = self._node(self.root)
        return len(node.data) if isinstance(node, Chunk) else node.count

    def iter_chunks(self) -> Iterator[Chunk]:
        """Yield the raw data chunks left-to-right."""
        node = self._node(self.root)
        if isinstance(node, Chunk):
            yield node
            return

        def walk(index_node: ListIndexNode) -> Iterator[Chunk]:
            for entry in index_node.entries:
                child = self._node(entry.child)
                if isinstance(child, Chunk):
                    yield child
                else:
                    yield from walk(child)

        yield from walk(node)

    def read(self) -> bytes:
        """Reassemble the full payload."""
        return b"".join(chunk.data for chunk in self.iter_chunks())

    def read_at(self, offset: int, length: int) -> bytes:
        """Read ``length`` bytes from ``offset`` without full assembly."""
        if offset < 0 or length < 0:
            raise IndexError((offset, length))
        out = bytearray()
        position = 0
        for chunk in self.iter_chunks():
            chunk_end = position + len(chunk.data)
            if chunk_end > offset:
                lo = max(0, offset - position)
                hi = min(len(chunk.data), offset + length - position)
                out.extend(chunk.data[lo:hi])
                if position + hi >= offset + length:
                    break
            position = chunk_end
        return bytes(out)

    def splice(self, start: int, stop: int, replacement: bytes = b"") -> "BlobTree":
        """Replace bytes ``[start, stop)``; unchanged chunks dedup."""
        data = self.read()
        if not 0 <= start <= stop <= len(data):
            raise IndexError((start, stop))
        new_data = data[:start] + replacement + data[stop:]
        return BlobTree.from_bytes(
            self.store, new_data, self.blob_config, self.tree_config
        )

    def page_uids(self) -> Set[Uid]:
        """All pages (index nodes and data chunks) reachable from the root."""
        pages: Set[Uid] = set()
        stack = [self.root]
        while stack:
            uid = stack.pop()
            if uid in pages:
                continue
            pages.add(uid)
            node = self._node(uid)
            if isinstance(node, ListIndexNode):
                stack.extend(entry.child for entry in node.entries)
        return pages

    def __repr__(self) -> str:
        return f"BlobTree({self.size()}B, root={self.root.short()}…)"
