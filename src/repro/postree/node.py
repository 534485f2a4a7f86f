"""POS-Tree node encodings — every node kind of every tree, and the one
place a chunk's type tag is mapped to a decoded node and to its children.

Exactly two node kinds exist in a keyed POS-Tree (Fig. 2 of the paper):

- **data chunk** (leaf): a run of ``(key, value)`` entries, sorted by key;
- **index chunk**: one entry per child, ``{⟨split-key, H({elements})⟩}`` —
  the child's largest key, its uid (the cryptographic hash of the child
  chunk, which is what makes the tree a Merkle tree), and the child
  subtree's record count (for O(log N) size/rank queries).

Lists and blobs have no keys, so their trees index by *position*: a list
leaf is a run of items, a blob leaf is a raw BLOB chunk (its own decoded
form), and a positional index entry carries the child's uid and its
element count (items for lists, bytes for blobs) — descent follows
cumulative counts instead of split keys.

The *entry byte strings* defined here are also the stream the rolling-hash
chunker scans, so the same serialization decides both node content and
node boundaries — the heart of structural invariance.

:func:`load_node` is the tag → node table (LEAF / INDEX / LIST_LEAF /
LIST_INDEX decode, a BLOB chunk is returned as it is); both index kinds
answer ``children()`` and ``route(target)``, which is all the shared tree
code in :mod:`repro.postree.tree` asks of a node.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, ClassVar, Dict, List, NamedTuple, Optional, Tuple, Type, Union

from repro.chunk import Chunk, ChunkType, Reader, Uid
from repro.chunk.codec import UVARINT_1, uvarint_bytes, uvarint_size
from repro.errors import ChunkEncodingError

#: A record stored in a data chunk: a plain ``(key, value)`` tuple.  Not a
#: NamedTuple: a decode builds one per record, and a tuple display is one
#: allocation the collector can untrack (EXPERIMENTS "Records as plain
#: tuples").
LeafEntry = Tuple[bytes, bytes]


class IndexEntry(NamedTuple):
    """A child reference stored in an index chunk."""

    split_key: bytes  # largest key in the child's subtree
    child: Uid
    count: int  # records in the child's subtree

    def index_class(self) -> Type["IndexNode"]:
        """The node kind that holds entries like this one."""
        return IndexNode


class ListIndexEntry(NamedTuple):
    """Child reference in a positional index node."""

    child: Uid
    count: int  # elements (list) or bytes (blob) beneath the child

    def index_class(self) -> Type["ListIndexNode"]:
        """The node kind that holds entries like this one."""
        return ListIndexNode


def _uvarint_at(data: bytes, pos: int) -> Tuple[int, int]:
    """Decode the varint starting at ``data[pos]``: (value, next position).

    The multi-byte fallback of the node decoders, which read a
    single-byte varint inline.  Running off the end raises ``IndexError``
    for them to report as truncation.
    """
    result = 0
    shift = 0
    while True:
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 126:
            raise ChunkEncodingError("uvarint too long")


def encode_leaf_entry(entry: LeafEntry) -> bytes:
    """Serialize one record (this is what the leaf-level chunker scans)."""
    key, value = entry
    return uvarint_bytes(len(key)) + key + uvarint_bytes(len(value)) + value


def encode_index_entry(entry: IndexEntry) -> bytes:
    """Serialize one child reference (scanned by the index-level chunker)."""
    return (
        uvarint_bytes(len(entry.split_key))
        + entry.split_key
        + entry.child
        + uvarint_bytes(entry.count)
    )


#: Bytes of a child digest in an index entry.
_UID_SIZE = 32

def leaf_entry_size(entry: LeafEntry) -> int:
    """``len(encode_leaf_entry(entry))``, without encoding the entry."""
    key, value = entry
    key_len = len(key)
    value_len = len(value)
    if key_len < 0x80 and value_len < 0x80:
        return key_len + value_len + 2
    return uvarint_size(key_len) + key_len + uvarint_size(value_len) + value_len


def index_entry_size(entry: IndexEntry) -> int:
    """``len(encode_index_entry(entry))``, without encoding the entry."""
    split_key, _, count = entry
    key_len = len(split_key)
    if key_len < 0x80 and count < 0x80:
        return key_len + _UID_SIZE + 2
    return uvarint_size(key_len) + key_len + _UID_SIZE + uvarint_size(count)


def encode_leaf_entries(entries: List[LeafEntry]) -> List[bytes]:
    """Bulk per-entry serializations (one pass, chunker + node input).

    The bulk builder encodes every entry exactly once: the same byte
    strings feed the vectorized chunker and, via the nodes' ``encoded``
    parameter, the chunk payloads.
    """
    uv1 = UVARINT_1
    uv = uvarint_bytes
    out: List[bytes] = []
    append = out.append
    for key, value in entries:
        key_len = len(key)
        value_len = len(value)
        if key_len < 128 and value_len < 128:
            append(uv1[key_len] + key + uv1[value_len] + value)
        else:
            append(uv(key_len) + key + uv(value_len) + value)
    return out


def encode_index_entries(entries: List[IndexEntry]) -> List[bytes]:
    """Bulk per-entry serializations for index levels."""
    uv1 = UVARINT_1
    uv = uvarint_bytes
    out: List[bytes] = []
    append = out.append
    for split_key, child, count in entries:
        key_len = len(split_key)
        # Keys are short at every level; counts outgrow one byte above level 1.
        append(
            (uv1[key_len] if key_len < 128 else uv(key_len))
            + split_key
            + child
            + (uv1[count] if count < 128 else uv(count))
        )
    return out


def encode_list_item(item: bytes) -> bytes:
    """Serialize one list element (what the list-leaf chunker scans)."""
    return uvarint_bytes(len(item)) + item


def encode_list_index_entries(entries: List[ListIndexEntry]) -> List[bytes]:
    """Bulk per-entry serializations for positional index levels."""
    uv1 = UVARINT_1
    uv = uvarint_bytes
    return [
        child + (uv1[count] if count < 128 else uv(count)) for child, count in entries
    ]


class EncodedNode:
    """What every decoded node kind is: a run of ``entries``, serialized
    once into a cached, content-addressed chunk.  A subclass supplies the
    chunk type and the entry codec; an index kind adds its level.
    """

    __slots__ = ("entries", "_chunk", "_encoded")

    #: The chunk type this node kind encodes to.
    TYPE: ClassVar[ChunkType]

    def __init__(self, entries: List[Any], encoded: Optional[List[bytes]] = None) -> None:
        self.entries = entries
        self._chunk: Optional[Chunk] = None
        # Optional precomputed serializations whose concatenation is the
        # ``encode_entries`` output (per entry, or pieces of an edited
        # payload) so construction encodes once.
        self._encoded = encoded

    @staticmethod
    def encode_entries(entries: List[Any]) -> List[bytes]:
        """Bulk per-entry serializations of this node kind: what
        :meth:`to_chunk` joins and the builder's chunker scans."""
        raise NotImplementedError

    def _header(self) -> bytes:
        """The payload bytes ahead of the entry stream."""
        return uvarint_bytes(len(self.entries))

    def to_chunk(self) -> Chunk:
        """Encode (cached) into an immutable chunk of this kind's type."""
        if self._chunk is None:
            encoded = self._encoded
            if encoded is None:
                encoded = self.encode_entries(self.entries)
            self._chunk = Chunk(self.TYPE, self._header() + b"".join(encoded))
            self._encoded = None
        return self._chunk

    @property
    def uid(self) -> Uid:
        """Content address of the encoded node."""
        return self.to_chunk().uid

    def stream_start(self) -> int:
        """Payload position where the entry stream starts (past the header)."""
        return len(self._header())

    def entry_bytes(self) -> List[bytes]:
        """Per-entry serializations, in order (chunker input)."""
        return self.encode_entries(self.entries)


class LeafNode(EncodedNode):
    """A data chunk: sorted run of records."""

    __slots__ = ()

    TYPE = ChunkType.LEAF

    @staticmethod
    def encode_entries(entries: List[Any]) -> List[bytes]:
        return encode_leaf_entries(entries)

    @classmethod
    def from_chunk(cls, chunk: Chunk) -> "LeafNode":
        """Decode a LEAF chunk."""
        if chunk.type != ChunkType.LEAF:
            raise ChunkEncodingError(f"expected LEAF chunk, got {chunk.type.name}")
        # One pass over the payload: lengths under 128 (nearly all of them)
        # are read inline, and an index past the end is the truncation check.
        data = chunk.data
        entries: List[LeafEntry] = []
        append = entries.append
        try:
            count = data[0]
            pos = 1
            if count > 0x7F:
                count, pos = _uvarint_at(data, 0)
            for _ in range(count):
                key_end = data[pos]
                pos += 1
                if key_end > 0x7F:
                    key_end, pos = _uvarint_at(data, pos - 1)
                key_end += pos
                value_end = data[key_end]
                value_at = key_end + 1
                if value_end > 0x7F:
                    value_end, value_at = _uvarint_at(data, key_end)
                value_end += value_at
                append((data[pos:key_end], data[value_at:value_end]))
                pos = value_end
        except IndexError:
            raise ChunkEncodingError("truncated leaf node") from None
        # A value cut short slices short without complaint: it shows here
        # (or as an index past the end, above).
        if pos > len(data):
            raise ChunkEncodingError("truncated leaf node")
        if pos < len(data):
            raise ChunkEncodingError(f"{len(data) - pos} trailing byte(s) after decode")
        node = cls(entries)
        node._chunk = chunk
        return node

    @property
    def count(self) -> int:
        """Number of records in this leaf."""
        return len(self.entries)

    def split_key(self) -> bytes:
        """Largest key (the entry keys are sorted)."""
        return self.entries[-1][0] if self.entries else b""

    def descriptor(self) -> IndexEntry:
        """The index entry a parent would hold for this node."""
        return IndexEntry(self.split_key(), self.uid, self.count)

    def __repr__(self) -> str:
        return f"LeafNode({self.count} entries, {self.uid.short()}…)"


class AnyIndexNode(EncodedNode):
    """What the two index kinds share: a level and one entry per child,
    each naming the child's ``child`` uid and its subtree's ``count``.
    The subclass supplies the entry codec and how a descent is routed.
    """

    __slots__ = ("level",)

    def __init__(
        self, level: int, entries: List[Any], encoded: Optional[List[bytes]] = None
    ) -> None:
        if level < 1:
            raise ValueError("index nodes live at level >= 1")
        EncodedNode.__init__(self, entries, encoded)
        self.level = level

    def _header(self) -> bytes:
        return uvarint_bytes(self.level) + uvarint_bytes(len(self.entries))

    @property
    def count(self) -> int:
        """Total records (elements, bytes) beneath this node."""
        return sum(entry.count for entry in self.entries)

    def children(self) -> List[Uid]:
        """The child uids, in order."""
        return [entry.child for entry in self.entries]


class IndexNode(AnyIndexNode):
    """An index chunk: one entry per child node."""

    __slots__ = ()

    TYPE = ChunkType.INDEX

    @staticmethod
    def encode_entries(entries: List[Any]) -> List[bytes]:
        return encode_index_entries(entries)

    @classmethod
    def from_chunk(cls, chunk: Chunk) -> "IndexNode":
        """Decode an INDEX chunk."""
        if chunk.type != ChunkType.INDEX:
            raise ChunkEncodingError(f"expected INDEX chunk, got {chunk.type.name}")
        # One pass, as in :meth:`LeafNode.from_chunk`.  Reading the count
        # byte that follows a child digest proves the digest is all there
        # before it is sliced.
        data = chunk.data
        entries: List[IndexEntry] = []
        append = entries.append
        new = tuple.__new__
        new_uid = bytes.__new__
        try:
            level = data[0]
            pos = 1
            if level > 0x7F:
                level, pos = _uvarint_at(data, 0)
            count = data[pos]
            pos += 1
            if count > 0x7F:
                count, pos = _uvarint_at(data, pos - 1)
            for _ in range(count):
                key_end = data[pos]
                pos += 1
                if key_end > 0x7F:
                    key_end, pos = _uvarint_at(data, pos - 1)
                key_end += pos
                uid_end = key_end + _UID_SIZE
                records = data[uid_end]
                after = uid_end + 1
                if records > 0x7F:
                    records, after = _uvarint_at(data, uid_end)
                child = new_uid(Uid, data[key_end:uid_end])
                append(new(IndexEntry, (data[pos:key_end], child, records)))
                pos = after
        except IndexError:
            raise ChunkEncodingError("truncated index node") from None
        if pos != len(data):
            raise ChunkEncodingError(f"{len(data) - pos} trailing byte(s) after decode")
        node = cls(level, entries)
        node._chunk = chunk
        return node

    def split_key(self) -> bytes:
        """Largest key beneath this node."""
        return self.entries[-1].split_key if self.entries else b""

    def descriptor(self) -> IndexEntry:
        """The index entry a parent would hold for this node."""
        return IndexEntry(self.split_key(), self.uid, self.count)

    def child_for(self, key: bytes) -> int:
        """Index of the child whose subtree may contain ``key``.

        Children are ordered and ``split_key`` is each child's maximum, so
        the right child is the first with ``split_key >= key``; keys past
        the end route to the last child (insertion point).
        """
        entries = self.entries
        return min(bisect_left(entries, (key,)), len(entries) - 1)

    def route(self, key: bytes) -> Tuple[int, bytes]:
        """One step of a descent toward ``key``: (child position, what to
        look for under that child — the same key)."""
        return self.child_for(key), key

    def __repr__(self) -> str:
        return (
            f"IndexNode(level={self.level}, {len(self.entries)} children, "
            f"{self.uid.short()}…)"
        )


class ListLeafNode(EncodedNode):
    """A run of list elements (its ``entries`` are the items)."""

    __slots__ = ()

    TYPE = ChunkType.LIST_LEAF

    @staticmethod
    def encode_entries(entries: List[Any]) -> List[bytes]:
        return [encode_list_item(item) for item in entries]

    @classmethod
    def from_chunk(cls, chunk: Chunk) -> "ListLeafNode":
        """Decode a LIST_LEAF chunk."""
        if chunk.type != ChunkType.LIST_LEAF:
            raise ChunkEncodingError(f"expected LIST_LEAF, got {chunk.type.name}")
        reader = Reader(chunk.data)
        items = [reader.blob() for _ in range(reader.uvarint())]
        reader.expect_end()
        node = cls(items)
        node._chunk = chunk
        return node

    @property
    def count(self) -> int:
        """Number of elements in this leaf."""
        return len(self.entries)

    def descriptor(self) -> ListIndexEntry:
        """The index entry a parent would hold for this node."""
        return ListIndexEntry(self.uid, self.count)


class ListIndexNode(AnyIndexNode):
    """Index node over positional children."""

    __slots__ = ()

    TYPE = ChunkType.LIST_INDEX

    @staticmethod
    def encode_entries(entries: List[Any]) -> List[bytes]:
        return encode_list_index_entries(entries)

    @classmethod
    def from_chunk(cls, chunk: Chunk) -> "ListIndexNode":
        """Decode a LIST_INDEX chunk."""
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

    def descriptor(self) -> ListIndexEntry:
        """The index entry a parent would hold for this node."""
        return ListIndexEntry(self.uid, self.count)

    def route(self, position: int) -> Tuple[int, int]:
        """One step of a descent toward ``position`` (relative to this
        node's first element): (child position, offset within that child).

        The one place child counts are summed for a descent.  A position
        at or past the end routes to the last child with an offset past
        *its* end, as a key past the maximum routes to the last child of
        a keyed node, so a reader's slice there comes back empty.
        """
        last = len(self.entries) - 1
        for index, (_, count) in enumerate(self.entries):
            if position < count or index == last:
                return index, position
            position -= count
        raise ChunkEncodingError("positional index node without children")


_Decoded = Union[LeafNode, IndexNode, ListLeafNode, ListIndexNode]

#: A decoded node of any tree; a blob leaf is its BLOB chunk.
Node = Union[_Decoded, Chunk]

#: Chunk type → the class that decodes it.  Classes, not bound
#: ``from_chunk``s: a decode looks the method up when it runs.
NODE_CLASSES: Dict[ChunkType, Type[_Decoded]] = {
    ChunkType.LEAF: LeafNode,
    ChunkType.INDEX: IndexNode,
    ChunkType.LIST_LEAF: ListLeafNode,
    ChunkType.LIST_INDEX: ListIndexNode,
}


def load_node(chunk: Chunk) -> Node:
    """Decode a tree chunk of any kind into its node.

    A BLOB chunk is a blob tree's leaf and its own decoded form; a chunk
    that is no tree node at all (an FNode, a primitive) is refused.
    """
    node_class = NODE_CLASSES.get(chunk.type)
    if node_class is not None:
        return node_class.from_chunk(chunk)
    if chunk.type == ChunkType.BLOB:
        return chunk
    raise ChunkEncodingError(f"not a POS-Tree node chunk: {chunk.type.name}")


def child_uids(chunk: Chunk) -> List[Uid]:
    """The uids a stored chunk references as a tree node.

    Only an index chunk (of either kind) is decoded; leaves, blob chunks
    and everything that is not a tree node are terminal.
    """
    if chunk.type == ChunkType.INDEX or chunk.type == ChunkType.LIST_INDEX:
        node = load_node(chunk)
        if isinstance(node, AnyIndexNode):
            return node.children()
    return []


def empty_leaf() -> LeafNode:
    """The canonical empty tree: a leaf with no entries."""
    return LeafNode([])


def node_level(node: Node) -> int:
    """Level of a decoded node (leaves of every kind are level 0)."""
    return node.level if isinstance(node, AnyIndexNode) else 0

