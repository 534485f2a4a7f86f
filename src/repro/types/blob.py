"""FBlob: large byte values over content-defined chunks."""

from __future__ import annotations

from repro.chunk import Uid
from repro.postree.listtree import BlobTree
from repro.store.base import ChunkStore
from repro.types.base import FObject, register_type


@register_type
class FBlob(FObject):
    """An immutable byte string, chunked by the rolling hash.

    Near-duplicate blobs (a file with a one-word edit, Fig. 4) share all
    but a couple of chunks in physical storage.
    """

    TYPE_NAME = "blob"
    __slots__ = ("store", "root", "_tree")

    def __init__(self, store: ChunkStore, tree: BlobTree) -> None:
        self.store = store
        self._tree = tree
        self.root = tree.root

    @classmethod
    def from_bytes(cls, store: ChunkStore, data: bytes) -> "FBlob":
        """Chunk and store ``data``."""
        return cls(store, BlobTree.from_bytes(store, data))

    @classmethod
    def load(cls, store: ChunkStore, root: Uid) -> "FBlob":
        return cls(store, BlobTree(store, root))

    def read(self) -> bytes:
        """Reassemble the full payload."""
        return self._tree.read()

    def read_at(self, offset: int, length: int) -> bytes:
        """Random-access read."""
        return self._tree.read_at(offset, length)

    def size(self) -> int:
        """Length in bytes."""
        return self._tree.size()

    def splice(self, start: int, stop: int, replacement: bytes = b"") -> "FBlob":
        """Functional byte-range replacement; unchanged chunks dedup."""
        return FBlob(self.store, self._tree.splice(start, stop, replacement))

    def append(self, data: bytes) -> "FBlob":
        """Functional append."""
        size = self.size()
        return self.splice(size, size, data)
