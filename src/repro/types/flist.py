"""FList: ordered sequence over a positional POS-Tree."""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional

from repro.chunk import Uid
from repro.postree.listtree import PositionalTree
from repro.store.base import ChunkStore
from repro.types.base import FObject, register_type


@register_type
class FList(FObject):
    """An immutable sequence of byte strings."""

    TYPE_NAME = "list"
    __slots__ = ("store", "root", "_tree")

    def __init__(self, store: ChunkStore, tree: PositionalTree) -> None:
        self.store = store
        self._tree = tree
        self.root = tree.root

    @classmethod
    def from_items(cls, store: ChunkStore, items: Iterable[bytes]) -> "FList":
        """Bulk-build from items."""
        return cls(store, PositionalTree.from_items(store, items))

    @classmethod
    def empty(cls, store: ChunkStore) -> "FList":
        """The empty list."""
        return cls.from_items(store, [])

    @classmethod
    def load(cls, store: ChunkStore, root: Uid) -> "FList":
        return cls(store, PositionalTree(store, root))

    def __len__(self) -> int:
        return len(self._tree)

    def __getitem__(self, position: int) -> bytes:
        return self._tree.get(position)

    def __iter__(self) -> Iterator[bytes]:
        return self._tree.iter_items()

    def slice(self, start: int, stop: Optional[int] = None) -> List[bytes]:
        """Materialized sub-sequence."""
        return list(self._tree.iter_items(start, stop))

    def append(self, item: bytes) -> "FList":
        """Return a list with ``item`` at the end."""
        return FList(self.store, self._tree.append(item))

    def extend(self, items: Iterable[bytes]) -> "FList":
        """Return a list with ``items`` appended."""
        return FList(self.store, self._tree.extend(items))

    def insert(self, position: int, item: bytes) -> "FList":
        """Return a list with ``item`` inserted before ``position``."""
        return FList(self.store, self._tree.insert(position, item))

    def delete(self, position: int) -> "FList":
        """Return a list without the element at ``position``."""
        return FList(self.store, self._tree.delete(position))

    def set(self, position: int, item: bytes) -> "FList":
        """Return a list with the element at ``position`` replaced."""
        return FList(self.store, self._tree.set(position, item))

    def splice(
        self, start: int, stop: int, replacement: Iterable[bytes] = ()
    ) -> "FList":
        """General range replacement."""
        return FList(self.store, self._tree.splice(start, stop, replacement))

    def to_list(self) -> List[bytes]:
        """Materialize (tests / small lists only)."""
        return self._tree.items()
