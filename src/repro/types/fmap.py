"""FMap: ordered map with POS-Tree representation.

The workhorse type: relational tables, datasets and metadata all sit on
maps.  Keys and values are bytes; higher layers choose their own codecs.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional, Tuple

from repro.chunk import Uid
from repro.postree.diff import TreeDiff, diff_trees
from repro.postree.merge import MergeResult, Resolver, three_way_merge
from repro.postree.tree import PosTree
from repro.store.base import ChunkStore
from repro.types.base import FObject, register_type


@register_type
class FMap(FObject):
    """An immutable ordered map of bytes → bytes."""

    TYPE_NAME = "map"
    __slots__ = ("store", "root", "_tree")

    def __init__(self, store: ChunkStore, tree: PosTree) -> None:
        self.store = store
        self._tree = tree
        self.root = tree.root

    @classmethod
    def from_dict(cls, store: ChunkStore, mapping: Dict[bytes, bytes]) -> "FMap":
        """Bulk-build from a dict: its keys are unique, so its sorted items
        are the records, with nothing to merge."""
        return cls(store, PosTree.from_pairs(store, sorted(mapping.items()), presorted=True))

    @classmethod
    def from_pairs(
        cls, store: ChunkStore, pairs: Iterable[Tuple[bytes, bytes]]
    ) -> "FMap":
        """Bulk-build from (key, value) pairs (last write wins)."""
        return cls(store, PosTree.from_pairs(store, pairs))

    @classmethod
    def empty(cls, store: ChunkStore) -> "FMap":
        """The empty map."""
        return cls(store, PosTree.empty(store))

    @classmethod
    def load(cls, store: ChunkStore, root: Uid) -> "FMap":
        return cls(store, PosTree(store, root))

    @property
    def tree(self) -> PosTree:
        """The backing POS-Tree (for engine-level diff/merge plumbing)."""
        return self._tree

    # -- reads -------------------------------------------------------------

    def get(self, key: bytes, default: Optional[bytes] = None) -> Optional[bytes]:
        """Value for ``key`` or ``default``."""
        value = self._tree.get(key)
        return default if value is None else value

    def __getitem__(self, key: bytes) -> bytes:
        value = self._tree.get(key)
        if value is None:
            raise KeyError(key)
        return value

    def __contains__(self, key: bytes) -> bool:
        return self._tree.has(key)

    def __len__(self) -> int:
        return len(self._tree)

    def items(self) -> Iterator[Tuple[bytes, bytes]]:
        """All pairs in key order."""
        return self._tree.items()

    def keys(self) -> Iterator[bytes]:
        """All keys in order."""
        return self._tree.keys()

    def scan(self, start: bytes, end: bytes) -> Iterator[Tuple[bytes, bytes]]:
        """Pairs with start <= key < end."""
        return self._tree.iter_entries(start, end)

    def to_dict(self) -> Dict[bytes, bytes]:
        """Materialize as a dict, a whole leaf at a time."""
        out: Dict[bytes, bytes] = {}
        for leaf in self._tree.leaves():
            out.update(leaf.entries)
        return out

    # -- functional updates ---------------------------------------------------

    def set(self, key: bytes, value: bytes) -> "FMap":
        """Return a map with one upsert applied."""
        return FMap(self.store, self._tree.put(key, value))

    def remove(self, key: bytes) -> "FMap":
        """Return a map without ``key`` (no-op if absent)."""
        return FMap(self.store, self._tree.delete(key))

    def update(
        self,
        puts: Optional[Dict[bytes, bytes]] = None,
        deletes: Optional[Iterable[bytes]] = None,
    ) -> "FMap":
        """Return a map with a batch of edits applied."""
        return FMap(self.store, self._tree.update(puts=puts, deletes=deletes))

    # -- versioned operations ---------------------------------------------------

    def diff(self, other: "FMap") -> TreeDiff:
        """Fast differential query against another map (O(D log N))."""
        return diff_trees(self._tree, other._tree)

    def merge(
        self, base: "FMap", other: "FMap", resolver: Optional[Resolver] = None
    ) -> Tuple["FMap", MergeResult]:
        """Three-way merge: self and ``other`` against common ``base``."""
        result = three_way_merge(base._tree, self._tree, other._tree, resolver)
        return FMap(self.store, self._tree.with_root(result.root)), result
