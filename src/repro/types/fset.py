"""FSet: ordered set as a POS-Tree with empty values."""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Set, Tuple

from repro.chunk import Uid
from repro.postree.diff import diff_trees
from repro.postree.tree import PosTree
from repro.store.base import ChunkStore
from repro.types.base import FObject, register_type


@register_type
class FSet(FObject):
    """An immutable ordered set of byte strings."""

    TYPE_NAME = "set"
    __slots__ = ("store", "root", "_tree")

    def __init__(self, store: ChunkStore, tree: PosTree) -> None:
        self.store = store
        self._tree = tree
        self.root = tree.root

    @classmethod
    def from_iterable(cls, store: ChunkStore, members: Iterable[bytes]) -> "FSet":
        """Bulk-build from members (duplicates collapse)."""
        return cls(store, PosTree.from_pairs(store, ((m, b"") for m in members)))

    @classmethod
    def empty(cls, store: ChunkStore) -> "FSet":
        """The empty set."""
        return cls(store, PosTree.empty(store))

    @classmethod
    def load(cls, store: ChunkStore, root: Uid) -> "FSet":
        return cls(store, PosTree(store, root))

    @property
    def tree(self) -> PosTree:
        """The backing POS-Tree (for engine-level diff/merge plumbing)."""
        return self._tree

    def __contains__(self, member: bytes) -> bool:
        return self._tree.has(member)

    def __len__(self) -> int:
        return len(self._tree)

    def __iter__(self) -> Iterator[bytes]:
        return self._tree.keys()

    def add(self, member: bytes) -> "FSet":
        """Return a set including ``member``."""
        return FSet(self.store, self._tree.put(member, b""))

    def discard(self, member: bytes) -> "FSet":
        """Return a set without ``member``."""
        return FSet(self.store, self._tree.delete(member))

    def update(
        self,
        add: Optional[Iterable[bytes]] = None,
        remove: Optional[Iterable[bytes]] = None,
    ) -> "FSet":
        """Batch membership edits."""
        puts = {member: b"" for member in (add or ())}
        return FSet(self.store, self._tree.update(puts=puts, deletes=remove))

    def symmetric_difference_keys(self, other: "FSet") -> Tuple[Set[bytes], Set[bytes]]:
        """(only in self, only in other) via the pruned tree diff."""
        diff = diff_trees(self._tree, other._tree)
        return set(diff.removed), set(diff.added)

    def to_set(self) -> Set[bytes]:
        """Materialize as a set, a whole leaf at a time."""
        out: Set[bytes] = set()
        for leaf in self._tree.leaves():
            out.update([key for key, _ in leaf.entries])
        return out
