"""Common machinery for ForkBase value types."""

from __future__ import annotations

from typing import Any, Dict, Set, Type

from repro.chunk import Uid
from repro.errors import TypeMismatchError
from repro.store.base import ChunkStore


class FObject:
    """Base class for immutable typed values.

    Subclasses expose:

    - ``TYPE_NAME`` — the wire name recorded in FNodes;
    - ``root`` — the Merkle root uid of the value representation;
    - ``load(store, root)`` — reconstruct from storage;
    - type-specific accessors (all read-only) and functional updates that
      return *new* objects.
    """

    TYPE_NAME = "object"

    store: ChunkStore
    root: Uid
    #: The tree behind a chunkable value; a primitive has none.
    _tree: Any = None

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FObject):
            return self.TYPE_NAME == other.TYPE_NAME and self.root == other.root
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.TYPE_NAME, self.root))

    @classmethod
    def load(cls, store: ChunkStore, root: Uid) -> "FObject":
        raise NotImplementedError

    def page_uids(self) -> Set[Uid]:
        """All pages backing this value (storage accounting): the tree's
        for a chunkable type, the one chunk of a primitive."""
        return {self.root} if self._tree is None else self._tree.page_uids()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(root={self.root.short()}…)"


_REGISTRY: Dict[str, Type[FObject]] = {}


def register_type(cls: Type[FObject]) -> Type[FObject]:
    """Class decorator adding a type to the load registry."""
    _REGISTRY[cls.TYPE_NAME] = cls
    return cls


def load_object(store: ChunkStore, type_name: str, root: Uid) -> FObject:
    """Reconstruct a typed object from (type name, root uid)."""
    cls = _REGISTRY.get(type_name)
    if cls is None:
        raise TypeMismatchError(f"unknown ForkBase type: {type_name!r}")
    return cls.load(store, root)


def type_for_python(value: object) -> str:
    """Map a plain Python value to the ForkBase type that stores it."""
    if isinstance(value, FObject):
        return value.TYPE_NAME
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    if isinstance(value, (bytes, bytearray)):
        return "blob"
    if isinstance(value, dict):
        return "map"
    if isinstance(value, (set, frozenset)):
        return "set"
    if isinstance(value, (list, tuple)):
        return "list"
    raise TypeMismatchError(f"no ForkBase type for {type(value).__name__}")
