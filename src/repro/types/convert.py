"""Conversions between plain Python values and ForkBase typed objects."""

from __future__ import annotations

from itertools import repeat
from typing import AbstractSet, Any, Dict, List, Optional, Tuple, Union

from repro.errors import TypeMismatchError
from repro.postree.tree import PosTree
from repro.store.base import ChunkStore
from repro.types.base import FObject
from repro.types.blob import FBlob
from repro.types.flist import FList
from repro.types.fmap import FMap
from repro.types.fset import FSet
from repro.types.primitives import FBool, FNumber, FString

PyValue = Union[str, bytes, int, float, bool, dict, set, frozenset, list, tuple]


def _as_bytes(value: Union[str, bytes]) -> bytes:
    if isinstance(value, bytes):
        return value
    if isinstance(value, str):
        return value.encode("utf-8")
    raise TypeMismatchError(
        f"map/set/list elements must be str or bytes, got {type(value).__name__}"
    )


def _encoded_items(value: Dict[Any, Any]) -> List[Tuple[bytes, bytes]]:
    """A dict's items as byte pairs, sorted, one per key.

    An all-``str`` dict is encoded and sorted without a Python-level loop;
    UTF-8 is injective, so its keys stay unique.  Anything else (bytes,
    mixed keys that may collide, a wrong type) raises ``TypeError`` there
    and takes the per-element path, where the last-inserted key wins.
    """
    try:
        return sorted(zip(map(str.encode, value), map(str.encode, value.values())))
    except TypeError:
        pairs = {_as_bytes(k): _as_bytes(v) for k, v in value.items()}
        return sorted(pairs.items())


def _encoded_members(value: AbstractSet[Any]) -> List[bytes]:
    """A set's members as bytes, sorted and unique (see :func:`_encoded_items`)."""
    try:
        return sorted(map(str.encode, value))
    except TypeError:
        return sorted({_as_bytes(m) for m in value})


def wrap(
    store: ChunkStore, value: Union[PyValue, FObject], onto: Optional[FObject] = None
) -> FObject:
    """Store a Python value as the matching ForkBase type.

    dict → map, set → set, list/tuple → list, bytes → blob, str → string,
    bool → bool, int/float → number.  FObjects pass through.

    ``onto`` is the object the value supersedes (a branch head), when the
    caller holds one: a dict over a map, or a set over a set, is stored as
    an edit of its tree (:meth:`PosTree.assign`) — the same root a fresh
    build gives, for the price of what changed.
    """
    if isinstance(value, FObject):
        return value
    if isinstance(value, bool):
        return FBool(store, value)
    if isinstance(value, (int, float)):
        return FNumber(store, value)
    if isinstance(value, str):
        return FString(store, value)
    if isinstance(value, (bytes, bytearray)):
        return FBlob.from_bytes(store, bytes(value))
    if isinstance(value, dict):
        pairs = _encoded_items(value)
        if isinstance(onto, FMap):
            return FMap(store, onto.tree.assign(pairs))
        return FMap(store, PosTree.from_pairs(store, pairs, presorted=True))
    if isinstance(value, (set, frozenset)):
        entries = list(zip(_encoded_members(value), repeat(b"")))
        if isinstance(onto, FSet):
            return FSet(store, onto.tree.assign(entries))
        return FSet(store, PosTree.from_pairs(store, entries, presorted=True))
    if isinstance(value, (list, tuple)):
        return FList.from_items(store, (_as_bytes(i) for i in value))
    raise TypeMismatchError(f"no ForkBase type for {type(value).__name__}")


def unwrap(obj: FObject) -> PyValue:
    """Materialize a typed object back into a plain Python value.

    Maps/sets/lists come back with ``bytes`` elements (callers own the
    text codec); blobs come back as ``bytes``.
    """
    if isinstance(obj, (FString, FNumber, FBool)):
        return obj.value
    if isinstance(obj, FBlob):
        return obj.read()
    if isinstance(obj, FMap):
        return obj.to_dict()
    if isinstance(obj, FSet):
        return obj.to_set()
    if isinstance(obj, FList):
        return obj.to_list()
    raise TypeMismatchError(f"cannot unwrap {type(obj).__name__}")
