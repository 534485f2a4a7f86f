"""Immutable typed chunks.

A chunk is the unit of deduplication (paper §II-C): "data are split into
chunks, each of which is immutable after complete construction and uniquely
identified by its SHA-256 hash."  The uid covers both the type tag and the
payload so that, e.g., a map leaf and a blob leaf with coincidentally equal
bytes never collide.
"""

from __future__ import annotations

import enum
import hashlib
from typing import List, Mapping, Optional, Set, Tuple

from repro.chunk.uid import Uid
from repro.errors import ChunkCorruptionError


class ChunkType(enum.IntEnum):
    """Tags for every chunk kind materialized in physical storage."""

    #: Raw byte segment of a blob (POS-Tree leaf for FBlob).
    BLOB = 1
    #: POS-Tree leaf holding serialized keyed entries (map/set).
    LEAF = 2
    #: POS-Tree index node holding (split key, child uid) entries.
    INDEX = 3
    #: POS-Tree leaf holding positional entries (list).
    LIST_LEAF = 4
    #: POS-Tree index node for positional trees (child uid + count).
    LIST_INDEX = 5
    #: FNode: a committed version (value root + hash-chained bases).
    FNODE = 6
    #: Serialized primitive value (string / number / boolean).
    PRIMITIVE = 7
    #: Table schema descriptor.
    SCHEMA = 8
    #: Free-form metadata blob (engine bookkeeping).
    META = 9

    def tag(self) -> bytes:
        """Single tag byte mixed into the hash."""
        return bytes([int(self)])


#: The tag byte of every chunk type, keyed by member (and so by its int).
_TAG_BYTES = {member: member.tag() for member in ChunkType}


class Chunk:
    """An immutable `(type, payload)` pair addressed by its SHA-256 uid."""

    __slots__ = ("_type", "_data", "_uid")

    def __init__(
        self, type_: ChunkType, data: bytes, uid: Optional[Uid] = None
    ) -> None:
        # Enum re-construction costs ~0.4us; skip it when the caller
        # already hands us members (every store read path does).
        self._type = type_ if type_.__class__ is ChunkType else ChunkType(type_)
        self._data = data if data.__class__ is bytes else bytes(data)
        self._uid = uid if uid is not None else self.compute_uid(self._type, self._data)

    @staticmethod
    def compute_uid(type_: ChunkType, data: bytes) -> Uid:
        """SHA-256 over the tag byte followed by the payload."""
        try:
            hasher = hashlib.sha256(_TAG_BYTES[type_])
        except KeyError:
            raise ValueError(f"{type_!r} is not a valid ChunkType") from None
        hasher.update(data)
        return bytes.__new__(Uid, hasher.digest())  # 32 bytes: no checks

    @property
    def type(self) -> ChunkType:
        """The chunk kind."""
        return self._type

    @property
    def data(self) -> bytes:
        """The immutable payload bytes."""
        return self._data

    @property
    def uid(self) -> Uid:
        """The content address of this chunk."""
        return self._uid

    def size(self) -> int:
        """Payload size in bytes (the unit Fig. 4's KB numbers count)."""
        return len(self._data)

    def verify(self) -> None:
        """Recompute the uid and raise if the payload was tampered with.

        This is the primitive behind the tamper-evidence property of
        §III-C: a malicious store can return arbitrary bytes for a uid, but
        cannot make them hash back to that uid.
        """
        actual = self.compute_uid(self._type, self._data)
        if actual != self._uid:
            raise ChunkCorruptionError(
                f"chunk {self._uid.short()} fails verification "
                f"(content hashes to {actual.short()})"
            )

    def is_valid(self) -> bool:
        """Boolean form of :meth:`verify`."""
        return self.compute_uid(self._type, self._data) == self._uid

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Chunk):
            return self._uid == other._uid
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._uid)

    def __len__(self) -> int:
        return len(self._data)

    def __repr__(self) -> str:
        return f"Chunk({self._type.name}, {len(self._data)}B, {self._uid.short()}…)"


def split_valid(held: Mapping[Uid, Chunk]) -> Tuple[Set[Uid], List[Uid], int]:
    """Re-hash each held copy once: ``(valid, invalid, payload bytes)``.

    ``held`` maps the uid a store lists to the chunk it holds there.
    The test is :meth:`Chunk.is_valid`'s, in one loop with no
    :class:`Uid` built per copy: the bulk form a store verifying its own
    holdings runs.  ``invalid`` keeps ``held``'s order.
    """
    # A copy of a hasher that has already taken the tag byte is cheaper
    # than a fresh one, and skips joining the tag to each payload.
    tagged = {member: hashlib.sha256(tag) for member, tag in _TAG_BYTES.items()}
    invalid: List[Uid] = []
    hashed = 0
    for uid, chunk in held.items():
        data = chunk._data
        hashed += len(data)
        hasher = tagged[chunk._type].copy()
        hasher.update(data)
        if hasher.digest() != chunk._uid:
            invalid.append(uid)
    # A set built from a dict reuses its stored hashes.
    valid = set(held)
    valid.difference_update(invalid)
    return valid, invalid, hashed
