"""Deterministic binary codec.

Every Merkle-hashed structure in the system (POS-Tree nodes, FNodes, table
schemas) serializes through this module.  Determinism is load-bearing: SIRI
Property 1 (structural invariance, paper Def. 1) requires that logically
equal content always produce byte-identical pages, so the encoding must not
depend on dict ordering, platform, or interning accidents.

The format is a minimal length-prefixed scheme:

- unsigned varints (LEB128) for lengths and small counts,
- zigzag varints for signed integers,
- UTF-8 for strings,
- IEEE-754 big-endian for floats,
- raw 32-byte digests for uids.
"""

from __future__ import annotations

import struct
from typing import Iterable, Iterator, List, Sequence

from repro.chunk.uid import Uid
from repro.errors import ChunkEncodingError

_UID_SIZE = 32

#: Single-byte varints, precomputed: lengths and counts below 128 are the
#: common case, and a table index beats a function call in bulk loops.
UVARINT_1 = tuple(bytes((value,)) for value in range(0x80))


def uvarint_bytes(value: int) -> bytes:
    """Unsigned LEB128 varint (what :meth:`Writer.uvarint` appends)."""
    if 0 <= value < 0x80:
        return UVARINT_1[value]
    if value < 0:
        raise ChunkEncodingError(f"uvarint cannot encode negative {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def uvarint_size(value: int) -> int:
    """``len(uvarint_bytes(value))`` for ``value >= 0``, without encoding it."""
    return 1 if value < 0x80 else (value.bit_length() + 6) // 7


def blob_rows(columns: Sequence[Sequence[bytes]]) -> Iterator[bytes]:
    """Rows of length-prefixed fields, built a column at a time.

    Row ``i`` is ``Writer().blob(c[i])`` for each column ``c`` in turn:
    each column's prefixes come from :data:`UVARINT_1` unless one of its
    fields is 128 bytes or longer, and one C-level join per row does the
    rest.
    """
    parts: List[Iterable[bytes]] = []
    for column in columns:
        lengths = list(map(len, column))
        prefix = UVARINT_1.__getitem__ if max(lengths, default=0) < 0x80 else uvarint_bytes
        parts += (map(prefix, lengths), column)
    return map(b"".join, zip(*parts))


class Writer:
    """Append-only builder for the canonical encoding."""

    __slots__ = ("_parts",)

    def __init__(self) -> None:
        self._parts: List[bytes] = []

    def uvarint(self, value: int) -> "Writer":
        """Append an unsigned LEB128 varint."""
        self._parts.append(uvarint_bytes(value))
        return self

    def svarint(self, value: int) -> "Writer":
        """Append a signed integer as a zigzag varint."""
        zigzag = (value << 1) ^ (value >> 63) if -(2**62) <= value < 2**62 else None
        if zigzag is None:
            # Arbitrary-precision fallback: sign byte + magnitude bytes.
            self._parts.append(b"\xff")
            sign = 1 if value < 0 else 0
            mag = abs(value)
            raw = mag.to_bytes((mag.bit_length() + 7) // 8 or 1, "big")
            self.uvarint(sign)
            self.blob(raw)
            return self
        self._parts.append(b"\x00")
        return self.uvarint(zigzag)

    def float64(self, value: float) -> "Writer":
        """Append an IEEE-754 double, big-endian."""
        self._parts.append(struct.pack(">d", value))
        return self

    def blob(self, data: bytes) -> "Writer":
        """Append length-prefixed raw bytes."""
        self.uvarint(len(data))
        self._parts.append(bytes(data))
        return self

    def text(self, value: str) -> "Writer":
        """Append a length-prefixed UTF-8 string."""
        return self.blob(value.encode("utf-8"))

    def uid(self, uid: Uid) -> "Writer":
        """Append a raw 32-byte uid."""
        self._parts.append(uid)
        return self

    def raw(self, data: bytes) -> "Writer":
        """Append raw bytes with no prefix (caller manages framing)."""
        self._parts.append(bytes(data))
        return self

    def uid_list(self, uids: Iterable[Uid]) -> "Writer":
        """Append a count-prefixed list of uids."""
        uids = list(uids)
        self.uvarint(len(uids))
        for uid in uids:
            self.uid(uid)
        return self

    def text_list(self, items: Sequence[str]) -> "Writer":
        """Append a count-prefixed list of strings."""
        self.uvarint(len(items))
        for item in items:
            self.text(item)
        return self

    def getvalue(self) -> bytes:
        """Concatenate everything appended so far."""
        return b"".join(self._parts)

    def __len__(self) -> int:
        return sum(len(part) for part in self._parts)


class Reader:
    """Sequential decoder matching :class:`Writer`."""

    __slots__ = ("_data", "_pos")

    def __init__(self, data: bytes) -> None:
        self._data = bytes(data)
        self._pos = 0

    def uvarint(self) -> int:
        """Read an unsigned LEB128 varint."""
        result = 0
        shift = 0
        data = self._data
        pos = self._pos
        while True:
            if pos >= len(data):
                raise ChunkEncodingError("truncated uvarint")
            byte = data[pos]
            pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
            if shift > 126:
                raise ChunkEncodingError("uvarint too long")
        self._pos = pos
        return result

    def svarint(self) -> int:
        """Read a signed zigzag varint (or big-int fallback)."""
        marker = self._take(1)[0]
        if marker == 0xFF:
            sign = self.uvarint()
            raw = self.blob()
            mag = int.from_bytes(raw, "big")
            return -mag if sign else mag
        if marker != 0x00:
            raise ChunkEncodingError(f"bad svarint marker {marker:#x}")
        zigzag = self.uvarint()
        return (zigzag >> 1) ^ -(zigzag & 1)

    def float64(self) -> float:
        """Read an IEEE-754 double."""
        return struct.unpack(">d", self._take(8))[0]

    def blob(self) -> bytes:
        """Read length-prefixed raw bytes."""
        length = self.uvarint()
        return self._take(length)

    def text(self) -> str:
        """Read a length-prefixed UTF-8 string."""
        return self.blob().decode("utf-8")

    def uid(self) -> Uid:
        """Read a raw 32-byte uid."""
        return bytes.__new__(Uid, self._take(_UID_SIZE))

    def uid_list(self) -> List[Uid]:
        """Read a count-prefixed list of uids."""
        return [self.uid() for _ in range(self.uvarint())]

    def text_list(self) -> List[str]:
        """Read a count-prefixed list of strings."""
        return [self.text() for _ in range(self.uvarint())]

    def remaining(self) -> int:
        """Bytes left to read."""
        return len(self._data) - self._pos

    def at_end(self) -> bool:
        """True when the whole buffer has been consumed."""
        return self._pos >= len(self._data)

    def expect_end(self) -> None:
        """Raise if trailing bytes remain (strict decoding)."""
        if not self.at_end():
            raise ChunkEncodingError(
                f"{self.remaining()} trailing byte(s) after decode"
            )

    def _take(self, count: int) -> bytes:
        end = self._pos + count
        if end > len(self._data):
            raise ChunkEncodingError(
                f"truncated read: wanted {count}, have {self.remaining()}"
            )
        out = self._data[self._pos : end]
        self._pos = end
        return out
