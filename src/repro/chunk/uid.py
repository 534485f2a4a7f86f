"""Content addresses (uids).

A :class:`Uid` is the SHA-256 digest of a chunk's type tag and payload.  It
is the only kind of "pointer" in the system: POS-Tree index entries, FNode
value references and derivation links are all uids (paper §II-A: "the child
node's identifier is the cryptographic hash value of the child").

The demo paper (§III-C) displays versions "encoded using the RFC 4648
Base32 alphabet"; :meth:`Uid.base32` reproduces that rendering.
"""

from __future__ import annotations

import base64
import hashlib

_DIGEST_SIZE = 32
_BASE32_LEN = 52  # ceil(32 * 8 / 5) without padding


class Uid:
    """An immutable 32-byte content address.

    Instances compare by digest bytes, hash cheaply (first 8 bytes), and
    sort lexicographically so they can key ordered structures.
    """

    __slots__ = ("_digest", "_hash")

    def __init__(self, digest: bytes) -> None:
        # Every hot constructor (hashing, the codec, index loads) hands
        # over an exact ``bytes``: that path pays one class test, no copy.
        if digest.__class__ is not bytes:
            if not isinstance(digest, (bytearray, memoryview)):
                raise TypeError(f"digest must be bytes, got {type(digest).__name__}")
            digest = bytes(digest)
        if len(digest) != _DIGEST_SIZE:
            raise ValueError(
                f"digest must be {_DIGEST_SIZE} bytes, got {len(digest)}"
            )
        self._digest = digest
        self._hash = int.from_bytes(digest[:8], "big")

    @classmethod
    def of(cls, data: bytes) -> "Uid":
        """Hash raw bytes into a uid (SHA-256)."""
        return cls(hashlib.sha256(data).digest())

    @classmethod
    def from_hex(cls, text: str) -> "Uid":
        """Parse a 64-char hex rendering."""
        return cls(bytes.fromhex(text))

    @classmethod
    def from_base32(cls, text: str) -> "Uid":
        """Parse the RFC 4648 Base32 rendering produced by :meth:`base32`."""
        text = text.upper()
        padding = "=" * (-len(text) % 8)
        raw = base64.b32decode(text + padding)
        return cls(raw)

    @classmethod
    def parse(cls, text: str) -> "Uid":
        """Parse either rendering, dispatching on length."""
        text = text.strip()
        if len(text) == _DIGEST_SIZE * 2:
            return cls.from_hex(text)
        if len(text) == _BASE32_LEN:
            return cls.from_base32(text)
        raise ValueError(f"unrecognized uid rendering: {text!r}")

    @property
    def digest(self) -> bytes:
        """The raw 32-byte SHA-256 digest."""
        return self._digest

    def hex(self) -> str:
        """Lowercase hex rendering (64 chars)."""
        return self._digest.hex()

    def base32(self) -> str:
        """RFC 4648 Base32 rendering without padding (52 chars, §III-C)."""
        return base64.b32encode(self._digest).decode("ascii").rstrip("=")

    def short(self, length: int = 10) -> str:
        """Abbreviated Base32 prefix for human-oriented output.

        Encodes only the leading bytes those characters cover (5 bits
        each), not all 32 and then a slice.
        """
        if not 0 <= length < _BASE32_LEN:
            return self.base32()[:length]
        needed = (length * 5 + 7) // 8
        return base64.b32encode(self._digest[:needed]).decode("ascii")[:length]

    def __bytes__(self) -> bytes:
        return self._digest

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Uid):
            return self._digest == other._digest
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        if isinstance(other, Uid):
            return self._digest != other._digest
        return NotImplemented

    def __lt__(self, other: "Uid") -> bool:
        return self._digest < other._digest

    def __le__(self, other: "Uid") -> bool:
        return self._digest <= other._digest

    def __gt__(self, other: "Uid") -> bool:
        return self._digest > other._digest

    def __ge__(self, other: "Uid") -> bool:
        return self._digest >= other._digest

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Uid({self.short()}…)"


#: Sentinel uid (all zero bytes); used to mark "no value" references.
NULL_UID = Uid(b"\x00" * _DIGEST_SIZE)
