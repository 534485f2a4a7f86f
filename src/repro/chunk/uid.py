"""Content addresses (uids).

A :class:`Uid` is the SHA-256 digest of a chunk's type tag and payload.  It
is the only kind of "pointer" in the system: POS-Tree index entries, FNode
value references and derivation links are all uids (paper §II-A: "the child
node's identifier is the cryptographic hash value of the child").

A uid *is* its digest: :class:`Uid` subclasses ``bytes``, so every
uid-keyed dict probe on a tree descent hashes and compares in C, and uids
sort lexicographically by digest.  Like any ``bytes``, its hash is salted
per process (``PYTHONHASHSEED``): wherever the order of a *set* of uids
could reach bytes, a message or a counter, sort it first.

The demo paper (§III-C) displays versions "encoded using the RFC 4648
Base32 alphabet"; :meth:`Uid.base32` reproduces that rendering.
"""

from __future__ import annotations

import base64
import hashlib

_DIGEST_SIZE = 32
_BASE32_LEN = 52  # ceil(32 * 8 / 5) without padding


class Uid(bytes):
    """An immutable 32-byte content address: the digest bytes themselves.

    ``Uid(...)`` checks its argument.  A hot constructor that holds
    exactly 32 bytes by construction (a SHA-256 digest, a fixed-width
    read) builds with ``bytes.__new__(Uid, digest)`` and skips the checks.
    """

    __slots__ = ()

    def __new__(cls, digest: bytes) -> "Uid":
        if not isinstance(digest, (bytes, bytearray, memoryview)):
            raise TypeError(f"digest must be bytes, got {type(digest).__name__}")
        uid = bytes.__new__(cls, digest)
        if len(uid) != _DIGEST_SIZE:
            raise ValueError(f"digest must be {_DIGEST_SIZE} bytes, got {len(uid)}")
        return uid

    @classmethod
    def of(cls, data: bytes) -> "Uid":
        """Hash raw bytes into a uid (SHA-256)."""
        return cls(hashlib.sha256(data).digest())

    @classmethod
    def from_hex(cls, text: str) -> "Uid":
        """Parse a 64-char hex rendering (:meth:`hex` is ``bytes.hex``)."""
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
        """The digest as a plain ``bytes`` copy (a uid already is one)."""
        return bytes(self)

    def base32(self) -> str:
        """RFC 4648 Base32 rendering without padding (52 chars, §III-C)."""
        return base64.b32encode(self).decode("ascii").rstrip("=")

    def short(self, length: int = 10) -> str:
        """Abbreviated Base32 prefix for human-oriented output.

        Encodes only the leading bytes those characters cover (5 bits
        each), not all 32 and then a slice.
        """
        if not 0 <= length < _BASE32_LEN:
            return self.base32()[:length]
        needed = (length * 5 + 7) // 8
        return base64.b32encode(self[:needed]).decode("ascii")[:length]

    def __repr__(self) -> str:
        return f"Uid({self.short()}…)"

    # ``bytes.__str__`` would print the raw digest.
    __str__ = __repr__


#: Sentinel uid (all zero bytes); used to mark "no value" references.
NULL_UID = Uid(bytes(_DIGEST_SIZE))
