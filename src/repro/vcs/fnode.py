"""FNode: one committed version of one object.

The uid of an FNode is the SHA-256 of its canonical encoding, which
includes the value's POS-Tree root and the parent version uids.  The
``bases`` links therefore form a hash chain: rewriting any ancestor
changes every descendant uid, which is what lets a client detect history
tampering from the head uid alone (§II-D, §III-C).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.chunk import Chunk, ChunkType, Reader, Uid, Writer
from repro.errors import ChunkEncodingError


@dataclass(frozen=True)
class FNode:
    """An immutable version record in the derivation graph."""

    #: The data key this version belongs to.
    key: str
    #: ForkBase type of the value (``map``, ``blob``, …).
    type_name: str
    #: Merkle root of the value representation.
    value_root: Uid
    #: Parent version uids: () for an initial Put, one for a normal Put,
    #: two for a merge commit.
    bases: Tuple[Uid, ...] = ()
    #: Commit metadata.
    author: str = ""
    message: str = ""
    #: Seconds since epoch; part of the hashed content, like Git.
    timestamp: float = 0.0

    def encode(self) -> Chunk:
        """Canonical FNODE chunk (deterministic byte layout)."""
        writer = (
            Writer()
            .text(self.key)
            .text(self.type_name)
            .uid(self.value_root)
            .uid_list(self.bases)
            .text(self.author)
            .text(self.message)
            .float64(self.timestamp)
        )
        return Chunk(ChunkType.FNODE, writer.getvalue())

    @classmethod
    def decode(cls, chunk: Chunk) -> "FNode":
        """Parse an FNODE chunk."""
        if chunk.type != ChunkType.FNODE:
            raise ChunkEncodingError(f"expected FNODE chunk, got {chunk.type.name}")
        reader = Reader(chunk.data)
        node = cls(
            key=reader.text(),
            type_name=reader.text(),
            value_root=reader.uid(),
            bases=tuple(reader.uid_list()),
            author=reader.text(),
            message=reader.text(),
            timestamp=reader.float64(),
        )
        reader.expect_end()
        return node

    #: The decoder's name on every node kind, so one table decodes them all
    #: (:func:`repro.store.nodecache.decode_chunk`).
    from_chunk = decode

    @property
    def uid(self) -> Uid:
        """The tamper-evident version identifier."""
        return self.encode().uid

    def short_uid(self) -> str:
        """Abbreviated Base32 rendering (what the demo UI displays)."""
        return self.uid.base32()[:16]

    def is_merge(self) -> bool:
        """True for merge commits (two bases)."""
        return len(self.bases) >= 2

    def is_initial(self) -> bool:
        """True for the first version of a key on a fresh branch."""
        return not self.bases
