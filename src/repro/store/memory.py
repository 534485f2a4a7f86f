"""Dict-backed chunk store (the default substrate for tests and benches)."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.chunk import Chunk, Uid
from repro.chunk.chunk import split_valid
from repro.store.base import ChunkStore


class InMemoryStore(ChunkStore):
    """Chunks held in a process-local dict keyed by uid."""

    supports_in_place_sweep = True

    def __init__(self, verify_reads: bool = False) -> None:
        super().__init__(verify_reads=verify_reads)
        self._chunks: Dict[Uid, Chunk] = {}

    def _insert(self, chunk: Chunk) -> None:
        self._chunks[chunk.uid] = chunk

    def _fetch(self, uid: Uid) -> Optional[Chunk]:
        return self._chunks.get(uid)

    def _contains(self, uid: Uid) -> bool:
        return uid in self._chunks

    def _ids(self) -> Iterator[Uid]:
        return iter(list(self._chunks.keys()))

    def _delete(self, uid: Uid) -> bool:
        return self._chunks.pop(uid, None) is not None

    def verify_holdings(self) -> Tuple[Set[Uid], List[Uid]]:
        """One SHA-256 per copy over a snapshot of the dict, no read each.

        Counts the gets and served bytes that one :meth:`get_maybe` per
        copy would have.  A verifying store, and a subclass that reads
        through its own ``_fetch``, take the per-read default instead.
        """
        if self.verify_reads or type(self)._fetch is not InMemoryStore._fetch:
            return super().verify_holdings()
        held = dict(self._chunks)
        valid, suspects, served = split_valid(held)
        self.stats.gets += len(held)
        self.stats.served_bytes += served
        return valid, suspects

    def __len__(self) -> int:
        return len(self._chunks)

    def physical_size(self) -> int:
        return sum(chunk.size() for chunk in self._chunks.values())

    def clear(self) -> None:
        """Drop every chunk (testing helper; violates immutability on purpose)."""
        self._chunks.clear()
