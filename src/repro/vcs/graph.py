"""The version derivation graph: FNode storage and ancestry queries."""

from __future__ import annotations

from collections import deque
from typing import Iterator, Optional, Set, Tuple

from repro.chunk import Chunk, ChunkType, Uid
from repro.errors import ChunkNotFoundError, UnknownVersionError
from repro.store.base import ChunkStore
from repro.vcs.fnode import FNode


class VersionGraph:
    """Reads and writes FNodes in a chunk store and answers DAG queries."""

    def __init__(self, store: ChunkStore) -> None:
        self.store = store

    def commit(self, fnode: FNode) -> Uid:
        """Materialize an FNode; returns its uid (idempotent)."""
        chunk = fnode.encode()
        self.store.put_nodes([(chunk, fnode)])
        return chunk.uid

    def load(self, uid: Uid) -> FNode:
        """Fetch an FNode or raise :class:`UnknownVersionError`.

        Through the store's node seam, so a store that remembers decoded
        nodes serves the version it was handed at :meth:`commit` (or
        decoded for an earlier load) without a fetch or a decode.
        """
        try:
            node = self.store.get_node(uid)
        except ChunkNotFoundError:
            raise UnknownVersionError(uid) from None
        if isinstance(node, FNode):
            return node
        if node.__class__ is Chunk and node.type == ChunkType.FNODE:
            return FNode.decode(node)
        raise UnknownVersionError(uid)

    def exists(self, uid: Uid) -> bool:
        """True if ``uid`` resolves to a stored FNode."""
        try:
            self.load(uid)
        except UnknownVersionError:
            return False
        return True

    def _walk(self, head: Uid) -> Iterator[Tuple[Uid, FNode]]:
        """``(uid, FNode)`` of every ancestor of ``head`` (inclusive),
        newest first (first parent order, BFS on merges).

        Each uid is the one the FNode was loaded by, so no caller re-hashes
        an FNode (``FNode.uid`` encodes it and runs SHA-256) to learn it.
        """
        seen: Set[Uid] = set()
        queue = deque([head])
        while queue:
            uid = queue.popleft()
            if uid in seen:
                continue
            seen.add(uid)
            fnode = self.load(uid)
            yield uid, fnode
            queue.extend(fnode.bases)

    def history(self, head: Uid, limit: Optional[int] = None) -> Iterator[FNode]:
        """Walk ancestors newest-first (first parent order, BFS on merges)."""
        for emitted, (_, fnode) in enumerate(self._walk(head), 1):
            yield fnode
            if limit is not None and emitted >= limit:
                return

    def ancestors(self, head: Uid) -> Set[Uid]:
        """Every version reachable from ``head`` (inclusive)."""
        return {uid for uid, _ in self._walk(head)}

    def is_ancestor(self, maybe_ancestor: Uid, head: Uid) -> bool:
        """True if ``maybe_ancestor`` is reachable from ``head``."""
        if maybe_ancestor == head:
            return True
        return any(uid == maybe_ancestor for uid, _ in self._walk(head))

    def lowest_common_ancestor(self, a: Uid, b: Uid) -> Optional[Uid]:
        """Merge base: the first version reachable from both heads.

        Interleaved BFS, so the nearest common ancestor wins on chains.
        """
        if a == b:
            return a
        seen_a: Set[Uid] = set()
        seen_b: Set[Uid] = set()
        queue_a = deque([a])
        queue_b = deque([b])
        while queue_a or queue_b:
            if queue_a:
                uid = queue_a.popleft()
                if uid in seen_b:
                    return uid
                if uid not in seen_a:
                    seen_a.add(uid)
                    queue_a.extend(self.load(uid).bases)
            if queue_b:
                uid = queue_b.popleft()
                if uid in seen_a:
                    return uid
                if uid not in seen_b:
                    seen_b.add(uid)
                    queue_b.extend(self.load(uid).bases)
        return None

    def chain_length(self, head: Uid) -> int:
        """Number of versions reachable from ``head``."""
        return sum(1 for _ in self.history(head))
