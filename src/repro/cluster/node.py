"""A simulated storage node: an in-memory chunk store with a health flag
and a request count.  Its service time is the transport's: every request
reaches it through :class:`~repro.faults.network.PartitionedTransport`,
which charges the ticks."""

from __future__ import annotations

from typing import Optional

from repro.chunk import Chunk, Uid
from repro.errors import NodeDownError
from repro.store.base import ChunkStore
from repro.store.memory import InMemoryStore


class StorageNode:
    """One member of the simulated cluster.

    ``store`` defaults to a fresh :class:`InMemoryStore`; fault-injection
    tests pass a :class:`~repro.faults.store.FaultyStore` instead, or put
    any lying wrapper on a running node with
    :meth:`~repro.faults.store.InterposedStore.install` (and take it off
    with ``remove``), so the node misbehaves exactly as its plan dictates.
    """

    def __init__(self, name: str, store: Optional[ChunkStore] = None) -> None:
        self.name = name
        self.store = store if store is not None else InMemoryStore()
        self.up = True
        self.requests = 0

    def _touch(self) -> None:
        if not self.up:
            raise NodeDownError(f"node {self.name} is down")
        self.requests += 1

    def ping(self) -> bool:
        """Heartbeat: the cheapest liveness check (raises if down)."""
        self._touch()
        return True

    def put(self, chunk: Chunk) -> bool:
        """Store a replica (raises if the node is down)."""
        self._touch()
        return self.store.put(chunk)

    def get(self, uid: Uid) -> Optional[Chunk]:
        """Fetch a replica or None (raises if the node is down)."""
        self._touch()
        return self.store.get_maybe(uid)

    def has(self, uid: Uid) -> bool:
        """Replica presence (raises if the node is down)."""
        self._touch()
        return self.store.has(uid)

    def drop(self, uid: Uid) -> bool:
        """Remove a replica (management-plane call, works while down).

        Used by rebalancing (shedding strays) and by scrub/read-repair
        (quarantining a rotten copy before re-replication).
        """
        return self.store.delete(uid)

    def chunk_count(self) -> int:
        """Replicas held (management-plane call, works while down)."""
        return len(self.store)

    def bytes_held(self) -> int:
        """Payload bytes held (management-plane call, works while down)."""
        return self.store.physical_size()

    def kill(self) -> None:
        """Fail the node."""
        self.up = False

    def revive(self, wipe: bool = False) -> None:
        """Bring the node back, optionally with its disk wiped."""
        self.up = True
        if wipe:
            if hasattr(self.store, "clear"):
                self.store.clear()  # type: ignore[attr-defined]
            else:
                for uid in self.store.ids():
                    self.store.delete(uid)

    def __repr__(self) -> str:
        state = "up" if self.up else "DOWN"
        return f"StorageNode({self.name}, {state}, {self.chunk_count()} chunks)"
