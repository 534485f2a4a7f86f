"""Stores that lie: one interposing wrapper, three behaviours.

An :class:`InterposedStore` sits between a component and its honest
backing store and misbehaves in whichever primitives a subclass
overrides; everything else passes through
(:class:`~repro.store.base.WrapperStore`), and a batch put still reaches
``_insert`` once per chunk, so no lie can be bypassed by batching.
:class:`FaultyStore` rots (seeded :class:`~repro.faults.plan.FaultPlan`),
:class:`~repro.faults.byzantine.ByzantineStore` attacks (seeded
``ByzantinePlan``), :class:`TamperingStore` follows a test's script.  The
seeded two key each decision by ``(op kind, uid, attempt)``: the Nth
access to a chunk always behaves the same, and a retry re-draws.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Set

from repro.chunk import Chunk, Uid
from repro.errors import TransientStoreError
from repro.faults.kernel import Attempts, flip_at
from repro.faults.plan import FaultPlan
from repro.store.base import ChunkStore, WrapperStore


class InterposedStore(WrapperStore):
    """A lying wrapper: the attempt counter, and putting it on a node.
    Never verifies its own reads — wrong bytes under the claimed uid are
    the point; catching them is the job of the layer above."""

    def __init__(self, backing: ChunkStore) -> None:
        super().__init__(backing, verify_reads=False)
        # Sweeping in place through a store that lies about its holdings
        # would delete chunks it merely withholds: gc must refuse.
        self.supports_in_place_sweep = False
        #: ``_attempt(kind, uid)`` -> next attempt index for that pair.
        self._attempt = Attempts().next

    @classmethod
    def install(cls, node: object, /, *args: object, **kwargs: object) -> "InterposedStore":
        """Interpose ``cls(node.store, ...)`` on a cluster node in place
        (duck-typed on ``node.store``: no cluster import); undo with
        :meth:`remove`."""
        wrapper = cls(node.store, *args, **kwargs)  # type: ignore[attr-defined]
        node.store = wrapper  # type: ignore[attr-defined]
        return wrapper

    @classmethod
    def remove(cls, node: object) -> bool:
        """Restore the honest backing store as ``node.store``; False
        when the node's store is not a ``cls`` wrapper."""
        store = getattr(node, "store", None)
        if not isinstance(store, cls):
            return False
        node.store = store.backing  # type: ignore[attr-defined]
        return True


class FaultyStore(InterposedStore):
    """Applies a seeded :class:`FaultPlan` to every put and get."""

    def __init__(self, backing: ChunkStore, plan: FaultPlan, name: str = "") -> None:
        super().__init__(backing)
        # A named store gets its own fault stream so that replicas of the
        # same chunk on different nodes do not fail in lockstep.
        self.plan = plan.scoped(name) if name else plan
        self.name = name
        self.injected_corrupt_reads = 0
        self.injected_dropped_puts = 0
        self.injected_torn_puts = 0
        self.injected_transient_errors = 0

    def _maybe_transient(self, kind: str, uid: Uid, attempt: int) -> None:
        if self.plan.transient_error(kind, uid, attempt):
            self.injected_transient_errors += 1
            raise TransientStoreError(
                f"injected transient fault on {kind} {uid.short()}"
                + (f" at {self.name}" if self.name else "")
            )

    def _insert(self, chunk: Chunk) -> None:
        attempt = self._attempt("put", chunk.uid)
        self._maybe_transient("put", chunk.uid, attempt)
        if self.plan.drop_put(chunk.uid, attempt):
            # Acknowledged but never materialized: a lost write.
            self.injected_dropped_puts += 1
            return
        if self.plan.torn_put(chunk.uid, attempt):
            # Materialized truncated under the original uid: persistent
            # corruption only a scrub (or verified read) can catch.
            self.injected_torn_puts += 1
            torn = self.plan.tear(chunk.data, chunk.uid, attempt)
            self.backing.put(Chunk(chunk.type, torn, uid=chunk.uid))
            return
        self.backing.put(chunk)

    def _fetch(self, uid: Uid) -> Optional[Chunk]:
        attempt = self._attempt("get", uid)
        self._maybe_transient("get", uid, attempt)
        chunk = self.backing.get_maybe(uid)
        if chunk is None:
            return None
        if self.plan.corrupt_read(uid, attempt):
            # Bit rot on the wire: wrong bytes under the claimed uid.
            self.injected_corrupt_reads += 1
            return Chunk(chunk.type, self.plan.mutate(chunk.data, uid, attempt), uid=uid)
        return chunk


class TamperingStore(InterposedStore):
    """A chunk store under scripted adversarial control.

    Lets a test or benchmark act as the adversary of the paper's threat
    model: return modified bytes for a known uid, swap one chunk's
    content for another's, or drop chunks entirely — always under the
    *claimed* uid, exactly what client-side verification must catch.
    Wrap a flat store directly (the single-provider threat model), or
    :meth:`install` it on one cluster replica: the per-uid counterpart to
    the rate-driven :class:`~repro.faults.byzantine.ByzantinePlan`.
    """

    def __init__(self, backing: ChunkStore) -> None:
        super().__init__(backing)
        self._overrides: Dict[Uid, Chunk] = {}
        self._dropped: Set[Uid] = set()

    # -- adversary actions -----------------------------------------------------

    def flip_byte(self, uid: Uid, offset: int = 0) -> None:
        """Flip one payload byte (classic silent-corruption model)."""
        original = self.backing.get(uid)
        self._overrides[uid] = Chunk(
            original.type, flip_at(original.data, offset), uid=uid
        )

    def substitute(self, uid: Uid, other: Uid) -> None:
        """Serve another chunk's content under this uid (replay attack)."""
        donor = self.backing.get(other)
        self._overrides[uid] = Chunk(donor.type, donor.data, uid=uid)

    def drop_chunk(self, uid: Uid) -> None:
        """Pretend the chunk was never stored (withholding attack)."""
        self._dropped.add(uid)

    def heal(self, uid: Optional[Uid] = None) -> None:
        """Undo tampering for one uid (or everything)."""
        if uid is None:
            self._overrides.clear()
            self._dropped.clear()
        else:
            self._overrides.pop(uid, None)
            self._dropped.discard(uid)

    # -- the primitives it lies in ---------------------------------------------

    def _fetch(self, uid: Uid) -> Optional[Chunk]:
        if uid in self._dropped:
            return None
        if uid in self._overrides:
            return self._overrides[uid]
        return self.backing.get_maybe(uid)

    def _contains(self, uid: Uid) -> bool:
        if uid in self._dropped:
            return False
        return uid in self._overrides or self.backing.has(uid)

    def _ids(self) -> Iterator[Uid]:
        for uid in self.backing.ids():
            if uid not in self._dropped:
                yield uid

    def _delete(self, uid: Uid) -> bool:
        self.heal(uid)
        return self.backing.delete(uid)

    # A withheld chunk is also missing from the count and the byte total.
    __len__ = ChunkStore.__len__
    physical_size = ChunkStore.physical_size
