"""Byzantine-node fault injection (the node plane of :mod:`repro.faults`).

The other planes model *honest* failures.  A byzantine node is different
in kind: it is *up*, *responsive*, and **lying** — the untrusted storage
provider of the paper's threat model (§III-C), scaled from one local
store (:class:`~repro.faults.store.TamperingStore`) to a cluster replica
that other machinery trusts for reads, write acks, anti-entropy digests,
and hint replays.

A :class:`ByzantinePlan` is a pure description of *how* a node lies:
every decision is a kernel draw at ``(seed, node, behavior, op, uid,
attempt)``.  :class:`ByzantineStore` applies the plan to one node's
backing store; :func:`make_byzantine` installs it on a cluster
:class:`~repro.cluster.node.StorageNode` in place.

Behaviors (each with its own rate):

- **flip** — serve well-formed-but-wrong bytes under the claimed uid;
- **substitute** — serve another held chunk's content under the claimed
  uid (the replay attack);
- **withhold** — claim not-found for a chunk the node holds;
- **fake ack** — acknowledge a write without storing anything;
- **conceal / forge index** — misreport holdings to anti-entropy: hide
  held uids (fabricated divergence, wasted transfers) or claim fake-acked
  uids (masked divergence behind agreeing digests);
- **corrupt hint** — replay a hinted-handoff payload with flipped bytes
  (see :func:`corrupt_queued_hints`).

The defense stack lives in :mod:`repro.cluster.accountability` and the
hardened :mod:`repro.cluster.antientropy`; this module is only the attack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set

from repro.chunk import Chunk, Uid
from repro.faults import kernel
from repro.faults.store import InterposedStore
from repro.store.base import ChunkStore


@dataclass(frozen=True)
class ByzantinePlan:
    """Seeded description of how a chosen node lies, one rate per behavior.

    Rates are probabilities in ``[0, 1]`` evaluated independently per
    operation attempt; ``forge_index`` additionally makes the node claim
    fake-acked uids to anti-entropy so its digests *agree* while its
    holdings diverge (the masked-divergence forgery the spot-check audit
    exists to catch).
    """

    seed: int = 0
    flip_rate: float = 0.0
    substitute_rate: float = 0.0
    withhold_rate: float = 0.0
    fake_ack_rate: float = 0.0
    conceal_rate: float = 0.0
    hint_corrupt_rate: float = 0.0
    forge_index: bool = False

    def __post_init__(self) -> None:
        kernel.check_rates(self)

    # -- deterministic draws: (seed, node, behavior, op, uid, attempt) ---------

    def _at(self, node: str, behavior: str, op: str, uid: Uid, attempt: int) -> tuple:
        return (self.seed, node, behavior, op, uid, attempt)

    def draw(
        self, node: str, behavior: str, op: str, uid: Uid, attempt: int
    ) -> float:
        """Uniform ``[0, 1)`` for one (node, behavior, op, uid, attempt)."""
        return kernel.unit(*self._at(node, behavior, op, uid, attempt))

    def flip(self, node: str, op: str, uid: Uid, attempt: int) -> bool:
        """Should this read serve flipped bytes under the claimed uid?"""
        return kernel.chance(self.flip_rate, *self._at(node, "flip", op, uid, attempt))

    def substitute(self, node: str, op: str, uid: Uid, attempt: int) -> bool:
        """Should this read serve another chunk's content (replay)?"""
        return kernel.chance(
            self.substitute_rate, *self._at(node, "substitute", op, uid, attempt)
        )

    def withhold(self, node: str, op: str, uid: Uid, attempt: int) -> bool:
        """Should this read claim not-found for a held chunk?"""
        return kernel.chance(self.withhold_rate, *self._at(node, "withhold", op, uid, attempt))

    def fake_ack(self, node: str, op: str, uid: Uid, attempt: int) -> bool:
        """Should this write be acknowledged but never stored?"""
        return kernel.chance(self.fake_ack_rate, *self._at(node, "fake-ack", op, uid, attempt))

    def conceal(self, node: str, uid: Uid) -> bool:
        """Should this uid be hidden from the node's claimed index?"""
        return kernel.chance(self.conceal_rate, *self._at(node, "conceal", "index", uid, 0))

    def corrupt_hint(self, node: str, uid: Uid, attempt: int) -> bool:
        """Should this queued hint payload be replayed corrupted?"""
        return kernel.chance(
            self.hint_corrupt_rate, *self._at(node, "corrupt-hint", "hint", uid, attempt)
        )

    def mutate(
        self, node: str, op: str, data: bytes, uid: Uid, attempt: int
    ) -> bytes:
        """Deterministically flip one byte of ``data`` (never a no-op)."""
        return kernel.mutate(data, *self._at(node, "mutation", op, uid, attempt))

    def pick(
        self, node: str, behavior: str, op: str, uid: Uid, attempt: int, n: int
    ) -> int:
        """A deterministic index in ``[0, n)`` (donor selection)."""
        return kernel.pick(*self._at(node, behavior, op, uid, attempt), n=n)

    def lying(self) -> bool:
        """Does this plan misbehave at all? (All-zero plans are honest.)"""
        return self.forge_index or any(getattr(self, r) > 0.0 for r in kernel.rate_fields(self))


class ByzantineStore(InterposedStore):
    """One node's store under a :class:`ByzantinePlan`'s control.

    Interposed on the node's honest backing store the way
    :class:`~repro.faults.store.FaultyStore` is on a rotting one, but the
    lies are *adversarial*: wrong bytes arrive well-formed under the
    claimed uid, withheld chunks are claimed not-found, fake-acked writes
    vanish, and :meth:`claimed_ids` misreports holdings to anti-entropy.
    """

    def __init__(
        self, backing: ChunkStore, plan: ByzantinePlan, node: str = ""
    ) -> None:
        super().__init__(backing)
        self.plan = plan
        self.node = node
        #: Writes acknowledged but never materialized (and, with
        #: ``forge_index``, still *claimed* to anti-entropy).
        self._fake_acked: Set[Uid] = set()
        self.lies_served = 0
        self.reads_withheld = 0
        self.writes_faked = 0
        self.index_forgeries = 0

    def _donor(self, uid: Uid) -> Optional[Chunk]:
        """A deterministically chosen *other* held chunk (replay source)."""
        others = sorted(u for u in self.backing.ids() if u != uid)
        if not others:
            return None
        choice = others[self.plan.pick(self.node, "donor", "get", uid, 0, len(others))]
        return self.backing.get_maybe(choice)

    # -- ChunkStore primitives -----------------------------------------------

    def _insert(self, chunk: Chunk) -> None:
        attempt = self._attempt("put", chunk.uid)
        if self.plan.fake_ack(self.node, "put", chunk.uid, attempt):
            self.writes_faked += 1
            self._fake_acked.add(chunk.uid)
            return
        self._fake_acked.discard(chunk.uid)
        self.backing.put(chunk)

    def _fetch(self, uid: Uid) -> Optional[Chunk]:
        chunk = self.backing.get_maybe(uid)
        if chunk is None:
            return None
        attempt = self._attempt("get", uid)
        if self.plan.withhold(self.node, "get", uid, attempt):
            self.reads_withheld += 1
            return None
        if self.plan.substitute(self.node, "get", uid, attempt):
            donor = self._donor(uid)
            if donor is not None:
                self.lies_served += 1
                return Chunk(donor.type, donor.data, uid=uid)
        if self.plan.flip(self.node, "get", uid, attempt):
            self.lies_served += 1
            lie = self.plan.mutate(self.node, "get", chunk.data, uid, attempt)
            return Chunk(chunk.type, lie, uid=uid)
        return chunk

    def _contains(self, uid: Uid) -> bool:
        held = self.backing.has(uid)
        if held and self.plan.withhold(
            self.node, "has", uid, self._attempt("has", uid)
        ):
            self.reads_withheld += 1
            return False
        return held

    def _delete(self, uid: Uid) -> bool:
        self._fake_acked.discard(uid)
        return self.backing.delete(uid)

    # -- the anti-entropy forgery surface -------------------------------------

    def claimed_ids(self) -> List[Uid]:
        """The holdings this node *reports* to Merkle anti-entropy.

        Honest nodes have no such hook: their index is built by verified
        local reads.  A byzantine node self-reports — with ``forge_index``
        it claims fake-acked uids it never stored (digests agree, bytes
        don't exist: masked divergence), and ``conceal_rate`` hides held
        uids (digests differ where holdings agree: fabricated divergence
        that induces wasted transfers).  The seeded spot-check audit in
        :func:`~repro.cluster.antientropy.anti_entropy_pass` is the
        defense: sampled claims must be substantiated by verifying bytes.
        """
        claimed = set(self.backing.ids())
        if self.plan.forge_index and self._fake_acked:
            self.index_forgeries += len(self._fake_acked - claimed)
            claimed |= self._fake_acked
        if self.plan.conceal_rate > 0.0:
            kept: Set[Uid] = set()
            for uid in claimed:
                if self.plan.conceal(self.node, uid):
                    self.index_forgeries += 1
                else:
                    kept.add(uid)
            claimed = kept
        return sorted(claimed)


def make_byzantine(node: object, plan: ByzantinePlan) -> ByzantineStore:
    """Turn a cluster ``StorageNode`` adversarial in place:
    :meth:`~repro.faults.store.InterposedStore.install` with the node's own
    name as the plan's node coordinate.  The adversary gives up with
    ``ByzantineStore.remove(node)``, which restores the honest backing
    store — including any real divergence the lies caused."""
    return ByzantineStore.install(node, plan, node=str(node.name))  # type: ignore[attr-defined]


def corrupt_queued_hints(cluster: object, plan: ByzantinePlan) -> int:
    """Replay-corrupt pending hinted-handoff payloads per the plan.

    Models a byzantine *hint holder*: hints live in the writer's memory
    (see ``ClusterStore.drop_hints``), so a compromised writer can replay
    them with flipped bytes under the original uid.  Works on the
    cluster's public hint queue (``hints``: node name -> uid -> chunk);
    the receiving-side verification of the replay is the defense.
    Returns the number of hints corrupted.
    """
    corrupted = 0
    queues = cluster.hints  # type: ignore[attr-defined]
    for name, hints in sorted(queues.items()):
        for uid in sorted(hints):
            if not plan.corrupt_hint(name, uid, 0):
                continue
            chunk = hints[uid]
            lie = plan.mutate(name, "hint", chunk.data, uid, 0)
            hints[uid] = Chunk(chunk.type, lie, uid=uid)
            corrupted += 1
    return corrupted
