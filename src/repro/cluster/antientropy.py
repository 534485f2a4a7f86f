"""Merkle anti-entropy: structure-aware replica reconciliation.

The SIRI properties that make Fast Diff O(D log N) (paper §II-B) apply to
replicas too: two copies of the same uid space can be compared by digest
and reconciled by descending only into the parts that differ, instead of
sweeping every chunk on every node.  :func:`anti_entropy_pass` is the
cluster's one repair loop: the only path that re-ships a replica copy
(node to node, as ``src -> dst`` messages, so a partition that cuts the
coordinator off does not stop two nodes on one side), and ``scrub`` on a
cluster drops the rot it finds and leaves the re-shipping to one pass.

Each node's holdings are summarized by a :class:`DigestTree`: uids are
bucketed by their **ring position** (the same coordinate placement uses,
so a bucket is a contiguous arc of the ring), each bucket's digest is the
XOR of its member uid digests (order-independent, incremental), and the
buckets are folded into a binary Merkle tree with SHA-256 — the same
``chunk.uid`` hash the whole substrate is built on.  Equal roots mean
equal holdings; a diff descends only through differing interior nodes and
returns exactly the differing buckets.

A pass then ships **only the missing or rotten chunks**: building a
node's *index* re-hashes every local copy on every pass, so a rotted
replica drops out of its node's index, shows up as a differing bucket,
and gets re-shipped from a trusted peer whose copy verifies (read
through ``diagnose_copy``) — O(divergence) transfers, not O(N).  The
node's store does the re-hashing in one scan
(``ChunkStore.verify_holdings``: one SHA-256 per copy on the in-memory
node store, one verified read per copy through any wrapper), and only
the copies that fail it get the scrubber's wire-vs-disk re-read.  The
*trees* are not rebuilt from that index: one :class:`ReplicaDigests`
per cluster carries them (and the ring placement of every held uid)
from pass to pass and folds in only what the fresh index says changed,
so digest maintenance costs O(changed · depth).
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Tuple

from repro.chunk import Uid
from repro.cluster.replica import place
from repro.cluster.ring import POSITION_BITS, HashRing, ring_position
from repro.faults import kernel
from repro.store.scrub import diagnose_copy

if TYPE_CHECKING:  # pragma: no cover - type-only imports, no runtime cycle
    from repro.cluster.cluster import ClusterStore
    from repro.cluster.node import StorageNode

#: 2**8 = 256 leaf buckets: fine enough that 1% divergence on a 10k-chunk
#: store touches a minority of buckets, coarse enough that trees stay tiny.
DEFAULT_DEPTH = 8

_EMPTY_DIGEST = b"\x00" * 32


class DigestTree:
    """A Merkle summary of one node's uid holdings, bucketed by ring arc.

    Incremental: ``add``/``remove`` update the bucket's XOR accumulator
    and mark the bucket dirty; the next digest read re-hashes only the
    interior nodes above dirty buckets.
    """

    __slots__ = ("depth", "buckets", "_sums", "_levels", "_dirty")

    def __init__(self, depth: int = DEFAULT_DEPTH) -> None:
        if not 1 <= depth <= 16:
            raise ValueError(f"depth must be in [1, 16], got {depth}")
        self.depth = depth
        #: Per-bucket member sets (bucket index -> uids on this arc).
        self.buckets: List[Set[Uid]] = [set() for _ in range(1 << depth)]
        #: Per-bucket XOR of member uid digests, as an int.
        self._sums = [0] * (1 << depth)
        #: Tree levels, root first: levels[0] = [root], levels[depth] = leaves.
        self._levels = [[_EMPTY_DIGEST] * (1 << level) for level in range(depth + 1)]
        #: Buckets whose leaf and ancestors are stale (all, until first fold).
        self._dirty: Set[int] = set(range(1 << depth))

    @classmethod
    def from_uids(cls, uids: Iterable[Uid], depth: int = DEFAULT_DEPTH) -> "DigestTree":
        """Build a tree over a uid collection."""
        tree = cls(depth)
        for uid in uids:
            tree.add(uid)
        return tree

    def bucket_of(self, uid: Uid) -> int:
        """Which bucket (ring arc) a uid falls into."""
        return ring_position(uid) >> (POSITION_BITS - self.depth)

    def add(self, uid: Uid, bucket: Optional[int] = None) -> None:
        """Include a uid (idempotent); ``bucket`` is a memoised ``bucket_of(uid)``."""
        if bucket is None:
            bucket = self.bucket_of(uid)
        members = self.buckets[bucket]
        if uid not in members:
            members.add(uid)
            self._sums[bucket] ^= int.from_bytes(uid, "big")
            self._dirty.add(bucket)

    def remove(self, uid: Uid, bucket: Optional[int] = None) -> None:
        """Exclude a uid (no-op when absent); ``bucket`` as for :meth:`add`."""
        if bucket is None:
            bucket = self.bucket_of(uid)
        members = self.buckets[bucket]
        if uid in members:
            members.remove(uid)
            self._sums[bucket] ^= int.from_bytes(uid, "big")
            self._dirty.add(bucket)

    def bucket_uids(self, index: int) -> Set[Uid]:
        """The member set of one bucket (treat as read-only)."""
        return self.buckets[index]

    def bucket_digest(self, index: int) -> bytes:
        """XOR of member uid digests: order-independent and incremental."""
        return self._sums[index].to_bytes(32, "big")

    def _level_digests(self) -> List[List[bytes]]:
        """All tree levels, root first, re-folding only above dirty buckets."""
        levels = self._levels
        touched = self._dirty
        if touched:
            leaves = levels[self.depth]
            for index in touched:
                leaves[index] = self.bucket_digest(index)
            for level in range(self.depth - 1, -1, -1):
                touched = {index >> 1 for index in touched}
                here, below = levels[level], levels[level + 1]
                for index in touched:
                    here[index] = hashlib.sha256(
                        below[2 * index] + below[2 * index + 1]
                    ).digest()
            self._dirty = set()
        return levels

    def root(self) -> bytes:
        """The Merkle root: equal roots mean identical holdings."""
        return self._level_digests()[0][0]

    def diff(self, other: "DigestTree") -> Tuple[List[int], int]:
        """Differing bucket indices plus the number of tree nodes compared.

        Descends only into subtrees whose digests differ, so comparing
        two nearly identical trees costs O(divergence · depth) node
        comparisons — the replica-reconciliation analogue of Fast Diff.
        """
        if self.depth != other.depth:
            raise ValueError("cannot diff digest trees of different depth")
        mine = self._level_digests()
        theirs = other._level_digests()
        compared = 0
        differing: List[int] = []
        stack: List[Tuple[int, int]] = [(0, 0)]
        while stack:
            level, index = stack.pop()
            compared += 1
            if mine[level][index] == theirs[level][index]:
                continue
            if level == self.depth:
                differing.append(index)
            else:
                stack.append((level + 1, 2 * index + 1))
                stack.append((level + 1, 2 * index))
        return sorted(differing), compared

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self.buckets)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DigestTree):
            return self.depth == other.depth and self.root() == other.root()
        return NotImplemented

    def __repr__(self) -> str:
        return f"DigestTree(depth={self.depth}, uids={len(self)})"


@dataclass
class SyncReport:
    """Counters from one anti-entropy pass.

    ``chunks_transferred`` is the headline number: the torture suite
    asserts it is O(divergence) — bounded by what diverged, far below the
    chunks the cluster holds.
    """

    #: Queued hints replayed before the Merkle phase (cheap, exact).
    hints_flushed: int = 0
    #: Local copies re-hashed while building digest indexes.
    copies_verified: int = 0
    #: Copies whose bytes failed uid verification and were quarantined.
    rotten_quarantined: int = 0
    #: First-read mismatches a re-read resolved (wire, not disk).
    wire_mismatches: int = 0
    #: Copies skipped because every read attempt failed transiently.
    unreadable: int = 0
    #: Digest trees consulted: one per destination plus one per pull (16
    #: on four nodes).  A count of comparisons set up, not of
    #: constructions — the trees themselves live in :class:`ReplicaDigests`.
    trees_built: int = 0
    #: Merkle tree nodes compared across every diff descent.
    tree_nodes_compared: int = 0
    #: Buckets that differed and were opened.
    buckets_differing: int = 0
    #: Candidate uids examined inside differing buckets.
    chunks_examined: int = 0
    #: Replica copies actually shipped between nodes.
    chunks_transferred: int = 0
    #: Transfers abandoned past the retry budget (a later pass retries).
    transfer_failures: int = 0
    #: Directional pulls executed.
    pulls: int = 0
    #: Hint replays rejected on the receiving side (payload failed to
    #: hash to its uid) during this pass's flush phase.
    hints_rejected: int = 0
    #: Live nodes excluded from the pass because they are QUARANTINED.
    quarantined_excluded: int = 0
    #: Self-reported (unverified) index claims spot-check-audited.
    audit_samples: int = 0
    #: Audited claims the node could not substantiate (strike-grade).
    audit_failures: int = 0

    def describe(self) -> str:
        """One-line summary."""
        return (
            f"anti-entropy: {self.hints_flushed} hints flushed, "
            f"{self.pulls} pulls, {self.copies_verified} copies verified, "
            f"{self.tree_nodes_compared} tree nodes compared, "
            f"{self.buckets_differing} buckets differed -> "
            f"{self.chunks_transferred} transferred "
            f"({self.rotten_quarantined} rotten quarantined, "
            f"{self.transfer_failures} failed, "
            f"{self.hints_rejected} hints rejected, "
            f"{self.audit_failures}/{self.audit_samples} audits failed)"
        )


def build_valid_index(
    cluster: "ClusterStore",
    node: "StorageNode",
    report: Optional[SyncReport] = None,
    quarantine: bool = True,
) -> Tuple[Set[Uid], List[Uid]]:
    """Every uid on ``node`` whose bytes re-hash to their address, plus
    the listed uids left out of that index (in listing order).

    The node's store re-hashes every copy it lists in one scan
    (:meth:`~repro.store.base.ChunkStore.verify_holdings`); only the
    suspects it returns go through the scrubber's wire-vs-disk
    discrimination: a first-read mismatch is re-read once, so transient
    wire corruption does not get a healthy copy quarantined.  With
    ``quarantine`` (the default), copies that are rotten *on disk* are
    dropped on the spot — they re-enter the store via the transfer phase,
    from a peer whose copy verifies.
    """
    report = report if report is not None else SyncReport()
    valid, suspects = node.store.verify_holdings()
    report.copies_verified += len(valid) + len(suspects)
    rejected: List[Uid] = []
    for uid in suspects:
        status, _, resolved = diagnose_copy(node.store, uid, retry=cluster.retry)
        if resolved:
            report.wire_mismatches += 1
        if status == "ok":
            valid.add(uid)
            continue
        rejected.append(uid)
        if status == "corrupt":
            if quarantine:
                node.drop(uid)
                report.rotten_quarantined += 1
        elif status == "unreadable":
            report.unreadable += 1
        # "missing" (listed but no bytes) simply stays out of the index.
    return valid, rejected


def node_index(
    cluster: "ClusterStore",
    node: "StorageNode",
    report: SyncReport,
    quarantine: bool = True,
) -> Tuple[Set[Uid], bool]:
    """The uid index one node contributes, plus whether it was self-reported.

    Honest nodes have their index *built* here — every copy read back and
    re-hashed by :func:`build_valid_index`, so the digests that enter the
    Merkle comparison are grounded in verified bytes.  A store exposing
    ``claimed_ids`` (the byzantine forgery surface) self-reports instead:
    its claims enter the comparison unverified, exactly as a real node
    computing its own digest tree would, and the returned flag routes it
    through :func:`_audit_index` — trust is earned per-chunk by the
    seeded spot-check, never assumed from the digest.
    """
    claimed = getattr(node.store, "claimed_ids", None)
    if callable(claimed):
        return set(claimed()), True
    return build_valid_index(cluster, node, report, quarantine)[0], False


def _audit_draw(seed: int, node: str, uid: Uid) -> float:
    """Uniform [0, 1) deciding whether one claimed uid gets audited.

    A fault-kernel draw like every other fault/defense decision, so the
    sample — and therefore detection latency — replays bit-identically
    from ``cluster.audit_seed``: the seed of the cluster's network plan,
    or 0 when it has no transport.
    """
    return kernel.unit("ae-audit:", seed, node, uid)


def _audit_index(
    cluster: "ClusterStore",
    node: "StorageNode",
    index: Set[Uid],
    report: SyncReport,
) -> None:
    """Spot-check a seeded sample of a self-reported index.

    A forged digest can *agree* with honest peers while the bytes behind
    it do not exist (fake-acked claims) — agreement alone proves nothing
    when the node computes its own tree.  Each sampled claim is re-read
    ``audit_reads`` times through the scrubber's discrimination; a claim
    the node cannot substantiate on any read is a forged-digest strike on
    its scorecard, and the uid is evicted from the index so the ordinary
    diff re-ships a real copy from a trusted peer.
    """
    rate = cluster.audit_rate
    if rate <= 0.0:
        return
    from repro.cluster.maintenance import audit_copy  # maintenance imports this module
    for uid in sorted(index):
        if _audit_draw(cluster.audit_seed, node.name, uid) >= rate:
            continue
        report.audit_samples += 1
        if audit_copy(cluster, node, uid, "anti-entropy", kind="forged-digest") is False:
            report.audit_failures += 1
            index.discard(uid)


def _audited_indexes(
    cluster: "ClusterStore", nodes: List["StorageNode"], report: SyncReport
) -> Dict[str, Set[Uid]]:
    """Each node's index: verified by reading, or self-reported and audited."""
    indexes = {}
    for node in nodes:
        index, self_reported = node_index(cluster, node, report)
        if self_reported:
            _audit_index(cluster, node, index, report)
        indexes[node.name] = index
    return indexes


class ReplicaDigests:
    """The digest state one cluster keeps between anti-entropy passes.

    Everything here is a pure function of (verified holdings, ring), so
    it is *reconciled* against each pass's freshly built indexes instead
    of being recomputed from them: the ring placement of every held uid
    (the only place this module derives placement), the index each node
    last showed, and one :class:`DigestTree` per *(holder, owner)* pair —
    "what ``holder`` holds that ``owner`` owns", the two sides a pull
    compares.  Built for one ``(ring members, replication, depth)``;
    :meth:`of` replaces it when the cluster no longer matches.
    """

    def __init__(self, ring: HashRing, built_for: Tuple[Tuple[str, ...], int, int]) -> None:
        self.ring = ring
        self.built_for = built_for
        #: uid -> (bucket, owner names), for every uid in any index.
        self.placement: Dict[Uid, Tuple[int, Tuple[str, ...]]] = {}
        #: node name -> the verified index it last contributed.
        self.held: Dict[str, Set[Uid]] = {}
        depth = built_for[2]
        #: (holder, owner) -> the tree over what holder holds that owner owns.
        self.trees: Dict[Tuple[str, str], DigestTree] = defaultdict(lambda: DigestTree(depth))

    @classmethod
    def of(cls, cluster: "ClusterStore", depth: int) -> "ReplicaDigests":
        """The cluster's kept state, rebuilt if ring, RF or depth moved."""
        state = cluster.replica_digests
        wanted = (tuple(cluster.ring.nodes), cluster.replication, depth)
        if state is None or state.built_for != wanted:
            state = cluster.replica_digests = cls(cluster.ring, wanted)
        return state

    def place(self, uid: Uid) -> Tuple[int, Tuple[str, ...]]:
        """``(bucket, owners)`` of a uid: one hash, one ring walk, once."""
        placed = self.placement.get(uid)
        if placed is None:
            _, replication, depth = self.built_for
            placed = self.placement[uid] = (
                ring_position(uid) >> (POSITION_BITS - depth),
                tuple(self.ring.replicas(uid, replication)),
            )
        return placed

    def gained(self, holder: str, uid: Uid) -> None:
        """``holder`` now holds ``uid``: into its index and every owner's view."""
        self.held[holder].add(uid)
        bucket, owners = self.place(uid)
        for owner in owners:
            self.trees[holder, owner].add(uid, bucket)

    def reconcile(self, indexes: Dict[str, Set[Uid]]) -> None:
        """Bring the kept trees in line with freshly built indexes.

        Two set differences per node see every change made behind the
        node's back (rot quarantined, deletes, wipes, gc, rebalance), so
        nothing has to hook ``put``/``drop``.
        """
        lost: Set[Uid] = set()
        for holder, index in indexes.items():
            before = self.held.get(holder, set())
            self.held[holder] = index
            for uid in before - index:
                bucket, owners = self.placement[uid]
                for owner in owners:
                    self.trees[holder, owner].remove(uid, bucket)
                lost.add(uid)
            for uid in index - before:
                self.gained(holder, uid)
        for uid in lost:  # forget placement nobody holds any more
            if not any(uid in index for index in self.held.values()):
                del self.placement[uid]


def _pull(
    cluster: "ClusterStore",
    dst: "StorageNode",
    src: "StorageNode",
    digests: ReplicaDigests,
    report: SyncReport,
) -> None:
    """One directional sync: give ``dst`` every owned chunk ``src`` holds.

    Both sides are compared over the *same* key space — uids that
    ``dst`` owns by ring placement — so equal roots prove there is
    nothing to ship, and the diff opens only the differing arcs.  Both
    trees are the kept ones; a transfer that lands is folded into every
    view of ``dst``'s holdings, so later pulls from ``dst`` see it.
    """
    report.pulls += 1
    report.trees_built += 1
    dst_tree = digests.trees[dst.name, dst.name]
    src_tree = digests.trees[src.name, dst.name]
    differing, compared = dst_tree.diff(src_tree)
    report.tree_nodes_compared += compared
    for bucket in differing:
        wanted = sorted(src_tree.bucket_uids(bucket) - dst_tree.bucket_uids(bucket))
        if not wanted:
            continue  # dst-only surplus in this bucket; nothing to pull
        report.buckets_differing += 1
        for uid in wanted:
            report.chunks_examined += 1
            status, chunk, _ = diagnose_copy(src.store, uid, retry=cluster.retry)
            if status != "ok" or chunk is None:
                report.transfer_failures += 1
                if callable(getattr(src.store, "claimed_ids", None)):
                    # A self-reported index claimed a chunk its node could
                    # not produce when asked — for a verified index that is
                    # a transient read, for an unverified one it is weak
                    # tamper evidence against the claimant.
                    cluster.accountability.record_suspicion(
                        dst.name, src.name, uid, op="transfer", kind="unproducible-claim"
                    )
                continue
            if place(cluster, dst, [chunk], (src.name, None)):  # verified again on arrival
                report.chunks_transferred += 1
                digests.gained(dst.name, uid)
            else:
                report.transfer_failures += 1


def anti_entropy_pass(
    cluster: "ClusterStore", depth: int = DEFAULT_DEPTH
) -> SyncReport:
    """One full reconciliation round over every live node pair.

    Flushes pending hints first (cheap, exact — rejected replays are
    counted), builds each node's verified digest index once
    (self-reported indexes get the seeded spot-check audit instead:
    agreeing digests are *audited*, not believed), then runs directional
    pulls between every live, non-quarantined pair.  Run it after a
    partition heals — or on a background cadence — and the cluster
    converges to every chunk valid on its full trusted replica set,
    shipping only what actually diverged.

    Convergence is over holdings **as of pass start**: each node's index
    is read once, up front, so a copy that lands on a node while the
    pass runs (a delayed message still in flight on the transport) is
    not seen until the next pass.  Drain the transport first when one
    pass must be enough.
    """
    report = SyncReport()
    rejected_before = cluster.hint_rejections
    report.hints_flushed = cluster.flush_hints()
    report.hints_rejected = cluster.hint_rejections - rejected_before
    live = cluster.trusted_nodes()
    report.quarantined_excluded = len(cluster.live_nodes()) - len(live)
    indexes = _audited_indexes(cluster, live, report)
    # The audit may have quarantined a forging claimant mid-pass: nodes
    # struck out here neither give nor receive chunks below.
    live = [
        node for node in live if not cluster.accountability.is_quarantined(node.name)
    ]
    digests = ReplicaDigests.of(cluster, depth)
    digests.reconcile(indexes)
    for dst in live:
        report.trees_built += 1  # the destination view every pull below shares
        for src in live:
            if src is not dst:
                _pull(cluster, dst, src, digests, report)
    return report


def digests_agree(cluster: "ClusterStore", depth: int = DEFAULT_DEPTH) -> bool:
    """Do all live replicas summarize identically? (Convergence check.)

    For every pair of live, trusted nodes, the digest trees over their
    *shared* ownership must match: after a converged anti-entropy pass
    this holds cluster-wide.  QUARANTINED nodes are outside the trusted
    set, so convergence is judged — like every quorum — without them; a
    self-reported (``claimed_ids``) index is compared as claimed, which
    is exactly what a digest comparison against that node would see.
    Read-only — no quarantine, no transfers.
    """
    live = cluster.trusted_nodes()
    indexes = {
        node.name: node_index(cluster, node, SyncReport(), quarantine=False)[0]
        for node in live
    }
    place = ReplicaDigests.of(cluster, depth).place
    for position, node_a in enumerate(live):
        for node_b in live[position + 1 :]:
            pair = {node_a.name, node_b.name}
            shared = []
            for node in (node_a, node_b):
                tree = DigestTree(depth)
                for uid in indexes[node.name]:
                    bucket, owners = place(uid)
                    if pair.issubset(owners):
                        tree.add(uid, bucket)
                shared.append(tree)
            if shared[0].root() != shared[1].root():
                return False
    return True
