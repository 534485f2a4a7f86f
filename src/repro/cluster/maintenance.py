"""Maintenance beside the one repair loop: audits, re-admission, rebalance
and the durability census.

Everything here runs on the management plane — direct store access, like
scrub — so it costs zero transport ticks and cannot eat a client verb's
deadline budget.  A QUARANTINED node is outside the cluster's
``trusted_nodes``: its copies neither count toward durability nor
source a repair until :func:`readmit` re-verifies it.  Putting copies
back is always :func:`~repro.cluster.antientropy.anti_entropy_pass`'s
job.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Set

from repro.chunk import Uid
from repro.cluster.antientropy import build_valid_index
from repro.cluster.replica import served_digest
from repro.store.scrub import diagnose_copy

if TYPE_CHECKING:  # pragma: no cover - type-only imports, no runtime cycle
    from repro.cluster.cluster import ClusterStore
    from repro.cluster.node import StorageNode


def audit_copy(
    cluster: "ClusterStore",
    node: "StorageNode",
    uid: Uid,
    origin: str,
    kind: Optional[str] = None,
) -> Optional[bool]:
    """Re-read a copy the node vouched for; strike it if it never verifies.

    This is the rot-vs-lies discriminator, shared by the post-repair
    audit and anti-entropy's spot-check of self-reported indexes.  After
    a read-repair, ``place`` read the copy back and saw it hash to its
    uid; honest disk rot striking that exact fresh copy on
    ``audit_reads`` consecutive re-reads (each itself re-read once by
    ``diagnose_copy``) has probability ~(rate²)^reads — while a replica
    that lies at any steady rate keeps failing audits forever.  Every
    re-read failing is therefore strike-grade evidence (``kind``, or
    ``audit-mismatch``/``audit-withheld`` by what the last re-read saw);
    any verifying re-read is a clean audit.

    Returns True on a clean audit, False on a strike, None for no
    verdict (unreadable).
    """
    board = cluster.accountability
    status, served = "", None
    for _ in range(max(board.audit_reads, 1)):
        status, served, _ = diagnose_copy(node.store, uid, retry=cluster.retry)
        if status == "ok":
            board.record_clean_audit(node.name)
            return True
        if status == "unreadable":
            return None  # transient plane down: no verdict either way
    if kind is None:
        kind = "audit-mismatch" if status == "corrupt" else "audit-withheld"
    board.record_strike(origin, node.name, uid, op="get", kind=kind, served=served_digest(served))
    return False


def readmit(cluster: "ClusterStore", name: str) -> int:
    """Re-admit a quarantined node after a fully re-verified resync.

    Every uid the node claims is re-read and re-hashed; copies that fail
    verification are dropped (and broadcast to subscribed caches via
    ``notify_swept``, so a shared cache cannot keep serving what the
    node no longer holds).  The node then re-enters the trust machine at
    SUSPECT — probation, not absolution — and one anti-entropy pass
    restores its replica set from trusted peers.  Returns the number of
    unverifiable copies dropped.

    Call this only once the *cause* is resolved (the adversarial wrapper
    removed, the disk replaced): a node still lying simply re-earns its
    quarantine.
    """
    node = cluster.nodes[name]
    _, dropped = build_valid_index(cluster, node, quarantine=False)
    for uid in dropped:
        node.drop(uid)
    if dropped:
        cluster.node_cache.forget(dropped)
        cluster.notify_swept(dropped)
    cluster.accountability.readmit(name)
    cluster.anti_entropy_pass()
    return len(dropped)


def rebalance(cluster: "ClusterStore") -> int:
    """Move chunks onto their current ring placement; drop strays.

    Returns chunks copied.  (Repair first places, then strays drop.)
    """
    copies = cluster.repair()
    trusted = cluster.trusted_nodes()
    for node in trusted:
        for uid in list(node.store.ids()):
            owners = cluster.replica_nodes(uid)
            # Only drop if every owner is live, trusted and has a copy — a
            # copy on a quarantined owner does not count.
            if node not in owners and all(
                owner in trusted and owner.store.has(uid) for owner in owners
            ):
                node.drop(uid)
    return copies


def durability_check(cluster: "ClusterStore", verify: bool = True) -> Dict[str, int]:
    """How many chunks have 0 / 1 / ≥2 live replicas right now.

    With ``verify`` (the default) a copy only counts when its stored
    bytes re-hash to the uid — the scrubber's wire-vs-disk
    discrimination, so a transient wire mismatch is re-read rather than
    miscounted.  Silent rot therefore shows up as under-replication
    instead of posing as a healthy replica.  Counts hinted-handoff copies
    as live: a chunk whose only copies sit in the hint queue is
    recoverable, not lost.
    """
    buckets = {"lost": 0, "single": 0, "replicated": 0}
    hinted: Set[Uid] = set().union(*cluster.hints.values())
    # A quarantined node's copies are untrusted and do not count toward
    # durability: the report shows the real exposure.
    live = cluster.trusted_nodes()
    holdings: Dict[str, Set[Uid]] = {
        node.name: (
            build_valid_index(cluster, node, quarantine=False)[0]
            if verify
            else set(node.store.ids())
        )
        for node in live
    }
    for uid in cluster.ids():
        copies = sum(
            1
            for node in cluster.replica_nodes(uid)
            if node.up and uid in holdings.get(node.name, ())
        )
        if copies == 0:
            # May still survive on a non-placement node (pre-rebalance).
            copies = sum(1 for node in live if uid in holdings[node.name])
        if copies == 0 and uid in hinted:
            copies = 1
        if copies == 0:
            buckets["lost"] += 1
        elif copies == 1:
            buckets["single"] += 1
        else:
            buckets["replicated"] += 1
    return buckets
