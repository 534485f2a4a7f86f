"""Simulated distributed chunk storage.

ForkBase is "a distributed storage system"; the authors ran it across
storage servicers.  Without a testbed we simulate the distribution layer
in-process: chunks are placed on N storage nodes by consistent hashing
with a configurable replication factor, nodes can be killed and repaired,
and reads fail over across replicas.  The store self-heals: writes take a
quorum with hinted handoff for down replicas, reads verify content
addresses and repair rotten or missing copies in place, a scrub pass
(:mod:`repro.store.scrub`) re-hashes every replica and drops rot, and
Merkle anti-entropy (:mod:`repro.cluster.antientropy`) re-ships what is
missing.  All upper layers are oblivious —
:class:`~repro.cluster.cluster.ClusterStore` is just another
:class:`~repro.store.base.ChunkStore` — which is exactly the property
that makes the substitution faithful: dedup, diff, merge and verification
run the same code paths against it.
"""

from repro.cluster.accountability import (
    QUARANTINED,
    TRUSTED,
    AccountabilityBoard,
    TamperEvidence,
)
from repro.cluster.antientropy import (
    DigestTree,
    SyncReport,
    anti_entropy_pass,
    digests_agree,
)
from repro.cluster.breaker import CLOSED, HALF_OPEN, OPEN, BreakerBoard, CircuitBreaker
from repro.cluster.cluster import ClusterClient, ClusterStore
from repro.cluster.latency import Deadline, LatencyStats, LatencyTracker
from repro.cluster.membership import ALIVE, DEAD, SUSPECT, FailureDetector
from repro.cluster.node import StorageNode
from repro.cluster.ring import HashRing, ring_position

__all__ = [
    "ALIVE",
    "CLOSED",
    "DEAD",
    "HALF_OPEN",
    "OPEN",
    "QUARANTINED",
    "SUSPECT",
    "TRUSTED",
    "AccountabilityBoard",
    "BreakerBoard",
    "CircuitBreaker",
    "ClusterClient",
    "ClusterStore",
    "Deadline",
    "DigestTree",
    "FailureDetector",
    "HashRing",
    "LatencyStats",
    "LatencyTracker",
    "StorageNode",
    "SyncReport",
    "TamperEvidence",
    "anti_entropy_pass",
    "digests_agree",
    "ring_position",
]
