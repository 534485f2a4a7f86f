"""ClusterStore: a self-healing ChunkStore spread over simulated nodes."""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.chunk import Chunk, Uid
from repro.cluster import maintenance, walks
from repro.cluster.accountability import AccountabilityBoard
from repro.cluster.antientropy import ReplicaDigests, SyncReport, anti_entropy_pass
from repro.cluster.breaker import BreakerBoard
from repro.cluster.latency import Deadline, LatencyStats, LatencyTracker
from repro.cluster.membership import FailureDetector
from repro.cluster.node import StorageNode
from repro.cluster.replica import COORDINATOR, Call
from repro.cluster.ring import HashRing
from repro.faults.network import PartitionedTransport
from repro.faults.retry import RetryPolicy
from repro.store.base import ChunkStore
from repro.store.nodecache import DecodedNode, NodeLRU, decode_chunk
from repro.store.scrub import ScrubReport, scrub


class ClusterStore(ChunkStore):
    """Consistent-hash sharded, replicated, self-healing chunk storage.

    The class holds the cluster's state — nodes, ring, transport, hint
    queue, per-origin failure detectors, breakers, latency, the tamper
    scorecard and the counters — and its public verbs.  The work lives in
    module functions that take the cluster: :mod:`~repro.cluster.replica`
    (one caller's request to one node: transport, retry, deadline,
    admission), :mod:`~repro.cluster.walks` (the write walk with sloppy
    quorum and hinted handoff; the read walk with failover, hedging and
    read-repair), :mod:`~repro.cluster.antientropy` (the one repair loop)
    and :mod:`~repro.cluster.maintenance` (audits, re-admission,
    rebalance, the durability census).

    The coordinator remembers the nodes it verified.  ``get_node`` — the
    read behind every tree descent and version load — first asks a
    :class:`~repro.store.nodecache.NodeLRU` of
    :data:`~repro.store.nodecache.DEFAULT_CAPACITY` decoded nodes, and
    a hit sends no message.  A node enters it only after a replicated
    read checked its bytes against the uid, or after ``put_nodes`` saw
    its batch acked at quorum; a uid names one immutable byte string, so
    such a node stays valid.  The verified read is a fetch and the acked
    batch a write, which decides what each displaces (see ``NodeLRU``).
    A cached node is still written to every home (the cluster may have
    lost every copy), and ``get``, ``get_maybe`` and ``has`` bypass the
    cache, so verify, scrub, anti-entropy, ``durability_check`` and the
    audits still reach the replicas.  ``delete`` and :meth:`readmit`'s
    drops evict.  A :class:`ClusterClient` does not share the cache: its
    reads go to the replicas from its own side of any partition.
    """

    def __init__(
        self,
        node_count: int = 4,
        replication: int = 2,
        write_quorum: Optional[int] = None,
        verify_writes: bool = True,
        retry: Optional[RetryPolicy] = None,
        node_store_factory: Optional[Callable[[str], ChunkStore]] = None,
        transport: Optional[PartitionedTransport] = None,
        deadline_budget: Optional[int] = None,
        audit_rate: float = 0.05,
    ) -> None:
        super().__init__()
        if node_count < 1:
            raise ValueError("need at least one node")
        if replication < 1:
            raise ValueError("replication must be >= 1")
        if write_quorum is not None and not 1 <= write_quorum <= replication:
            raise ValueError("write_quorum must be in [1, replication]")
        if deadline_budget is not None and deadline_budget < 1:
            raise ValueError("deadline_budget must be >= 1 tick")
        if not 0.0 <= audit_rate <= 1.0:
            raise ValueError(f"audit_rate must be in [0, 1], got {audit_rate}")
        self.replication = replication
        #: Acks required for a put to succeed (default 1: availability-first,
        #: the seed behaviour; pass ``replication // 2 + 1`` for majority).
        self.write_quorum = write_quorum if write_quorum is not None else 1
        #: An ack only counts once the replica's stored bytes re-hash to the
        #: uid, so torn and silently-dropped writes surface as retryable
        #: failures instead of durable rot.  Content addressing makes this a
        #: read-back plus one hash.
        self.verify_writes = verify_writes
        self.retry = retry if retry is not None else RetryPolicy.instant()
        #: The simulated network every request crosses (None builds a
        #: fault-free one: every message delivered, one tick each).
        self.transport = transport or PartitionedTransport()
        #: Tick budget granted to each verb (None = no deadline).
        self.deadline_budget = deadline_budget
        #: Per-(origin, node, op) service-time statistics, on the transport
        #: clock.  Feeds the hedging threshold and the health report.
        self.latency = LatencyTracker()
        #: End-to-end read latency in transport ticks (``health_report``).
        self.read_ticks = LatencyStats()
        #: Per-(origin, node) circuit breakers, cooled on the transport clock.
        self.breakers = BreakerBoard(self.now)
        self._store_factory = node_store_factory
        names = [f"node-{index:02d}" for index in range(node_count)]
        self.nodes: Dict[str, StorageNode] = {name: self._make_node(name) for name in names}
        self.ring = HashRing(names)
        #: Hinted handoff: the copies each home replica is owed.
        self.hints: Dict[str, Dict[Uid, Chunk]] = {}
        #: One failure detector per origin that has probed.
        self.detectors: Dict[str, FailureDetector] = {}
        #: The report from the most recent :meth:`repair` pass, if any.
        self.last_sync_report: Optional[SyncReport] = None
        #: Digest trees and ring placement anti-entropy carries from pass
        #: to pass (reconciled against fresh indexes each time; set to
        #: ``None`` to make the next pass start from scratch).
        self.replica_digests: Optional[ReplicaDigests] = None
        #: The tamper scorecard: every corrupt/withheld read and every
        #: unverified write exchange is attributed to the serving replica,
        #: and nodes that accumulate quarantine-grade evidence are routed
        #: out of quorums/hedges until :meth:`readmit` re-verifies them.
        self.accountability = AccountabilityBoard()
        #: Fraction of claimed uids the anti-entropy spot-check audits
        #: *behind agreeing digests* (forged-digest defense).
        self.audit_rate = audit_rate
        #: Seed for the audit sample draw: the network plan's, so one seed
        #: replays the messages and the audits alike (0 for a default plan).
        self.audit_seed = self.transport.plan.seed
        #: Decoded nodes this coordinator verified or saw acked at quorum.
        self.node_cache = NodeLRU()
        # Counters for health_report, by the layer that bumps them.  The
        # read walk: reads that found no good copy or failed over, corrupt
        # payloads, copies written back, hedge timeouts fired and hedges
        # won, post-repair audits run and audits whose every re-read failed.
        self.failed_reads = self.failovers = self.corrupt_reads = self.read_repairs = 0
        self.hedges_issued = self.hedge_wins = 0
        self.repair_audits = self.repair_audit_failures = 0
        # The write walk: stand-in copies past the homes; hints queued,
        # replayed, discarded for a QUARANTINED target, and rejected on
        # replay because the payload no longer hashed to its uid.
        self.sloppy_writes = self.hints_queued = self.hints_replayed = 0
        self.hints_discarded = self.hint_rejections = 0
        # The replica call: exchanges that failed past the retry budget;
        # attempts refused for a suspected, breaker-OPEN or QUARANTINED
        # target; verbs whose deadline budget ran out.
        self.transient_failures = self.suspect_skips = self.breaker_skips = 0
        self.quarantine_skips = self.deadline_exceeded = 0

    def _make_node(self, name: str) -> StorageNode:
        store = self._store_factory(name) if self._store_factory else None
        return StorageNode(name, store=store)

    # -- membership & failure detection ---------------------------------------------

    def add_node(self, name: Optional[str] = None) -> StorageNode:
        """Join a new node (chunks are NOT moved until :meth:`rebalance`)."""
        if name is None:
            name = f"node-{len(self.nodes):02d}"
        node = self._make_node(name)
        self.nodes[name] = node
        self.ring.add_node(name)
        return node

    def kill_node(self, name: str) -> None:
        """Fail a node in place (stays in the ring; reads fail over)."""
        self.nodes[name].kill()

    def revive_node(self, name: str, wipe: bool = False) -> int:
        """Recover a failed node; returns the queued hints handed off."""
        self.nodes[name].revive(wipe=wipe)
        return walks.replay_hints(self, name)

    def live_nodes(self) -> List[StorageNode]:
        """Nodes currently serving requests."""
        return [node for node in self.nodes.values() if node.up]

    def trusted_nodes(self) -> List[StorageNode]:
        """Live nodes that are not QUARANTINED: the holders scrub and repair trust."""
        board = self.accountability
        return [node for node in self.live_nodes() if not board.is_quarantined(node.name)]

    def replica_nodes(self, uid: Uid) -> List[StorageNode]:
        """The nodes responsible for ``uid``, in ring placement order."""
        return [self.nodes[name] for name in self.ring.replicas(uid, self.replication)]

    def now(self) -> int:
        """The transport's logical tick — never wall time."""
        return self.transport.clock

    def failure_detector(self, origin: str = COORDINATOR) -> FailureDetector:
        """The per-origin failure detector (created on first use): during a
        partition, clients on side A suspect the nodes on side B."""
        detector = self.detectors.get(origin)
        if detector is None:
            detector = FailureDetector(self, origin=origin)
            self.detectors[origin] = detector
        return detector

    def tick(self) -> Dict[str, str]:
        """Run one heartbeat round from the coordinator; returns states."""
        return self.failure_detector().probe_round()

    # -- chunk verbs -----------------------------------------------------------------

    def _call(self, origin: str, budget: Optional[int]) -> Call:
        """One verb's caller: ``origin`` and a fresh deadline of ``budget``
        ticks on the transport clock (None: the verb has no deadline)."""
        return origin, (Deadline(budget, self.now) if budget is not None else None)

    def _own_call(self) -> Call:
        """The call of one of the coordinator's own verbs."""
        return self._call(COORDINATOR, self.deadline_budget)

    def put(self, chunk: Chunk) -> bool:
        """Store a chunk: a dedup precheck and the write walk under ONE
        call, so the verb cannot block for twice its deadline."""
        return walks.put(self, chunk, self._own_call())

    def put_nodes(self, pairs: Iterable[Tuple[Chunk, DecodedNode]]) -> int:
        """Store one verb's chunks under one deadline (:func:`walks.put_nodes`)."""
        return walks.put_nodes(self, pairs, self._own_call())

    def _insert(self, chunk: Chunk) -> None:
        walks.write(self, [chunk], self._own_call())

    def _fetch(self, uid: Uid) -> Optional[Chunk]:
        return walks.read(self, uid, self._own_call())

    def _contains(self, uid: Uid) -> bool:
        return walks.has(self, uid, self._own_call())

    def _ids(self) -> Iterator[Uid]:
        seen: Set[Uid] = set()
        for node in self.nodes.values():
            for uid in node.store.ids():
                if uid not in seen:
                    seen.add(uid)
                    yield uid

    def _delete(self, uid: Uid) -> bool:
        self.node_cache.forget((uid,))
        removed = False
        for node in self.nodes.values():
            removed = node.drop(uid) or removed
        for hints in self.hints.values():
            hints.pop(uid, None)
        return removed

    def get_node(self, uid: Uid) -> DecodedNode:
        """A node in decoded form: from the coordinator's cache when this
        uid was verified before, else one ordinary replicated read, whose
        every copy was checked against the uid and so is safe to remember."""
        cached = self.node_cache.lookup(uid)
        if cached is not None:
            return cached
        chunk = self.get(uid)
        decoded = decode_chunk(chunk)
        self.node_cache.remember_fetched(uid, decoded)
        return decoded

    def cut_index(self) -> NodeLRU:
        """The coordinator's node cache: it indexes the blob leaves it
        saw acked or verified."""
        return self.node_cache

    @property
    def node_hits(self) -> int:
        """``get_node`` calls answered without a message."""
        return self.node_cache.counters()["hits"]

    @property
    def node_lookups(self) -> int:
        """``get_node`` calls in all."""
        return self.node_cache.counters()["lookups"]

    def client(self, origin: str, deadline_budget: Optional[int] = None) -> "ClusterClient":
        """A named client endpoint on this cluster: its requests come from
        ``origin`` (own partition side, own failure-detector view), under
        its own ``deadline_budget`` when given, else the cluster's."""
        return ClusterClient(self, origin, deadline_budget=deadline_budget)

    # -- hinted handoff ---------------------------------------------------------------

    def pending_hints(self) -> Dict[str, int]:
        """Queued hinted-handoff chunks per owed node (the queue itself is
        ``hints``: node name -> uid -> chunk)."""
        return {name: len(hints) for name, hints in self.hints.items() if hints}

    def flush_hints(self) -> int:
        """Replay hints owed to nodes that are up (a write can miss a *live*
        replica past its retry budget); returns the number handed off."""
        return sum(
            walks.replay_hints(self, name) for name in list(self.hints) if self.nodes[name].up
        )

    def drop_hints(self) -> int:
        """Forget every queued hint, as a restarting hint holder does; Merkle
        anti-entropy re-derives the same repairs from the replicas."""
        dropped = sum(len(hints) for hints in self.hints.values())
        self.hints.clear()
        return dropped

    # -- maintenance --------------------------------------------------------------------

    def repair(self) -> int:
        """One pass of the one repair loop (:meth:`anti_entropy_pass`);
        returns replica copies shipped (the full report lands in
        ``last_sync_report``)."""
        return self.anti_entropy_pass().chunks_transferred

    def anti_entropy_pass(self) -> SyncReport:
        """One Merkle reconciliation round; returns the full report."""
        report = anti_entropy_pass(self)
        self.last_sync_report = report
        return report

    def rebalance(self) -> int:
        """Move chunks onto their ring placement (:func:`maintenance.rebalance`)."""
        return maintenance.rebalance(self)

    def scrub(self) -> ScrubReport:
        """Re-hash every trusted replica, drop rot, and let one anti-entropy
        pass put it back (:mod:`repro.store.scrub`)."""
        return scrub(self)

    def readmit(self, name: str) -> int:
        """Re-admit a quarantined node after a re-verified resync
        (:func:`maintenance.readmit`)."""
        return maintenance.readmit(self, name)

    def placement_histogram(self) -> Dict[str, int]:
        """Chunks per node (balance metric for the cluster ablation)."""
        return {name: node.chunk_count() for name, node in sorted(self.nodes.items())}

    def total_replica_count(self) -> int:
        """Sum of replicas across nodes."""
        return sum(node.chunk_count() for node in self.nodes.values())

    def durability_check(self, verify: bool = True) -> Dict[str, int]:
        """Chunks with 0 / 1 / ≥2 live replicas (:func:`maintenance.durability_check`)."""
        return maintenance.durability_check(self, verify)

    def health_report(self) -> Dict[str, object]:
        """Operational counters in one place (chaos-suite assertions).

        Counters only: it reads no replica, so it re-hashes nothing and
        draws nothing from a node's fault plane.  Replica durability is
        :meth:`durability_check`, which re-hashes every copy.
        """
        detectors = self.detectors.values()
        return {
            "nodes_up": len(self.live_nodes()),
            "nodes_total": len(self.nodes),
            "failed_reads": self.failed_reads,
            "failovers": self.failovers,
            "corrupt_reads": self.corrupt_reads,
            "read_repairs": self.read_repairs,
            "hints_queued": self.hints_queued,
            "hints_replayed": self.hints_replayed,
            "hints_pending": sum(len(h) for h in self.hints.values()),
            "transient_failures": self.transient_failures,
            "suspect_skips": self.suspect_skips,
            "sloppy_writes": self.sloppy_writes,
            "hedges_issued": self.hedges_issued,
            "hedge_wins": self.hedge_wins,
            "deadline_exceeded": self.deadline_exceeded,
            "retry_deadline_stops": self.retry.deadline_stops,
            "breaker_skips": self.breaker_skips,
            "breakers": self.breakers.snapshot(),
            "quarantine_skips": self.quarantine_skips,
            "hints_discarded": self.hints_discarded,
            "hint_rejections": self.hint_rejections,
            "repair_audits": self.repair_audits,
            "repair_audit_failures": self.repair_audit_failures,
            "accountability": self.accountability.snapshot(),
            "tamper_evidence": [record.to_dict() for record in self.accountability.evidence],
            "suspected": sorted({name for d in detectors for name in d.suspected()}),
            "degraded": sorted({name for d in detectors for name in d.degraded()}),
            "read_latency": self.read_ticks.snapshot(),
            "latency_observations": self.latency.observations,
            "node_cache": self.node_cache.counters(),
            "network": self.transport.stats(),
        }


class ClusterClient(ChunkStore):
    """A named caller of a shared cluster.

    A client holds no replica state.  Each verb runs the cluster's walks
    as one call from this client's ``origin``, so the transport sees its
    partition side and fault stream, and failure detection, breakers and
    latency accrue to it: two engines opened over two clients experience
    a split the way two application servers would.  A client does not
    share the coordinator's node cache: its reads reach the replicas.
    """

    def __init__(
        self, cluster: ClusterStore, origin: str, deadline_budget: Optional[int] = None
    ) -> None:
        super().__init__(verify_reads=cluster.verify_reads)
        if deadline_budget is not None and deadline_budget < 1:
            raise ValueError("deadline_budget must be >= 1 tick")
        self.cluster = cluster
        self.origin = origin
        #: Per-client verb budget; None inherits the cluster-wide setting.
        self.deadline_budget = deadline_budget

    def _own_call(self) -> Call:
        """One verb's call from this client: its origin, and a deadline from
        its own budget, else the cluster's."""
        budget = self.deadline_budget
        if budget is None:
            budget = self.cluster.deadline_budget
        return self.cluster._call(self.origin, budget)

    def put(self, chunk: Chunk) -> bool:
        """The cluster's put, issued from this origin (stats: the cluster's)."""
        return walks.put(self.cluster, chunk, self._own_call())

    def _insert(self, chunk: Chunk) -> None:
        walks.write(self.cluster, [chunk], self._own_call())

    def put_nodes(self, pairs: Iterable[Tuple[Chunk, DecodedNode]]) -> int:
        """The cluster's batch write, issued from this origin (stats: the cluster's)."""
        return walks.put_nodes(self.cluster, pairs, self._own_call())

    def _fetch(self, uid: Uid) -> Optional[Chunk]:
        return walks.read(self.cluster, uid, self._own_call())

    def _contains(self, uid: Uid) -> bool:
        return walks.has(self.cluster, uid, self._own_call())

    def _ids(self) -> Iterator[Uid]:
        return iter(self.cluster.ids())

    def _delete(self, uid: Uid) -> bool:
        return self.cluster.delete(uid)

    def failure_detector(self) -> FailureDetector:
        """This origin's membership view."""
        return self.cluster.failure_detector(self.origin)

    def tick(self) -> Dict[str, str]:
        """Run one heartbeat round from this origin."""
        return self.failure_detector().probe_round()

    def health_report(self) -> Dict[str, object]:
        """The cluster's health counters."""
        return self.cluster.health_report()

    def __repr__(self) -> str:
        return f"ClusterClient(origin={self.origin!r})"
