"""ClusterStore: a self-healing ChunkStore spread over simulated nodes."""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.chunk import Chunk, Uid
from repro.cluster.accountability import AccountabilityBoard
from repro.cluster.antientropy import (
    ReplicaDigests,
    SyncReport,
    anti_entropy_pass,
    build_valid_index,
)
from repro.cluster.breaker import BreakerBoard
from repro.cluster.latency import Deadline, LatencyStats, LatencyTracker
from repro.cluster.membership import FailureDetector
from repro.cluster.node import StorageNode
from repro.cluster.ring import HashRing
from repro.errors import (
    ChunkCorruptionError,
    DeadlineExceededError,
    NodeDownError,
    QuorumWriteError,
    TransientError,
    TransientStoreError,
)
from repro.faults.network import PartitionedTransport
from repro.faults.retry import RetryPolicy
from repro.store.base import ChunkStore
from repro.store.nodecache import DecodedNode, NodeLRU, decode_chunk
from repro.store.scrub import ScrubReport, diagnose_copy, scrub


#: One verb's caller, threaded from the verb down to the transport: the
#: endpoint the request is issued from and the verb's deadline (None: no
#: deadline).
Call = Tuple[str, Optional[Deadline]]

#: The endpoint the coordinator's own verbs and hint replay are issued
#: from.
COORDINATOR = "client"


def _digest_of(chunk: Optional[Chunk]) -> Optional[str]:
    """What a served payload *actually* hashes to (tamper-evidence field)."""
    if chunk is None:
        return None
    return Chunk.compute_uid(chunk.type, chunk.data).hex()


class ClusterStore(ChunkStore):
    """Consistent-hash sharded, replicated, self-healing chunk storage.

    Writes go to ``replication`` nodes chosen by the ring and must be
    acknowledged by ``write_quorum`` of them; replicas that are down (or
    fail past the retry budget) get a *hint* queued and replayed when the
    node revives (hinted handoff).  Reads try each replica in placement
    order, fail over past dead nodes and past copies whose bytes do not
    hash to the uid, and write the good copy back to the replicas that
    missed or served rot (read-repair).  Transient per-node failures are
    retried with bounded backoff through an injectable
    :class:`~repro.faults.retry.RetryPolicy` (instant by default — the
    cluster is simulated).

    Every request crosses a :class:`~repro.faults.network.PartitionedTransport`:
    the one passed in, whose plan's partitions, drops, delays and
    duplicates hit the cluster exactly as it dictates, or a fault-free
    one built here.  Each public verb starts one *call* — the endpoint
    it is issued from plus its deadline — and threads it down to the
    transport; the coordinator's own verbs are issued as ``"client"``
    under ``deadline_budget``, and a :class:`ClusterClient` issues the
    same verbs as its own origin.  A
    :class:`~repro.cluster.membership.FailureDetector` per origin turns
    missed heartbeats (a probe round per :meth:`tick`) into SUSPECT
    verdicts, and the write path routes around suspected nodes: when
    the home replicas cannot meet quorum it extends past them along the
    ring (sloppy quorum) so writes stay available during a partition
    (stand-in copies migrate home via hinted handoff and Merkle
    anti-entropy); :class:`~repro.errors.QuorumWriteError` is raised only
    when no quorum of *reachable* nodes exists at all.

    The content address doubles as both the placement key and the
    checksum, so every healing decision is local: a copy is good iff its
    bytes hash to its uid, and any good copy can repair any replica.
    Every replica read checks this, so rot on every reachable copy
    raises :class:`~repro.errors.ChunkCorruptionError`, never bytes.

    Gray failures — a replica that is up and answering probes but ~100x
    slow — get their own machinery, all of it on the transport clock: a
    :class:`~repro.cluster.latency.LatencyTracker` remembers per-node
    service times; ``hedge_reads`` arms the first read attempt with that
    node's tracked p95 as a timeout and fails over to
    the next replica the moment it elapses (the Tail-at-Scale hedge —
    the abandoned response still lands late as a stale delivery);
    ``deadline_budget`` grants every verb a fixed tick budget
    threaded through sends and retries, surfacing
    :class:`~repro.errors.DeadlineExceededError` instead of blocking
    past it; and a per-``(origin, node)``
    :class:`~repro.cluster.breaker.BreakerBoard` opens after
    ``breaker_threshold`` consecutive timeouts so a slow-but-alive node
    is routed around even though the failure detector rightly still
    calls it ALIVE.

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

    #: Observations a latency stream needs before reads hedge off its p95
    #: (hedging on a two-sample quantile would fire on noise).
    HEDGE_MIN_SAMPLES = 8

    def __init__(
        self,
        node_count: int = 4,
        replication: int = 2,
        write_quorum: Optional[int] = None,
        verify_writes: bool = True,
        retry: Optional[RetryPolicy] = None,
        node_store_factory: Optional[Callable[[str], ChunkStore]] = None,
        transport: Optional[PartitionedTransport] = None,
        hedge_reads: bool = False,
        deadline_budget: Optional[int] = None,
        breaker_threshold: Optional[int] = 5,
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
        #: Arm the first read attempt with the primary's tracked p95 as a
        #: timeout and fail over when it elapses (gray-failure hedging).
        self.hedge_reads = hedge_reads
        #: Tick budget granted to each verb (None = no deadline).
        self.deadline_budget = deadline_budget
        #: Per-(origin, node, op) service-time statistics, on the transport
        #: clock.  Feeds the hedging threshold and the health report.
        self.latency = LatencyTracker()
        #: End-to-end read latency in transport ticks (``health_report``).
        self.read_ticks = LatencyStats(window=256)
        #: Per-(origin, node) circuit breakers, cooled on the transport clock.
        self.breakers = BreakerBoard(threshold=breaker_threshold, now=self._now)
        self._store_factory = node_store_factory
        names = [f"node-{index:02d}" for index in range(node_count)]
        self.nodes: Dict[str, StorageNode] = {
            name: self._make_node(name) for name in names
        }
        self.ring = HashRing(names)
        self._hints: Dict[str, Dict[Uid, Chunk]] = {}
        self._detectors: Dict[str, FailureDetector] = {}
        self._ping_uids: Dict[str, Uid] = {}
        #: The report from the most recent :meth:`repair` pass, if any.
        self.last_sync_report: Optional[SyncReport] = None
        #: Digest trees and ring placement anti-entropy carries from pass
        #: to pass (reconciled against fresh indexes each time; set to
        #: ``None`` to make the next pass start from scratch).
        self.replica_digests: Optional[ReplicaDigests] = None
        self.failed_reads = 0
        self.failovers = 0
        self.corrupt_reads = 0
        self.read_repairs = 0
        self.hints_queued = 0
        self.hints_replayed = 0
        self.transient_failures = 0
        self.suspect_skips = 0
        self.sloppy_writes = 0
        #: Reads whose hedge timeout fired (the next replica was tried).
        self.hedges_issued = 0
        #: Hedged reads where the failover replica produced the answer.
        self.hedge_wins = 0
        #: Client verbs aborted because their deadline budget ran out.
        self.deadline_exceeded = 0
        #: Attempts refused because the target's circuit breaker was OPEN.
        self.breaker_skips = 0
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
        #: Read/write attempts refused because the target is QUARANTINED.
        self.quarantine_skips = 0
        #: Hints discarded because their target node is QUARANTINED.
        self.hints_discarded = 0
        #: Hint replays rejected because the payload no longer hashed to
        #: its uid (receiving-side verification, satellite of PR 10).
        self.hint_rejections = 0
        #: Anti-entropy transfers rejected on arrival (invalid payload).
        self.transfer_rejections = 0
        #: Post-repair audits run / audits whose every re-read failed.
        self.repair_audits = 0
        self.repair_audit_failures = 0
        #: Decoded nodes this coordinator verified or saw acked at quorum.
        self.node_cache = NodeLRU()

    def _make_node(self, name: str) -> StorageNode:
        store = self._store_factory(name) if self._store_factory else None
        return StorageNode(name, store=store)

    # -- membership ----------------------------------------------------------------

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
        """Recover a failed node and replay its queued hints.

        Returns the number of hinted chunks handed off.
        """
        self.nodes[name].revive(wipe=wipe)
        return self._replay_hints(name)

    def live_nodes(self) -> List[StorageNode]:
        """Nodes currently serving requests."""
        return [node for node in self.nodes.values() if node.up]

    # -- network & failure detection ------------------------------------------------

    def _now(self) -> int:
        """The transport's logical tick — never wall time."""
        return self.transport.clock

    def _call(self, origin: str, budget: Optional[int]) -> Call:
        """One verb's caller: ``origin`` and a fresh deadline of ``budget``
        ticks on the transport clock (None: the verb has no deadline)."""
        return origin, (Deadline(budget, self._now) if budget is not None else None)

    def _own_call(self) -> Call:
        """The call of one of the coordinator's own verbs."""
        return self._call(COORDINATOR, self.deadline_budget)

    def put(self, chunk: Chunk) -> bool:
        """Store a chunk: a dedup precheck and the write walk under ONE
        call, so the verb cannot block for twice its deadline."""
        return self._put(chunk, self._own_call())

    def _put(self, chunk: Chunk, call: Call) -> bool:
        new = not self._has(chunk.uid, call)
        if new:
            self._write([chunk], call)
        self.stats.record_put(chunk.type.name, chunk.size(), new)
        return new

    def put_nodes(self, pairs: Iterable[Tuple[Chunk, DecodedNode]]) -> int:
        """Store one verb's chunks under one deadline: one verified
        exchange per replica node, not one per chunk and replica.

        There is no ``has`` precheck — a node's ``put`` is idempotent, so
        a chunk the cluster already holds costs a dedup hit on each home
        instead of a round of messages.  A chunk is counted new when some
        replica stored it for the first time.  The writer's decoded forms
        are remembered only once the whole batch stood at quorum.
        """
        return self._put_nodes(pairs, self._own_call())

    def _put_nodes(self, pairs: Iterable[Tuple[Chunk, DecodedNode]], call: Call) -> int:
        pairs = list(pairs)
        batch = list({chunk.uid: chunk for chunk, _ in pairs}.values())
        if not batch:
            return 0
        fresh = self._write(batch, call)
        self.node_cache.remember((chunk.uid, decoded) for chunk, decoded in pairs)
        new = len(fresh)
        for chunk, _ in pairs:
            uid = chunk.uid
            self.stats.record_put(chunk.type.name, chunk.size(), uid in fresh)
            fresh.discard(uid)  # a repeat within the batch is a dedup hit
        return new

    @staticmethod
    def _stamp_deadline(
        error: DeadlineExceededError, deadline: Optional[Deadline]
    ) -> None:
        """Fill budget/elapsed on an error raised below the verb layer.

        :class:`~repro.faults.retry.RetryPolicy` sees only the opaque
        remaining-ticks view, so its errors carry no budget; the verb
        that owns the deadline stamps them on the way out."""
        if deadline is not None and error.budget == 0:
            error.budget = deadline.budget
            error.elapsed = deadline.elapsed()

    def _send(
        self,
        node: StorageNode,
        op: str,
        uid: Uid,
        fn: Callable[[], object],
        call: Call,
        timeout_ticks: Optional[int] = None,
    ) -> object:
        """One request to a node, through the transport, from ``call``'s origin.

        ``timeout_ticks`` (a hedge threshold) and the call's deadline
        both cap the sender's patience; the tighter one wins.
        """
        origin, deadline = call
        timeout = timeout_ticks
        if deadline is not None:
            remaining = deadline.remaining()
            timeout = remaining if timeout is None else min(timeout, remaining)
        return self.transport.send(origin, node.name, op, uid, fn, timeout_ticks=timeout)

    def _exchange(
        self,
        node: StorageNode,
        op: str,
        uid: Uid,
        fn: Callable[[], object],
        call: Call,
        timeout_ticks: Optional[int] = None,
    ) -> object:
        """One read-side replica conversation: :meth:`_send`, retried
        through the policy.  (:meth:`_place`, the write side, retries the
        same way but builds a fresh delivery per attempt: its attempts
        carry different chunks.)

        A hedged exchange (``timeout_ticks`` set) gets exactly one
        un-retried attempt capped at that many ticks — a hedged read does
        not burn the retry budget on a replica it already believes is
        slow, it moves to the next one.
        """
        send = partial(self._send, node, op, uid, fn, call, timeout_ticks)
        if timeout_ticks is not None:
            return send()
        return self.retry.call(send, deadline=call[1])

    def _ping_uid(self, name: str) -> Uid:
        uid = self._ping_uids.get(name)
        if uid is None:
            uid = Uid.of(b"ping:" + name.encode("utf-8"))
            self._ping_uids[name] = uid
        return uid

    def probe(self, origin: str, name: str) -> bool:
        """One heartbeat from ``origin`` to node ``name``.

        Goes through the transport, so a probe fails for the same reasons
        a request would: the node is down, or the network between this
        origin and the node is partitioned, dropping, or delaying.  No
        retry — absorbing isolated losses is the failure detector's job.
        """
        node = self.nodes[name]
        try:
            self._send(node, "ping", self._ping_uid(name), node.ping, (origin, None))
        except TransientError:
            return False
        return True

    def failure_detector(self, origin: str = COORDINATOR) -> FailureDetector:
        """The per-origin failure detector (created on first use).

        Each origin keeps its own view: during a partition, clients on
        side A suspect the nodes on side B and vice versa.
        """
        detector = self._detectors.get(origin)
        if detector is None:
            detector = FailureDetector(self, origin=origin)
            self._detectors[origin] = detector
        return detector

    def tick(self) -> Dict[str, str]:
        """Run one heartbeat round from the coordinator; returns states."""
        return self.failure_detector().probe_round()

    def _suspected(self, name: str, origin: str) -> bool:
        """Does ``origin``'s detector currently distrust this node?

        False when no detector has been started for the origin — routing
        only changes once somebody is actually measuring heartbeats.
        """
        detector = self._detectors.get(origin)
        return detector is not None and detector.is_suspect(name)

    def _writable(self, node: StorageNode, origin: str) -> bool:
        """Should ``origin`` even attempt a write at this node right now?"""
        if not node.up:
            return False
        if self.accountability.is_quarantined(node.name):
            self.quarantine_skips += 1
            return False
        if self._suspected(node.name, origin):
            self.suspect_skips += 1
            return False
        if not self.breakers.begin_attempt(origin, node.name):
            self.breaker_skips += 1
            return False
        return True

    # -- hinted handoff ---------------------------------------------------------------

    def _queue_hint(self, name: str, chunk: Chunk) -> None:
        if self.accountability.is_quarantined(name):
            # A quarantined node gets no queued writes: re-admission runs
            # a full re-verified resync, which re-derives the same copies.
            self.hints_discarded += 1
            return
        hints = self._hints.setdefault(name, {})
        if chunk.uid not in hints:
            hints[chunk.uid] = chunk
            self.hints_queued += 1

    def _replay_hints(self, name: str) -> int:
        """Hand queued writes to a freshly revived node.

        The hint queue lives in the writer's memory, so its payloads are
        exactly as trustworthy as that process: every replayed chunk is
        re-verified against its uid on this side and rejected (counted in
        ``hint_rejections``) when the bytes no longer hash to it — a
        corrupted or adversarial replay must not become a durable copy.
        """
        node = self.nodes[name]
        hints = self._hints.pop(name, {})
        if self.accountability.is_quarantined(name):
            self.hints_discarded += len(hints)
            return 0
        replayed = 0
        for uid, chunk in hints.items():
            if not chunk.is_valid():
                self.hint_rejections += 1
                continue
            if not self._place(node, [chunk], (COORDINATOR, None)):
                self._queue_hint(name, chunk)  # keep it for the next revive
                continue
            replayed += 1
            self.hints_replayed += 1
        return replayed

    def pending_hints(self) -> Dict[str, int]:
        """Queued hinted-handoff chunks per down node."""
        return {name: len(hints) for name, hints in self._hints.items() if hints}

    def pending_hint_chunks(self) -> Dict[str, List[Chunk]]:
        """The queued hint payloads themselves, per target node.

        Public so fault injection can model a compromised hint holder
        (:func:`repro.faults.byzantine.corrupt_queued_hints`) without
        reaching into private state.
        """
        return {
            name: list(hints.values()) for name, hints in self._hints.items() if hints
        }

    def replace_hint(self, name: str, chunk: Chunk) -> bool:
        """Swap one queued hint payload in place (same uid slot).

        Returns False when no hint for that uid is queued against the
        node.  The replacement is *not* verified here — this is the
        fault-injection surface; :meth:`_replay_hints` is the defense.
        """
        hints = self._hints.get(name)
        if hints is None or chunk.uid not in hints:
            return False
        hints[chunk.uid] = chunk
        return True

    def flush_hints(self) -> int:
        """Replay hints queued against nodes that are currently up.

        A hint normally drains when its node revives, but a write can also
        miss a *live* replica (retry budget exhausted); those hints would
        otherwise sit forever.  Returns the number handed off.
        """
        return sum(
            self._replay_hints(name)
            for name in list(self._hints)
            if self.nodes[name].up
        )

    def drop_hints(self) -> int:
        """Forget every queued hint (simulates the hint holder restarting).

        Hinted handoff is best-effort — the queue lives in the writer's
        memory and dies with it.  Losing it must not lose data: Merkle
        anti-entropy re-derives the same repairs from the replicas
        themselves.  Returns the number of hints dropped.
        """
        dropped = sum(len(hints) for hints in self._hints.values())
        self._hints.clear()
        return dropped

    # -- ChunkStore primitives -------------------------------------------------------

    def replica_nodes(self, uid: Uid) -> List[StorageNode]:
        """The nodes responsible for ``uid``, in ring placement order.

        Part of the public surface: maintenance passes and tests ask for
        placement without reaching into ring internals.
        """
        return [self.nodes[name] for name in self.ring.replicas(uid, self.replication)]

    def _place(
        self,
        node: StorageNode,
        chunks: List[Chunk],
        call: Call,
    ) -> Dict[int, bool]:
        """Verified replica writes of ``chunks`` to one node as ``call``: one
        exchange, retried through the policy for the chunks it has not
        acked yet.

        Returns ``position in chunks → stored fresh`` for every chunk the
        node acked; a missing position is a miss (the exchange counts once
        in ``transient_failures``) because the write could not complete
        within the retry budget or the deadline — which includes
        :class:`~repro.errors.DeadlineExceededError`: a replica write that
        ran out of budget is a miss like any other, and the caller's own
        accounting decides the verb's fate.

        With ``verify_writes`` each written copy is read back and checked
        against its uid before it counts: a torn or dropped write looks
        like any other transient failure and gets retried.  The whole
        write-and-verify exchange is one message on the transport,
        addressed by the first chunk it carries.  Only a reply the sender
        waited for acks anything: each attempt answers into its own
        table, so a late delivery of an abandoned attempt cannot.

        The verify outcome also feeds the accountability board, chunk by
        chunk: a write that exhausts its retries with the read-back
        *never* verifying is the fake-ack signature (honest rot striking
        every attempt of every retry is astronomically unlikely), while
        any verified write clears the node's unverified-run counter.
        """
        origin, deadline = call
        pending = list(range(len(chunks)))
        placed: Dict[int, bool] = {}
        verify_failures = [0] * len(chunks)
        verify = self.verify_writes

        def attempt() -> None:
            carried = list(pending)
            # position -> stored fresh, None until the copy is acked.
            answered: List[Optional[bool]] = [None] * len(chunks)

            def exchange() -> None:
                # Every chunk gets its answer; the first failure is the
                # reply's error (a duplicated delivery answers again).
                failure: Optional[TransientError] = None
                for position in carried:
                    chunk = chunks[position]
                    answered[position] = None
                    try:
                        fresh = node.put(chunk)
                        if verify:
                            got = node.store.get_maybe(chunk.uid)
                            if got is None or not got.is_valid():
                                verify_failures[position] += 1
                                # Evict the bad copy: put() dedups on uid, so a
                                # retry would otherwise no-op against the torn bytes.
                                node.store.delete(chunk.uid)
                                raise TransientStoreError(
                                    f"write of {chunk.uid.short()} to {node.name} did not verify"
                                )
                    except TransientError as error:
                        failure = failure or error
                        continue
                    answered[position] = fresh
                if failure is not None:
                    raise failure

            try:
                self._send(node, "put", chunks[carried[0]].uid, exchange, call)
            finally:
                pending.clear()
                for position in carried:
                    fresh = answered[position]
                    if fresh is None:
                        pending.append(position)
                    else:
                        placed[position] = fresh

        try:
            self.retry.call(attempt, deadline=deadline)
        except TransientError:
            self.transient_failures += 1
        board = self.accountability
        for position, failures in enumerate(verify_failures):
            if position in placed:
                if verify:
                    board.record_verified_write(node.name)
            elif failures:
                board.record_unverified_write(origin, node.name, chunks[position].uid)
        return placed

    def transfer(self, source: StorageNode, target: StorageNode, chunk: Chunk) -> bool:
        """Ship one replica copy node-to-node (the anti-entropy path).

        The message travels ``source -> target`` on the transport — a
        partition between the *client* and the nodes does not block two
        nodes on the same side syncing each other.  Returns False when the
        write cannot complete within the retry budget (a later pass
        retries); the copy is verified on arrival like any other write.

        The payload itself is checked against its uid before any write is
        attempted: anti-entropy must not launder a lying source's bytes
        into a healthy replica, so an invalid transfer is rejected and
        attributed to the source (``transfer_rejections`` + a weak
        suspicion event on its scorecard).
        """
        if not chunk.is_valid():
            self.transfer_rejections += 1
            self.accountability.record_suspicion(
                target.name,
                source.name,
                chunk.uid,
                op="transfer",
                kind="bad-transfer",
                served=_digest_of(chunk),
            )
            return False
        return bool(self._place(target, [chunk], (source.name, None)))

    def _insert(self, chunk: Chunk) -> None:
        self._write([chunk], self._own_call())

    def _try_write(self, node: StorageNode, chunks: List[Chunk], call: Call) -> Dict[int, bool]:
        """One replica exchange of the write walk, if the node is writable
        and the budget not spent; what :meth:`_place` acked."""
        origin, deadline = call
        if (deadline is not None and deadline.expired()) or not self._writable(node, origin):
            return {}
        placed = self._place(node, chunks, call)
        self.breakers.record(origin, node.name, len(placed) == len(chunks))
        return placed

    def _write(self, chunks: List[Chunk], call: Call) -> Set[Uid]:
        """The write walk: place distinct ``chunks`` on ``write_quorum``
        replicas each; return the uids some replica stored fresh.

        Home replicas first, one exchange per node carrying every chunk
        it is home to.  A chunk short of quorum then walks further
        clockwise on its own (sloppy quorum): the next reachable nodes
        stand in for the unreachable homes, which still get hints, and
        Merkle anti-entropy migrates the stand-in copies home after heal.
        The wider ring walk is computed only for a chunk whose homes fell
        short.  Hints are queued for every chunk that stands; the first
        chunk that does not raises.
        """
        deadline = call[1]
        quorum = max(self.write_quorum, 1)
        # Per chunk, by position: its homes, acks, and the homes it missed.
        homes = [self.replica_nodes(chunk.uid) for chunk in chunks]
        acked = [0] * len(chunks)
        missed: List[List[StorageNode]] = [[] for _ in chunks]
        fresh: Set[Uid] = set()
        by_node: Dict[StorageNode, List[int]] = {}
        for index, nodes in enumerate(homes):
            for node in nodes:
                by_node.setdefault(node, []).append(index)
        for node, indexes in by_node.items():
            placed = self._try_write(node, [chunks[index] for index in indexes], call)
            for position, index in enumerate(indexes):
                if position in placed:
                    acked[index] += 1
                    if placed[position]:
                        fresh.add(chunks[index].uid)
                else:
                    # Every home replica is owed a copy: the ones skipped or
                    # failed here get a hint once the write is known to stand.
                    missed[index].append(node)
        attempted = [len(nodes) for nodes in homes]
        for index, chunk in enumerate(chunks):
            if acked[index] >= quorum:
                continue
            for name in self.ring.replicas(chunk.uid, len(self.nodes)):
                node = self.nodes[name]
                if node in homes[index]:
                    continue
                if acked[index] >= quorum or (deadline is not None and deadline.expired()):
                    break
                attempted[index] += 1
                placed = self._try_write(node, [chunk], call)
                if placed:
                    acked[index] += 1
                    self.sloppy_writes += 1
                    if placed[0]:
                        fresh.add(chunk.uid)
        failed = [index for index, count in enumerate(acked) if count < quorum]
        for index, chunk in enumerate(chunks):
            if acked[index] >= quorum:
                for node in missed[index]:
                    self._queue_hint(node.name, chunk)
        if not failed:
            return fresh
        first = failed[0]
        uid, count = chunks[first].uid, acked[first]
        if deadline is not None and deadline.expired():
            # The budget, not the cluster, decided this write's fate: the
            # caller gets the deadline error (retryable with a fresh
            # budget), not a verdict about replica health.
            self.deadline_exceeded += 1
            raise deadline.exceeded(
                f"write of {uid.short()} acked by {count}/{self.replication}"
            )
        if count == 0:
            raise NodeDownError(
                f"no reachable replica target for {uid.short()} "
                f"(all {attempted[first]} candidate nodes down or cut off)"
            )
        raise QuorumWriteError(
            f"write of {uid.short()} acked by {count}/{self.replication} "
            f"replicas, quorum is {self.write_quorum}",
            acked=count,
            required=self.write_quorum,
        )

    def _read_replica(
        self,
        node: StorageNode,
        uid: Uid,
        call: Call,
        timeout_ticks: Optional[int] = None,
    ) -> Tuple[str, Optional[Chunk]]:
        """Read one replica: ('ok'|'missing'|'corrupt'|'unreachable', chunk).

        Every payload is checked against its uid; 'ok' carries only bytes
        that hash to it.  A mismatching payload is re-read up to the retry
        budget to separate wire corruption (a later attempt verifies) from
        rot on the replica (every attempt mismatches).

        ``timeout_ticks`` is a hedge threshold: a single attempt, neither
        retried nor re-read (see :meth:`_exchange`).
        """
        attempts = self.retry.attempts if timeout_ticks is None else 1
        saw_corrupt = False
        served: Optional[Chunk] = None
        for _ in range(attempts):
            try:
                chunk = self._exchange(
                    node, "get", uid, lambda: node.get(uid), call, timeout_ticks
                )
            except DeadlineExceededError:
                # The verb's budget, not this replica, stopped the read:
                # propagate instead of mislabelling the node unreachable.
                raise
            except TransientError:
                self.transient_failures += 1
                return "unreachable", None
            if chunk is None:
                return "missing", None
            if chunk.is_valid():
                return "ok", chunk
            self.corrupt_reads += 1
            saw_corrupt = True
            served = chunk
        # On 'corrupt' the mismatching payload rides along so the caller
        # can attribute *what* was served, not just that something was.
        return ("corrupt" if saw_corrupt else "missing"), served

    def _fetch(self, uid: Uid) -> Optional[Chunk]:
        return self._read(uid, self._own_call())

    def _read(self, uid: Uid, call: Call) -> Optional[Chunk]:
        """One timed replicated read as ``call``."""
        started = self._now()
        try:
            return self._replicated_read(uid, call)
        except DeadlineExceededError as error:
            self.deadline_exceeded += 1
            self._stamp_deadline(error, call[1])
            raise
        finally:
            self.read_ticks.observe(self._now() - started)

    def get_node(self, uid: Uid) -> DecodedNode:
        """A node in decoded form: from the coordinator's cache when this
        uid was verified before, else one replicated read.

        The read is the ordinary one — failover, read-repair and
        attribution unchanged — and every copy it returns was checked
        against the uid, so the node it decodes is safe to remember.
        """
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

    def _replicated_read(self, uid: Uid, call: Call) -> Optional[Chunk]:
        """The replica walk behind :meth:`_read` (which times it)."""
        origin, deadline = call
        # Suspected replicas go to the back of the line (a stable sort on
        # the verdict): they still get tried (suspicion can be wrong) but
        # no longer burn the retry budget before a healthy replica gets a
        # chance.
        placement = sorted(
            self.replica_nodes(uid), key=lambda n: self._suspected(n.name, origin)
        )
        # Nodes whose breaker (from this origin) is OPEN go last — tried
        # only when every admitted replica has failed, as the breaker's
        # half-open probe of last resort.
        admitted: List[StorageNode] = []
        tripped: List[StorageNode] = []
        for node in placement:
            if not node.up:
                continue
            # QUARANTINED replicas are out of the read path entirely — no
            # fallback: a node with quarantine-grade tamper evidence does
            # not get a last word just because its siblings are down.
            if self.accountability.is_quarantined(node.name):
                self.quarantine_skips += 1
                continue
            if self.breakers.begin_attempt(origin, node.name):
                admitted.append(node)
            else:
                self.breaker_skips += 1
                tripped.append(node)
        if not admitted:
            admitted, tripped = tripped, []
        found: Optional[Chunk] = None
        repair_targets: List[StorageNode] = []
        saw_rot = False
        attempted_failures = 0
        hedged = False
        deadline_cut = False
        # One walk: the admitted replicas, then — only when every one of
        # them failed — the tripped ones, with the same treatment.
        for position, node in enumerate(admitted + tripped):
            if deadline is not None and deadline.expired():
                deadline_cut = True
                break
            # Hedge arming: cap the first attempt at the primary's tracked
            # p95 when another *admitted* replica is waiting behind it.  At
            # most one hedge per read — later replicas run with the normal
            # budget.
            threshold: Optional[int] = None
            if self.hedge_reads and not hedged and position + 1 < len(admitted):
                threshold = self.latency.hedge_threshold(
                    origin, node.name, "get", min_samples=self.HEDGE_MIN_SAMPLES
                )
            before = self._now()
            status, chunk = self._read_replica(node, uid, call, threshold)
            self.latency.observe(origin, node.name, "get", self._now() - before)
            # A replica that *answered* (even "missing"/"corrupt") is not
            # gray; only failing to get an answer feeds the breaker.
            self.breakers.record(origin, node.name, status != "unreachable")
            if status == "ok":
                if attempted_failures > 0:
                    self.failovers += 1
                if hedged:
                    self.hedge_wins += 1
                found = chunk
                break
            attempted_failures += 1
            if threshold is not None and status == "unreachable":
                # The hedge timeout fired: the next replica *is* the hedge.
                # The abandoned response still lands as a stale delivery.
                self.hedges_issued += 1
                hedged = True
            if status == "missing":
                repair_targets.append(node)
            elif status == "corrupt":
                # Rot on this replica: quarantine the copy, repair below.
                # Weak-grade attribution: record *which* node served
                # *what* digest instead of the uid it claimed.  One-off
                # rot produces these too, so this alone never quarantines
                # — the post-repair audit below is the discriminator.
                saw_rot = True
                self.accountability.record_suspicion(
                    origin,
                    node.name,
                    uid,
                    op="get",
                    kind="served-corrupt",
                    served=_digest_of(chunk),
                )
                node.drop(uid)
                repair_targets.append(node)
            # 'unreachable' nodes are skipped; repair() will catch them up.
        if found is None:
            self.failed_reads += 1
            if saw_rot:
                raise ChunkCorruptionError(
                    f"every reachable replica of {uid.short()} is corrupt"
                )
            if deadline_cut:
                assert deadline is not None
                raise deadline.exceeded(f"read of {uid.short()} with replicas untried")
            return None
        for node in repair_targets:
            if deadline is not None and deadline.expired():
                break  # repair is best-effort; anti-entropy catches up
            if not self._place(node, [found], call):
                continue
            self.read_repairs += 1
            self.repair_audits += 1
            if self.audit_copy(node, uid, origin) is False:
                self.repair_audit_failures += 1
        return found

    def audit_copy(
        self, node: StorageNode, uid: Uid, origin: str, kind: Optional[str] = None
    ) -> Optional[bool]:
        """Re-read a copy the node vouched for; strike it if it never verifies.

        This is the rot-vs-lies discriminator, shared by the post-repair
        audit and anti-entropy's spot-check of self-reported indexes.
        After a read-repair, ``_place`` read the copy back and saw it hash
        to its uid; honest disk rot striking that exact fresh copy on
        ``audit_reads`` consecutive re-reads (each itself re-read once by
        ``diagnose_copy``) has probability ~(rate²)^reads — while a
        replica that lies at any steady rate keeps failing audits forever.
        Every re-read failing is therefore strike-grade evidence
        (``kind``, or ``audit-mismatch``/``audit-withheld`` by what the
        last re-read saw); any verifying re-read is a clean audit.

        Runs on the management plane (direct store access, like scrub and
        ``durability_check``) so auditing costs zero transport ticks and
        cannot eat a client verb's deadline budget.  Returns True on a
        clean audit, False on a strike, None for no verdict (unreadable).
        """
        board = self.accountability
        status, served = "", None
        for _ in range(max(board.audit_reads, 1)):
            status, served, _ = diagnose_copy(node.store, uid, retry=self.retry)
            if status == "ok":
                board.record_clean_audit(node.name)
                return True
            if status == "unreadable":
                return None  # transient plane down: no verdict either way
        if kind is None:
            kind = "audit-mismatch" if status == "corrupt" else "audit-withheld"
        board.record_strike(
            origin, node.name, uid, op="get", kind=kind, served=_digest_of(served)
        )
        return False

    def _contains(self, uid: Uid) -> bool:
        return self._has(uid, self._own_call())

    def _has(self, uid: Uid, call: Call) -> bool:
        """Does a trusted home replica answer ``call`` that it holds ``uid``?"""
        deadline = call[1]
        for node in self.replica_nodes(uid):
            if not node.up:
                continue
            if self.accountability.is_quarantined(node.name):
                self.quarantine_skips += 1
                continue
            try:
                if deadline is not None and deadline.expired():
                    raise deadline.exceeded(f"has({uid.short()}) with replicas untried")
                if self._exchange(node, "has", uid, lambda: node.has(uid), call):
                    return True
            except DeadlineExceededError as error:
                self.deadline_exceeded += 1
                self._stamp_deadline(error, deadline)
                raise
            except TransientError:
                self.transient_failures += 1
        return False

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
        for hints in self._hints.values():
            hints.pop(uid, None)
        return removed

    # -- clients ---------------------------------------------------------------------

    def client(
        self, origin: str, deadline_budget: Optional[int] = None
    ) -> "ClusterClient":
        """A named client endpoint on this cluster.

        Each client's requests are tagged with its ``origin``, so the
        transport can partition clients independently (two engines on
        opposite sides of a split) and each origin accrues its own
        failure-detector view.  ``deadline_budget`` overrides the
        cluster-wide budget for this client's verbs (a latency-sensitive
        client can run tighter deadlines than a batch one).
        """
        return ClusterClient(self, origin, deadline_budget=deadline_budget)

    # -- maintenance --------------------------------------------------------------------

    def trusted_nodes(self) -> List[StorageNode]:
        """Live nodes that are not QUARANTINED (quorum/repair candidates)."""
        return [
            node
            for node in self.live_nodes()
            if not self.accountability.is_quarantined(node.name)
        ]

    def repair(self) -> int:
        """Merkle anti-entropy repair: converge every live replica.

        The cluster's one repair loop: instead of walking every uid in the
        cluster, each node pair compares compact digest trees over the
        ring's arcs and ships exactly the chunks that differ, so a
        mostly-converged cluster pays O(divergence), not O(N).  Rotten
        copies are quarantined during tree construction and re-shipped
        from trusted peers; :meth:`scrub` drops rot and leaves the
        re-shipping to this pass too.  Returns replica copies shipped; the
        full :class:`~repro.cluster.antientropy.SyncReport` lands in
        ``last_sync_report``.
        """
        return self.anti_entropy_pass().chunks_transferred

    def anti_entropy_pass(self) -> SyncReport:
        """One Merkle reconciliation round; returns the full report."""
        report = anti_entropy_pass(self)
        self.last_sync_report = report
        return report

    def rebalance(self) -> int:
        """Move chunks onto their current ring placement; drop strays.

        Returns chunks copied.  (Repair first places, then strays drop.)
        """
        copies = self.repair()
        trusted = self.trusted_nodes()
        for node in trusted:
            for uid in list(node.store.ids()):
                owners = self.replica_nodes(uid)
                # Only drop if every owner is live, trusted and has a copy —
                # a copy on a quarantined owner does not count.
                if node not in owners and all(
                    owner in trusted and owner.store.has(uid) for owner in owners
                ):
                    node.drop(uid)
        return copies

    def scrub(self) -> ScrubReport:
        """One scrub pass (see :mod:`repro.store.scrub`): re-hash every
        trusted replica, drop rot, and let one anti-entropy pass put it
        back."""
        return scrub(self)

    def readmit(self, name: str) -> int:
        """Re-admit a quarantined node after a fully re-verified resync.

        Every uid the node claims is re-read and re-hashed; copies that
        fail verification are dropped (and broadcast to subscribed caches
        via ``notify_swept``, so a shared cache cannot keep serving what
        the node no longer holds).  The node then re-enters the trust
        machine at SUSPECT — probation, not absolution — and one
        anti-entropy pass restores its replica set from trusted peers.
        Returns the number of unverifiable copies dropped.

        Call this only once the *cause* is resolved (the adversarial
        wrapper removed, the disk replaced): a node still lying simply
        re-earns its quarantine.
        """
        node = self.nodes[name]
        _, dropped = build_valid_index(self, node, quarantine=False)
        for uid in dropped:
            node.drop(uid)
        if dropped:
            self.node_cache.forget(dropped)
            self.notify_swept(dropped)
        self.accountability.readmit(name)
        self.anti_entropy_pass()
        return len(dropped)

    # -- diagnostics -----------------------------------------------------------------------

    def placement_histogram(self) -> Dict[str, int]:
        """Chunks per node (balance metric for the cluster ablation)."""
        return {name: node.chunk_count() for name, node in sorted(self.nodes.items())}

    def total_replica_count(self) -> int:
        """Sum of replicas across nodes."""
        return sum(node.chunk_count() for node in self.nodes.values())

    def durability_check(self, verify: bool = True) -> Dict[str, int]:
        """How many chunks have 0 / 1 / ≥2 live replicas right now.

        With ``verify`` (the default) a copy only counts when its stored
        bytes re-hash to the uid — the scrubber's wire-vs-disk
        discrimination, so a transient wire mismatch is re-read rather
        than miscounted.  Silent rot therefore shows up as
        under-replication instead of posing as a healthy replica.
        Counts hinted-handoff copies as live: a chunk whose only copies
        sit in the hint queue is recoverable, not lost.
        """
        buckets = {"lost": 0, "single": 0, "replicated": 0}
        hinted: Set[Uid] = set().union(*self._hints.values())
        # A quarantined node's copies are untrusted and do not count
        # toward durability: the report shows the real exposure.
        live = self.trusted_nodes()
        holdings: Dict[str, Set[Uid]] = {
            node.name: (
                build_valid_index(self, node, quarantine=False)[0]
                if verify
                else set(node.store.ids())
            )
            for node in live
        }
        for uid in self._ids():
            copies = sum(
                1
                for node in self.replica_nodes(uid)
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

    def health_report(self) -> Dict[str, object]:
        """Operational counters in one place (chaos-suite assertions)."""
        return {
            "nodes_up": len(self.live_nodes()),
            "nodes_total": len(self.nodes),
            "failed_reads": self.failed_reads,
            "failovers": self.failovers,
            "corrupt_reads": self.corrupt_reads,
            "read_repairs": self.read_repairs,
            "hints_queued": self.hints_queued,
            "hints_replayed": self.hints_replayed,
            "hints_pending": sum(len(h) for h in self._hints.values()),
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
            "transfer_rejections": self.transfer_rejections,
            "repair_audits": self.repair_audits,
            "repair_audit_failures": self.repair_audit_failures,
            "accountability": self.accountability.snapshot(),
            "tamper_evidence": [
                record.to_dict() for record in self.accountability.evidence
            ],
            "suspected": sorted(
                {
                    name
                    for detector in self._detectors.values()
                    for name in detector.suspected()
                }
            ),
            "degraded": sorted(
                {
                    name
                    for detector in self._detectors.values()
                    for name in detector.degraded()
                }
            ),
            "read_latency": self.read_ticks.snapshot(),
            "latency_observations": self.latency.observations,
            "node_cache": self.node_cache.counters(),
            "durability": self.durability_check(),
            "network": self.transport.stats(),
        }


class ClusterClient(ChunkStore):
    """A named caller of a shared cluster.

    A client holds no replica state and swaps nothing on the cluster.
    Each verb starts one call — this client's ``origin`` plus a fresh
    deadline from its own budget, else the cluster's — and runs the
    cluster's request path with it.  The transport sees the request come
    from *this* endpoint (its partition side, its fault stream), and
    failure detection, breakers and latency accrue to this origin.  Two
    engines opened over two clients therefore experience a split exactly
    the way two application servers would.  A client does not share the
    coordinator's node cache: its reads reach the replicas.
    """

    def __init__(
        self,
        cluster: ClusterStore,
        origin: str,
        deadline_budget: Optional[int] = None,
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
        """The cluster's put, issued from this origin: one precheck and one
        budget, accounted in the cluster's stats as :meth:`put_nodes` is."""
        return self.cluster._put(chunk, self._own_call())

    def _insert(self, chunk: Chunk) -> None:
        self.cluster._write([chunk], self._own_call())

    def put_nodes(self, pairs: Iterable[Tuple[Chunk, DecodedNode]]) -> int:
        """The cluster's batch write, issued from this origin (and
        accounted in the cluster's stats, not this endpoint's)."""
        return self.cluster._put_nodes(pairs, self._own_call())

    def _fetch(self, uid: Uid) -> Optional[Chunk]:
        return self.cluster._read(uid, self._own_call())

    def _contains(self, uid: Uid) -> bool:
        return self.cluster._has(uid, self._own_call())

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
