"""The coordinator's two walks over a uid's replicas: write and read.

**Write.**  Writes go to ``replication`` nodes chosen by the ring and
must be acknowledged by ``write_quorum`` of them, one verified exchange
(:func:`~repro.cluster.replica.place`) per node per verb.  When the home
replicas cannot meet quorum — down, suspected by the caller's failure
detector, quarantined, or breaker-tripped — the walk extends past them
along the ring (sloppy quorum), so writes stay available during a
partition; :class:`~repro.errors.QuorumWriteError` is raised only when
no quorum of *reachable* nodes exists at all.  Every home that missed a
write that stands gets a *hint*, replayed when the node revives (hinted
handoff); Merkle anti-entropy migrates stand-in copies home after heal.

**Read.**  Reads try each replica in placement order, fail over past
dead nodes and past copies whose bytes do not hash to the uid, and write
the good copy back to the replicas that missed or served rot
(read-repair), then audit each repaired copy.  The content address
doubles as both the placement key and the checksum, so every healing
decision is local: a copy is good iff its bytes hash to its uid, and any
good copy can repair any replica.  Rot on every reachable copy raises
:class:`~repro.errors.ChunkCorruptionError`, never bytes.

Every read is hedged, on the transport clock, the cluster's one clock:
gray failures — a replica that is up and answering probes but ~100x
slow — are met by a :class:`~repro.cluster.latency.LatencyTracker`
that remembers per-node service ticks, and once the primary's stream
holds :data:`HEDGE_MIN_SAMPLES` observations and another admitted
replica waits behind it, the first attempt is armed with the primary's
tracked p95 as a timeout and the read fails over to the next replica
the moment it elapses (the Tail-at-Scale hedge — the abandoned response
still lands late as a stale delivery).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Tuple

from repro.chunk import Chunk, Uid
from repro.cluster.maintenance import audit_copy
from repro.cluster.replica import (
    COORDINATOR,
    Call,
    exchange,
    place,
    read_replica,
    served_digest,
    suspected,
    writable,
)
from repro.errors import (
    ChunkCorruptionError,
    DeadlineExceededError,
    NodeDownError,
    QuorumWriteError,
    TransientError,
)
from repro.store.nodecache import DecodedNode

if TYPE_CHECKING:  # pragma: no cover - type-only imports, no runtime cycle
    from repro.cluster.cluster import ClusterStore
    from repro.cluster.latency import Deadline
    from repro.cluster.node import StorageNode

#: Observations a latency stream needs before reads hedge off its p95
#: (hedging on a two-sample quantile would fire on noise).
HEDGE_MIN_SAMPLES = 8


def put(cluster: "ClusterStore", chunk: Chunk, call: Call) -> bool:
    """A dedup precheck and the write walk under ONE call, so the verb
    cannot block for twice its deadline."""
    new = not has(cluster, chunk.uid, call)
    if new:
        write(cluster, [chunk], call)
    cluster.stats.record_put(chunk.type.name, chunk.size(), new)
    return new


def put_nodes(
    cluster: "ClusterStore", pairs: Iterable[Tuple[Chunk, DecodedNode]], call: Call
) -> int:
    """One verb's chunks under one call: one verified exchange per
    replica node, not one per chunk and replica.

    There is no ``has`` precheck — a node's ``put`` is idempotent, so a
    chunk the cluster already holds costs a dedup hit on each home
    instead of a round of messages.  A chunk is counted new when some
    replica stored it for the first time.  The writer's decoded forms
    are remembered only once the whole batch stood at quorum.
    """
    pairs = list(pairs)
    batch = list({chunk.uid: chunk for chunk, _ in pairs}.values())
    if not batch:
        return 0
    fresh = write(cluster, batch, call)
    cluster.node_cache.remember((chunk.uid, decoded) for chunk, decoded in pairs)
    new = len(fresh)
    for chunk, _ in pairs:
        uid = chunk.uid
        cluster.stats.record_put(chunk.type.name, chunk.size(), uid in fresh)
        fresh.discard(uid)  # a repeat within the batch is a dedup hit
    return new


def _try_write(
    cluster: "ClusterStore", node: "StorageNode", chunks: List[Chunk], call: Call
) -> Dict[int, bool]:
    """One replica exchange of the write walk, if the node is writable
    and the budget not spent; what :func:`place` acked."""
    origin, deadline = call
    if (deadline is not None and deadline.expired()) or not writable(cluster, node, origin):
        return {}
    placed = place(cluster, node, chunks, call)
    cluster.breakers.record(origin, node.name, len(placed) == len(chunks))
    return placed


def write(cluster: "ClusterStore", chunks: List[Chunk], call: Call) -> Set[Uid]:
    """The write walk: place distinct ``chunks`` on ``write_quorum``
    replicas each; return the uids some replica stored fresh.

    Home replicas first, one exchange per node carrying every chunk it
    is home to.  A chunk short of quorum then walks further clockwise on
    its own (sloppy quorum): the next reachable nodes stand in for the
    unreachable homes, which still get hints, and Merkle anti-entropy
    migrates the stand-in copies home after heal.  The wider ring walk
    is computed only for a chunk whose homes fell short.  Hints are
    queued for every chunk that stands; the first chunk that does not
    raises.
    """
    deadline = call[1]
    quorum = max(cluster.write_quorum, 1)
    # Per chunk, by position: its homes, acks, and the homes it missed.
    homes = [cluster.replica_nodes(chunk.uid) for chunk in chunks]
    acked = [0] * len(chunks)
    missed: List[List["StorageNode"]] = [[] for _ in chunks]
    fresh: Set[Uid] = set()
    by_node: Dict["StorageNode", List[int]] = {}
    for index, nodes in enumerate(homes):
        for node in nodes:
            by_node.setdefault(node, []).append(index)
    for node, indexes in by_node.items():
        placed = _try_write(cluster, node, [chunks[index] for index in indexes], call)
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
        for name in cluster.ring.replicas(chunk.uid, len(cluster.nodes)):
            node = cluster.nodes[name]
            if node in homes[index]:
                continue
            if acked[index] >= quorum or (deadline is not None and deadline.expired()):
                break
            attempted[index] += 1
            placed = _try_write(cluster, node, [chunk], call)
            if placed:
                acked[index] += 1
                cluster.sloppy_writes += 1
                if placed[0]:
                    fresh.add(chunk.uid)
    failed = [index for index, count in enumerate(acked) if count < quorum]
    for index, chunk in enumerate(chunks):
        if acked[index] >= quorum:
            for node in missed[index]:
                queue_hint(cluster, node.name, chunk)
    if not failed:
        return fresh
    first = failed[0]
    uid, count = chunks[first].uid, acked[first]
    if deadline is not None and deadline.expired():
        # The budget, not the cluster, decided this write's fate: the
        # caller gets the deadline error (retryable with a fresh budget),
        # not a verdict about replica health.
        cluster.deadline_exceeded += 1
        raise deadline.exceeded(
            f"write of {uid.short()} acked by {count}/{cluster.replication}"
        )
    if count == 0:
        raise NodeDownError(
            f"no reachable replica target for {uid.short()} "
            f"(all {attempted[first]} candidate nodes down or cut off)"
        )
    raise QuorumWriteError(
        f"write of {uid.short()} acked by {count}/{cluster.replication} "
        f"replicas, quorum is {cluster.write_quorum}",
        acked=count,
        required=cluster.write_quorum,
    )


def queue_hint(cluster: "ClusterStore", name: str, chunk: Chunk) -> None:
    """Owe node ``name`` a copy of ``chunk`` until it revives."""
    if cluster.accountability.is_quarantined(name):
        # A quarantined node gets no queued writes: re-admission runs a
        # full re-verified resync, which re-derives the same copies.
        cluster.hints_discarded += 1
        return
    hints = cluster.hints.setdefault(name, {})
    if chunk.uid not in hints:
        hints[chunk.uid] = chunk
        cluster.hints_queued += 1


def replay_hints(cluster: "ClusterStore", name: str) -> int:
    """Hand queued writes to a freshly revived node.

    The hint queue lives in the writer's memory, so its payloads are
    exactly as trustworthy as that process: every replayed chunk is
    re-verified against its uid on this side and rejected (counted in
    ``hint_rejections``) when the bytes no longer hash to it — a
    corrupted or adversarial replay must not become a durable copy.
    """
    node = cluster.nodes[name]
    hints = cluster.hints.pop(name, {})
    if cluster.accountability.is_quarantined(name):
        cluster.hints_discarded += len(hints)
        return 0
    replayed = 0
    for chunk in hints.values():
        if not chunk.is_valid():
            cluster.hint_rejections += 1
            continue
        if not place(cluster, node, [chunk], (COORDINATOR, None)):
            queue_hint(cluster, name, chunk)  # keep it for the next revive
            continue
        replayed += 1
        cluster.hints_replayed += 1
    return replayed


def _stamp_deadline(error: DeadlineExceededError, deadline: Optional["Deadline"]) -> None:
    """Fill budget/elapsed on an error raised below the verb layer.

    :class:`~repro.faults.retry.RetryPolicy` sees only the opaque
    remaining-ticks view, so its errors carry no budget; the verb that
    owns the deadline stamps them on the way out."""
    if deadline is not None and error.budget == 0:
        error.budget = deadline.budget
        error.elapsed = deadline.elapsed()


def read(cluster: "ClusterStore", uid: Uid, call: Call) -> Optional[Chunk]:
    """One timed replicated read as ``call``."""
    transport = cluster.transport
    started = transport.clock
    try:
        return _replicated_read(cluster, uid, call)
    except DeadlineExceededError as error:
        cluster.deadline_exceeded += 1
        _stamp_deadline(error, call[1])
        raise
    finally:
        cluster.read_ticks.observe(transport.clock - started)


def _replicated_read(cluster: "ClusterStore", uid: Uid, call: Call) -> Optional[Chunk]:
    """The replica walk behind :func:`read` (which times it)."""
    origin, deadline = call
    # Suspected replicas go to the back of the line (a stable sort on the
    # verdict): they still get tried (suspicion can be wrong) but no
    # longer burn the retry budget before a healthy replica gets a chance.
    placement = sorted(
        cluster.replica_nodes(uid), key=lambda n: suspected(cluster, n.name, origin)
    )
    # Nodes whose breaker (from this origin) is OPEN go last — tried only
    # when every admitted replica has failed, as the breaker's half-open
    # probe of last resort.
    admitted: List["StorageNode"] = []
    tripped: List["StorageNode"] = []
    for node in placement:
        if not node.up:
            continue
        # QUARANTINED replicas are out of the read path entirely — no
        # fallback: a node with quarantine-grade tamper evidence does not
        # get a last word just because its siblings are down.
        if cluster.accountability.is_quarantined(node.name):
            cluster.quarantine_skips += 1
            continue
        if cluster.breakers.begin_attempt(origin, node.name):
            admitted.append(node)
        else:
            cluster.breaker_skips += 1
            tripped.append(node)
    if not admitted:
        admitted, tripped = tripped, []
    found: Optional[Chunk] = None
    repair_targets: List["StorageNode"] = []
    saw_rot = False
    attempted_failures = 0
    hedged = False
    deadline_cut = False
    transport = cluster.transport
    # One walk: the admitted replicas, then — only when every one of them
    # failed — the tripped ones, with the same treatment.
    for position, node in enumerate(admitted + tripped):
        if deadline is not None and deadline.expired():
            deadline_cut = True
            break
        # Hedge arming: cap the first attempt at the primary's tracked p95
        # when another *admitted* replica is waiting behind it.  At most
        # one hedge per read — later replicas run with the normal budget.
        threshold: Optional[int] = None
        if not hedged and position + 1 < len(admitted):
            threshold = cluster.latency.hedge_threshold(
                origin, node.name, "get", min_samples=HEDGE_MIN_SAMPLES
            )
        before = transport.clock
        status, chunk = read_replica(cluster, node, uid, call, threshold)
        cluster.latency.observe(origin, node.name, "get", transport.clock - before)
        # A replica that *answered* (even "missing"/"corrupt") is not
        # gray; only failing to get an answer feeds the breaker.
        cluster.breakers.record(origin, node.name, status != "unreachable")
        if status == "ok":
            if attempted_failures > 0:
                cluster.failovers += 1
            if hedged:
                cluster.hedge_wins += 1
            found = chunk
            break
        attempted_failures += 1
        if threshold is not None and status == "unreachable":
            # The hedge timeout fired: the next replica *is* the hedge.
            # The abandoned response still lands as a stale delivery.
            cluster.hedges_issued += 1
            hedged = True
        if status == "missing":
            repair_targets.append(node)
        elif status == "corrupt":
            # Rot on this replica: quarantine the copy, repair below.
            # Weak-grade attribution: record *which* node served *what*
            # digest instead of the uid it claimed.  One-off rot produces
            # these too, so this alone never quarantines — the post-repair
            # audit below is the discriminator.
            saw_rot = True
            cluster.accountability.record_suspicion(
                origin,
                node.name,
                uid,
                op="get",
                kind="served-corrupt",
                served=served_digest(chunk),
            )
            node.drop(uid)
            repair_targets.append(node)
        # 'unreachable' nodes are skipped; repair() will catch them up.
    if found is None:
        cluster.failed_reads += 1
        if saw_rot:
            raise ChunkCorruptionError(f"every reachable replica of {uid.short()} is corrupt")
        if deadline_cut:
            assert deadline is not None
            raise deadline.exceeded(f"read of {uid.short()} with replicas untried")
        return None
    for node in repair_targets:
        if deadline is not None and deadline.expired():
            break  # repair is best-effort; anti-entropy catches up
        if not place(cluster, node, [found], call):
            continue
        cluster.read_repairs += 1
        cluster.repair_audits += 1
        if audit_copy(cluster, node, uid, origin) is False:
            cluster.repair_audit_failures += 1
    return found


def has(cluster: "ClusterStore", uid: Uid, call: Call) -> bool:
    """Does a trusted home replica answer ``call`` that it holds ``uid``?"""
    deadline = call[1]
    for node in cluster.replica_nodes(uid):
        if not node.up:
            continue
        if cluster.accountability.is_quarantined(node.name):
            cluster.quarantine_skips += 1
            continue
        try:
            if deadline is not None and deadline.expired():
                raise deadline.exceeded(f"has({uid.short()}) with replicas untried")
            if exchange(cluster, node, "has", uid, lambda: node.has(uid), call):
                return True
        except DeadlineExceededError as error:
            cluster.deadline_exceeded += 1
            _stamp_deadline(error, deadline)
            raise
        except TransientError:
            cluster.transient_failures += 1
    return False
