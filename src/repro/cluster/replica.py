"""The replica call: one caller's request to one storage node.

Every request crosses the cluster's
:class:`~repro.faults.network.PartitionedTransport`: the one passed to
the cluster, whose plan's partitions, drops, delays and duplicates hit
the cluster exactly as it dictates, or a fault-free one built there.
Each public verb starts one :data:`Call` — the endpoint it is issued
from plus its deadline — and threads it down to :func:`send`; the
coordinator's own verbs are issued as :data:`COORDINATOR` under
``deadline_budget``, and a ``ClusterClient`` issues the same verbs as
its own origin.  Transient per-node failures are retried with bounded
backoff through the cluster's :class:`~repro.faults.retry.RetryPolicy`
(instant by default — the cluster is simulated), and ``deadline_budget``
grants every verb one tick budget threaded through sends and retries,
surfacing :class:`~repro.errors.DeadlineExceededError` instead of
blocking past it.

Admission is per origin.  A
:class:`~repro.cluster.membership.FailureDetector` per origin turns
missed heartbeats (one :func:`probe` per node per round) into SUSPECT
verdicts; a per-``(origin, node)``
:class:`~repro.cluster.breaker.BreakerBoard` opens after
:data:`~repro.cluster.breaker.THRESHOLD` consecutive timeouts and cools
down for :data:`~repro.cluster.breaker.COOLDOWN` transport ticks, so a
slow-but-alive node is routed around even though the failure detector
rightly still calls it ALIVE; and a QUARANTINED node is sent no read or
write.  Every read is hedged (:mod:`~repro.cluster.walks`), and every
duration — service times, deadlines, cooldowns — is counted in the
transport's ticks, the cluster's one clock.

:func:`place` is a replica's half of a write: one verified exchange per
node per verb.  :func:`read_replica` is its half of a read, and every
payload it returns hashes to its uid.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.chunk import Chunk, Uid
from repro.errors import DeadlineExceededError, TransientError, TransientStoreError

if TYPE_CHECKING:  # pragma: no cover - type-only imports, no runtime cycle
    from repro.cluster.cluster import ClusterStore
    from repro.cluster.latency import Deadline
    from repro.cluster.node import StorageNode

#: One verb's caller, threaded from the verb down to the transport: the
#: endpoint the request is issued from and the verb's deadline (None: no
#: deadline).
Call = Tuple[str, Optional["Deadline"]]

#: The endpoint the coordinator's own verbs and hint replay are issued
#: from.
COORDINATOR = "client"


def served_digest(chunk: Optional[Chunk]) -> Optional[str]:
    """What a served payload *actually* hashes to (tamper-evidence field)."""
    if chunk is None:
        return None
    return Chunk.compute_uid(chunk.type, chunk.data).hex()


def send(
    cluster: "ClusterStore",
    node: "StorageNode",
    op: str,
    uid: Uid,
    fn: Callable[[], object],
    call: Call,
    timeout_ticks: Optional[int] = None,
) -> object:
    """One request to a node, through the transport, from ``call``'s origin.

    ``timeout_ticks`` (a hedge threshold) and the call's deadline both
    cap the sender's patience; the tighter one wins.
    """
    origin, deadline = call
    timeout = timeout_ticks
    if deadline is not None:
        remaining = deadline.remaining()
        timeout = remaining if timeout is None else min(timeout, remaining)
    return cluster.transport.send(origin, node.name, op, uid, fn, timeout_ticks=timeout)


def exchange(
    cluster: "ClusterStore",
    node: "StorageNode",
    op: str,
    uid: Uid,
    fn: Callable[[], object],
    call: Call,
    timeout_ticks: Optional[int] = None,
) -> object:
    """One read-side replica conversation: :func:`send`, retried through
    the policy.  (:func:`place`, the write side, retries the same way but
    builds a fresh delivery per attempt: its attempts carry different
    chunks.)

    A hedged exchange (``timeout_ticks`` set) gets exactly one un-retried
    attempt capped at that many ticks — a hedged read does not burn the
    retry budget on a replica it already believes is slow, it moves to
    the next one.
    """
    attempt = partial(send, cluster, node, op, uid, fn, call, timeout_ticks)
    if timeout_ticks is not None:
        return attempt()
    return cluster.retry.call(attempt, deadline=call[1])


def place(
    cluster: "ClusterStore", node: "StorageNode", chunks: List[Chunk], call: Call
) -> Dict[int, bool]:
    """Verified replica writes of ``chunks`` to one node as ``call``: one
    exchange, retried through the policy for the chunks it has not acked
    yet.

    Returns ``position in chunks → stored fresh`` for every chunk the
    node acked; a missing position is a miss (the exchange counts once in
    ``transient_failures``) because the write could not complete within
    the retry budget or the deadline — which includes
    :class:`~repro.errors.DeadlineExceededError`: a replica write that ran
    out of budget is a miss like any other, and the caller's own
    accounting decides the verb's fate.

    With ``verify_writes`` each written copy is read back and checked
    against its uid before it counts: a torn or dropped write looks like
    any other transient failure and gets retried.  The whole
    write-and-verify exchange is one message on the transport, addressed
    by the first chunk it carries.  Only a reply the sender waited for
    acks anything: each attempt answers into its own table, so a late
    delivery of an abandoned attempt cannot.

    The verify outcome also feeds the accountability board, chunk by
    chunk: a write that exhausts its retries with the read-back *never*
    verifying is the fake-ack signature (honest rot striking every
    attempt of every retry is astronomically unlikely), while any
    verified write clears the node's unverified-run counter.
    """
    origin, deadline = call
    pending = list(range(len(chunks)))
    placed: Dict[int, bool] = {}
    verify_failures = [0] * len(chunks)
    verify = cluster.verify_writes

    def attempt() -> None:
        carried = list(pending)
        # position -> stored fresh, None until the copy is acked.
        answered: List[Optional[bool]] = [None] * len(chunks)

        def deliver() -> None:
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
            send(cluster, node, "put", chunks[carried[0]].uid, deliver, call)
        finally:
            pending.clear()
            for position in carried:
                fresh = answered[position]
                if fresh is None:
                    pending.append(position)
                else:
                    placed[position] = fresh

    try:
        cluster.retry.call(attempt, deadline=deadline)
    except TransientError:
        cluster.transient_failures += 1
    board = cluster.accountability
    for position, failures in enumerate(verify_failures):
        if position in placed:
            if verify:
                board.record_verified_write(node.name)
        elif failures:
            board.record_unverified_write(origin, node.name, chunks[position].uid)
    return placed


def read_replica(
    cluster: "ClusterStore",
    node: "StorageNode",
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
    retried nor re-read (see :func:`exchange`).
    """
    attempts = cluster.retry.attempts if timeout_ticks is None else 1
    saw_corrupt = False
    served: Optional[Chunk] = None
    for _ in range(attempts):
        try:
            chunk = exchange(cluster, node, "get", uid, lambda: node.get(uid), call, timeout_ticks)
        except DeadlineExceededError:
            # The verb's budget, not this replica, stopped the read:
            # propagate instead of mislabelling the node unreachable.
            raise
        except TransientError:
            cluster.transient_failures += 1
            return "unreachable", None
        if chunk is None:
            return "missing", None
        if chunk.is_valid():
            return "ok", chunk
        cluster.corrupt_reads += 1
        saw_corrupt = True
        served = chunk
    # On 'corrupt' the mismatching payload rides along so the caller can
    # attribute *what* was served, not just that something was.
    return ("corrupt" if saw_corrupt else "missing"), served


def probe(cluster: "ClusterStore", origin: str, name: str) -> bool:
    """One heartbeat from ``origin`` to node ``name``.

    Goes through the transport, so a probe fails for the same reasons a
    request would: the node is down, or the network between this origin
    and the node is partitioned, dropping, or delaying.  No retry —
    absorbing isolated losses is the failure detector's job.
    """
    node = cluster.nodes[name]
    try:
        send(cluster, node, "ping", Uid.of(b"ping:" + name.encode()), node.ping, (origin, None))
    except TransientError:
        return False
    return True


def suspected(cluster: "ClusterStore", name: str, origin: str) -> bool:
    """Does ``origin``'s detector currently distrust this node?

    False when no detector has been started for the origin — routing
    only changes once somebody is actually measuring heartbeats.
    """
    detector = cluster.detectors.get(origin)
    return detector is not None and detector.is_suspect(name)


def writable(cluster: "ClusterStore", node: "StorageNode", origin: str) -> bool:
    """Should ``origin`` even attempt a write at this node right now?"""
    if not node.up:
        return False
    if cluster.accountability.is_quarantined(node.name):
        cluster.quarantine_skips += 1
        return False
    if suspected(cluster, node.name, origin):
        cluster.suspect_skips += 1
        return False
    if not cluster.breakers.begin_attempt(origin, node.name):
        cluster.breaker_skips += 1
        return False
    return True
