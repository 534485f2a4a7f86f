"""Byzantine torture: lying replicas under gray networks and rotten disks.

The drill: one replica is adversarial (seeded :class:`ByzantinePlan` —
wrong bytes under the claimed uid, withheld reads, fake acks, forged
digests), another is honest-but-failing (seeded rot / disk faults), and
the network may be slow and lossy on top.  The claims under test:

- **correctness** — no read ever returns wrong bytes, no matter who lies;
- **attribution** — detection ends in *who*: the liar is QUARANTINED in a
  bounded number of operations, with strike-grade evidence naming it;
- **discrimination** — the honest-but-rotten replica is *never*
  quarantined, across a sweep of fault seeds (rot is repaired, not
  punished);
- **convergence** — after quarantine (and a re-verified readmit) the
  trusted replica set converges: ``digests_agree`` despite forged digests;
- **determinism** — the whole run replays bit-identically from its seed.

``FORKBASE_SEED`` picks the adversary universe (CI runs several).
"""

import pytest

from repro.chunk import Chunk, ChunkType
from repro.cluster import ClusterStore, anti_entropy_pass, digests_agree
from repro.errors import ClusterError
from repro.faults import (
    ByzantinePlan,
    ByzantineStore,
    FaultPlan,
    FaultyStore,
    FsFaultPlan,
    NetworkPlan,
    PartitionedTransport,
    RetryPolicy,
    apply_slow_event,
    flip_at,
    fs_zone,
    make_byzantine,
)
from tests.conftest import fault_seed

SEED = fault_seed(20260808)

#: Detection-latency bound: a persistent liar must be quarantined within
#: this many client operations that could possibly implicate it.
DETECTION_BOUND = 150


def _chunk(tag: str, n: int) -> Chunk:
    payload = (b"byz-%s-%d-" % (tag.encode("utf-8"), n)) * 4
    return Chunk(ChunkType.BLOB, payload)


def _read_until_quarantined(cluster, chunks, liar, bound=DETECTION_BOUND):
    """Drive reads; return the op count at which the liar was quarantined."""
    ops = 0
    for chunk in chunks:
        if cluster.accountability.is_quarantined(liar):
            return ops
        ops += 1
        got = cluster.get_maybe(chunk.uid)
        if got is not None:
            assert got.data == chunk.data  # wrong bytes must never escape
        assert ops <= bound
    return ops if cluster.accountability.is_quarantined(liar) else None


class TestLiarAlwaysQuarantined:
    """Every lying behavior reaches QUARANTINED in bounded ops, attributed."""

    def _assert_attributed(self, cluster, liar):
        strikes = [r for r in cluster.accountability.evidence if r.strike]
        assert strikes, "quarantine must rest on strike-grade evidence"
        assert {r.node for r in strikes} == {liar}
        for name in cluster.nodes:
            if name != liar:
                assert not cluster.accountability.is_quarantined(name)

    def test_flipping_liar(self):
        cluster = ClusterStore(node_count=4, replication=2)
        chunks = [_chunk("flip", n) for n in range(120)]
        cluster.put_many(chunks)
        liar = "node-01"
        make_byzantine(cluster.nodes[liar], ByzantinePlan(seed=SEED, flip_rate=1.0))
        ops = _read_until_quarantined(cluster, chunks, liar)
        assert ops is not None and ops <= DETECTION_BOUND
        self._assert_attributed(cluster, liar)

    def test_withholding_liar(self):
        cluster = ClusterStore(node_count=4, replication=2)
        chunks = [_chunk("hold", n) for n in range(120)]
        cluster.put_many(chunks)
        liar = "node-02"
        make_byzantine(
            cluster.nodes[liar], ByzantinePlan(seed=SEED, withhold_rate=1.0)
        )
        ops = _read_until_quarantined(cluster, chunks, liar)
        assert ops is not None and ops <= DETECTION_BOUND
        self._assert_attributed(cluster, liar)

    def test_fake_acking_liar(self):
        cluster = ClusterStore(node_count=4, replication=2)
        liar = "node-00"
        make_byzantine(
            cluster.nodes[liar], ByzantinePlan(seed=SEED, fake_ack_rate=1.0)
        )
        ops = None
        for n in range(DETECTION_BOUND):
            cluster.put(_chunk("ack", n))
            if cluster.accountability.is_quarantined(liar):
                ops = n + 1
                break
        assert ops is not None and ops <= DETECTION_BOUND
        self._assert_attributed(cluster, liar)

    def test_forged_digest_liar(self):
        """With unverified writes, agreeing digests are the *only* cover —
        the seeded spot-check audit must still unmask the forger."""
        cluster = ClusterStore(
            node_count=3,
            replication=2,
            verify_writes=False,
            audit_rate=0.3,
        )
        liar = "node-01"
        make_byzantine(
            cluster.nodes[liar],
            ByzantinePlan(seed=SEED, fake_ack_rate=1.0, forge_index=True),
        )
        for n in range(60):
            cluster.put(_chunk("forge", n))
        passes = 0
        while not cluster.accountability.is_quarantined(liar):
            passes += 1
            assert passes <= 3, "audit must catch the forger within 3 passes"
            anti_entropy_pass(cluster)
        self._assert_attributed(cluster, liar)
        strikes = [r for r in cluster.accountability.evidence if r.strike]
        assert all(r.kind == "forged-digest" for r in strikes)
        # Post-quarantine the trusted set converges despite the forgery.
        assert digests_agree(cluster)

    def test_liar_always_quarantined_across_seeds(self):
        """Satellite guarantee: detection is not seed luck — every
        adversary universe ends in quarantine, always the right node."""
        for seed in range(SEED, SEED + 20):
            cluster = ClusterStore(node_count=4, replication=2)
            chunks = [_chunk("sweep-%d" % seed, n) for n in range(120)]
            cluster.put_many(chunks)
            liar = "node-%02d" % (seed % 4)
            make_byzantine(
                cluster.nodes[liar], ByzantinePlan(seed=seed, flip_rate=1.0)
            )
            ops = _read_until_quarantined(cluster, chunks, liar)
            assert ops is not None, f"seed {seed}: liar escaped detection"
            for name in cluster.nodes:
                if name != liar:
                    assert not cluster.accountability.is_quarantined(name), (
                        f"seed {seed}: honest {name} was framed"
                    )


class TestHonestRotNeverQuarantined:
    """The discriminator: rot is repaired in place, never quarantined."""

    def test_rotten_replica_across_seeds(self):
        """An honest node with a rotting disk (torn writes persisting rot,
        wire flips on reads) accrues weak evidence at most — across 20+
        fault universes it must never reach QUARANTINED."""
        framed = []
        weak_seen = 0
        for seed in range(SEED, SEED + 24):
            cluster = ClusterStore(node_count=3, replication=2)
            rotten = "node-01"
            node = cluster.nodes[rotten]
            node.store = FaultyStore(
                node.store,
                FaultPlan(seed=seed, corrupt_read_rate=0.15, torn_put_rate=0.1),
                name=rotten,
            )
            chunks = [_chunk("rot-%d" % seed, n) for n in range(40)]
            cluster.put_many(chunks)
            # Persistent on-disk rot: tear a few verified copies in place
            # (write verification already repaired any torn *writes*, so
            # plant the rot directly, as a decaying platter would).
            decayed = [
                c for c in chunks if cluster.replica_nodes(c.uid)[0].name == rotten
            ][:5]
            assert decayed, "placement must give the rotten node primaries"
            backing = node.store.backing
            for chunk in decayed:
                backing.delete(chunk.uid)
                backing._insert(
                    Chunk(chunk.type, flip_at(chunk.data, 0), uid=chunk.uid)
                )
            for chunk in chunks:
                got = cluster.get_maybe(chunk.uid)
                if got is not None:
                    assert got.data == chunk.data
            cluster.scrub()
            anti_entropy_pass(cluster)
            board = cluster.accountability
            weak_seen += sum(
                card.weak_events for card in board.cards.values()
            )
            if board.quarantined():
                framed.append((seed, board.quarantined()))
        assert not framed, f"honest rot was quarantined: {framed}"
        # The sweep must actually have exercised the detection machinery:
        # rot produced weak attribution events, just never strike-grade.
        assert weak_seen > 0

    def test_rotten_fs_disk_never_quarantined(self, tmp_path):
        """FsFaultPlan variant: one replica on a real (file-backed) store
        whose disk runs out of space and tears writes.  Honest disk
        trouble — failed or torn write exchanges — must not be mistaken
        for fake acks."""
        from repro.store.filestore import FileStore

        def factory(name):
            if name == "node-00":
                return FileStore(str(tmp_path / name))
            return None

        cluster = ClusterStore(
            node_count=3,
            replication=2,
            node_store_factory=lambda name: factory(name),
            retry=RetryPolicy.instant(attempts=3),
        )
        chunks = [_chunk("fs", n) for n in range(60)]
        with fs_zone(
            FsFaultPlan(seed=SEED, enospc_rate=0.05, short_write_rate=0.15)
        ):
            for chunk in chunks:
                cluster.put(chunk)
        # Outside the zone the disk behaves; heal and reconcile.
        anti_entropy_pass(cluster)
        board = cluster.accountability
        assert board.quarantined() == []
        assert not board.is_quarantined("node-00")
        for chunk in chunks:
            got = cluster.get_maybe(chunk.uid)
            assert got is not None and got.data == chunk.data
        assert cluster.durability_check()["lost"] == 0


class TestByzantineGrayDiskMatrix:
    """The full matrix: a liar, a rotten disk, and a gray network at once."""

    def _run(self, net_seed, drive_ops=80):
        plan = NetworkPlan(seed=net_seed, drop_rate=0.02)
        transport = PartitionedTransport(plan)
        cluster = ClusterStore(
            node_count=4,
            replication=2,
            transport=transport,
            retry=RetryPolicy.instant(attempts=3),
            deadline_budget=96,
        )
        liar = "node-01"
        rotten = "node-03"
        make_byzantine(
            cluster.nodes[liar],
            ByzantinePlan(seed=SEED, flip_rate=1.0, withhold_rate=0.25),
        )
        node = cluster.nodes[rotten]
        node.store = FaultyStore(
            node.store,
            FaultPlan(seed=SEED, corrupt_read_rate=0.1, torn_put_rate=0.05),
            name=rotten,
        )
        schedule = plan.slow_schedule(sorted(cluster.nodes), events=6, horizon=drive_ops)
        acked = []
        cursor = 0
        for op in range(drive_ops):
            while cursor < len(schedule) and schedule[cursor][0] <= op:
                apply_slow_event(transport, schedule[cursor][1])
                cursor += 1
            chunk = _chunk("matrix", op)
            try:
                cluster.put(chunk)
            except ClusterError:
                continue  # unacked: no durability promise made
            acked.append(chunk)
            if op % 3 == 0:
                probe = acked[op % len(acked)]
                try:
                    got = cluster.get(probe.uid)
                    assert got.data == probe.data  # never wrong bytes
                except ClusterError:
                    pass  # slow or cut off is acceptable; wrong data is not
        return cluster, transport, acked, liar, rotten

    def test_matrix_detects_liar_spares_rot_and_converges(self):
        cluster, transport, acked, liar, rotten = self._run(SEED)
        assert acked, "the storm must not starve the workload entirely"
        transport.recover()
        # Keep reading until the liar is quarantined (bounded).
        reads = 0
        while not cluster.accountability.is_quarantined(liar):
            for chunk in acked:
                reads += 1
                assert reads <= 4 * DETECTION_BOUND
                got = cluster.get_maybe(chunk.uid)
                if got is not None:
                    assert got.data == chunk.data
                if cluster.accountability.is_quarantined(liar):
                    break
        # Attribution: strike-grade evidence names the liar, nobody else.
        strikes = [r for r in cluster.accountability.evidence if r.strike]
        assert strikes and {r.node for r in strikes} == {liar}
        assert not cluster.accountability.is_quarantined(rotten)
        # Re-admit once the adversary is actually gone — and the rotten
        # disk replaced (unwrap its fault plan): the cluster converges to
        # every acked chunk durable on trusted replicas.  With the wire
        # still rotting, a point-in-time verify would be seed-noisy.
        assert ByzantineStore.remove(cluster.nodes[liar])
        cluster.nodes[rotten].store = cluster.nodes[rotten].store.backing
        cluster.readmit(liar)
        anti_entropy_pass(cluster)
        durability = cluster.durability_check()
        assert durability["lost"] == 0
        assert durability["single"] == 0
        assert digests_agree(cluster)
        assert not cluster.accountability.is_quarantined(rotten)

    def test_matrix_replays_bit_identically(self):
        """Same seeds, same universe: every counter, every scorecard,
        every evidence record, every per-node holding."""

        def fingerprint():
            cluster, transport, acked, liar, rotten = self._run(SEED, drive_ops=60)
            board = cluster.accountability
            return (
                len(acked),
                cluster.corrupt_reads,
                cluster.read_repairs,
                cluster.repair_audits,
                cluster.repair_audit_failures,
                cluster.quarantine_skips,
                cluster.transient_failures,
                cluster.hedges_issued,
                cluster.deadline_exceeded,
                board.evidence_total,
                board.quarantines,
                tuple(sorted((n, c.state, c.strikes) for n, c in board.cards.items())),
                tuple(tuple(sorted(r.to_dict().items())) for r in board.evidence[-16:]),
                transport.stats(),
                tuple(
                    sorted(
                        (name, len(list(node.store.ids())))
                        for name, node in cluster.nodes.items()
                    )
                ),
            )

        first = fingerprint()
        second = fingerprint()
        assert first == second

    def test_plan_seed_changes_the_lies(self):
        a = ByzantinePlan(seed=SEED, flip_rate=0.5)
        b = ByzantinePlan(seed=SEED + 1, flip_rate=0.5)
        uid = Chunk(ChunkType.BLOB, b"probe").uid
        draws_a = [a.draw("n", "flip", "get", uid, t) for t in range(64)]
        draws_b = [b.draw("n", "flip", "get", uid, t) for t in range(64)]
        assert draws_a != draws_b


class TestQuarantineUnderGray:
    def test_quarantine_survives_slowness_without_false_positives(self):
        """Gray slowness plus drops on *honest* nodes must never produce
        quarantine-grade evidence: slow is not malicious."""
        plan = NetworkPlan(seed=SEED, drop_rate=0.05)
        transport = PartitionedTransport(plan)
        cluster = ClusterStore(
            node_count=4,
            replication=2,
            transport=transport,
            retry=RetryPolicy.instant(attempts=3),
            deadline_budget=64,
        )
        schedule = plan.slow_schedule(sorted(cluster.nodes), events=8, horizon=90)
        cursor = 0
        acked = []
        for op in range(90):
            while cursor < len(schedule) and schedule[cursor][0] <= op:
                apply_slow_event(transport, schedule[cursor][1])
                cursor += 1
            chunk = _chunk("gray", op)
            try:
                cluster.put(chunk)
                acked.append(chunk)
            except ClusterError:
                continue
            if op % 4 == 0:
                try:
                    cluster.get(acked[op % len(acked)].uid)
                except ClusterError:
                    pass
        transport.recover()
        anti_entropy_pass(cluster)
        board = cluster.accountability
        assert board.quarantined() == []
        assert all(card.strikes == 0 for card in board.cards.values())
        assert digests_agree(cluster)
