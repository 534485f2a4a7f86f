"""Byzantine fault dimension: lying nodes, attribution, quarantine.

Unit coverage for the attack (``repro.faults.byzantine``), the defense
(``repro.cluster.accountability`` plus the hardened cluster paths), and
the evidence surfaces (``health_report``, the Verifier report, REST).
The full matrix runs in ``test_byzantine_torture.py``; these tests pin
each mechanism in isolation with rates of 0 or 1 so every branch is
forced deterministically.
"""

import pytest

from repro.chunk import Chunk, ChunkType, Uid
from repro.cluster import (
    QUARANTINED,
    TRUSTED,
    AccountabilityBoard,
    ClusterStore,
    StorageNode,
    anti_entropy_pass,
    digests_agree,
)
from repro.cluster.accountability import SUSPECT
from repro.db import ForkBase
from repro.faults import (
    ByzantinePlan,
    ByzantineStore,
    corrupt_queued_hints,
    flip_at,
    make_byzantine,
)
from repro.security import TamperingStore, Verifier
from repro.store import InMemoryStore


def _chunk(n: int) -> Chunk:
    return Chunk(ChunkType.BLOB, b"byz-payload-%d" % n)


def _uid(n: int) -> Uid:
    return Uid.of(b"byz-uid-%d" % n)


class TestFlipAt:
    def test_never_a_no_op(self):
        assert flip_at(b"", 0) == b"\x01"
        for offset in range(8):
            data = b"payload!"
            assert flip_at(data, offset) != data
            assert len(flip_at(data, offset)) == len(data)

    def test_mask_low_bit_always_set(self):
        # A mask of 0 would XOR nothing; the primitive forces bit 0 on.
        assert flip_at(b"\x00", 0, mask=0x00) == b"\x01"

    def test_offset_wraps(self):
        assert flip_at(b"ab", 2) == flip_at(b"ab", 0)


class TestByzantinePlan:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            ByzantinePlan(flip_rate=1.5)
        with pytest.raises(ValueError):
            ByzantinePlan(withhold_rate=-0.1)

    def test_draws_are_deterministic_and_uniform_range(self):
        plan = ByzantinePlan(seed=42)
        uid = _uid(1)
        first = plan.draw("node-00", "flip", "get", uid, 0)
        assert first == plan.draw("node-00", "flip", "get", uid, 0)
        assert 0.0 <= first < 1.0

    def test_draws_vary_by_every_key_component(self):
        plan = ByzantinePlan(seed=42)
        uid = _uid(2)
        base = plan.draw("node-00", "flip", "get", uid, 0)
        assert base != plan.draw("node-01", "flip", "get", uid, 0)
        assert base != plan.draw("node-00", "withhold", "get", uid, 0)
        assert base != plan.draw("node-00", "flip", "put", uid, 0)
        assert base != plan.draw("node-00", "flip", "get", _uid(3), 0)
        assert base != plan.draw("node-00", "flip", "get", uid, 1)
        assert base != ByzantinePlan(seed=43).draw("node-00", "flip", "get", uid, 0)

    def test_mutate_never_a_no_op_and_replays(self):
        plan = ByzantinePlan(seed=7)
        uid = _uid(4)
        for data in (b"", b"x", b"some longer payload"):
            lie = plan.mutate("n", "get", data, uid, 0)
            assert lie != data
            assert lie == plan.mutate("n", "get", data, uid, 0)

    def test_pick_bounds(self):
        plan = ByzantinePlan(seed=7)
        assert 0 <= plan.pick("n", "donor", "get", _uid(5), 0, 3) < 3
        with pytest.raises(ValueError):
            plan.pick("n", "donor", "get", _uid(5), 0, 0)

    def test_lying_detects_any_nonzero_behavior(self):
        assert not ByzantinePlan(seed=1).lying()
        assert ByzantinePlan(seed=1, flip_rate=0.1).lying()
        assert ByzantinePlan(seed=1, forge_index=True).lying()


class TestByzantineStore:
    def test_flip_serves_wrong_bytes_under_claimed_uid(self):
        store = ByzantineStore(InMemoryStore(), ByzantinePlan(seed=1, flip_rate=1.0))
        chunk = _chunk(1)
        store.put(chunk)
        got = store.get_maybe(chunk.uid)
        assert got is not None
        assert got.uid == chunk.uid  # the claim
        assert got.data != chunk.data  # the lie
        assert not got.is_valid()
        assert store.lies_served >= 1
        # The honest backing copy was never touched.
        assert store.backing.get_maybe(chunk.uid).is_valid()

    def test_substitute_replays_another_chunks_content(self):
        store = ByzantineStore(
            InMemoryStore(), ByzantinePlan(seed=1, substitute_rate=1.0)
        )
        a, b = _chunk(1), _chunk(2)
        store.put(a)
        store.put(b)
        got = store.get_maybe(a.uid)
        assert got.uid == a.uid
        assert got.data == b.data  # the only possible donor
        assert not got.is_valid()

    def test_withhold_claims_not_found_for_held_chunk(self):
        store = ByzantineStore(InMemoryStore(), ByzantinePlan(seed=1, withhold_rate=1.0))
        chunk = _chunk(3)
        store.put(chunk)
        assert store.backing.has(chunk.uid)
        assert store.get_maybe(chunk.uid) is None
        assert not store.has(chunk.uid)
        assert store.reads_withheld >= 2

    def test_fake_ack_stores_nothing(self):
        store = ByzantineStore(InMemoryStore(), ByzantinePlan(seed=1, fake_ack_rate=1.0))
        chunk = _chunk(4)
        store.put(chunk)  # acked without raising
        assert not store.backing.has(chunk.uid)
        assert store.writes_faked == 1
        # Without forge_index the fake ack is not claimed to anti-entropy.
        assert store.claimed_ids() == []

    def test_forge_index_claims_fake_acked_uids(self):
        store = ByzantineStore(
            InMemoryStore(),
            ByzantinePlan(seed=1, fake_ack_rate=1.0, forge_index=True),
        )
        chunk = _chunk(5)
        store.put(chunk)
        assert store.claimed_ids() == [chunk.uid]
        assert store.index_forgeries >= 1

    def test_conceal_hides_held_uids_from_claims(self):
        store = ByzantineStore(InMemoryStore(), ByzantinePlan(seed=1, conceal_rate=1.0))
        chunk = _chunk(6)
        store.put(chunk)
        assert store.backing.has(chunk.uid)
        assert store.claimed_ids() == []

    def test_all_zero_plan_is_honest_passthrough(self):
        store = ByzantineStore(InMemoryStore(), ByzantinePlan(seed=1))
        chunk = _chunk(7)
        store.put(chunk)
        got = store.get_maybe(chunk.uid)
        assert got.is_valid() and got.data == chunk.data
        assert store.claimed_ids() == [chunk.uid]
        assert (store.lies_served, store.reads_withheld, store.writes_faked) == (0, 0, 0)

    def test_replays_bit_identically(self):
        def run():
            store = ByzantineStore(
                InMemoryStore(),
                ByzantinePlan(seed=99, flip_rate=0.4, withhold_rate=0.3),
            )
            outcomes = []
            for n in range(40):
                chunk = _chunk(n)
                store.put(chunk)
                got = store.get_maybe(chunk.uid)
                outcomes.append(
                    None if got is None else got.data == chunk.data
                )
            return outcomes, store.lies_served, store.reads_withheld

        assert run() == run()

    def test_make_byzantine_and_heal_round_trip(self):
        node = StorageNode("node-00")
        chunk = _chunk(8)
        node.store.put(chunk)
        wrapper = make_byzantine(node, ByzantinePlan(seed=1, flip_rate=1.0))
        assert node.store is wrapper
        assert wrapper.node == "node-00"
        assert not node.store.get_maybe(chunk.uid).is_valid()
        assert ByzantineStore.remove(node)
        assert node.store.get_maybe(chunk.uid).is_valid()
        assert not ByzantineStore.remove(node)  # already honest


class TestAccountabilityBoard:
    def test_weak_events_reach_suspect_but_never_quarantine(self):
        board = AccountabilityBoard(suspect_after=2)
        assert board.state("n") == TRUSTED
        board.record_suspicion("client", "n", _uid(1), op="get", kind="served-corrupt")
        assert board.state("n") == TRUSTED
        for n in range(50):
            board.record_suspicion(
                "client", "n", _uid(n), op="get", kind="served-corrupt"
            )
        assert board.state("n") == SUSPECT  # telemetry, not quarantine
        assert not board.is_quarantined("n")

    def test_strikes_on_one_uid_do_not_quarantine(self):
        board = AccountabilityBoard(quarantine_after=2)
        for _ in range(5):
            board.record_strike("c", "n", _uid(1), op="get", kind="audit-mismatch")
        assert not board.is_quarantined("n")

    def test_strikes_on_distinct_uids_quarantine(self):
        board = AccountabilityBoard(quarantine_after=2)
        board.record_strike("c", "n", _uid(1), op="get", kind="audit-mismatch")
        assert not board.is_quarantined("n")
        state = board.record_strike("c", "n", _uid(2), op="get", kind="audit-mismatch")
        assert state == QUARANTINED
        assert board.quarantined() == ["n"]
        assert board.quarantines == 1

    def test_unverified_write_run_converts_to_strike(self):
        board = AccountabilityBoard(write_strike_run=3, quarantine_after=2)
        board.record_unverified_write("c", "n", _uid(1))
        board.record_unverified_write("c", "n", _uid(2))
        assert board.cards["n"].strikes == 0
        board.record_unverified_write("c", "n", _uid(3))
        assert board.cards["n"].strikes == 1
        # A verified write resets the run: the next two do not strike.
        board.record_unverified_write("c", "n", _uid(4))
        board.record_verified_write("n")
        board.record_unverified_write("c", "n", _uid(5))
        board.record_unverified_write("c", "n", _uid(6))
        assert board.cards["n"].strikes == 1

    def test_evidence_ring_buffer_and_watermark(self):
        board = AccountabilityBoard(evidence_limit=4)
        for n in range(10):
            board.record_suspicion("c", "n", _uid(n), op="get", kind="served-corrupt")
        assert board.evidence_total == 10
        assert len(board.evidence) == 4
        fresh = board.evidence_since(8)
        assert len(fresh) == 2
        assert board.evidence_since(10) == []
        # Asking for more than the buffer retains yields what is left.
        assert len(board.evidence_since(0)) == 4

    def test_evidence_records_are_portable(self):
        board = AccountabilityBoard()
        board.record_strike(
            "client", "n", _uid(1), op="get", kind="audit-mismatch", served="ab" * 32
        )
        record = board.evidence[-1].to_dict()
        assert record["node"] == "n"
        assert record["uid"] == _uid(1).base32()
        assert record["expected"] == _uid(1).hex()
        assert record["served"] == "ab" * 32
        assert record["strike"] is True

    def test_readmit_is_probation_not_absolution(self):
        board = AccountabilityBoard(quarantine_after=2)
        board.record_strike("c", "n", _uid(1), op="get", kind="audit-mismatch")
        board.record_strike("c", "n", _uid(2), op="get", kind="audit-mismatch")
        assert board.is_quarantined("n")
        board.readmit("n")
        card = board.cards["n"]
        assert card.state == SUSPECT
        assert card.strikes == 0 and not card.strike_uids
        assert card.readmissions == 1
        # Fresh strikes re-earn the quarantine from a clean ledger.
        board.record_strike("c", "n", _uid(3), op="get", kind="audit-mismatch")
        assert not board.is_quarantined("n")
        board.record_strike("c", "n", _uid(4), op="get", kind="audit-mismatch")
        assert board.is_quarantined("n")

    def test_snapshot_shape(self):
        board = AccountabilityBoard()
        board.record_suspicion("c", "n", _uid(1), op="get", kind="served-corrupt")
        snap = board.snapshot()
        assert snap["quarantined"] == []
        assert snap["evidence_total"] == 1
        assert snap["nodes"]["n"]["weak_events"] == 1
        assert snap["thresholds"]["quarantine_after"] == board.quarantine_after


class TestClusterDetection:
    def test_flipping_replica_never_wins_a_read_and_is_attributed(self):
        cluster = ClusterStore(node_count=4, replication=2)
        chunks = [_chunk(n) for n in range(60)]
        cluster.put_many(chunks)
        liar = "node-01"
        make_byzantine(cluster.nodes[liar], ByzantinePlan(seed=3, flip_rate=1.0))
        for chunk in chunks:
            got = cluster.get(chunk.uid)
            assert got.data == chunk.data  # siblings always out-vote the liar
        evidence = cluster.accountability.evidence
        assert evidence, "served lies must leave attribution records"
        assert {record.node for record in evidence} == {liar}
        assert all(
            record.expected != record.served
            for record in evidence
            if record.served is not None
        )

    def test_persistent_liar_reaches_quarantine_honest_peers_stay_trusted(self):
        cluster = ClusterStore(node_count=4, replication=2)
        chunks = [_chunk(n) for n in range(120)]
        cluster.put_many(chunks)
        liar = "node-02"
        make_byzantine(cluster.nodes[liar], ByzantinePlan(seed=5, flip_rate=1.0))
        for chunk in chunks:
            cluster.get(chunk.uid)
            if cluster.accountability.is_quarantined(liar):
                break
        assert cluster.accountability.is_quarantined(liar)
        for name in cluster.nodes:
            if name != liar:
                assert cluster.accountability.state(name) == TRUSTED

    def test_fake_acking_replica_quarantined_by_write_verification(self):
        cluster = ClusterStore(node_count=4, replication=2, write_quorum=1)
        liar = "node-00"
        make_byzantine(cluster.nodes[liar], ByzantinePlan(seed=9, fake_ack_rate=1.0))
        for n in range(200):
            cluster.put(_chunk(n))  # quorum met by the honest replica
            if cluster.accountability.is_quarantined(liar):
                break
        assert cluster.accountability.is_quarantined(liar)
        strikes = [
            r for r in cluster.accountability.evidence_for(liar) if r.strike
        ]
        assert strikes and all(r.kind == "unverified-writes" for r in strikes)

    def test_quarantined_node_out_of_quorums_and_reads(self):
        cluster = ClusterStore(node_count=4, replication=2)
        board = cluster.accountability
        board.record_strike("c", "node-03", _uid(1), op="get", kind="audit-mismatch")
        board.record_strike("c", "node-03", _uid(2), op="get", kind="audit-mismatch")
        assert board.is_quarantined("node-03")
        chunks = [_chunk(n) for n in range(80)]
        cluster.put_many(chunks)
        assert cluster.quarantine_skips > 0
        assert list(cluster.nodes["node-03"].store.ids()) == []  # never written to
        for chunk in chunks:
            assert cluster.get(chunk.uid).data == chunk.data
        assert "node-03" not in [n.name for n in cluster.trusted_nodes()]


class TestHintDefense:
    def _cluster_with_pending_hints(self):
        cluster = ClusterStore(node_count=3, replication=2, write_quorum=1)
        cluster.kill_node("node-01")
        chunks = [_chunk(n) for n in range(40)]
        cluster.put_many(chunks)
        assert cluster.pending_hints().get("node-01", 0) > 0
        return cluster, chunks

    def test_corrupted_hint_replay_rejected_on_receiving_side(self):
        cluster, chunks = self._cluster_with_pending_hints()
        pending = sum(cluster.pending_hints().values())
        plan = ByzantinePlan(seed=11, hint_corrupt_rate=1.0)
        corrupted = corrupt_queued_hints(cluster, plan)
        assert corrupted == pending
        cluster.revive_node("node-01")
        assert cluster.hint_rejections == corrupted
        # Not one forged payload became a durable copy.
        node = cluster.nodes["node-01"]
        for uid in node.store.ids():
            assert node.store.get_maybe(uid).is_valid()
        # Anti-entropy still converges the replica set from honest peers.
        anti_entropy_pass(cluster)
        assert cluster.durability_check()["single"] == 0
        assert digests_agree(cluster)

    def test_rejections_counted_in_sync_report(self):
        cluster, _ = self._cluster_with_pending_hints()
        corrupted = corrupt_queued_hints(
            cluster, ByzantinePlan(seed=11, hint_corrupt_rate=1.0)
        )
        cluster.nodes["node-01"].revive()
        report = anti_entropy_pass(cluster)  # flush phase replays the hints
        assert report.hints_rejected == corrupted > 0

    def test_partial_corruption_rejects_only_forged_payloads(self):
        cluster, _ = self._cluster_with_pending_hints()
        pending = sum(cluster.pending_hints().values())
        corrupted = corrupt_queued_hints(
            cluster, ByzantinePlan(seed=13, hint_corrupt_rate=0.5)
        )
        assert 0 < corrupted < pending
        replayed = cluster.revive_node("node-01")
        assert replayed == pending - corrupted
        assert cluster.hint_rejections == corrupted

    def test_quarantined_target_hints_discarded(self):
        cluster, _ = self._cluster_with_pending_hints()
        pending = sum(cluster.pending_hints().values())
        board = cluster.accountability
        board.record_strike("c", "node-01", _uid(1), op="get", kind="audit-mismatch")
        board.record_strike("c", "node-01", _uid(2), op="get", kind="audit-mismatch")
        assert cluster.revive_node("node-01") == 0
        assert cluster.hints_discarded == pending
        assert cluster.pending_hints() == {}


class TestAntiEntropyAudit:
    def test_forged_index_caught_by_spot_check(self):
        """A forge_index node's digests *agree* while the bytes do not
        exist; the seeded audit must unmask it and quarantine."""
        cluster = ClusterStore(
            node_count=3,
            replication=2,
            write_quorum=1,
            audit_rate=1.0,
            # No write-time read-back: the fake acks land undetected and
            # the forged digest tree is the only thing that can betray
            # them — the scenario the spot-check audit exists for.
            verify_writes=False,
        )
        liar = "node-01"
        make_byzantine(
            cluster.nodes[liar],
            ByzantinePlan(seed=17, fake_ack_rate=1.0, forge_index=True),
        )
        for n in range(30):
            cluster.put(_chunk(n))
        report = anti_entropy_pass(cluster)
        assert report.audit_samples > 0
        assert report.audit_failures > 0
        assert cluster.accountability.is_quarantined(liar)
        strikes = [
            r for r in cluster.accountability.evidence_for(liar) if r.strike
        ]
        assert any(r.kind == "forged-digest" for r in strikes)
        # Convergence is judged over the trusted set: with the forger out,
        # the remaining replicas agree.
        assert digests_agree(cluster)

    def test_unproducible_claim_recorded_as_weak_evidence(self):
        """A claimed uid nobody can read out of the claimant is weak
        tamper evidence (the audit, not the pull, is what strikes)."""
        cluster = ClusterStore(node_count=2, replication=2, audit_rate=0.0)
        liar_node = cluster.nodes["node-00"]
        make_byzantine(
            liar_node, ByzantinePlan(seed=19, fake_ack_rate=1.0, forge_index=True)
        )
        ghost = _chunk(999)
        liar_node.store.put(ghost)  # fake-acked: claimed, held nowhere
        anti_entropy_pass(cluster)
        kinds = {r.kind for r in cluster.accountability.evidence_for("node-00")}
        assert "unproducible-claim" in kinds
        assert not cluster.accountability.is_quarantined("node-00")
        assert not cluster.nodes["node-01"].store.has(ghost.uid)

    def test_sync_sits_out_quarantined_nodes(self):
        cluster = ClusterStore(node_count=3, replication=2)
        cluster.put_many([_chunk(n) for n in range(20)])
        quarantined = cluster.nodes["node-00"]
        lost = sorted(quarantined.store.ids())[:3]
        for uid in lost:
            quarantined.store.delete(uid)
        board = cluster.accountability
        board.record_strike("c", "node-00", _uid(1), op="get", kind="audit-mismatch")
        board.record_strike("c", "node-00", _uid(2), op="get", kind="audit-mismatch")
        report = anti_entropy_pass(cluster)
        assert report.quarantined_excluded == 1
        assert report.pulls == 2  # node-01 <-> node-02 only
        assert report.chunks_transferred == 0
        assert not any(quarantined.store.has(uid) for uid in lost)

    def test_quarantined_node_never_a_repair_source(self):
        """Even a copy that verifies right now must not be laundered out
        of a quarantined replica by the repair machinery."""
        orphan = _chunk(999)

        def orphaned(quarantine: bool) -> ClusterStore:
            cluster = ClusterStore(node_count=3, replication=2)
            cluster.nodes["node-02"].store.put(orphan)  # valid, but only there
            if quarantine:
                board = cluster.accountability
                board.record_strike("c", "node-02", _uid(1), op="get", kind="audit-mismatch")
                board.record_strike("c", "node-02", _uid(2), op="get", kind="audit-mismatch")
            cluster.repair()
            return cluster

        trusted = orphaned(quarantine=False)
        assert any(trusted.nodes[name].store.has(orphan.uid) for name in ("node-00", "node-01"))
        cluster = orphaned(quarantine=True)
        for name in ("node-00", "node-01"):
            assert not cluster.nodes[name].store.has(orphan.uid)


class TestReadmit:
    def test_readmit_drops_bad_copies_and_resyncs(self):
        cluster = ClusterStore(node_count=3, replication=2, audit_rate=0.0)
        chunks = [_chunk(n) for n in range(50)]
        cluster.put_many(chunks)
        victim = cluster.nodes["node-01"]
        held = [uid for uid in victim.store.ids()]
        assert held
        # The adversary rotted some copies before being caught.
        bad = held[: max(3, len(held) // 4)]
        for uid in bad:
            original = victim.store.get_maybe(uid)
            victim.store.delete(uid)
            victim.store._insert(
                Chunk(original.type, flip_at(original.data, 0), uid=uid)
            )
        board = cluster.accountability
        board.record_strike("c", "node-01", _uid(1), op="get", kind="audit-mismatch")
        board.record_strike("c", "node-01", _uid(2), op="get", kind="audit-mismatch")
        assert board.is_quarantined("node-01")

        dropped = cluster.readmit("node-01")
        assert dropped == len(bad)
        assert board.state("node-01") == SUSPECT
        # The resync restored every replica from trusted peers, verified.
        for uid in victim.store.ids():
            assert victim.store.get_maybe(uid).is_valid()
        assert cluster.durability_check()["single"] == 0
        assert digests_agree(cluster)

    def test_readmitted_liar_re_earns_quarantine(self):
        cluster = ClusterStore(node_count=4, replication=2)
        chunks = [_chunk(n) for n in range(80)]
        cluster.put_many(chunks)
        liar = "node-02"
        make_byzantine(cluster.nodes[liar], ByzantinePlan(seed=23, flip_rate=1.0))
        for chunk in chunks:
            cluster.get(chunk.uid)
            if cluster.accountability.is_quarantined(liar):
                break
        assert cluster.accountability.is_quarantined(liar)
        # Operator readmits without fixing the cause: the wrapper stays.
        cluster.readmit(liar)
        for chunk in chunks:
            cluster.get(chunk.uid)
            if cluster.accountability.is_quarantined(liar):
                break
        assert cluster.accountability.is_quarantined(liar)
        assert cluster.accountability.cards[liar].readmissions == 1


class TestTamperingStoreNodeWrap:
    def test_wrap_node_targets_one_replica(self):
        cluster = ClusterStore(node_count=3, replication=2)
        chunks = [_chunk(n) for n in range(30)]
        cluster.put_many(chunks)
        node = cluster.nodes["node-00"]
        adversary = TamperingStore.install(node)
        assert node.store is adversary
        # Target a uid whose read will hit node-00 first, so the lie is
        # actually served (a second-replica lie may never be consulted).
        victim = next(
            uid
            for uid in sorted(adversary.backing.ids())
            if cluster.replica_nodes(uid)[0] is node
        )
        adversary.flip_byte(victim)
        # The cluster still serves right bytes and attributes the lie.
        assert cluster.get(victim).is_valid()
        assert any(
            r.node == "node-00" and r.kind == "served-corrupt"
            for r in cluster.accountability.evidence
        )
        assert TamperingStore.remove(node)
        assert node.store is adversary.backing
        assert not TamperingStore.remove(node)

    def test_wrap_node_shares_flip_primitive_with_plan(self):
        store = TamperingStore(InMemoryStore())
        chunk = _chunk(1)
        store.put(chunk)
        store.flip_byte(chunk.uid, offset=2)
        got = store.get_maybe(chunk.uid)
        assert got.data == flip_at(chunk.data, 2)
        assert not got.is_valid()


class TestEvidenceSurfaces:
    def _lied_to_cluster(self):
        cluster = ClusterStore(node_count=3, replication=2)
        chunks = [_chunk(n) for n in range(20)]
        cluster.put_many(chunks)
        make_byzantine(cluster.nodes["node-00"], ByzantinePlan(seed=29, flip_rate=1.0))
        for chunk in chunks:
            cluster.get(chunk.uid)
        return cluster

    def test_health_report_carries_scorecards_and_evidence(self):
        cluster = self._lied_to_cluster()
        report = cluster.health_report()
        accountability = report["accountability"]
        assert accountability["nodes"]["node-00"]["weak_events"] > 0
        assert report["tamper_evidence"]
        record = report["tamper_evidence"][-1]
        for key in ("node", "uid", "op", "kind", "expected", "served", "strike"):
            assert key in record
        for key in (
            "quarantine_skips",
            "hints_discarded",
            "hint_rejections",
            "repair_audits",
            "repair_audit_failures",
        ):
            assert key in report

    def test_rest_status_flows_tamper_evidence(self):
        from repro.api.rest import Router

        cluster = self._lied_to_cluster()
        ByzantineStore.remove(cluster.nodes["node-00"])
        engine = ForkBase(cluster.client("api"), clock=lambda: 0.0)
        engine.put("doc", {"body": "hello"})
        response = Router(engine).request("GET", "/v1/status")
        assert response.ok
        report = response.body["cluster"]
        assert report["accountability"]["nodes"]["node-00"]["weak_events"] > 0
        assert report["tamper_evidence"]

    def test_verifier_merges_cluster_attribution(self):
        cluster = ClusterStore(node_count=3, replication=2)
        engine = ForkBase(store=cluster, clock=lambda: 0.0)
        engine.put("d", {"k%03d" % n: "v" * 40 for n in range(400)})
        head = engine.head("d")
        make_byzantine(cluster.nodes["node-01"], ByzantinePlan(seed=31, flip_rate=1.0))
        report = Verifier(cluster).verify_version(head)
        # Healthy siblings mean the version still verifies end to end...
        assert report.ok
        # ...and the board's attributions accrued during the walk ride
        # along: the client learns *who* served the bad bytes.
        attributed = [r for r in report.evidence if r["node"] == "node-01"]
        assert attributed
        assert any(r["kind"] == "served-corrupt" for r in attributed)

    def test_verifier_client_side_evidence_without_cluster(self):
        store = TamperingStore(InMemoryStore())
        engine = ForkBase(store=store, clock=lambda: 0.0)
        engine.put("d", {"a": "1"})
        head = engine.head("d")
        store.flip_byte(head)
        report = Verifier(store).verify_version(head)
        assert not report.ok
        assert report.evidence
        record = report.evidence[0]
        assert record["origin"] == "verifier"
        assert record["node"] == ""  # a client cannot name the replica
        assert record["kind"] == "corrupt"
