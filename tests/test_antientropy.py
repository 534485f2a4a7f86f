"""Tests for Merkle anti-entropy repair (repro.cluster.antientropy)."""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.chunk import Chunk, ChunkType, Uid
from repro.cluster import antientropy, maintenance
from repro.cluster import (
    ClusterStore,
    DigestTree,
    StorageNode,
    anti_entropy_pass,
    digests_agree,
    ring_position,
)
from repro.cluster.ring import POSITION_BITS, HashRing
from repro.errors import TransientStoreError
from repro.faults import (
    ByzantinePlan,
    InterposedStore,
    NetworkPlan,
    PartitionedTransport,
    RetryPolicy,
    TamperingStore,
    make_byzantine,
)
from repro.store.base import physical_store
from repro.store.memory import InMemoryStore


def _chunk(n: int, size: int = 64) -> Chunk:
    return Chunk(ChunkType.BLOB, (b"ae-payload-%d-" % n) * (size // 12 + 1))


def _rot(node: StorageNode, chunk: Chunk) -> None:
    node.store.delete(chunk.uid)
    node.store.put(Chunk(chunk.type, b"ROT" + chunk.data, uid=chunk.uid))


def _cluster(**kwargs) -> ClusterStore:
    kwargs.setdefault("retry", RetryPolicy.instant(attempts=2))
    return ClusterStore(**kwargs)


class TestDigestTree:
    def test_equal_holdings_equal_roots(self):
        uids = [_chunk(i).uid for i in range(100)]
        a = DigestTree.from_uids(uids)
        b = DigestTree.from_uids(reversed(uids))  # order-independent
        assert a.root() == b.root()
        assert a == b

    def test_add_remove_roundtrip(self):
        uids = [_chunk(i).uid for i in range(20)]
        tree = DigestTree.from_uids(uids)
        root = tree.root()
        extra = _chunk(999).uid
        tree.add(extra)
        assert tree.root() != root
        tree.remove(extra)
        assert tree.root() == root
        assert len(tree) == 20

    def test_bucket_matches_ring_position_prefix(self):
        tree = DigestTree(depth=8)
        uid = _chunk(7).uid
        assert tree.bucket_of(uid) == ring_position(uid) >> (POSITION_BITS - 8)

    def test_diff_finds_exactly_the_differing_buckets(self):
        uids = [_chunk(i).uid for i in range(200)]
        a = DigestTree.from_uids(uids)
        b = DigestTree.from_uids(uids)
        missing = uids[17]
        b.remove(missing)
        differing, _ = a.diff(b)
        assert differing == [a.bucket_of(missing)]

    def test_diff_descends_only_divergent_subtrees(self):
        uids = [_chunk(i).uid for i in range(1000)]
        a = DigestTree.from_uids(uids)
        b = DigestTree.from_uids(uids[:-1])  # one uid missing
        _, compared = a.diff(b)
        # A full comparison would touch every node of a depth-8 tree
        # (2^9 - 1 = 511); the Merkle descent touches one path.
        assert compared <= 2 * a.depth + 1

    def test_identical_trees_compare_one_node(self):
        uids = [_chunk(i).uid for i in range(50)]
        a = DigestTree.from_uids(uids)
        b = DigestTree.from_uids(uids)
        differing, compared = a.diff(b)
        assert differing == [] and compared == 1

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            DigestTree(depth=0)
        with pytest.raises(ValueError):
            DigestTree(depth=17)
        with pytest.raises(ValueError):
            DigestTree(depth=4).diff(DigestTree(depth=8))


class TestIncrementalTreeProperty:
    """An evolving tree is indistinguishable from one built from scratch."""

    POOL = [_chunk(i).uid for i in range(24)]

    @staticmethod
    def _same(tree: DigestTree, members: set) -> None:
        fresh = DigestTree.from_uids(members, tree.depth)
        assert tree.root() == fresh.root()
        assert tree._level_digests() == fresh._level_digests()
        assert len(tree) == len(fresh) == len(members)
        for index in range(1 << tree.depth):
            assert tree.bucket_digest(index) == fresh.bucket_digest(index)
            assert tree.bucket_uids(index) == fresh.bucket_uids(index)

    @given(
        depth=st.sampled_from([1, 4, 8]),
        edits=st.lists(
            st.tuples(st.booleans(), st.booleans(), st.integers(0, len(POOL) - 1)),
            max_size=40,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_step_equals_a_from_scratch_build(self, depth, edits):
        """Duplicates, removals of absent uids, interleaved digest reads:
        after every step both evolving trees, and their diff (differing
        buckets and ``compared`` count), equal ``from_uids(current set)``."""
        trees = (DigestTree(depth), DigestTree(depth))
        members = (set(), set())
        for side, adding, pick in edits:
            tree, held, uid = trees[side], members[side], self.POOL[pick]
            if adding:
                tree.add(uid)
                held.add(uid)
            else:
                tree.remove(uid)
                held.discard(uid)
            self._same(tree, held)
            fresh = [DigestTree.from_uids(m, depth) for m in members]
            assert trees[0].diff(trees[1]) == fresh[0].diff(fresh[1])
            assert (trees[0] == trees[1]) == (members[0] == members[1])


class TestPairwiseSync:
    """One pass between two nodes: what one holds, the other gets."""

    def test_sync_ships_missing_chunks(self):
        cluster = _cluster(node_count=2, replication=2)
        chunks = [_chunk(i) for i in range(30)]
        for chunk in chunks:
            cluster.put(chunk)
        node_b = cluster.nodes["node-01"]
        dropped = [c for c in chunks[:5]]
        for chunk in dropped:
            node_b.store.delete(chunk.uid)
        report = anti_entropy_pass(cluster)
        assert report.chunks_transferred == len(dropped)
        assert all(node_b.store.has(c.uid) for c in dropped)

    def test_sync_on_converged_nodes_ships_nothing(self):
        cluster = _cluster(node_count=2, replication=2)
        for i in range(30):
            cluster.put(_chunk(i))
        report = anti_entropy_pass(cluster)
        assert report.chunks_transferred == 0
        assert report.buckets_differing == 0

    def test_sync_respects_ownership(self):
        # A chunk a peer holds but node-00 does NOT own must not be pushed
        # onto node-00, while what it owns and lost comes back.
        cluster = _cluster(node_count=4, replication=2)
        chunks = [_chunk(i) for i in range(40)]
        for chunk in chunks:
            cluster.put(chunk)
        node_a, node_b = cluster.nodes["node-00"], cluster.nodes["node-01"]
        strays = [c for c in chunks if node_a not in cluster.replica_nodes(c.uid)]
        for chunk in strays:
            node_b.store.put(chunk)  # stand-in copies node-00 does not own
        lost = sorted(node_a.store.ids())[:3]
        for uid in lost:
            node_a.store.delete(uid)
        before = set(node_a.store.ids())
        anti_entropy_pass(cluster)
        gained = set(node_a.store.ids()) - before
        assert gained == set(lost)
        assert all("node-00" in cluster.ring.replicas(uid, 2) for uid in gained)
        assert strays and not any(node_a.store.has(c.uid) for c in strays)


class TestAntiEntropyPass:
    def test_wipe_revive_heals(self):
        cluster = _cluster(node_count=3, replication=2)
        chunks = [_chunk(i) for i in range(50)]
        for chunk in chunks:
            cluster.put(chunk)
        cluster.kill_node("node-01")
        cluster.revive_node("node-01", wipe=True)
        report = anti_entropy_pass(cluster)
        assert report.chunks_transferred > 0
        for chunk in chunks:
            live = sum(
                1
                for node in cluster.replica_nodes(chunk.uid)
                if node.up and node.store.has(chunk.uid)
            )
            assert live == 2
        assert digests_agree(cluster)

    def test_rot_is_quarantined_and_reshipped(self):
        cluster = _cluster(node_count=3, replication=2)
        chunks = [_chunk(i) for i in range(30)]
        for chunk in chunks:
            cluster.put(chunk)
        victim_chunk = chunks[4]
        victim_node = cluster.replica_nodes(victim_chunk.uid)[0]
        _rot(victim_node, victim_chunk)
        report = anti_entropy_pass(cluster)
        assert report.rotten_quarantined == 1
        assert report.chunks_transferred >= 1
        got = victim_node.store.get_maybe(victim_chunk.uid)
        assert got is not None and got.is_valid()

    def test_verifying_node_store_does_not_abort_the_pass(self):
        """A node whose store verifies every read raises on rot; the pass
        must quarantine that copy and reship it, not raise."""
        cluster = _cluster(node_count=3, replication=2)
        node = StorageNode("node-00", store=InMemoryStore(verify_reads=True))
        cluster.nodes["node-00"] = node
        chunks = [_chunk(i) for i in range(30)]
        for chunk in chunks:
            cluster.put(chunk)
        victim_chunk = next(c for c in chunks if node.store.has(c.uid))
        _rot(node, victim_chunk)
        report = anti_entropy_pass(cluster)
        assert report.rotten_quarantined == 1
        assert report.chunks_transferred >= 1
        got = node.store.get_maybe(victim_chunk.uid)
        assert got is not None and got.is_valid()

    def test_transfers_bounded_by_divergence(self):
        """Regression: anti-entropy must ship O(divergence), not O(N)."""
        cluster = _cluster(node_count=4, replication=2)
        total = 400
        for i in range(total):
            cluster.put(_chunk(i))
        # Diverge ~2%: drop a handful of replicas from one node.
        victim = cluster.nodes["node-02"]
        held = sorted(victim.store.ids())
        dropped = held[: max(1, len(held) // 25)]
        for uid in dropped:
            victim.store.delete(uid)
        report = anti_entropy_pass(cluster)
        assert report.chunks_transferred == len(dropped)
        # A walk of every uid touches every chunk in the cluster; the
        # Merkle pass must examine only the divergent arcs.
        assert len(cluster.ids()) == total
        assert report.chunks_examined <= 4 * len(dropped)
        assert report.chunks_examined < total

    def test_repair_delegates_to_anti_entropy(self):
        cluster = _cluster(node_count=3, replication=2)
        for i in range(20):
            cluster.put(_chunk(i))
        cluster.kill_node("node-00")
        cluster.revive_node("node-00", wipe=True)
        copies = cluster.repair()
        assert copies > 0
        assert cluster.last_sync_report is not None
        assert cluster.last_sync_report.chunks_transferred == copies
        assert digests_agree(cluster)

    def test_pass_is_deterministic(self):
        def run():
            cluster = _cluster(node_count=3, replication=2)
            for i in range(40):
                cluster.put(_chunk(i))
            cluster.kill_node("node-01")
            cluster.revive_node("node-01", wipe=True)
            report = anti_entropy_pass(cluster)
            return (
                report.chunks_transferred,
                report.tree_nodes_compared,
                report.buckets_differing,
                sorted(
                    (name, sorted(u.hex() for u in node.store.ids()))
                    for name, node in cluster.nodes.items()
                ),
            )

        assert run() == run()

    def test_digests_agree_detects_divergence(self):
        cluster = _cluster(node_count=2, replication=2)
        chunks = [_chunk(i) for i in range(20)]
        for chunk in chunks:
            cluster.put(chunk)
        assert digests_agree(cluster)
        cluster.nodes["node-01"].store.delete(chunks[0].uid)
        assert not digests_agree(cluster)
        anti_entropy_pass(cluster)
        assert digests_agree(cluster)

    def test_audit_sample_follows_the_network_plan_seed(self, monkeypatch):
        """The spot-check of a self-reported index draws its sample from
        the transport plan's seed, so one seed replays the messages and
        the audits alike; a cluster with no transport draws as seed 0."""
        audit_copy = maintenance.audit_copy

        def audited(transport):
            cluster = _cluster(
                node_count=3, replication=3, transport=transport, audit_rate=0.3
            )
            # Honest bytes, self-reported index: every claim is auditable
            # and every audit is clean, so only the draw decides the sample.
            make_byzantine(cluster.nodes["node-01"], ByzantinePlan(forge_index=True))
            for n in range(60):
                cluster.put(_chunk(n))
            sample = []

            def spy(cluster, node, uid, origin, kind=None):
                sample.append((node.name, uid))
                return audit_copy(cluster, node, uid, origin, kind)

            monkeypatch.setattr(maintenance, "audit_copy", spy)
            report = cluster.anti_entropy_pass()
            assert report.audit_failures == 0
            return sample

        def plan(seed):
            return PartitionedTransport(NetworkPlan(seed=seed))

        sample = audited(plan(1))
        assert 0 < len(sample) < 60
        assert audited(plan(1)) == sample
        assert audited(plan(2)) != sample
        assert audited(None) == audited(plan(0))


class TestWorkBound:
    """Counted, not timed: a warm pass derives placement and folds digests
    for what changed, while still re-reading and re-hashing every copy."""

    CHUNKS = 2000
    DROPPED = 20

    @staticmethod
    def _count(monkeypatch, pass_fn):
        """Calls made *from antientropy.py* during ``pass_fn()``."""
        calls = {"ring_position": 0, "replicas": 0, "sha256": 0}

        def ring_position_counted(uid, original=antientropy.ring_position):
            calls["ring_position"] += 1
            return original(uid)

        def replicas_counted(ring, uid, count, original=HashRing.replicas):
            if sys._getframe(1).f_code.co_filename == antientropy.__file__:
                calls["replicas"] += 1
            return original(ring, uid, count)

        class CountedHashlib:
            @staticmethod
            def sha256(data, original=antientropy.hashlib.sha256):
                calls["sha256"] += 1
                return original(data)

        with monkeypatch.context() as patched:
            patched.setattr(antientropy, "ring_position", ring_position_counted)
            patched.setattr(HashRing, "replicas", replicas_counted)
            patched.setattr(antientropy, "hashlib", CountedHashlib)
            report = pass_fn()
        return calls, report

    def test_warm_pass_costs_what_changed(self, monkeypatch):
        cluster = _cluster(node_count=4, replication=3)
        chunks = [_chunk(i) for i in range(self.CHUNKS)]
        for chunk in chunks:
            cluster.put(chunk)
        anti_entropy_pass(cluster)  # warm
        copies = cluster.total_replica_count()
        assert copies == 3 * self.CHUNKS
        victim = cluster.nodes["node-02"]
        for uid in sorted(victim.store.ids())[: self.DROPPED]:
            victim.drop(uid)

        calls, report = self._count(monkeypatch, lambda: anti_entropy_pass(cluster))
        # Verification did not shrink: every remaining copy was re-hashed...
        assert report.copies_verified == copies - self.DROPPED
        assert report.chunks_transferred == self.DROPPED
        assert digests_agree(cluster)
        # ...but placement and folding cost O(changed * depth), where the
        # from-scratch pass paid ~3 x copies ring_position calls, ~CHUNKS
        # ring walks and 16 x 255 interior hashes.
        bound = 4 * self.DROPPED * antientropy.DEFAULT_DEPTH
        assert calls["ring_position"] <= bound
        assert calls["replicas"] <= bound
        assert calls["sha256"] <= bound
        assert bound < self.CHUNKS

        # A ring change is observed, not configured: the next pass places
        # every chunk again, and still converges.
        cluster.add_node()
        calls, _ = self._count(monkeypatch, lambda: anti_entropy_pass(cluster))
        assert self.CHUNKS <= calls["replicas"] <= 2 * self.CHUNKS
        assert self.CHUNKS <= calls["ring_position"] <= 2 * self.CHUNKS
        assert digests_agree(cluster)
        check = cluster.durability_check()
        assert check["lost"] == 0 and check["single"] == 0


class TestEveryCopyEveryPass:
    """The contract a cheaper pass must keep: one pass re-hashes every
    copy every node lists, so it finds every rotten copy that pass — not
    a sample of them, and not on a later scrub's cadence."""

    CHUNKS = 2000

    def test_one_pass_finds_every_rotten_copy(self):
        cluster = _cluster(node_count=4, replication=3)
        chunks = [_chunk(i) for i in range(self.CHUNKS)]
        for chunk in chunks:
            cluster.put(chunk)
        anti_entropy_pass(cluster)  # warm: the pass below keeps digest state
        total = cluster.total_replica_count()
        assert total == 3 * self.CHUNKS
        tampering = TamperingStore.install(cluster.nodes["node-02"])
        rotten = []
        # In place, on one replica of each of 24 chunks, spread over all
        # four nodes' dict stores (node-02's under the wrapper).
        for n, chunk in enumerate(sorted(chunks, key=lambda c: c.uid)[:24]):
            node = cluster.replica_nodes(chunk.uid)[n % 3]
            held = physical_store(node.store)._chunks
            held[chunk.uid] = Chunk(chunk.type, b"ROT" + chunk.data, uid=chunk.uid)
            rotten.append((node.name, chunk.uid))
        assert len({name for name, _ in rotten}) == 4
        # Through the wrapper: flipped bytes and replayed content.
        spared = sorted(set(tampering.ids()) - {uid for _, uid in rotten})
        for uid in spared[:4]:
            tampering.flip_byte(uid, 5)
            rotten.append(("node-02", uid))
        for uid, donor in zip(spared[4:8], spared[8:12]):
            tampering.substitute(uid, donor)
            rotten.append(("node-02", uid))

        report = anti_entropy_pass(cluster)
        assert report.copies_verified == total
        assert report.rotten_quarantined == len(rotten) == 32
        assert report.wire_mismatches == 0 and report.unreadable == 0
        assert report.chunks_transferred == len(rotten)
        for name, uid in rotten:
            got = cluster.nodes[name].store.get_maybe(uid)
            assert got is not None and got.is_valid()
        assert cluster.total_replica_count() == total
        assert digests_agree(cluster)


class _ListsWhatItCannotServe(InterposedStore):
    """Lists uids it holds no bytes for, fails every read of some held
    uids transiently, and counts how often it is listed."""

    def __init__(self, backing, phantoms, unreadable):
        super().__init__(backing)
        self.phantoms = list(phantoms)
        self.unreadable = set(unreadable)
        self.listings = 0

    def _ids(self):
        self.listings += 1
        return iter(self.backing.ids() + self.phantoms)

    def _fetch(self, uid):
        if uid in self.unreadable:
            raise TransientStoreError(f"injected: {uid.short()} unreadable")
        return self.backing.get_maybe(uid)


class TestReadmit:
    def test_dropped_copies_come_from_one_listing(self):
        cluster = _cluster(node_count=4, replication=3)
        for i in range(120):
            cluster.put(_chunk(i))
        node = cluster.nodes["node-01"]
        held = sorted(node.store.ids())
        rotten = held[:4]
        for uid in rotten:
            original = node.store._chunks[uid]
            node.store._chunks[uid] = Chunk(original.type, b"ROT" + original.data, uid=uid)
        unreadable = held[10:13]
        missing = [_chunk(1000 + n).uid for n in range(3)]
        store = _ListsWhatItCannotServe.install(node, missing, unreadable)
        listing = store.ids()
        store.listings = 0
        swept = []
        cluster.notify_swept = swept.extend
        cluster.anti_entropy_pass = lambda: None  # count readmit's own listing

        dropped = cluster.readmit("node-01")
        expected = set(rotten) | set(unreadable) | set(missing)
        assert dropped == len(expected) == 10
        assert swept == [uid for uid in listing if uid in expected]
        assert store.listings == 1
        assert expected.isdisjoint(node.store.backing.ids())
        assert len(node.store.backing.ids()) == len(held) - 7


class TestVerifiedDurabilityCheck:
    def test_silent_rot_counts_as_under_replication(self):
        cluster = _cluster(node_count=2, replication=2)
        chunk = _chunk(0)
        cluster.put(chunk)
        assert cluster.durability_check()["replicated"] == 1
        _rot(cluster.nodes["node-00"], chunk)
        verified = cluster.durability_check()
        assert verified["replicated"] == 0
        assert verified["single"] == 1
        # The unverified legacy count still believes the rotten copy.
        unverified = cluster.durability_check(verify=False)
        assert unverified["replicated"] == 1

    def test_rot_everywhere_counts_as_lost(self):
        cluster = _cluster(node_count=2, replication=2)
        chunk = _chunk(1)
        cluster.put(chunk)
        for node in cluster.nodes.values():
            if node.store.has(chunk.uid):
                _rot(node, chunk)
        assert cluster.durability_check()["lost"] == 1

    def test_anti_entropy_restores_verified_durability(self):
        cluster = _cluster(node_count=3, replication=2)
        chunks = [_chunk(i) for i in range(15)]
        for chunk in chunks:
            cluster.put(chunk)
        _rot(cluster.replica_nodes(chunks[3].uid)[1], chunks[3])
        assert cluster.durability_check()["single"] >= 1
        anti_entropy_pass(cluster)
        check = cluster.durability_check()
        assert check["lost"] == 0 and check["single"] == 0
