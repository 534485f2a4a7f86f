"""Chaos suite: seeded fault injection against the self-healing cluster.

The acceptance scenario: a FaultPlan injecting >=1% read corruption plus
dropped/torn writes and transient node errors, two node flaps over a
10k-chunk workload.  Quorum writes + hinted handoff + read-repair + scrub
must end with zero lost chunks and zero corrupt reads surfacing to
callers — and replaying the same seed must reach the same end state.

The seed comes from ``FORKBASE_SEED`` (CI runs a small matrix), so a
failure report is always reproducible locally with::

    FORKBASE_SEED=<seed> PYTHONPATH=src python -m pytest tests/test_chaos.py
"""

import os

import pytest

from repro.chunk import Chunk, ChunkType
from repro.cluster import ClusterStore
from repro.db import ForkBase
from repro.errors import NodeDownError, QuorumWriteError
from repro.faults import FaultPlan, FaultyStore, RetryPolicy
from repro.store.memory import InMemoryStore
from repro.store.scrub import scrub
from tests.conftest import fault_seed

SEED = fault_seed(20260805)
CHUNKS = int(os.environ.get("FORKBASE_CHAOS_CHUNKS", "10000"))

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False


def _chaos_plan(seed: int) -> FaultPlan:
    return FaultPlan(
        seed=seed,
        corrupt_read_rate=0.01,  # the >=1% read corruption of the criteria
        drop_put_rate=0.005,
        torn_put_rate=0.005,
        transient_error_rate=0.01,
    )


def _chaos_cluster(plan: FaultPlan, nodes: int = 5, replication: int = 3) -> ClusterStore:
    return ClusterStore(
        node_count=nodes,
        replication=replication,
        write_quorum=2,
        retry=RetryPolicy.instant(attempts=8),
        node_store_factory=lambda name: FaultyStore(InMemoryStore(), plan, name=name),
    )


def _backing_copies(cluster: ClusterStore):
    """Every physical copy below the fault layer: (node, uid, chunk)."""
    for name, node in sorted(cluster.nodes.items()):
        backing = node.store.backing if isinstance(node.store, FaultyStore) else node.store
        for uid in backing.ids():
            chunk = backing.get_maybe(uid)
            if chunk is not None:
                yield name, uid, chunk


def _backing_truth(cluster: ClusterStore):
    """Ground-truth end state for replay comparison: {node: {uid hex: bytes}}."""
    state: dict = {}
    for name, uid, chunk in _backing_copies(cluster):
        state.setdefault(name, {})[uid.hex()] = chunk.data
    return state


def _rot_free(cluster: ClusterStore) -> bool:
    return all(chunk.is_valid() for _, _, chunk in _backing_copies(cluster))


def _heal(cluster: ClusterStore, max_passes: int = 8):
    """Repair + scrub until the backing stores hold only verified bytes.

    A single pass is not guaranteed clean: the repair writes run under
    fault injection and can be torn again, and persistent wire
    corruption occasionally double-faults a healthy copy into a (harmless,
    repaired) false rot verdict.  Convergence takes a pass or two.
    """
    report = None
    for _ in range(max_passes):
        cluster.repair()  # re-replicate before scrub so repairs have sources
        report = scrub(cluster)
        cluster.repair()  # re-place anything the scrub quarantined
        if _rot_free(cluster) and cluster.durability_check()["lost"] == 0:
            break
    return report


def _run_chaos_workload(seed: int, count: int):
    """The acceptance workload; returns (cluster, chunks, end-state dict)."""
    plan = _chaos_plan(seed)
    cluster = _chaos_cluster(plan)
    chunks = [Chunk(ChunkType.BLOB, b"chaos-payload-%06d" % i) for i in range(count)]

    flaps = plan.flap_schedule(cluster.nodes, flaps=2, horizon=count,
                               down_for=(count // 20, count // 10))
    reader = plan.rng("reads")
    pending_revive = []  # (op index to revive at, node name)
    deferred = []  # writes that failed their quorum during a flap
    wrong_reads = 0

    for index, chunk in enumerate(chunks):
        while flaps and flaps[0][0] == index:
            _, name, down_for = flaps.pop(0)
            if all(revive_name != name for _, revive_name in pending_revive):
                cluster.kill_node(name)
                pending_revive.append((index + down_for, name))
        for at, name in list(pending_revive):
            if index >= at:
                cluster.revive_node(name)  # replays hints
                pending_revive.remove((at, name))

        try:
            cluster.put(chunk)
        except (QuorumWriteError, NodeDownError):
            deferred.append(chunk)

        if index % 3 == 0 and index > 0:
            # Read-back of a random earlier chunk: must NEVER be wrong bytes.
            probe = chunks[reader.randrange(index)]
            if probe in deferred:
                continue
            got = cluster.get_maybe(probe.uid)
            if got is not None and (not got.is_valid() or got.data != probe.data):
                wrong_reads += 1

    for _, name in pending_revive:
        cluster.revive_node(name)
    for chunk in deferred:
        cluster.put(chunk)

    scrub_report = _heal(cluster)

    end_state = {
        "backing": _backing_truth(cluster),
        "durability": cluster.durability_check(),
        "counters": {
            "corrupt_reads": cluster.corrupt_reads,
            "read_repairs": cluster.read_repairs,
            "hints_queued": cluster.hints_queued,
            "hints_replayed": cluster.hints_replayed,
            "failovers": cluster.failovers,
            "deferred_writes": len(deferred),
            "wrong_reads": wrong_reads,
            "scrub_repaired": scrub_report.repaired if scrub_report else 0,
        },
    }
    return cluster, chunks, end_state


@pytest.fixture(scope="module")
def chaos_run():
    return _run_chaos_workload(SEED, CHUNKS)


class TestChaosAcceptance:
    def test_faults_were_actually_injected(self, chaos_run):
        cluster, _, state = chaos_run
        injected = [node.store for node in cluster.nodes.values()]
        assert sum(s.injected_corrupt_reads for s in injected) > CHUNKS // 300
        assert sum(s.injected_dropped_puts for s in injected) > 0
        assert sum(s.injected_torn_puts for s in injected) > 0
        assert sum(s.injected_transient_errors for s in injected) > 0
        assert state["counters"]["hints_queued"] > 0  # the flaps really flapped

    def test_zero_wrong_reads_surface(self, chaos_run):
        """Corrupt reads are detected and healed below the caller."""
        _, _, state = chaos_run
        assert state["counters"]["wrong_reads"] == 0
        assert state["counters"]["corrupt_reads"] > 0  # ...but they happened

    def test_zero_lost_chunks(self, chaos_run):
        cluster, chunks, state = chaos_run
        assert state["durability"]["lost"] == 0
        for chunk in chunks:
            got = cluster.get(chunk.uid)
            assert got.data == chunk.data and got.is_valid()

    def test_scrub_leaves_no_rot_behind(self, chaos_run):
        cluster, _, _ = chaos_run
        for name, uid, chunk in _backing_copies(cluster):
            assert chunk.is_valid(), f"rot survived on {name}: {uid.short()}"

    def test_replay_reaches_identical_end_state(self):
        """Same seed, same workload => byte-identical cluster state."""
        count = min(CHUNKS, 2000)  # replay twice: keep it quick
        _, _, first = _run_chaos_workload(SEED, count)
        _, _, second = _run_chaos_workload(SEED, count)
        assert first == second

    def test_different_seed_differs(self):
        count = min(CHUNKS, 1000)
        _, _, first = _run_chaos_workload(SEED, count)
        _, _, second = _run_chaos_workload(SEED + 1, count)
        assert first["counters"] != second["counters"]


class TestEngineUnderChaos:
    def test_engine_reads_never_see_rot(self):
        """The full stack over a faulty cluster: every get_value returns
        exactly what was put, with all corruption absorbed below."""
        plan = _chaos_plan(SEED + 7)
        cluster = _chaos_cluster(plan, nodes=4)
        engine = ForkBase(store=cluster, clock=lambda: 0.0)
        expected = {}
        for round_index in range(10):
            key = f"doc-{round_index % 3}"
            expected[key] = {
                "k%03d" % i: "%d-%d" % (round_index, i) for i in range(120)
            }
            engine.put(key, expected[key])
            for known, value in expected.items():
                got = engine.get_value(known)
                assert {k.decode(): v.decode() for k, v in got.items()} == value
        injected = sum(  # the store really was hostile
            node.store.injected_corrupt_reads
            + node.store.injected_transient_errors
            + node.store.injected_torn_puts
            + node.store.injected_dropped_puts
            for node in cluster.nodes.values()
        )
        assert injected > 0
        report = engine.verify(key)
        assert report.ok

    def test_engine_survives_flap_mid_history(self):
        plan = _chaos_plan(SEED + 11)
        cluster = _chaos_cluster(plan, nodes=4)
        engine = ForkBase(store=cluster, clock=lambda: 0.0)
        engine.put("k", {"a": "1"})
        cluster.kill_node("node-01")
        engine.put("k", {"a": "2", "b": "3"})
        cluster.revive_node("node-01")
        engine.put("k", {"a": "2", "b": "4"})
        assert len(engine.history("k")) == 3
        assert engine.get_value("k")[b"b"] == b"4"
        assert engine.scrub() is not None
        assert cluster.durability_check()["lost"] == 0


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
class TestChaosProperty:
    @settings(deadline=None, max_examples=15)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        corrupt=st.floats(min_value=0.0, max_value=0.05),
        drop=st.floats(min_value=0.0, max_value=0.03),
        torn=st.floats(min_value=0.0, max_value=0.03),
        flaps=st.integers(min_value=0, max_value=2),
    )
    def test_scrub_and_repair_restore_full_durability(
        self, seed, corrupt, drop, torn, flaps
    ):
        """For ANY seeded plan: after revive + repair + scrub, nothing is
        lost and every materialized copy hashes to its uid."""
        count = 120
        plan = FaultPlan(
            seed=seed,
            corrupt_read_rate=corrupt,
            drop_put_rate=drop,
            torn_put_rate=torn,
            transient_error_rate=0.01,
        )
        cluster = _chaos_cluster(plan, nodes=4)
        chunks = [
            Chunk(ChunkType.BLOB, b"prop-%d-%06d" % (seed % 97, i))
            for i in range(count)
        ]
        schedule = plan.flap_schedule(cluster.nodes, flaps=flaps, horizon=count)
        deferred = []
        for index, chunk in enumerate(chunks):
            while schedule and schedule[0][0] == index:
                _, name, _ = schedule.pop(0)
                if len(cluster.live_nodes()) > 2:
                    cluster.kill_node(name)
            try:
                cluster.put(chunk)
            except (QuorumWriteError, NodeDownError):
                deferred.append(chunk)
        for node in cluster.nodes.values():
            if not node.up:
                cluster.revive_node(node.name)
        for chunk in deferred:
            cluster.put(chunk)

        report = _heal(cluster)

        assert report is not None
        assert _rot_free(cluster)
        assert cluster.durability_check()["lost"] == 0
        for chunk in chunks:
            got = cluster.get(chunk.uid)
            assert got.data == chunk.data and got.is_valid()
