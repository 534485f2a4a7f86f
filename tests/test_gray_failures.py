"""Gray-failure tolerance: graded slowness, hedged reads, deadlines, breakers.

A gray-failed node is up and answering probes — just ~100x slow.  These
tests cover the whole defense stack: the transport's deterministic
slowness dimension, the failure detector's blindness to it (by design),
the circuit breaker that routes around it anyway, hedged reads that cap
the tail, deadline budgets that bound every verb, and the corrected
failover accounting underneath it all.
"""

import pytest

from repro.chunk import Chunk, ChunkType, Uid
from repro.cluster import ALIVE, CLOSED, OPEN, ClusterStore
from repro.cluster.breaker import THRESHOLD
from repro.db import ForkBase
from repro.errors import (
    ChunkCorruptionError,
    DeadlineExceededError,
    NetworkTimeoutError,
)
from repro.faults import (
    NetworkPlan,
    PartitionedTransport,
    RetryPolicy,
    apply_slow_event,
)
from repro.security import TamperingStore


def _chunk(n: int, tag: str = "gray") -> Chunk:
    return Chunk(ChunkType.BLOB, (b"%s-%d-" % (tag.encode("utf-8"), n)) * 4)


def _cluster(**kwargs):
    plan = NetworkPlan(seed=kwargs.pop("net_seed", 7), **kwargs.pop("plan", {}))
    transport = PartitionedTransport(plan)
    kwargs.setdefault("retry", RetryPolicy.instant(attempts=2))
    kwargs.setdefault("node_count", 4)
    kwargs.setdefault("replication", 2)
    cluster = ClusterStore(transport=transport, **kwargs)
    return cluster, transport


def _primary_chunks(cluster, chunks, node_name):
    """The subset of ``chunks`` whose first placement replica is ``node_name``."""
    return [
        chunk
        for chunk in chunks
        if cluster.replica_nodes(chunk.uid)[0].name == node_name
    ]


class TestGradedSlowness:
    def test_service_ticks_deterministic(self):
        plan = NetworkPlan(seed=3)
        uid = Uid.of(b"x")
        first = plan.service_ticks("a", "n", "get", uid, 0, 100)
        assert first == plan.service_ticks("a", "n", "get", uid, 0, 100)
        assert first >= 100  # factor plus non-negative jitter
        assert first <= 125  # jitter bounded by factor // 4
        assert plan.service_ticks("a", "n", "get", uid, 0, 1) == 1

    def test_slow_endpoint_charges_the_clock(self):
        cluster, transport = _cluster()
        chunk = _chunk(0)
        cluster.put(chunk)
        transport.slow(cluster.replica_nodes(chunk.uid)[0].name, 50)
        before = transport.clock
        assert cluster.get(chunk.uid).data == chunk.data
        assert transport.clock - before >= 50
        assert transport.stats()["slow_services"] > 0
        assert transport.stats()["slow_ticks"] >= 49

    def test_slow_recover_roundtrip(self):
        transport = PartitionedTransport(NetworkPlan(seed=1))
        transport.slow("node-00", 30)
        assert transport.slowed() == {"node-00": 30}
        transport.slow("node-00", 1)  # factor 1 restores full speed
        assert transport.slowed() == {}
        transport.slow("node-01", 8)
        transport.recover()
        assert transport.slowed() == {}
        assert transport.stats()["slow_events"] == 2
        assert transport.stats()["slow_recoveries"] == 1
        with pytest.raises(ValueError):
            transport.slow("node-00", 0)

    def test_timeout_abandon_charges_exactly_the_budget(self):
        """A sender that gives up at its timeout pays the timeout, not the
        service time — and the response still lands as a stale delivery."""
        transport = PartitionedTransport(NetworkPlan(seed=2))
        transport.slow("node-00", 200)
        served = []
        before = transport.clock
        with pytest.raises(NetworkTimeoutError):
            transport.send(
                "client", "node-00", "get", Uid.of(b"k"),
                lambda: served.append(1), timeout_ticks=16,
            )
        assert transport.clock - before == 16
        assert transport.stats()["timeout_abandons"] == 1
        assert served == []  # still in flight
        assert transport.in_flight() == 1
        transport.tick(400)
        assert served == [1]  # the server answered; nobody was listening

    def test_slow_schedule_is_deterministic_and_alternates(self):
        plan = NetworkPlan(seed=11, slow_factors=(8, 64))
        endpoints = ["node-00", "node-01", "client"]
        schedule = plan.slow_schedule(endpoints, events=8, horizon=100)
        assert schedule == plan.slow_schedule(endpoints, events=8, horizon=100)
        assert schedule and [at for at, _ in schedule] == sorted(
            at for at, _ in schedule
        )
        slowed = False
        for _, factors in schedule:
            if factors is None:
                assert slowed  # never a recover before anything is slow
                slowed = False
            else:
                assert len(factors) == 1
                (victim, factor), = factors.items()
                assert victim in endpoints and 8 <= factor <= 64
                slowed = True

    def test_apply_slow_event(self):
        transport = PartitionedTransport(NetworkPlan(seed=1))
        apply_slow_event(transport, {"node-02": 40})
        assert transport.slow_factor("node-02") == 40
        apply_slow_event(transport, None)
        assert transport.slowed() == {}


class TestHedgedReads:
    def _warmed(self, chunks=80, **kwargs):
        cluster, transport = _cluster(**kwargs)
        data = [_chunk(i) for i in range(chunks)]
        cluster.put_many(data)
        # Warm the latency streams past HEDGE_MIN_SAMPLES everywhere.
        for _ in range(2):
            for chunk in data:
                assert cluster.get(chunk.uid).data == chunk.data
        return cluster, transport, data

    def test_hedge_caps_the_gray_tail(self):
        cluster, transport, data = self._warmed()
        victims = _primary_chunks(cluster, data, "node-01")
        assert victims  # placement spreads primaries over all nodes
        transport.slow("node-01", 100)
        ticks = []
        for chunk in victims:
            before = transport.clock
            assert cluster.get(chunk.uid).data == chunk.data
            # Unhedged this read would cost >= 100 ticks; hedged it pays
            # roughly the healthy p95 plus one failover.
            ticks.append(transport.clock - before)
            assert ticks[-1] < 50
        # The hedged tail is at least 3x below an unhedged read, which
        # would wait out the whole slow factor.
        assert 3 * max(ticks) <= 100, ticks
        # Hedge load stays bounded: the gray node's share of primaries
        # plus the p95 overshoot of healthy reads.
        issued = cluster.hedges_issued
        for chunk in data:
            assert cluster.get(chunk.uid).data == chunk.data
        assert cluster.hedges_issued - issued <= 0.6 * len(data)
        assert cluster.hedges_issued > 0
        assert cluster.hedge_wins > 0
        assert cluster.hedge_wins <= cluster.hedges_issued
        assert cluster.failed_reads == 0

    def test_healthy_cluster_barely_hedges(self):
        cluster, transport, data = self._warmed()
        baseline = cluster.hedges_issued
        for chunk in data:
            assert cluster.get(chunk.uid).data == chunk.data
        # The p95 threshold bounds hedge load: on a healthy cluster very
        # few reads run past their replica's own p95.
        assert cluster.hedges_issued - baseline <= len(data) // 10

    def test_default_cluster_hedges_a_gray_primary(self):
        """Hedging is the read walk's only mode: a cluster given nothing
        but its transport hedges around a gray primary."""
        transport = PartitionedTransport(NetworkPlan(seed=7))
        cluster = ClusterStore(transport=transport)
        data = [_chunk(i, "default") for i in range(80)]
        cluster.put_many(data)
        for _ in range(2):
            for chunk in data:
                assert cluster.get(chunk.uid).data == chunk.data
        victims = _primary_chunks(cluster, data, "node-01")
        assert victims
        transport.slow("node-01", 100)
        ticks = []
        for chunk in victims:
            before = transport.clock
            assert cluster.get(chunk.uid).data == chunk.data
            ticks.append(transport.clock - before)
        assert cluster.hedges_issued > 0
        assert 3 * max(ticks) <= 100, ticks

    def test_duplicate_delivery_of_hedged_requests_is_idempotent(self):
        """With every message duplicated, hedged reads and their repairs
        must not double-count: content addressing makes the second
        application a no-op and the counters bill each decision once."""
        cluster, transport, data = self._warmed(plan={"dup_rate": 1.0})
        assert transport.stats()["duplicated"] > 0
        transport.slow("node-01", 100)
        victims = _primary_chunks(cluster, data, "node-01")
        for chunk in victims:
            assert cluster.get(chunk.uid).data == chunk.data
        # Hedges fire until the breaker opens and routes around the gray
        # node entirely; either way every duplicated read stayed correct.
        assert cluster.hedges_issued > 0
        assert cluster.failed_reads == 0
        # Now force a read-repair under duplication: wipe one healthy
        # primary copy and re-read.  Exactly one repair per wiped chunk.
        transport.recover()
        repaired = _primary_chunks(cluster, data, "node-00")[:5]
        before = cluster.read_repairs
        for chunk in repaired:
            cluster.replica_nodes(chunk.uid)[0].drop(chunk.uid)
        for chunk in repaired:
            assert cluster.get(chunk.uid).data == chunk.data
        assert cluster.read_repairs - before == len(repaired)


class TestCircuitBreaker:
    def _gray_cluster(self, **kwargs):
        return TestHedgedReads()._warmed(**kwargs)

    def test_gray_node_is_alive_but_degraded(self):
        cluster, transport, data = self._gray_cluster()
        detector = cluster.failure_detector("client")
        transport.slow("node-01", 100)
        # Heartbeats still succeed (slowly): the phi detector rightly
        # keeps the node ALIVE — gray failure is invisible to liveness.
        detector.probe_round()
        assert detector.state("node-01") == ALIVE
        # But hedge timeouts feed the breaker, which opens.
        for chunk in _primary_chunks(cluster, data, "node-01"):
            assert cluster.get(chunk.uid).data == chunk.data
        assert cluster.breakers.state("client", "node-01") == OPEN
        assert cluster.breaker_skips > 0
        assert detector.state("node-01") == ALIVE
        assert detector.degraded() == ["node-01"]
        assert "node-01" in detector.report()["degraded"]
        report = cluster.health_report()
        assert report["degraded"] == ["node-01"]
        assert report["breakers"]["client->node-01"]["state"] == OPEN

    def test_breaker_snaps_back_after_recovery(self):
        cluster, transport, data = self._gray_cluster()
        transport.slow("node-01", 100)
        victims = _primary_chunks(cluster, data, "node-01")
        for chunk in victims:
            cluster.get(chunk.uid)
        assert cluster.breakers.state("client", "node-01") == OPEN
        transport.recover()
        # Wait out the cooldown, then the half-open probe sees a healthy
        # node and snaps the breaker closed — same discipline as the
        # membership layer's one-good-probe snap-back.
        transport.tick(32)
        for chunk in victims:
            assert cluster.get(chunk.uid).data == chunk.data
        assert cluster.breakers.state("client", "node-01") == CLOSED
        board = cluster.breakers.snapshot()["client->node-01"]
        assert board["snap_backs"] >= 1
        assert cluster.failure_detector("client").degraded() == []

    def test_open_breaker_is_probed_as_last_resort(self):
        """When every admitted replica fails, a tripped node is still
        tried rather than failing a read it could serve."""
        cluster, transport, data = self._gray_cluster(replication=2)
        transport.slow("node-01", 100)
        victims = _primary_chunks(cluster, data, "node-01")
        for chunk in victims:
            cluster.get(chunk.uid)
        assert cluster.breakers.state("client", "node-01") == OPEN
        # Kill every node except the gray one: reads must fall through to
        # the tripped breaker instead of reporting the chunk missing.
        for name in ("node-00", "node-02", "node-03"):
            cluster.kill_node(name)
        transport.recover()
        served = [
            chunk
            for chunk in data
            if "node-01" in {n.name for n in cluster.replica_nodes(chunk.uid)}
        ]
        assert cluster.get(served[0].uid).data == served[0].data

    @pytest.mark.parametrize("tripped", [False, True], ids=["closed", "open"])
    def test_rot_on_a_tripped_replica_is_corruption_not_absence(self, tripped):
        """A last-resort replica gets the same treatment as an admitted
        one: rot it serves raises, is attributed, and is dropped — an OPEN
        breaker must not turn "every copy is corrupt" into "not found"."""
        cluster = ClusterStore(node_count=3, replication=2, transport=PartitionedTransport())
        chunk = _chunk(0, "rot")
        cluster.put(chunk)
        absent, rotten = cluster.replica_nodes(chunk.uid)
        absent.drop(chunk.uid)
        TamperingStore.install(rotten).flip_byte(chunk.uid)
        if tripped:
            for _ in range(THRESHOLD):
                cluster.breakers.record("client", rotten.name, False)
            assert cluster.breakers.state("client", rotten.name) == OPEN
        with pytest.raises(ChunkCorruptionError):
            cluster.get_maybe(chunk.uid)
        evidence = cluster.health_report()["tamper_evidence"]
        assert [(e["node"], e["kind"]) for e in evidence] == [
            (rotten.name, "served-corrupt")
        ]
        assert not rotten.store.has(chunk.uid)


class TestDeadlines:
    def test_read_never_blocks_past_its_budget(self):
        cluster, transport = _cluster(deadline_budget=16, retry=RetryPolicy.instant(attempts=4))
        chunks = [_chunk(i) for i in range(40)]
        cluster.put_many(chunks)
        transport.slow("node-01", 400)
        saw_deadline = 0
        for chunk in chunks:
            before = transport.clock
            try:
                assert cluster.get(chunk.uid).data == chunk.data
            except DeadlineExceededError:
                saw_deadline += 1
            # The budget plus one entry tick bounds every verb, always.
            assert transport.clock - before <= 16 + 2
        assert saw_deadline > 0
        assert cluster.deadline_exceeded == saw_deadline
        assert cluster.health_report()["deadline_exceeded"] == saw_deadline

    def test_write_raises_deadline_not_quorum_when_budget_expires(self):
        cluster, transport = _cluster(
            deadline_budget=8,
            write_quorum=2,
            retry=RetryPolicy.instant(attempts=4),
        )
        for name in cluster.nodes:
            transport.slow(name, 300)
        with pytest.raises(DeadlineExceededError) as excinfo:
            cluster.put(_chunk(0, tag="dl-write"))
        assert excinfo.value.budget == 8
        assert cluster.deadline_exceeded == 1

    def test_per_client_budget_overrides_cluster(self):
        cluster, transport = _cluster()  # no cluster-wide budget
        chunk = _chunk(0, tag="client-dl")
        cluster.put(chunk)
        transport.slow(cluster.replica_nodes(chunk.uid)[0].name, 400)
        patient = cluster.client("patient")
        assert patient.get(chunk.uid).data == chunk.data  # no budget: waits
        hurried = cluster.client("hurried", deadline_budget=12)
        before = transport.clock
        try:
            hurried.get(chunk.uid)
        except DeadlineExceededError:
            pass
        assert transport.clock - before <= 12 + 2
        assert cluster.deadline_budget is None  # restored after the call

    def test_fresh_budget_can_succeed_after_recovery(self):
        cluster, transport = _cluster(deadline_budget=12)
        chunk = _chunk(1, tag="retry-dl")
        cluster.put(chunk)
        primary = cluster.replica_nodes(chunk.uid)[0].name
        transport.slow(primary, 400)
        transport.slow(cluster.replica_nodes(chunk.uid)[1].name, 400)
        with pytest.raises(DeadlineExceededError):
            cluster.get(chunk.uid)
        transport.recover()
        assert cluster.get(chunk.uid).data == chunk.data


class TestFailoverAccounting:
    def test_suspect_demotion_is_not_a_failover(self):
        """Reordering replicas around a SUSPECT node is routing, not
        failover: the healthy replica that serves was attempt #1."""
        cluster, transport = _cluster()
        chunks = [_chunk(i, tag="suspect") for i in range(60)]
        cluster.put_many(chunks)
        transport.partition(
            {"client", "node-00", "node-02", "node-03"}, {"node-01"}
        )
        detector = cluster.failure_detector("client")
        for _ in range(3):
            detector.probe_round()
        assert detector.is_suspect("node-01")
        transport.heal()  # node-01 reachable again but still SUSPECT
        failovers_before = cluster.failovers
        for chunk in chunks:
            assert cluster.get(chunk.uid).data == chunk.data
        assert cluster.failovers == failovers_before

    def test_snap_back_mid_read_sequence(self):
        """A SUSPECT node recovering mid-sequence serves as primary again
        the moment one probe succeeds, with no spurious failovers."""
        cluster, transport = _cluster()
        chunks = [_chunk(i, tag="snap") for i in range(60)]
        cluster.put_many(chunks)
        transport.partition(
            {"client", "node-00", "node-02", "node-03"}, {"node-01"}
        )
        detector = cluster.failure_detector("client")
        for _ in range(3):
            detector.probe_round()
        assert detector.is_suspect("node-01")
        victims = _primary_chunks(cluster, chunks, "node-01")
        half = len(victims) // 2
        for chunk in victims[:half]:  # read around the suspect
            assert cluster.get(chunk.uid).data == chunk.data
        transport.heal()
        detector.probe_round()  # one good probe snaps it back
        assert detector.state("node-01") == ALIVE
        assert detector.recoveries >= 1
        failovers_before = cluster.failovers
        for chunk in victims[half:]:  # now served by the primary again
            assert cluster.get(chunk.uid).data == chunk.data
        assert cluster.failovers == failovers_before
        assert cluster.failed_reads == 0


class TestStatusEndpoint:
    def test_status_reports_gray_failure_telemetry(self):
        from repro.api.rest import Router

        cluster, transport = _cluster()
        engine = ForkBase(cluster.client("api"))
        router = Router(engine)
        engine.put("doc", {"body": "hello"})
        assert engine.get_value("doc") == {b"body": b"hello"}
        response = router.request("GET", "/v1/status")
        assert response.ok
        assert response.body["state"] == "healthy"
        assert response.body["writable"] is True
        report = response.body["cluster"]
        for key in (
            "hedges_issued",
            "hedge_wins",
            "deadline_exceeded",
            "breaker_skips",
            "breakers",
            "degraded",
            "read_latency",
            "retry_deadline_stops",
        ):
            assert key in report
        # The coordinator remembered the client's acked writes; the
        # client's own reads went to the replicas, not to that cache.
        node_cache = report["node_cache"]
        assert set(node_cache) == {"hits", "lookups", "size", "capacity", "evictions", "leaves"}
        assert node_cache["size"] > 0 and node_cache["lookups"] == 0
        assert node_cache["capacity"] == 4096
        assert report["network"]["slowed_endpoints"] == 0
        transport.slow("node-00", 30)
        refreshed = router.request("GET", "/v1/status")
        assert refreshed.body["cluster"]["network"]["slowed_endpoints"] == 1

    def test_status_on_plain_engine_has_no_cluster_section(self):
        from repro.api.rest import Router

        engine = ForkBase()
        response = Router(engine).request("GET", "/v1/status")
        assert response.ok and "cluster" not in response.body
