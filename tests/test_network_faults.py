"""Tests for the deterministic network fault model (repro.faults.network)."""

import pytest

from repro.chunk import Uid
from repro.errors import (
    MessageDroppedError,
    NetworkPartitionedError,
    NetworkTimeoutError,
    SimulatedCrash,
    TransientError,
)
from repro.faults import NetworkPlan, PartitionedTransport, apply_schedule_event


UID = Uid.of(b"message")


class TestNetworkPlan:
    def test_draws_are_deterministic(self):
        a = NetworkPlan(seed=7, drop_rate=0.5)
        b = NetworkPlan(seed=7, drop_rate=0.5)
        for attempt in range(20):
            assert a.draw("drop", "c", "n", "put", UID, attempt) == b.draw(
                "drop", "c", "n", "put", UID, attempt
            )

    def test_different_seeds_differ(self):
        draws_a = [NetworkPlan(seed=1).draw("op", "c", "n", "put", UID, i) for i in range(32)]
        draws_b = [NetworkPlan(seed=2).draw("op", "c", "n", "put", UID, i) for i in range(32)]
        assert draws_a != draws_b

    def test_draws_depend_on_endpoints(self):
        plan = NetworkPlan(seed=3)
        assert [plan.draw("drop", "a", "n", "put", UID, i) for i in range(16)] != [
            plan.draw("drop", "b", "n", "put", UID, i) for i in range(16)
        ]

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            NetworkPlan(drop_rate=1.5)
        with pytest.raises(ValueError):
            NetworkPlan(delay_ticks=(0, 4))
        with pytest.raises(ValueError):
            NetworkPlan(delay_ticks=(5, 4))

    def test_delay_for_within_bounds(self):
        plan = NetworkPlan(seed=9, delay_ticks=(2, 6))
        for attempt in range(64):
            assert 2 <= plan.delay_for("a", "b", "get", UID, attempt) <= 6

    def test_scoped_rederives_seed(self):
        plan = NetworkPlan(seed=5, drop_rate=0.5)
        scoped = plan.scoped("link-1")
        assert scoped.drop_rate == 0.5
        assert scoped.seed != plan.seed
        assert plan.scoped("link-1").seed == scoped.seed

    def test_partition_schedule_is_deterministic(self):
        plan = NetworkPlan(seed=11)
        endpoints = ["n0", "n1", "n2", "client"]
        first = plan.partition_schedule(endpoints, events=6, horizon=100)
        again = plan.partition_schedule(endpoints, events=6, horizon=100)
        assert first == again
        assert len(first) == 6
        assert all(0 <= at < 100 for at, _ in first)

    def test_partition_schedule_groups_cover_endpoints(self):
        plan = NetworkPlan(seed=13)
        endpoints = {"n0", "n1", "n2", "n3"}
        for _, groups in plan.partition_schedule(endpoints, events=8, horizon=50):
            if groups is None:
                continue
            side_a, side_b = groups
            assert side_a and side_b
            assert set(side_a) | set(side_b) == endpoints
            assert not set(side_a) & set(side_b)

    def test_degenerate_schedules_are_empty(self):
        plan = NetworkPlan(seed=1)
        assert plan.partition_schedule(["only"], events=4, horizon=10) == []
        assert plan.partition_schedule(["a", "b"], events=0, horizon=10) == []


class TestPartitionedTransport:
    def test_clean_network_delivers(self):
        transport = PartitionedTransport()
        assert transport.send("c", "n", "put", UID, lambda: 42) == 42
        assert transport.stats()["sent"] == 1

    def test_partition_blocks_cross_side_traffic(self):
        transport = PartitionedTransport()
        transport.partition({"c", "n0"}, {"n1"})
        assert transport.send("c", "n0", "put", UID, lambda: "ok") == "ok"
        with pytest.raises(NetworkPartitionedError):
            transport.send("c", "n1", "put", UID, lambda: "ok")
        # Faults are transient: the retry/hint machinery handles them.
        assert issubclass(NetworkPartitionedError, TransientError)

    def test_unnamed_endpoints_default_to_side_zero(self):
        transport = PartitionedTransport()
        transport.partition({"n0"}, {"n1"})
        assert transport.reachable("never-mentioned", "n0")
        assert not transport.reachable("never-mentioned", "n1")

    def test_heal_reconnects(self):
        transport = PartitionedTransport()
        transport.partition({"a"}, {"b"})
        assert transport.partitioned
        transport.heal()
        assert not transport.partitioned
        assert transport.send("a", "b", "get", UID, lambda: 1) == 1

    def test_partition_validation(self):
        transport = PartitionedTransport()
        with pytest.raises(ValueError):
            transport.partition({"a", "b"})
        with pytest.raises(ValueError):
            transport.partition({"a"}, {"a", "b"})

    def test_drops_are_deterministic_and_typed(self):
        plan = NetworkPlan(seed=21, drop_rate=0.4)
        outcomes = []
        for _ in range(2):
            transport = PartitionedTransport(plan)
            run = []
            for i in range(50):
                uid = Uid.of(b"m%d" % i)
                try:
                    transport.send("c", "n", "put", uid, lambda: "ok")
                    run.append("ok")
                except MessageDroppedError:
                    run.append("drop")
            outcomes.append(run)
        assert outcomes[0] == outcomes[1]
        assert "drop" in outcomes[0] and "ok" in outcomes[0]

    def test_retries_see_fresh_draws(self):
        plan = NetworkPlan(seed=2, drop_rate=0.5)
        transport = PartitionedTransport(plan)
        results = set()
        for _ in range(12):  # same (src, dst, op, uid): attempt counter advances
            try:
                transport.send("c", "n", "put", UID, lambda: "ok")
                results.add("ok")
            except MessageDroppedError:
                results.add("drop")
        assert results == {"ok", "drop"}

    def test_delayed_message_delivers_late(self):
        plan = NetworkPlan(seed=5, delay_rate=1.0, delay_ticks=(2, 2))
        transport = PartitionedTransport(plan)
        landed = []
        with pytest.raises(NetworkTimeoutError):
            transport.send("c", "n", "put", UID, lambda: landed.append("now"))
        assert landed == [] and transport.in_flight() == 1
        transport.tick(2)
        assert landed == ["now"] and transport.in_flight() == 0

    def test_late_failure_is_counted_not_raised(self):
        plan = NetworkPlan(seed=5, delay_rate=1.0, delay_ticks=(1, 1))
        transport = PartitionedTransport(plan)

        def boom():
            raise TransientError("host gone")

        with pytest.raises(NetworkTimeoutError):
            transport.send("c", "n", "put", UID, boom)
        transport.tick(1)  # delivery executes, failure is swallowed
        assert transport.stats()["late_failures"] == 1

    def test_late_non_taxonomy_failure_propagates(self):
        # Only taxonomy failures are expected out of a late delivery;
        # a TypeError & co. is a harness bug and must not be silently
        # counted as a network fault.
        plan = NetworkPlan(seed=5, delay_rate=1.0, delay_ticks=(1, 1))
        transport = PartitionedTransport(plan)

        def bug():
            raise TypeError("harness bug")

        with pytest.raises(NetworkTimeoutError):
            transport.send("c", "n", "put", UID, bug)
        with pytest.raises(TypeError):
            transport.tick(1)
        assert transport.stats()["late_failures"] == 0

    def test_a_crash_inside_a_delayed_delivery_ends_the_run(self):
        # A node that dies while a late message lands takes the run with
        # it: SimulatedCrash is no taxonomy failure to count and swallow.
        plan = NetworkPlan(seed=5, delay_rate=1.0, delay_ticks=(1, 1))
        transport = PartitionedTransport(plan)

        def crash():
            raise SimulatedCrash(0, "fsync", "node-00")

        with pytest.raises(NetworkTimeoutError):
            transport.send("c", "n", "put", UID, crash)
        with pytest.raises(SimulatedCrash):
            transport.tick(1)
        assert transport.stats()["late_failures"] == 0

    def test_a_crash_inside_a_duplicated_delivery_ends_the_run(self):
        # Both applications of a duplicated message run inside send(), so
        # a crash in the second one ends the send that carried it.  A
        # second copy that lands late (a retry's retransmission) ends the
        # tick that delivers it.
        applied = []

        def crash_on_second():
            applied.append(1)
            if len(applied) == 2:
                raise SimulatedCrash(1, "write", "node-00")

        transport = PartitionedTransport(NetworkPlan(seed=8, dup_rate=1.0))
        with pytest.raises(SimulatedCrash):
            transport.send("c", "n", "put", UID, crash_on_second)
        assert applied == [1, 1]
        assert transport.stats()["duplicated"] == 1
        assert transport.stats()["late_failures"] == 0

        applied.clear()
        plan = NetworkPlan(seed=8, delay_rate=1.0, delay_ticks=(1, 1))
        transport = PartitionedTransport(plan)
        for _ in range(2):
            with pytest.raises(NetworkTimeoutError):
                transport.send("c", "n", "put", UID, crash_on_second)
        assert applied == [1]  # the first copy landed during the second send
        with pytest.raises(SimulatedCrash):
            transport.tick(1)
        assert applied == [1, 1]
        assert transport.stats()["late_failures"] == 0

    def test_duplicate_applies_twice(self):
        plan = NetworkPlan(seed=8, dup_rate=1.0)
        transport = PartitionedTransport(plan)
        calls = []
        assert transport.send("c", "n", "put", UID, lambda: calls.append(1) or "r") == "r"
        assert len(calls) == 2
        assert transport.stats()["duplicated"] == 1

    def test_apply_schedule_event(self):
        transport = PartitionedTransport()
        apply_schedule_event(transport, ({"a"}, {"b"}))
        assert transport.partitioned
        apply_schedule_event(transport, None)
        assert not transport.partitioned
