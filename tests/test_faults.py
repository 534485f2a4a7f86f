"""Tests for the deterministic fault-injection layer (repro.faults)."""

import dataclasses

import pytest

from repro.chunk import Chunk, ChunkType, Uid
from repro.errors import NodeDownError, TransientStoreError
from repro.faults import FaultPlan, FaultyStore, RetryPolicy
from repro.store.memory import InMemoryStore
from tests.conftest import RETRY_ATTEMPTS, check_k_failures


def _chunk(n: int, size: int = 32) -> Chunk:
    return Chunk(ChunkType.BLOB, (b"payload-%d-" % n) * (size // 10 + 1))


class TestFaultPlan:
    def test_draws_are_deterministic(self):
        plan_a = FaultPlan(seed=7, corrupt_read_rate=0.5)
        plan_b = FaultPlan(seed=7, corrupt_read_rate=0.5)
        uid = Uid.of(b"x")
        for attempt in range(20):
            assert plan_a.draw("corrupt-read", uid, attempt) == plan_b.draw(
                "corrupt-read", uid, attempt
            )

    def test_different_seeds_differ(self):
        uid = Uid.of(b"x")
        draws_a = [FaultPlan(seed=1).draw("op", uid, i) for i in range(32)]
        draws_b = [FaultPlan(seed=2).draw("op", uid, i) for i in range(32)]
        assert draws_a != draws_b

    def test_attempts_redraw(self):
        """Successive attempts on the same uid get independent draws."""
        plan = FaultPlan(seed=3)
        uid = Uid.of(b"y")
        draws = {plan.draw("op", uid, attempt) for attempt in range(64)}
        assert len(draws) > 60

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(corrupt_read_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(drop_put_rate=-0.1)

    def test_mutate_always_changes(self):
        plan = FaultPlan(seed=5)
        uid = Uid.of(b"z")
        for attempt in range(10):
            data = b"some payload bytes"
            assert plan.mutate(data, uid, attempt) != data
        assert plan.mutate(b"", uid, 0) != b""

    def test_tear_is_strict_prefix(self):
        plan = FaultPlan(seed=5)
        uid = Uid.of(b"t")
        data = b"0123456789abcdef"
        torn = plan.tear(data, uid, 0)
        assert len(torn) < len(data)
        assert data.startswith(torn)

    def test_scoped_plans_decorrelate(self):
        """Replicas must not fail in lockstep: scoping re-derives the seed."""
        plan = FaultPlan(seed=17, transient_error_rate=0.5)
        uid = Uid.of(b"w")
        draws_a = [plan.scoped("node-a").draw("op", uid, i) for i in range(32)]
        draws_b = [plan.scoped("node-b").draw("op", uid, i) for i in range(32)]
        assert draws_a != draws_b
        assert draws_a == [plan.scoped("node-a").draw("op", uid, i) for i in range(32)]
        assert plan.scoped("node-a").transient_error_rate == 0.5

    def test_rng_streams_are_stable_and_named(self):
        plan = FaultPlan(seed=11)
        assert plan.rng("flaps").random() == plan.rng("flaps").random()
        assert plan.rng("flaps").random() != plan.rng("other").random()

    def test_flap_schedule_deterministic(self):
        plan = FaultPlan(seed=13)
        nodes = ["n0", "n1", "n2"]
        schedule = plan.flap_schedule(nodes, flaps=4, horizon=1000)
        assert schedule == plan.flap_schedule(nodes, flaps=4, horizon=1000)
        assert len(schedule) == 4
        assert all(0 <= op < 1000 and name in nodes and down >= 1
                   for op, name, down in schedule)
        assert schedule == sorted(schedule)


class TestFaultyStore:
    def test_no_faults_is_transparent(self):
        store = FaultyStore(InMemoryStore(), FaultPlan(seed=1))
        chunks = [_chunk(i) for i in range(50)]
        store.put_many(chunks)
        for chunk in chunks:
            got = store.get(chunk.uid)
            assert got.data == chunk.data and got.is_valid()

    def test_corrupt_reads_injected_at_roughly_the_rate(self):
        store = FaultyStore(InMemoryStore(), FaultPlan(seed=2, corrupt_read_rate=0.2))
        chunks = [_chunk(i) for i in range(200)]
        store.put_many(chunks)
        bad = sum(1 for c in chunks if not store.get(c.uid).is_valid())
        assert bad == store.injected_corrupt_reads
        assert 15 <= bad <= 90  # ~40 expected

    def test_corrupt_read_keeps_claimed_uid(self):
        store = FaultyStore(InMemoryStore(), FaultPlan(seed=4, corrupt_read_rate=1.0))
        chunk = _chunk(0)
        store.put(chunk)
        got = store.get(chunk.uid)
        assert got.uid == chunk.uid and not got.is_valid()

    def test_dropped_puts_never_materialize(self):
        store = FaultyStore(InMemoryStore(), FaultPlan(seed=5, drop_put_rate=1.0))
        chunk = _chunk(1)
        store.put(chunk)  # acked...
        assert store.injected_dropped_puts == 1
        assert store.get_maybe(chunk.uid) is None  # ...but lost

    def test_torn_puts_materialize_rot(self):
        store = FaultyStore(InMemoryStore(), FaultPlan(seed=6, torn_put_rate=1.0))
        chunk = _chunk(2)
        store.put(chunk)
        got = store.get_maybe(chunk.uid)
        assert got is not None and not got.is_valid()
        assert len(got.data) < len(chunk.data)

    def test_transient_errors_raise_and_redraw(self):
        store = FaultyStore(
            InMemoryStore(), FaultPlan(seed=7, transient_error_rate=0.5)
        )
        chunks = [_chunk(i) for i in range(100)]
        failures = 0
        for chunk in chunks:
            try:
                store.put(chunk)
            except TransientStoreError:
                failures += 1
        assert failures == store.injected_transient_errors
        assert failures > 10

    def test_replay_is_exact(self):
        """Two stores driven by the same plan fail identically."""
        def run():
            store = FaultyStore(
                InMemoryStore(),
                FaultPlan(seed=9, corrupt_read_rate=0.3, drop_put_rate=0.2,
                          torn_put_rate=0.1, transient_error_rate=0.1),
            )
            log = []
            for i in range(120):
                chunk = _chunk(i)
                try:
                    store.put(chunk)
                except TransientStoreError:
                    log.append(("put-fail", i))
            for i in range(120):
                chunk = _chunk(i)
                try:
                    got = store.get_maybe(chunk.uid)
                except TransientStoreError:
                    log.append(("get-fail", i))
                    continue
                if got is None:
                    log.append(("miss", i))
                elif not got.is_valid():
                    log.append(("rot", i, got.data))
            return log

        first, second = run(), run()
        assert first == second and len(first) > 0


class TestRetryPolicy:
    def test_retries_transient_until_success(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise TransientStoreError("flap")
            return "ok"

        assert RetryPolicy.instant(attempts=4).call(flaky) == "ok"
        assert len(calls) == 3

    def test_reraises_last_error_when_exhausted(self):
        policy = RetryPolicy.instant(attempts=3)
        calls = []

        def always_down():
            calls.append(1)
            raise NodeDownError("still down")

        with pytest.raises(NodeDownError):
            policy.call(always_down)
        assert len(calls) == 3
        assert policy.retries == 2

    def test_non_transient_errors_pass_through(self):
        calls = []

        def broken():
            calls.append(1)
            raise ValueError("not transient")

        with pytest.raises(ValueError):
            RetryPolicy.instant().call(broken)
        assert len(calls) == 1

    def test_backoff_delays_grow_and_cap(self):
        policy = RetryPolicy(attempts=6, base_delay=0.01, multiplier=2.0,
                             max_delay=0.05, jitter=0.0, sleep=lambda _s: None)
        delays = list(policy.delays())
        assert delays == [0.01, 0.02, 0.04, 0.05, 0.05]

    def test_sleep_is_injectable(self):
        slept = []
        policy = RetryPolicy(attempts=3, base_delay=0.1, jitter=0.0,
                             sleep=slept.append)

        def once():
            if not slept:
                raise TransientStoreError("one flap")
            return 42

        assert policy.call(once) == 42
        assert slept == [0.1]

    @pytest.mark.parametrize("failures", range(RETRY_ATTEMPTS + 1))
    def test_k_failures_cost_k_jittered_sleeps(self, failures):
        check_k_failures(failures)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.1)

    def test_jitter_is_deterministic_per_seed(self):
        a = RetryPolicy(attempts=6, base_delay=0.01, seed=7, sleep=lambda _s: None)
        b = RetryPolicy(attempts=6, base_delay=0.01, seed=7, sleep=lambda _s: None)
        assert list(a.delays()) == list(b.delays())

    def test_jitter_decorrelates_seeds(self):
        a = RetryPolicy(attempts=6, base_delay=0.01, seed=1, sleep=lambda _s: None)
        b = RetryPolicy(attempts=6, base_delay=0.01, seed=2, sleep=lambda _s: None)
        assert list(a.delays()) != list(b.delays())

    def test_jitter_stays_within_bounds(self):
        policy = RetryPolicy(attempts=8, base_delay=0.01, multiplier=2.0,
                             max_delay=0.05, jitter=0.25, seed=3,
                             sleep=lambda _s: None)
        bare = RetryPolicy(attempts=8, base_delay=0.01, multiplier=2.0,
                           max_delay=0.05, jitter=0.0, sleep=lambda _s: None)
        for jittered, exact in zip(policy.delays(), bare.delays()):
            # Jitter only derates: never above the exact schedule, never
            # below (1 - jitter) of it.
            assert exact * (1 - 0.25) <= jittered <= exact

    def test_with_retry_threads_seed_through(self):
        slept_a, slept_b = [], []

        def fail_then_ok(log):
            def fn():
                if not log:
                    raise TransientStoreError("flap")
                return "ok"
            return fn

        base = RetryPolicy(attempts=2, base_delay=0.05)
        policy_a = dataclasses.replace(base, sleep=slept_a.append, seed=10)
        policy_b = dataclasses.replace(base, sleep=slept_b.append, seed=11)
        assert policy_a.call(fail_then_ok(slept_a)) == "ok"
        assert policy_b.call(fail_then_ok(slept_b)) == "ok"
        # Both retried exactly once, but on decorrelated schedules.
        assert len(slept_a) == len(slept_b) == 1
        assert slept_a != slept_b
