"""Unit tests for the gray-failure building blocks.

:class:`~repro.cluster.latency.LatencyStats` /
:class:`~repro.cluster.latency.LatencyTracker` (EWMA + windowed
quantiles over transport ticks),
:class:`~repro.cluster.latency.Deadline` (tick budgets), the
:class:`~repro.cluster.breaker.CircuitBreaker` state machine, and the
deadline-aware :meth:`~repro.faults.retry.RetryPolicy.call`.
"""

import pytest

from repro.cluster import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerBoard,
    CircuitBreaker,
    Deadline,
    LatencyStats,
    LatencyTracker,
)
from repro.cluster.breaker import COOLDOWN, THRESHOLD
from repro.cluster.latency import WINDOW
from repro.errors import DeadlineExceededError, TransientError, TransientStoreError
from repro.faults import PartitionedTransport, RetryPolicy
from tests.conftest import RETRY_ATTEMPTS, check_k_failures


class TestLatencyStats:
    def test_ewma_initialises_to_first_sample(self):
        stats = LatencyStats()
        stats.observe(10)
        assert stats.ewma == 10.0
        stats.observe(20)
        assert stats.ewma == 12.0  # ALPHA = 0.2 of the step

    def test_quantiles_over_window(self):
        stats = LatencyStats()
        for ticks in range(1, WINDOW + 1):
            stats.observe(ticks)
        assert stats.quantile(0.0) == 1
        assert stats.quantile(0.5) == WINDOW // 2 + 1
        assert stats.quantile(0.95) == int(0.95 * WINDOW) + 1
        assert stats.quantile(1.0) == WINDOW

    def test_window_evicts_oldest(self):
        stats = LatencyStats()
        for ticks in [100] * WINDOW + [1] * WINDOW:
            stats.observe(ticks)
        assert stats.quantile(1.0) == 1  # the 100s have been pushed out
        assert stats.count == 2 * WINDOW  # but the lifetime count remembers them

    def test_empty_quantile_is_none(self):
        assert LatencyStats().quantile(0.95) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            LatencyStats().observe(-1)
        with pytest.raises(ValueError):
            LatencyStats().quantile(1.5)

    def test_snapshot_is_jsonable(self):
        stats = LatencyStats()
        stats.observe(3)
        snap = stats.snapshot()
        assert snap["count"] == 1 and snap["p95"] == 3

    def test_deterministic_replay(self):
        def run():
            stats = LatencyStats()
            for ticks in [5, 80, 2, 2, 41, 3, 3, 99, 1]:
                stats.observe(ticks)
            return (stats.ewma, stats.quantile(0.5), stats.quantile(0.99))

        assert run() == run()


class TestLatencyTracker:
    def test_streams_are_independent(self):
        tracker = LatencyTracker()
        tracker.observe("a", "node-00", "get", 5)
        tracker.observe("a", "node-01", "get", 50)
        assert tracker.ewma("a", "node-00", "get") == 5.0
        assert tracker.ewma("a", "node-01", "get") == 50.0
        assert tracker.ewma("b", "node-00", "get") is None
        assert tracker.samples("a", "node-00", "get") == 1

    def test_hedge_threshold_needs_min_samples(self):
        tracker = LatencyTracker()
        for _ in range(7):
            tracker.observe("a", "n", "get", 2)
        assert tracker.hedge_threshold("a", "n", "get", min_samples=8) is None
        tracker.observe("a", "n", "get", 2)
        assert tracker.hedge_threshold("a", "n", "get", min_samples=8) == 2

    def test_snapshot_keys(self):
        tracker = LatencyTracker()
        tracker.observe("a", "n", "get", 1)
        assert "a->n:get" in tracker.snapshot()


def _transport_clock():
    """A fault-free transport, the cluster's one clock, and its ``now``."""
    transport = PartitionedTransport()
    return transport, lambda: transport.clock


class TestDeadline:
    def test_budget_elapses_on_the_clock(self):
        transport, now = _transport_clock()
        deadline = Deadline(10, now)
        assert deadline.remaining() == 10 and not deadline.expired()
        transport.tick(4)
        assert deadline.remaining() == 6 and deadline.elapsed() == 4
        transport.tick(100)
        assert deadline.remaining() == 0 and deadline.expired()

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            Deadline(0, _transport_clock()[1])


class TestCircuitBreaker:
    def _trip(self, breaker):
        for _ in range(THRESHOLD):
            breaker.record(ok=False)

    def test_opens_after_consecutive_failures(self):
        breaker = CircuitBreaker(_transport_clock()[1])
        for _ in range(THRESHOLD - 1):
            breaker.record(ok=False)
        assert breaker.state == CLOSED
        breaker.record(ok=False)
        assert breaker.state == OPEN and breaker.opens == 1

    def test_success_resets_the_strike_count(self):
        breaker = CircuitBreaker(_transport_clock()[1])
        for _ in range(THRESHOLD - 1):
            breaker.record(ok=False)
        breaker.record(ok=True)
        for _ in range(THRESHOLD - 1):
            breaker.record(ok=False)
        assert breaker.state == CLOSED

    def test_half_open_probe_after_cooldown(self):
        transport, now = _transport_clock()
        breaker = CircuitBreaker(now)
        self._trip(breaker)
        transport.tick(COOLDOWN - 1)
        assert not breaker.begin_attempt()  # still cooling down
        transport.tick()
        assert breaker.begin_attempt()  # the half-open probe
        assert breaker.state == HALF_OPEN and breaker.probes == 1

    def test_probe_success_snaps_closed(self):
        transport, now = _transport_clock()
        breaker = CircuitBreaker(now)
        self._trip(breaker)
        transport.tick(COOLDOWN)
        assert breaker.begin_attempt()
        breaker.record(ok=True)
        assert breaker.state == CLOSED and breaker.snap_backs == 1

    def test_probe_failure_restarts_cooldown(self):
        transport, now = _transport_clock()
        breaker = CircuitBreaker(now)
        self._trip(breaker)
        transport.tick(COOLDOWN)
        assert breaker.begin_attempt()
        breaker.record(ok=False)
        assert breaker.state == OPEN
        assert not breaker.begin_attempt()
        transport.tick(COOLDOWN)
        assert breaker.begin_attempt()


class TestBreakerBoard:
    def test_breakers_are_per_origin(self):
        board = BreakerBoard(_transport_clock()[1])
        for _ in range(THRESHOLD):
            board.record("a", "n", ok=False)
        assert not board.begin_attempt("a", "n")
        assert board.begin_attempt("b", "n")  # b has its own evidence
        assert board.open_for("a") == ["n"]
        assert board.open_for("b") == []
        assert board.snapshot()["a->n"]["state"] == OPEN


class TestRetryDeadline:
    def _flaky(self, failures):
        state = {"left": failures, "calls": 0}

        def fn():
            state["calls"] += 1
            if state["left"] > 0:
                state["left"] -= 1
                raise TransientStoreError("flaky")
            return "ok"

        return fn, state

    def test_no_deadline_is_the_seed_behaviour(self):
        policy = RetryPolicy.instant(attempts=4)
        fn, state = self._flaky(3)
        assert policy.call(fn) == "ok"
        assert state["calls"] == 4 and policy.deadline_stops == 0

    def test_spent_budget_stops_before_first_attempt(self):
        transport, now = _transport_clock()
        deadline = Deadline(5, now)
        transport.tick(5)
        policy = RetryPolicy.instant(attempts=4)
        fn, state = self._flaky(0)
        with pytest.raises(DeadlineExceededError):
            policy.call(fn, deadline=deadline)
        assert state["calls"] == 0 and policy.deadline_stops == 1

    def test_stops_when_budget_cannot_cover_another_attempt(self):
        transport, now = _transport_clock()
        deadline = Deadline(10, now)
        policy = RetryPolicy.instant(attempts=4)

        def fn():
            transport.tick(4)  # each attempt costs 4 of the 10 ticks
            raise TransientStoreError("slow and failing")

        with pytest.raises(DeadlineExceededError) as excinfo:
            policy.call(fn, deadline=deadline)
        # Attempt 1: 6 left covers another 4-tick try -> retry.
        # Attempt 2: 2 left cannot cover 4 -> deadline stop.
        assert policy.retries == 1 and policy.deadline_stops == 1
        assert isinstance(excinfo.value.__cause__, TransientError)

    def test_deadline_error_is_transient_but_not_self_retried(self):
        """DeadlineExceededError sits in the transient taxonomy (a fresh
        budget may succeed) yet the policy raises it instead of chewing
        the remaining attempts on a budget that is already gone."""
        assert issubclass(DeadlineExceededError, TransientError)
        transport, now = _transport_clock()
        deadline = Deadline(2, now)
        policy = RetryPolicy.instant(attempts=4)

        def fn():
            transport.tick(2)
            raise TransientStoreError("boom")

        with pytest.raises(DeadlineExceededError):
            policy.call(fn, deadline=deadline)
        assert policy.retries == 0

    @pytest.mark.parametrize("failures", range(RETRY_ATTEMPTS + 1))
    def test_k_failures_within_the_budget_match_the_seed_behaviour(self, failures):
        """A budget every attempt fits in changes nothing."""
        transport, now = _transport_clock()
        check_k_failures(failures, Deadline(100, now), lambda: transport.tick(3))
