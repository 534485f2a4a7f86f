"""Latency tracking and deadline budgets for the simulated cluster.

Gray failure — a replica that is up, answering probes, and ~100x slow —
is invisible to the phi-style failure detector in
:mod:`repro.cluster.membership`: heartbeats *succeed*, just slowly.  The
defenses against it (hedged reads, deadline propagation, circuit
breakers; Dean & Barroso, "The Tail at Scale") all need one ingredient
the cluster did not have: a memory of how long each peer usually takes.

:class:`LatencyTracker` is that memory.  It keeps, per ``(origin, node,
op)``, an EWMA plus a streaming quantile over a bounded window of
observed service ticks, and derives the hedging threshold ("this read
has taken longer than the primary's p95 — fire the hedge").  The ticks
are the transport's: the cluster measures every exchange as the
difference of two ``transport.clock`` readings, its one clock and its
one latency model — never the wall clock (FB-DETERM), so two replays of
the same workload track identical latencies and hedge at identical
moments.

:class:`Deadline` is the budget half: a fixed number of ticks granted to
one client verb, measured on a ``now`` callable (the cluster passes the
transport's clock), threaded through ``ClusterStore`` sends and into
``RetryPolicy.call(deadline=)`` so no layer keeps retrying past the
point where the caller has already given up.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import DeadlineExceededError

#: Key identifying one latency stream: (observing origin, peer node, op).
StreamKey = Tuple[str, str, str]

#: EWMA smoothing factor: the weight of the newest observation.
ALPHA = 0.2

#: Observations a stream keeps for its quantiles (the newest ones).
WINDOW = 128


class LatencyStats:
    """EWMA + bounded-window quantiles for one stream of service ticks.

    The EWMA answers "what does this peer cost *lately*" (it forgets an
    old gray episode once the node recovers); the ring window answers
    "what is the p95" without storing unbounded history.  Both are exact
    functions of the observation sequence — no clocks, no randomness —
    so they replay bit-identically (FB-DETERM).
    """

    __slots__ = ("count", "ewma", "_ring", "_next", "_sorted")

    def __init__(self) -> None:
        self.count = 0
        self.ewma = 0.0
        self._ring: List[int] = []
        self._next = 0
        #: The ring's values in order, kept beside it: a quantile is an index.
        self._sorted: List[int] = []

    def observe(self, ticks: int) -> None:
        """Fold one observed service duration into the stream."""
        if ticks < 0:
            raise ValueError("service ticks must be >= 0")
        if self.count == 0:
            self.ewma = float(ticks)
        else:
            self.ewma += ALPHA * (ticks - self.ewma)
        self.count += 1
        if len(self._ring) < WINDOW:
            self._ring.append(ticks)
        else:
            del self._sorted[bisect_left(self._sorted, self._ring[self._next])]
            self._ring[self._next] = ticks
            self._next = (self._next + 1) % WINDOW
        insort(self._sorted, ticks)

    def quantile(self, q: float) -> Optional[int]:
        """The ``q`` quantile over the retained window (None when empty).

        Nearest-rank over the window, which :meth:`observe` keeps sorted:
        one index per call, the hedging decision every read makes.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        ordered = self._sorted
        if not ordered:
            return None
        rank = min(len(ordered) - 1, max(0, int(q * len(ordered))))
        return ordered[rank]

    def snapshot(self) -> Dict[str, object]:
        """JSON-able summary for health reports and benches."""
        return {
            "count": self.count,
            "ewma": round(self.ewma, 3),
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def __repr__(self) -> str:
        return f"LatencyStats(count={self.count}, ewma={self.ewma:.1f})"


class LatencyTracker:
    """Per-``(origin, node, op)`` service-time statistics for one cluster.

    The split by *origin* mirrors the per-observer failure detectors: a
    node can be slow from one side of a degraded link and fast from the
    other, and each observer must hedge on its own evidence.  Callers
    feed it elapsed transport ticks, never wall time.
    """

    def __init__(self) -> None:
        self._streams: Dict[StreamKey, LatencyStats] = {}
        #: Total observations folded in (diagnostic).
        self.observations = 0

    def _stream(self, origin: str, node: str, op: str) -> LatencyStats:
        key = (origin, node, op)
        stats = self._streams.get(key)
        if stats is None:
            stats = LatencyStats()
            self._streams[key] = stats
        return stats

    def observe(self, origin: str, node: str, op: str, ticks: int) -> None:
        """Record that ``op`` against ``node``, seen from ``origin``, took ``ticks``."""
        self._stream(origin, node, op).observe(ticks)
        self.observations += 1

    def ewma(self, origin: str, node: str, op: str) -> Optional[float]:
        """Smoothed service ticks for a stream, or None before any data."""
        stats = self._streams.get((origin, node, op))
        if stats is None or stats.count == 0:
            return None
        return stats.ewma

    def quantile(self, origin: str, node: str, op: str, q: float) -> Optional[int]:
        """Windowed quantile for a stream, or None before any data."""
        stats = self._streams.get((origin, node, op))
        if stats is None:
            return None
        return stats.quantile(q)

    def samples(self, origin: str, node: str, op: str) -> int:
        """How many observations a stream has absorbed (0 if never seen)."""
        stats = self._streams.get((origin, node, op))
        return stats.count if stats is not None else 0

    def hedge_threshold(
        self,
        origin: str,
        node: str,
        op: str,
        q: float = 0.95,
        min_samples: int = 8,
    ) -> Optional[int]:
        """Ticks to wait on ``node`` before hedging, or None to not hedge.

        None until ``min_samples`` observations exist: hedging off a
        two-sample "p95" would fire on noise and double load exactly
        when the system knows least.  The Tail-at-Scale rule of thumb —
        hedge after the p95, bounding extra load near 5% — is the
        default.
        """
        if self.samples(origin, node, op) < min_samples:
            return None
        return self.quantile(origin, node, op, q)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-able map of every stream, keyed ``origin->node:op``."""
        return {
            f"{origin}->{node}:{op}": stats.snapshot()
            for (origin, node, op), stats in sorted(self._streams.items())
        }

    def __repr__(self) -> str:
        return (
            f"LatencyTracker(streams={len(self._streams)}, "
            f"observations={self.observations})"
        )


class Deadline:
    """A fixed tick budget for one client verb, measured on a ``now`` clock.

    Created when the verb starts; every layer below (replica selection,
    transport sends, retry loops) asks :meth:`remaining` and stops work
    — raising :class:`~repro.errors.DeadlineExceededError` at the
    cluster layer — once the budget is spent.  Propagating the *one*
    budget downward is what prevents the classic pathology where each
    layer retries within its own generous timeout and the user-visible
    call blocks for the product of them all.
    """

    __slots__ = ("budget", "_now", "_start")

    def __init__(self, budget: int, now: Callable[[], int]) -> None:
        if budget < 1:
            raise ValueError("deadline budget must be >= 1 tick")
        self.budget = budget
        self._now = now
        self._start = now()

    def elapsed(self) -> int:
        """Ticks consumed since the verb started."""
        return max(0, self._now() - self._start)

    def remaining(self) -> int:
        """Ticks left in the budget (never negative)."""
        return max(0, self.budget - self.elapsed())

    def expired(self) -> bool:
        """True once the budget is fully spent."""
        return self.remaining() <= 0

    def exceeded(self, what: str) -> DeadlineExceededError:
        """The error the owning verb raises when ``what`` outran the budget."""
        return DeadlineExceededError(
            f"{what} ran out of its {self.budget}-tick budget",
            budget=self.budget,
            elapsed=self.elapsed(),
        )

    def __repr__(self) -> str:
        return f"Deadline(budget={self.budget}, remaining={self.remaining()})"
