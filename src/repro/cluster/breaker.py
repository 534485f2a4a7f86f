"""Per-(origin, node) circuit breakers for the simulated cluster.

The failure detector answers "is the node *dead*?"; the breaker answers
the gray-failure question it cannot: "should *I* keep sending to it
right now?".  A node that times out or blows the caller's deadline
:data:`THRESHOLD` times in a row trips the breaker OPEN — reads and
writes route around it without burning retry budget — and after
:data:`COOLDOWN` ticks the breaker goes HALF_OPEN, letting exactly one
probe attempt through.  Success snaps it CLOSED (mirroring the
membership layer's one-good-probe snap-back); failure re-opens it for
another cooldown.

Breakers are per-``(origin, node)`` for the same reason suspicion is
per-observer: a link can be gray in one direction only, and each client
must act on its own evidence.  Time is the transport tick, read through
the ``now`` callable the cluster passes in — cooldowns elapse in ticks,
never wall seconds (FB-DETERM).
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

#: Breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

#: Consecutive failed attempts that trip a CLOSED breaker OPEN.
THRESHOLD = 5
#: Ticks an OPEN breaker waits before admitting its HALF_OPEN probe.
COOLDOWN = 64


class CircuitBreaker:
    """One breaker: CLOSED -> OPEN after :data:`THRESHOLD` consecutive
    failures -> HALF_OPEN probe.

    ``record(ok)`` feeds outcomes; :meth:`begin_attempt` gates sends.
    While OPEN, attempts are refused until :data:`COOLDOWN` ticks have
    elapsed since the trip, after which one caller is admitted as the
    HALF_OPEN probe.  Failures while OPEN or HALF_OPEN restart the
    cooldown — a still-gray node keeps the circuit open without needing
    fresh strikes.
    """

    __slots__ = (
        "now",
        "state",
        "consecutive_failures",
        "opened_at",
        "opens",
        "probes",
        "snap_backs",
    )

    def __init__(self, now: Callable[[], int]) -> None:
        self.now = now
        self.state = CLOSED
        self.consecutive_failures = 0
        self.opened_at = 0
        self.opens = 0
        self.probes = 0
        self.snap_backs = 0

    def begin_attempt(self) -> bool:
        """May the caller send now?  May transition OPEN -> HALF_OPEN."""
        if self.state == OPEN:
            if self.now() - self.opened_at >= COOLDOWN:
                self.state = HALF_OPEN
                self.probes += 1
                return True
            return False
        return True

    def record(self, ok: bool) -> None:
        """Feed one attempt outcome (timeout/deadline-miss counts as not ok)."""
        if ok:
            if self.state != CLOSED:
                self.snap_backs += 1
            self.state = CLOSED
            self.consecutive_failures = 0
            return
        self.consecutive_failures += 1
        if self.state == CLOSED:
            if self.consecutive_failures >= THRESHOLD:
                self.state = OPEN
                self.opened_at = self.now()
                self.opens += 1
        else:
            # OPEN or HALF_OPEN: a failed probe restarts the cooldown.
            self.state = OPEN
            self.opened_at = self.now()

    def snapshot(self) -> Dict[str, object]:
        """JSON-able state for health reports."""
        return {
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "opens": self.opens,
            "probes": self.probes,
            "snap_backs": self.snap_backs,
        }

    def __repr__(self) -> str:
        return f"CircuitBreaker(state={self.state}, opens={self.opens})"


class BreakerBoard:
    """All of one cluster's breakers, keyed ``(origin, node)``, on one
    ``now`` clock.

    Breakers materialise lazily on first use — an origin that never
    talks to a node carries no state for it.
    """

    def __init__(self, now: Callable[[], int]) -> None:
        self.now = now
        self._breakers: Dict[Tuple[str, str], CircuitBreaker] = {}

    def _breaker(self, origin: str, node: str) -> CircuitBreaker:
        key = (origin, node)
        breaker = self._breakers.get(key)
        if breaker is None:
            breaker = CircuitBreaker(self.now)
            self._breakers[key] = breaker
        return breaker

    def begin_attempt(self, origin: str, node: str) -> bool:
        """Gate one send from ``origin`` to ``node``."""
        return self._breaker(origin, node).begin_attempt()

    def record(self, origin: str, node: str, ok: bool) -> None:
        """Feed one outcome."""
        self._breaker(origin, node).record(ok)

    def state(self, origin: str, node: str) -> str:
        """Current state for a pair (CLOSED if never used)."""
        breaker = self._breakers.get((origin, node))
        return breaker.state if breaker is not None else CLOSED

    def open_for(self, origin: str) -> list:
        """Nodes whose breaker from ``origin`` is not CLOSED, sorted."""
        return sorted(
            node
            for (who, node), breaker in self._breakers.items()
            if who == origin and breaker.state != CLOSED
        )

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-able map of every materialised breaker, keyed ``origin->node``."""
        return {
            f"{origin}->{node}": breaker.snapshot()
            for (origin, node), breaker in sorted(self._breakers.items())
        }

    def __repr__(self) -> str:
        tripped = sum(1 for b in self._breakers.values() if b.state != CLOSED)
        return f"BreakerBoard(breakers={len(self._breakers)}, tripped={tripped})"
