"""Deterministic network fault model: partitions, loss, delay, duplication.

The cluster layer simulates distribution in-process, so the "network"
between a client and a storage node (or between two nodes) is just a
function call.  :class:`PartitionedTransport` turns that call into a
message send that can fail the way real networks fail — partitioned,
dropped, delayed past the sender's deadline, or duplicated — with every
fault drawn from a :class:`NetworkPlan` by hashing ``(seed, fault kind,
src, dst, op kind, uid, attempt)``: the same discipline as
:class:`~repro.faults.plan.FaultPlan`, so a workload replayed against the
same plan sees byte-identical network weather.

Time is a logical tick counter (every send is a tick; tests may also call
:meth:`PartitionedTransport.tick`), never the wall clock: delayed messages
are queued with a due tick and pumped deterministically, which keeps the
whole model FB-DETERM-clean and replayable.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple, TypeVar

from repro.chunk import Uid
from repro.errors import (
    ForkBaseError,
    MessageDroppedError,
    NetworkPartitionedError,
    NetworkTimeoutError,
)
from repro.faults import kernel
from repro.faults.kernel import Attempts

T = TypeVar("T")

#: A partition layout: each endpoint name maps to the index of its side.
Groups = Tuple[FrozenSet[str], ...]


@dataclass(frozen=True)
class NetworkPlan:
    """Fault rates for the simulated network, reproducible from a seed.

    Rates are independent probabilities per message attempt:

    - ``drop_rate`` — the message vanishes; the sender gets a timeout.
    - ``delay_rate`` — the message is delivered late (after a tick count
      drawn from ``delay_ticks``); the sender still times out, so the
      effect is a *stale* delivery racing the sender's retry.
    - ``dup_rate`` — the message is applied twice (retransmission after a
      lost ack).  Content-addressed puts make duplication harmless; the
      counter proves it happened.
    """

    seed: int = 0
    drop_rate: float = 0.0
    delay_rate: float = 0.0
    dup_rate: float = 0.0
    delay_ticks: Tuple[int, int] = (1, 8)
    #: Range of per-endpoint slowdown factors :meth:`slow_schedule` draws
    #: from (graded slowness — the gray-failure dimension).
    slow_factors: Tuple[int, int] = (8, 128)

    def __post_init__(self) -> None:
        kernel.check_rates(self)
        for name in ("delay_ticks", "slow_factors"):
            low, high = span = getattr(self, name)
            if not 1 <= low <= high:
                raise ValueError(f"{name} must satisfy 1 <= low <= high, got {span}")

    # -- deterministic draws: (seed, fault, src -> dst, op, uid, attempt) ------

    def _at(self, fault: str, src: str, dst: str, op: str, uid: Uid, attempt: int) -> tuple:
        return (self.seed, fault, src, "->", dst, op, uid, attempt)

    def draw(self, fault: str, src: str, dst: str, op: str, uid: Uid, attempt: int) -> float:
        """Uniform value in ``[0, 1)`` for one message event."""
        return kernel.unit(*self._at(fault, src, dst, op, uid, attempt))

    def drop(self, src: str, dst: str, op: str, uid: Uid, attempt: int) -> bool:
        """Should this message be silently lost?"""
        return kernel.chance(self.drop_rate, *self._at("drop", src, dst, op, uid, attempt))

    def delay(self, src: str, dst: str, op: str, uid: Uid, attempt: int) -> bool:
        """Should this message arrive after the sender's deadline?"""
        return kernel.chance(self.delay_rate, *self._at("delay", src, dst, op, uid, attempt))

    def duplicate(self, src: str, dst: str, op: str, uid: Uid, attempt: int) -> bool:
        """Should this message be applied twice?"""
        return kernel.chance(self.dup_rate, *self._at("dup", src, dst, op, uid, attempt))

    def delay_for(self, src: str, dst: str, op: str, uid: Uid, attempt: int) -> int:
        """How many ticks a delayed message stays in flight."""
        low, high = self.delay_ticks
        at = self._at("delay-ticks", src, dst, op, uid, attempt)
        return low + kernel.pick(*at, n=high - low + 1)

    def service_ticks(
        self, src: str, dst: str, op: str, uid: Uid, attempt: int, factor: int
    ) -> int:
        """Service time, in ticks, for one message on a slowed link.

        A gray-failed endpoint does not fail messages — it *serves* them,
        roughly ``factor`` times slower than the healthy 1-tick baseline,
        with a deterministic jitter of up to +25% drawn at the same
        coordinates as every other network fault, so slow schedules
        replay bit-identically.
        """
        if factor <= 1:
            return 1
        at = self._at("slow-service", src, dst, op, uid, attempt)
        return factor + kernel.pick(*at, n=max(1, factor // 4))

    def scoped(self, label: str) -> "NetworkPlan":
        """Same rates, seed re-derived from ``label`` (per-link decorrelation)."""
        return dataclasses.replace(
            self, seed=kernel.derive_seed(self.seed, "net-scope:", label)
        )

    # -- schedule generation -------------------------------------------------

    def rng(self, label: str) -> random.Random:
        """A named RNG stream derived from the seed (schedule shaping)."""
        return kernel.rng(self.seed, "net-rng:", label)

    def _alternating(
        self, label: str, events: int, horizon: int, strike: Callable[[random.Random], T]
    ) -> List[Tuple[int, Optional[T]]]:
        """``events`` op indexes scattered over ``[0, horizon)``, sorted;
        each one strikes, or — half the time when a strike is already in
        force — clears it (``None``)."""
        rng = self.rng(label)
        schedule: List[Tuple[int, Optional[T]]] = []
        active = False
        for at in sorted(rng.randrange(horizon) for _ in range(events)):
            active = not (active and rng.random() < 0.5)
            schedule.append((at, strike(rng) if active else None))
        return schedule

    def partition_schedule(
        self,
        endpoints: Iterable[str],
        events: int,
        horizon: int,
    ) -> List[Tuple[int, Optional[Groups]]]:
        """Deterministic partition/heal events: ``(op_index, groups | None)``.

        ``None`` means heal; otherwise the endpoints are split into two
        non-empty sides.  Events are sorted by op index, alternate between
        split and heal (a split while split re-partitions), and the same
        ``(seed, endpoints, events, horizon)`` always yields the same
        schedule.
        """
        names = sorted(endpoints)
        if len(names) < 2 or events < 1 or horizon < 1:
            return []

        def split(rng: random.Random) -> Groups:
            cut = rng.randint(1, len(names) - 1)
            members = list(names)
            rng.shuffle(members)
            return (frozenset(members[:cut]), frozenset(members[cut:]))

        return self._alternating("partitions", events, horizon, split)

    def slow_schedule(
        self,
        endpoints: Iterable[str],
        events: int,
        horizon: int,
    ) -> List[Tuple[int, Optional[Dict[str, int]]]]:
        """Deterministic gray-failure events: ``(op_index, factors | None)``.

        ``None`` means every endpoint recovers to full speed; otherwise the
        dict maps one victim endpoint to its slowdown factor (drawn from
        ``slow_factors``).  Same ordering and alternation discipline as
        :meth:`partition_schedule`.
        """
        names = sorted(endpoints)
        if not names or events < 1 or horizon < 1:
            return []
        low, high = self.slow_factors
        return self._alternating(
            "slowness",
            events,
            horizon,
            lambda rng: {names[rng.randrange(len(names))]: rng.randint(low, high)},
        )


class PartitionedTransport:
    """The message layer between named cluster endpoints.

    Endpoints are plain strings — node names plus any number of client
    names.  A partition assigns endpoints to sides; endpoints never named
    in a partition call default to side 0 (they stay with the first
    group).  ``heal()`` reconnects everyone; messages that were delayed
    in flight still deliver on later ticks, which is exactly the stale
    packet a healed network replays.
    """

    def __init__(self, plan: Optional[NetworkPlan] = None) -> None:
        self.plan = plan if plan is not None else NetworkPlan()
        #: Logical time: advanced once per send and per explicit tick.
        self.clock = 0
        self._sides: Dict[str, int] = {}
        #: Graded slowness: endpoint name -> slowdown factor (>1).  A slow
        #: endpoint *serves* every message, just late — the gray failure a
        #: liveness probe cannot see.
        self._slow: Dict[str, int] = {}
        self._attempts = Attempts()
        #: Delayed deliveries: (due tick, sequence number, thunk).
        self._in_flight: List[Tuple[int, int, Callable[[], object]]] = []
        self._sequence = 0
        self.partitions = 0
        self.heals = 0
        self.messages_sent = 0
        self.messages_dropped = 0
        self.messages_delayed = 0
        self.messages_duplicated = 0
        self.partition_rejections = 0
        #: Delayed deliveries whose late execution failed (dead host etc.).
        self.late_failures = 0
        self.slow_events = 0
        self.slow_recoveries = 0
        #: Messages serviced on a slowed link, and the extra ticks burned.
        self.slow_services = 0
        self.slow_ticks = 0
        #: Sends abandoned at the caller's ``timeout_ticks`` while the slow
        #: service was still in progress (delivered late, like a delay).
        self.timeout_abandons = 0

    # -- topology ------------------------------------------------------------

    def partition(self, *groups: Iterable[str]) -> None:
        """Split the network: endpoints in different groups cannot talk.

        Endpoints absent from every group implicitly join group 0.
        """
        if len(groups) < 2:
            raise ValueError("a partition needs at least two groups")
        sides: Dict[str, int] = {}
        for index, group in enumerate(groups):
            for name in group:
                if name in sides:
                    raise ValueError(f"endpoint {name!r} appears in two groups")
                sides[name] = index
        self._sides = sides
        self.partitions += 1

    def heal(self) -> None:
        """Reconnect every endpoint (in-flight delays still deliver late)."""
        self._sides = {}
        self.heals += 1

    @property
    def partitioned(self) -> bool:
        """True while a partition is in force."""
        return bool(self._sides)

    def slow(self, endpoint: str, factor: int) -> None:
        """Gray-fail an endpoint: every message it serves takes ~``factor``
        ticks instead of 1.  ``factor=1`` restores full speed."""
        if factor < 1:
            raise ValueError(f"slowdown factor must be >= 1, got {factor}")
        if factor == 1:
            self._slow.pop(endpoint, None)
        else:
            self._slow[endpoint] = factor
            self.slow_events += 1

    def recover(self, endpoint: Optional[str] = None) -> None:
        """Restore one endpoint (or, with no argument, every endpoint)."""
        if endpoint is None:
            if self._slow:
                self.slow_recoveries += 1
            self._slow.clear()
        elif self._slow.pop(endpoint, None) is not None:
            self.slow_recoveries += 1

    def slow_factor(self, endpoint: str) -> int:
        """Current slowdown factor for an endpoint (1 = healthy)."""
        return self._slow.get(endpoint, 1)

    def slowed(self) -> Dict[str, int]:
        """Currently slowed endpoints and their factors."""
        return dict(self._slow)

    def side_of(self, endpoint: str) -> int:
        """Which side of the current partition an endpoint sits on."""
        return self._sides.get(endpoint, 0)

    def reachable(self, src: str, dst: str) -> bool:
        """Can ``src`` currently exchange messages with ``dst``?"""
        return self.side_of(src) == self.side_of(dst)

    # -- message delivery ----------------------------------------------------

    def _pump(self) -> None:
        """Deliver every in-flight message whose due tick has passed."""
        if not self._in_flight:
            return
        due = [entry for entry in self._in_flight if entry[0] <= self.clock]
        if not due:
            return
        self._in_flight = [entry for entry in self._in_flight if entry[0] > self.clock]
        for _, _, thunk in sorted(due):
            try:
                thunk()
            except ForkBaseError:
                # A late packet hitting a dead or partitioned host: the
                # original sender timed out long ago, nobody is listening
                # for this failure — count it and move on.  Only taxonomy
                # failures are expected here; anything else (TypeError &
                # co.) is a harness bug and must propagate.
                self.late_failures += 1

    def tick(self, ticks: int = 1) -> None:
        """Advance logical time and deliver due in-flight messages."""
        for _ in range(ticks):
            self.clock += 1
            self._pump()

    def send(
        self,
        src: str,
        dst: str,
        op: str,
        uid: Uid,
        fn: Callable[[], T],
        timeout_ticks: Optional[int] = None,
    ) -> T:
        """One request/response exchange from ``src`` to ``dst``.

        Applies, in order: partition check, drop, delay (executes ``fn``
        on a later tick but raises a timeout now), graded slowness
        (service ticks charged to the logical clock), duplication (``fn``
        applied twice), then normal delivery.  All faults raise
        :class:`~repro.errors.TransientError` subtypes so the cluster's
        retry/hint machinery handles them like any flaky component.

        ``timeout_ticks`` is the sender's remaining patience (deadline
        propagation): when a slowed service would run past it, the sender
        waits exactly that long, gives up with a timeout, and the service
        still completes on its due tick as a stale late delivery — the
        client stopped waiting, the server never knew.
        """
        self.clock += 1
        self._pump()
        self.messages_sent += 1
        if not self.reachable(src, dst):
            self.partition_rejections += 1
            raise NetworkPartitionedError(
                f"{src} cannot reach {dst}: partition "
                f"(side {self.side_of(src)} vs {self.side_of(dst)})"
            )
        attempt = self._attempts.next(src, dst, op, uid)
        if self.plan.drop(src, dst, op, uid, attempt):
            self.messages_dropped += 1
            raise MessageDroppedError(f"{op} {src}->{dst} lost in transit")
        if self.plan.delay(src, dst, op, uid, attempt):
            self.messages_delayed += 1
            self._sequence += 1
            due = self.clock + self.plan.delay_for(src, dst, op, uid, attempt)
            self._in_flight.append((due, self._sequence, fn))
            raise NetworkTimeoutError(
                f"{op} {src}->{dst} delayed past deadline (due tick {due})"
            )
        factor = max(self.slow_factor(src), self.slow_factor(dst))
        if factor > 1:
            extra = self.plan.service_ticks(src, dst, op, uid, attempt, factor) - 1
            self.slow_services += 1
            self.slow_ticks += extra
            if timeout_ticks is not None and extra + 1 > timeout_ticks:
                # The sender's budget runs out mid-service: it waits out
                # the rest of its patience, times out, and the response
                # lands later as a stale delivery (nobody is listening).
                self.timeout_abandons += 1
                self._sequence += 1
                self._in_flight.append((self.clock + extra, self._sequence, fn))
                self.clock += max(timeout_ticks - 1, 0)
                raise NetworkTimeoutError(
                    f"{op} {src}->{dst} abandoned after {timeout_ticks} ticks "
                    f"(gray service needed {extra + 1})"
                )
            self.clock += extra
            self._pump()
        if self.plan.duplicate(src, dst, op, uid, attempt):
            self.messages_duplicated += 1
            result = fn()
            fn()
            return result
        return fn()

    # -- diagnostics ---------------------------------------------------------

    def in_flight(self) -> int:
        """Messages currently queued for late delivery."""
        return len(self._in_flight)

    def stats(self) -> Dict[str, int]:
        """Counter snapshot (torture-suite assertions)."""
        return {
            "clock": self.clock,
            "sent": self.messages_sent,
            "dropped": self.messages_dropped,
            "delayed": self.messages_delayed,
            "duplicated": self.messages_duplicated,
            "partition_rejections": self.partition_rejections,
            "late_failures": self.late_failures,
            "in_flight": len(self._in_flight),
            "partitions": self.partitions,
            "heals": self.heals,
            "slow_events": self.slow_events,
            "slow_recoveries": self.slow_recoveries,
            "slow_services": self.slow_services,
            "slow_ticks": self.slow_ticks,
            "timeout_abandons": self.timeout_abandons,
            "slowed_endpoints": len(self._slow),
        }

    def __repr__(self) -> str:
        state = "partitioned" if self.partitioned else "connected"
        return f"PartitionedTransport({state}, tick={self.clock}, sent={self.messages_sent})"


def apply_schedule_event(
    transport: PartitionedTransport, groups: Optional[Sequence[Iterable[str]]]
) -> None:
    """Apply one :meth:`NetworkPlan.partition_schedule` event."""
    if groups is None:
        transport.heal()
    else:
        transport.partition(*groups)


def apply_slow_event(
    transport: PartitionedTransport, factors: Optional[Dict[str, int]]
) -> None:
    """Apply one :meth:`NetworkPlan.slow_schedule` event.

    ``None`` recovers every endpoint; a dict slows (or re-grades) the
    named endpoints while leaving everyone else as they were.
    """
    if factors is None:
        transport.recover()
    else:
        for endpoint, factor in sorted(factors.items()):
            transport.slow(endpoint, factor)
