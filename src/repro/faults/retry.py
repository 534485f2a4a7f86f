"""Bounded retry with exponential backoff and deterministic seeded jitter.

Clock and sleep are injectable so tests run instantly and deterministically;
production callers get ``time.sleep`` by default.  Retries trigger only on
:class:`~repro.errors.TransientError` subtypes — corruption and missing
chunks are *not* transient and must surface to the healing layers instead.

Jitter exists because pure exponential backoff keeps concurrent clients in
lockstep: every client that failed at t=0 retries at exactly t=base,
t=base*m, ... — a transient fault amplifies into a synchronized retry
storm.  Each policy therefore derates every delay by a deterministic
factor drawn from ``(seed, attempt index)``, so two clients with different
seeds spread out while any single schedule stays exactly replayable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Protocol, Tuple, Type, TypeVar

from repro.errors import DeadlineExceededError, TransientError
from repro.faults.kernel import check_rates, unit

T = TypeVar("T")


class DeadlineLike(Protocol):
    """What :meth:`RetryPolicy.call` needs from a deadline: a remaining
    budget, in whatever unit the caller's clock ticks in.  The concrete
    :class:`repro.cluster.latency.Deadline` lives two layers up; this
    structural type keeps the retry helper below it in the layer DAG."""

    def remaining(self) -> int: ...  # pragma: no cover - protocol


@dataclass
class RetryPolicy:
    """How many times to retry a transient failure, and how to wait.

    ``attempts`` counts total tries (so ``attempts=1`` means no retry).
    Delays grow as ``base_delay * multiplier**n`` capped at ``max_delay``,
    then shrink by up to ``jitter`` (a fraction in ``[0, 1]``) using a
    draw derived from ``(seed, attempt index)`` — give each concurrent
    client its own ``seed`` to decorrelate their retry schedules.
    ``sleep`` is the waiting primitive — inject a no-op for instant tests.
    """

    attempts: int = 4
    base_delay: float = 0.005
    multiplier: float = 2.0
    max_delay: float = 0.25
    jitter: float = 0.1
    seed: int = 0
    sleep: Callable[[float], None] = field(default=time.sleep, repr=False)
    #: Operations retried so far (diagnostic; shared across calls).
    retries: int = 0
    #: Retry loops cut short because a deadline budget ran out.
    deadline_stops: int = 0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        check_rates(self, "jitter")

    @classmethod
    def instant(cls, attempts: int = 4, seed: int = 0) -> "RetryPolicy":
        """A policy that never actually sleeps (for tests and simulation)."""
        return cls(attempts=attempts, seed=seed, sleep=lambda _seconds: None)

    def delays(self) -> Iterator[float]:
        """The backoff delay before each retry, in order (jitter applied)."""
        delay = self.base_delay
        for index in range(self.attempts - 1):
            capped = min(delay, self.max_delay)
            if self.jitter:
                capped *= 1.0 - self.jitter * unit(self.seed, index)
            yield capped
            delay *= self.multiplier

    def call(
        self,
        fn: Callable[[], T],
        retry_on: Tuple[Type[BaseException], ...] = (TransientError,),
        deadline: Optional[DeadlineLike] = None,
    ) -> T:
        """Invoke ``fn``, retrying transient failures with backoff.

        The last failure is re-raised unchanged once attempts run out, so
        callers keep their typed error (e.g. ``NodeDownError``).

        With a ``deadline``, the retry loop stops early — raising
        :class:`~repro.errors.DeadlineExceededError` — when the budget is
        already spent, or when the remaining budget cannot cover another
        attempt as expensive as the one that just failed.  An exhausted
        budget is not a reason to hang on retries that cannot finish.
        """
        before = deadline.remaining() if deadline is not None else None
        if before is not None and before <= 0:
            self.deadline_stops += 1
            raise DeadlineExceededError(
                f"deadline spent before attempt 1/{self.attempts}"
            ) from None
        try:
            return fn()  # a first attempt that succeeds builds no delay schedule
        except retry_on as error:  # type: ignore[misc]
            last = error
        for tried, delay in enumerate(self.delays(), 1):
            if deadline is not None and before is not None:
                spent = before - deadline.remaining()
                if deadline.remaining() <= max(spent, 0):
                    self.deadline_stops += 1
                    raise DeadlineExceededError(
                        f"{deadline.remaining()} ticks left cannot cover "
                        f"another ~{spent}-tick attempt "
                        f"({tried}/{self.attempts} tried)"
                    ) from last
            self.retries += 1
            self.sleep(delay)
            before = deadline.remaining() if deadline is not None else None
            if before is not None and before <= 0:
                self.deadline_stops += 1
                raise DeadlineExceededError(
                    f"deadline spent before attempt {tried + 1}/{self.attempts}"
                ) from last
            try:
                return fn()
            except retry_on as error:  # type: ignore[misc]
                last = error
        raise last

