"""Seeded fault plans.

A :class:`FaultPlan` is a pure description of *how often* and *how* things
go wrong.  It holds no mutable state: every decision is a
:mod:`~repro.faults.kernel` draw at ``(seed, op kind, uid, attempt
index)``, so two stores driven by the same plan over the same workload
fail in exactly the same places — the property the chaos suite's replay
assertion depends on.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.chunk import Uid
from repro.faults import kernel


@dataclass(frozen=True)
class FaultPlan:
    """Fault rates for one simulated component, reproducible from a seed.

    Rates are probabilities in ``[0, 1]`` evaluated independently per
    operation attempt:

    - ``corrupt_read_rate`` — a read returns the stored payload with one
      byte flipped (silent bit rot on the wire; the claimed uid is kept).
    - ``drop_put_rate`` — a put is acknowledged but never materialized
      (lost write).
    - ``torn_put_rate`` — a put materializes a truncated payload under the
      original uid (torn write: persistent corruption scrub must find).
    - ``transient_error_rate`` — the operation raises a transient error;
      an immediate retry re-draws and may succeed.

    Slowness is not a store fault: the network plane charges it in
    transport ticks (:class:`~repro.faults.network.NetworkPlan`).
    """

    seed: int = 0
    corrupt_read_rate: float = 0.0
    drop_put_rate: float = 0.0
    torn_put_rate: float = 0.0
    transient_error_rate: float = 0.0

    def __post_init__(self) -> None:
        kernel.check_rates(self)

    # -- deterministic draws: (seed, kind, uid, attempt) -----------------------

    def _at(self, kind: str, uid: Uid, attempt: int) -> tuple:
        return (self.seed, kind, uid, attempt)

    def draw(self, kind: str, uid: Uid, attempt: int) -> float:
        """Uniform value in ``[0, 1)`` for one (kind, uid, attempt) event."""
        return kernel.unit(*self._at(kind, uid, attempt))

    def corrupt_read(self, uid: Uid, attempt: int) -> bool:
        """Should this read attempt return flipped bytes?"""
        return kernel.chance(self.corrupt_read_rate, *self._at("corrupt-read", uid, attempt))

    def drop_put(self, uid: Uid, attempt: int) -> bool:
        """Should this put be silently lost?"""
        return kernel.chance(self.drop_put_rate, *self._at("drop-put", uid, attempt))

    def torn_put(self, uid: Uid, attempt: int) -> bool:
        """Should this put materialize a truncated payload?"""
        return kernel.chance(self.torn_put_rate, *self._at("torn-put", uid, attempt))

    def transient_error(self, kind: str, uid: Uid, attempt: int) -> bool:
        """Should this attempt fail transiently?"""
        at = self._at(f"transient-{kind}", uid, attempt)
        return kernel.chance(self.transient_error_rate, *at)

    def mutate(self, data: bytes, uid: Uid, attempt: int) -> bytes:
        """Deterministically flip one byte of ``data`` (never a no-op)."""
        return kernel.mutate(data, *self._at("mutation", uid, attempt))

    def tear(self, data: bytes, uid: Uid, attempt: int) -> bytes:
        """Deterministically truncate ``data`` to a strict prefix."""
        if len(data) <= 1:
            return b""
        return data[: kernel.pick(*self._at("tear", uid, attempt), n=len(data))]

    def scoped(self, label: str) -> "FaultPlan":
        """Same rates, seed re-derived from ``label``.

        Give each simulated component (e.g. each cluster node) its own
        scope so faults decorrelate across replicas — otherwise every
        replica of a chunk fails identically and replication is useless.
        Scoping is deterministic: the same (seed, label) always yields the
        same sub-plan.
        """
        return dataclasses.replace(self, seed=kernel.derive_seed(self.seed, "scope:", label))

    # -- workload-level randomness -------------------------------------------

    def rng(self, label: str) -> random.Random:
        """A named RNG stream derived from the seed (for workload shaping)."""
        return kernel.rng(self.seed, "rng:", label)

    def flap_schedule(
        self,
        node_names: Iterable[str],
        flaps: int,
        horizon: int,
        down_for: Optional[Tuple[int, int]] = None,
    ) -> List[Tuple[int, str, int]]:
        """Deterministic node-flap events: ``(op_index, node, down_ops)``.

        ``flaps`` events are scattered over ``[0, horizon)``; each takes a
        node down for a duration drawn from ``down_for`` (defaults to
        5–15 % of the horizon).  Sorted by op index.
        """
        rng = self.rng("flaps")
        names = sorted(node_names)
        if not names or flaps < 1 or horizon < 1:
            return []
        low, high = down_for or (max(1, horizon // 20), max(2, horizon // 7))
        events = [
            (rng.randrange(horizon), rng.choice(names), rng.randint(low, high))
            for _ in range(flaps)
        ]
        return sorted(events)
