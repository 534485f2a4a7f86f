"""The one place a seeded fault decision is computed.

Every plane in this package and both seeded defenses (retry jitter, the
anti-entropy audit sample) decide the same way: SHA-256 over the seed
and the event's coordinates, then a uniform number or an index read off
the digest.  Replay is exact because nothing else enters the hash.  The
planes own only their coordinate tables (which parts, in which order);
this module owns the hashing, the attempt counter that makes retries
re-draw, the boundary census the disk plane walks, and rate
validation.  Pure ``hashlib``/``struct``, so it sits at the bottom of
the layer DAG beside :mod:`~repro.faults.retry`.
"""

from __future__ import annotations

import hashlib
import random
import struct
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple, Union

Part = Union[int, str, bytes]

_SCALE = float(1 << 64)


def digest(*parts: Part) -> bytes:
    """SHA-256 over ``parts`` in order: ints packed ``>q``, ``str`` as
    UTF-8, ``bytes`` raw.  The seed is, by convention, the first int."""
    hasher = hashlib.sha256()
    for part in parts:
        if isinstance(part, int):
            hasher.update(struct.pack(">q", part))
        elif isinstance(part, str):
            hasher.update(part.encode("utf-8"))
        else:
            hasher.update(part)
    return hasher.digest()


def unit(*parts: Part) -> float:
    """Uniform value in ``[0, 1)`` from the digest's first eight bytes."""
    return int.from_bytes(digest(*parts)[:8], "big") / _SCALE


def chance(rate: float, *parts: Part) -> bool:
    """Does an event of probability ``rate`` happen at these coordinates?

    A zero rate never hashes (``unit() < 0.0`` is false for every digest),
    so the fault-free path pays nothing for carrying a plan.
    """
    return rate > 0.0 and unit(*parts) < rate


def pick(*parts: Part, n: int) -> int:
    """Deterministic index in ``[0, n)`` from digest bytes 8–16, disjoint
    from the eight :func:`unit` reads at the same coordinates."""
    if n < 1:
        raise ValueError("pick needs n >= 1")
    return int.from_bytes(digest(*parts)[8:16], "big") % n


def derive_seed(*parts: Part) -> int:
    """A signed 64-bit sub-seed (what ``plan.scoped(label)`` re-seeds to)."""
    return int.from_bytes(digest(*parts)[:8], "big") - (1 << 63)


def rng(*parts: Part) -> random.Random:
    """A named RNG stream (schedule and workload shaping)."""
    return random.Random(int.from_bytes(digest(*parts)[:8], "big"))


def flip_at(data: bytes, offset: int, mask: int = 0xFF) -> bytes:
    """Flip one byte of ``data`` at ``offset`` (never a no-op): the one
    definition of "wrong bytes under the right uid".  Seeded planes get
    offset and mask from :func:`mutate`; ``TamperingStore.flip_byte``
    passes them explicitly."""
    if not data:
        return b"\x01"
    corrupted = bytearray(data)
    corrupted[offset % len(corrupted)] ^= (mask | 0x01) & 0xFF
    return bytes(corrupted)


def mutate(data: bytes, *parts: Part) -> bytes:
    """:func:`flip_at` with offset and mask read off the digest."""
    hashed = digest(*parts)
    return flip_at(data, int.from_bytes(hashed[8:16], "big"), mask=hashed[16])


def rate_fields(plan: object) -> List[str]:
    """The probability fields of a plan: every field named ``*_rate``."""
    return [name for name in vars(plan) if name.endswith("_rate")]


def check_rates(plan: object, *names: str) -> None:
    """Reject any rate of ``plan`` outside ``[0, 1]``: the named fields,
    or every ``*_rate`` field — a new rate cannot go unvalidated."""
    for name in names or rate_fields(plan):
        rate = getattr(plan, name)
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {rate}")


class Attempts:
    """How many times each event key has been tried so far: the last
    coordinate of most decisions, so the Nth access to a chunk always
    behaves the same and a retry lands on a fresh draw."""

    def __init__(self) -> None:
        self._next: Dict[Tuple[Hashable, ...], int] = {}

    def next(self, *key: Hashable) -> int:
        """The attempt index for ``key``; advances its counter."""
        index = self._next.get(key, 0)
        self._next[key] = index + 1
        return index


@dataclass(frozen=True)
class Boundary:
    """One syscall boundary a workload crossed."""

    index: int
    kind: str
    label: str
    fault: Optional[str]
    stamp: str


class Census:
    """Every boundary crossed inside a fault zone, in order.

    The disk plane's torture recipe: run once unarmed to enumerate
    boundaries, then once per boundary with that index faulted.  ``injected`` is the faulted subset of ``trace``.
    """

    def __init__(self) -> None:
        self.trace: List[Boundary] = []
        self.injected: List[Boundary] = []

    @property
    def count(self) -> int:
        """How many boundaries have been crossed so far."""
        return len(self.trace)

    def record(self, kind: str, label: str, fault: Optional[str], *at: Part) -> Boundary:
        """Append the next boundary (its index is the current count),
        stamped with the replay hash of the coordinates it was decided
        at: equal stamps ⇔ equal runs."""
        hit = Boundary(len(self.trace), kind, label, fault, digest(*at).hex()[:16])
        self.trace.append(hit)
        if fault is not None:
            self.injected.append(hit)
        return hit
