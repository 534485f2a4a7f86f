"""Deterministic crash-point injection (the process plane of
:mod:`repro.faults`).

A :class:`CrashPlan` models the honest but mortal process: it dies — at
a write, an fsync, or a rename boundary — and recovery must reconstruct
a consistent state from whatever the dead process left on disk.

Persistence code marks its durability boundaries by calling
:func:`crashpoint` (fsync / replace boundaries) and routing file appends
through :func:`crashing_write` (write boundaries).  Outside a
:func:`crash_zone` both are free no-ops.  Inside one, every boundary is
assigned a global index and a replay stamp (a kernel digest of ``(seed,
kind, label, index)``), and the plan's ``crash_at``-th boundary raises
:class:`~repro.errors.SimulatedCrash`.  A crash at a write boundary
first materializes a deterministic *strict prefix* of the data (a torn
write), which is exactly the damage a real kill mid-append leaves behind.

The torture recipe: run the workload once under ``CrashPlan()`` (census
mode — nothing raises) to learn how many boundaries it crosses, then run
it once per boundary with ``crash_at=n``, reopen, and assert recovery.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import IO, FrozenSet, Iterator, Optional, Tuple

from repro.errors import SimulatedCrash
from repro.faults import kernel
from repro.faults.kernel import Boundary, Census
from repro.store.durability import DiskInjector, active_injector, write_bytes


@dataclass(frozen=True)
class CrashPlan:
    """Which durability boundary to die at.

    ``crash_at=None`` is census mode: boundaries are counted and traced
    but the process never dies.  ``kinds`` optionally restricts which
    boundary kinds are counted at all (e.g. only ``"journal-fsync"``);
    uncounted boundaries are invisible to the plan.  ``tear_writes``
    makes a crash at a write boundary leave a deterministic strict
    prefix of the data instead of nothing.
    """

    crash_at: Optional[int] = None
    seed: int = 0
    kinds: Optional[FrozenSet[str]] = None
    tear_writes: bool = True

    def counts(self, kind: str) -> bool:
        """Is this boundary kind visible to the plan?"""
        return self.kinds is None or kind in self.kinds

    def _at(self, kind: str, label: str, index: int) -> tuple:
        return (self.seed, kind, label, index)


class CrashClock(Census):
    """Mutable per-zone state: the boundary census under one plan."""

    def __init__(self, plan: CrashPlan) -> None:
        super().__init__()
        self.plan = plan

    @property
    def crashed(self) -> Optional[Boundary]:
        """The boundary the process died at, if it has."""
        return self.injected[0] if self.injected else None

    def register(self, kind: str, label: str) -> Tuple[int, bool]:
        """Record one boundary; return (index, should-crash-here)."""
        index = self.count
        crash = self.plan.crash_at == index
        self.record(kind, label, "crash" if crash else None, *self.plan._at(kind, label, index))
        return index, crash


_ACTIVE: Optional[CrashClock] = None


@contextmanager
def crash_zone(plan: CrashPlan) -> Iterator[CrashClock]:
    """Arm ``plan`` for the duration of the block; yields the clock."""
    global _ACTIVE
    clock = CrashClock(plan)
    previous = _ACTIVE
    _ACTIVE = clock
    try:
        yield clock
    finally:
        _ACTIVE = previous


def labels_observed() -> bool:
    """Does anything read boundary labels right now?

    True inside a :func:`crash_zone` or with a disk shim installed: both
    record (and the shim seeds its draws from) the label of each write.
    Outside them a label is dropped unread, so a hot path may skip
    rendering one.
    """
    return _ACTIVE is not None or type(active_injector()) is not DiskInjector


def crashpoint(kind: Optional[str], label: str = "") -> None:
    """Mark a durability boundary (fsync, rename, …).

    Raises :class:`SimulatedCrash` when the armed plan's ``crash_at``
    lands here; the boundary's side effect (the fsync, the rename) has
    then *not* happened.  No-op outside a :func:`crash_zone`, and for
    ``kind=None``: a caller of shared code that declares no boundary here.
    """
    clock = _ACTIVE
    if clock is None or kind is None or not clock.plan.counts(kind):
        return
    index, crash = clock.register(kind, label)
    if crash:
        raise SimulatedCrash(index, kind, label)


def crashing_write(
    handle: IO[bytes], data: bytes, kind: Optional[str] = "write", label: str = ""
) -> None:
    """Write ``data`` to ``handle`` through a write boundary.

    A crash here tears the write: a deterministic strict prefix of
    ``data`` (derived from the boundary's replay hash) is materialized
    and flushed before :class:`SimulatedCrash` is raised — recovery code
    must cope with the partial record.  The write itself goes through
    :func:`repro.store.durability.write_bytes`, so an armed
    :class:`~repro.faults.fs.FsFaultPlan` can fail it with ENOSPC or a
    short write even when no crash plan is active (or ``kind`` is None).
    """
    clock = _ACTIVE
    if clock is not None and kind is not None and clock.plan.counts(kind):
        index, crash = clock.register(kind, label)
        if crash:
            if clock.plan.tear_writes and len(data) > 1:
                keep = kernel.pick(*clock.plan._at(kind, label, index), n=len(data))
                handle.write(data[:keep])
                handle.flush()
            raise SimulatedCrash(index, kind, label)
    write_bytes(handle, data, label=label)
