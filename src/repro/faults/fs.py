"""Deterministic filesystem-fault injection (the disk plane of
:mod:`repro.faults`).

An :class:`FsFaultPlan` models the **disk that stops cooperating** and
the **process that dies on it**: writes fail with ENOSPC (sometimes
after materializing a short prefix), reads and fsyncs fail with EIO,
and — the fsyncgate bug class — a failed fsync silently *drops the
unsynced dirty pages* and then falsely reports success if retried on
the same descriptor.  The ``crash`` flavor kills the process at a
write, fsync or rename: :class:`~repro.errors.SimulatedCrash` is raised
before the syscall's side effect, after a write has landed the same
strict prefix a ``short`` fault would.  A dead process truncates
nothing and un-acks nothing, and the shim stays dead: every later
write, fsync or rename raises the same crash, so recovery sees exactly
what a SIGKILL leaves on disk.

The shim (:class:`FaultyOS`) subclasses the no-op
:class:`~repro.store.durability.DiskInjector` that every persistence
path already routes its syscalls through, so the journal, FileStore,
PackStore, compaction, and journal-checkpoint paths are all injectable
without monkeypatching, and no persistence module names a boundary of
its own.  Every decision is a kernel draw at ``(seed, syscall, path
label, attempt)``, so a schedule replays bit-identically.

Two modes:

- **rate mode** (census when all rates are 0): each boundary draws a
  deterministic uniform number and compares it to the per-syscall rate;
- **targeted mode** (``fail_at=n, flavor=...``): exactly the ``n``-th
  boundary faults, with the requested flavor — how the torture suites
  walk every persistence boundary × {ENOSPC, EIO, fsync-fail, crash}.
"""

from __future__ import annotations

import errno
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import IO, Dict, Iterator, Optional, Tuple

from repro.errors import SimulatedCrash
from repro.faults import kernel
from repro.faults.kernel import Attempts, Census
from repro.store.durability import DiskInjector, install_injector

#: Which fault flavors a targeted plan can land on each syscall kind.
#: ``crash`` is process death, not a disk error: it lands on every
#: syscall that changes what is on disk, never on a read.
TARGETED_FLAVORS: Dict[str, Tuple[str, ...]] = {
    "write": ("enospc", "short", "crash"),
    "fsync": ("fsync", "crash"),
    "read": ("eio",),
    "replace": ("enospc", "eio", "crash"),
}

#: Rate mode: the stacked (flavor, rate field) bands one draw falls into.
RATED_FLAVORS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "write": (("enospc", "enospc_rate"), ("short", "short_write_rate")),
    "fsync": (("fsync", "fsync_fail_rate"),),
    "read": (("eio", "eio_read_rate"),),
    "replace": (("enospc", "enospc_rate"),),
}


@dataclass(frozen=True)
class FsFaultPlan:
    """Seeded description of how the filesystem misbehaves.

    Rates apply per syscall kind: ``enospc_rate`` to writes and renames,
    ``short_write_rate`` stacks on top for writes (a strict prefix lands
    before the ENOSPC), ``eio_read_rate`` to read probes, and
    ``fsync_fail_rate`` to fsyncs (EIO with fsyncgate page loss).
    ``fail_at``/``flavor`` switch to targeted mode: exactly that global
    boundary index faults and every rate is ignored.  ``flavor="crash"``
    raises :class:`~repro.errors.SimulatedCrash` there instead of an
    ``OSError``.
    """

    seed: int = 0
    enospc_rate: float = 0.0
    short_write_rate: float = 0.0
    eio_read_rate: float = 0.0
    fsync_fail_rate: float = 0.0
    fail_at: Optional[int] = None
    flavor: str = "enospc"

    def __post_init__(self) -> None:
        kernel.check_rates(self)
        if self.fail_at is not None and self.fail_at < 0:
            # No boundary index is negative: the plan would run as a census.
            raise ValueError(f"fail_at must be >= 0, got {self.fail_at}")
        if not any(self.flavor in flavors for flavors in TARGETED_FLAVORS.values()):
            raise ValueError(f"flavor {self.flavor!r} can land on no syscall kind")

    def _at(self, syscall: str, label: str, attempt: int) -> tuple:
        return (self.seed, syscall, label, attempt)

    def draw(self, syscall: str, label: str, attempt: int) -> float:
        """Deterministic uniform draw in ``[0, 1)`` for one boundary."""
        return kernel.unit(*self._at(syscall, label, attempt))

    def decide(self, syscall: str, label: str, attempt: int, index: int) -> Optional[str]:
        """The fault flavor for one boundary, or ``None`` for clean."""
        if self.fail_at is not None:
            lands = index == self.fail_at and self.flavor in TARGETED_FLAVORS.get(syscall, ())
            return self.flavor if lands else None
        value = self.draw(syscall, label, attempt)
        band = 0.0
        for flavor, rate in RATED_FLAVORS.get(syscall, ()):
            band += getattr(self, rate)
            if value < band:
                return flavor
        return None


class FaultyOS(DiskInjector, Census):
    """The armed disk shim: applies an :class:`FsFaultPlan` per syscall.

    Public counters the suites assert on:

    - ``trace`` / ``injected`` — every boundary crossed / faulted;
    - ``false_fsyncs`` — fsync calls on a descriptor whose previous
      fsync already failed.  A real kernel reports success there while
      the data is gone, so the shim does the same; library code must
      keep this at **zero** (never retry a failed fsync on the same
      descriptor — reopen and rewrite instead);
    - ``dropped_bytes`` — bytes the fsyncgate simulation discarded.
    """

    def __init__(self, plan: FsFaultPlan) -> None:
        super().__init__()
        self.plan = plan
        self.false_fsyncs = 0
        self.dropped_bytes = 0
        self._attempts = Attempts()
        #: id(handle) -> (handle, durable offset).  The handle reference
        #: pins the id so it cannot be recycled while tracked.
        self._marks: Dict[int, Tuple[IO[bytes], int]] = {}
        self._gated: Dict[int, IO[bytes]] = {}
        #: The crash that killed the process, once one has fired.
        self._dead: Optional[SimulatedCrash] = None

    # -- bookkeeping ---------------------------------------------------------

    def _label(self, handle_or_path: object, label: str) -> str:
        if label:
            return label
        name = getattr(handle_or_path, "name", handle_or_path)
        return os.path.basename(str(name))

    def _register(self, syscall: str, label: str) -> Tuple[Optional[str], int]:
        """Record one boundary; return (fault flavor or None, attempt).

        A dead process changes nothing on disk: a write, fsync or rename
        raises its crash again.
        """
        if self._dead is not None and syscall != "read":
            raise self._dead
        attempt = self._attempts.next(syscall, label)
        fault = self.plan.decide(syscall, label, attempt, self.count)
        self.record(syscall, label, fault, *self.plan._at(syscall, label, attempt))
        return fault, attempt

    def _crash(self, syscall: str, label: str) -> SimulatedCrash:
        """The process death at the boundary just registered."""
        self._dead = SimulatedCrash(self.count - 1, syscall, label)
        return self._dead

    # -- DiskInjector overrides ----------------------------------------------

    def write(self, handle: IO[bytes], data: bytes, label: str = "") -> None:
        label = self._label(handle, label)
        # First sight of a handle fixes its durable floor: everything
        # below this offset predates the zone and counts as on-platter.
        self._marks.setdefault(id(handle), (handle, handle.tell()))
        fault, attempt = self._register("write", label)
        if fault == "enospc":
            raise OSError(errno.ENOSPC, "injected: no space left on device", label)
        if fault is not None:
            # A short write and a crash mid-write land the same strict prefix.
            keep = 0
            if len(data) > 1:
                # Drawn at attempt + 1, not attempt: the shim has always
                # read the counter after advancing it, and seeded
                # schedules replay bit-identically only if it still does.
                keep = kernel.pick(*self.plan._at("write", label, attempt + 1), n=len(data))
            handle.write(data[:keep])
            handle.flush()
            if fault == "crash":
                raise self._crash("write", label)
            raise OSError(
                errno.ENOSPC, f"injected: short write ({keep}/{len(data)}B)", label
            )
        handle.write(data)

    def fsync_handle(self, handle: IO[bytes], label: str = "") -> None:
        label = self._label(handle, label)
        key = id(handle)
        if key in self._gated:
            # fsyncgate: the kernel cleared the error flag when the first
            # fsync failed; a retry on the same descriptor reports success
            # for pages that are already gone.
            self.false_fsyncs += 1
            return
        fault, _ = self._register("fsync", label)
        if fault == "crash":
            raise self._crash("fsync", label)  # no fsync: the marks stay put
        if fault is None:
            os.fsync(handle.fileno())
            self._marks[key] = (handle, handle.tell())
            return
        # The failed fsync drops every dirty page since the durable floor.
        entry = self._marks.get(key)
        mark = entry[1] if entry is not None else handle.tell()
        position = handle.tell()
        if position > mark:
            os.ftruncate(handle.fileno(), mark)
            handle.seek(0, os.SEEK_END)
            self.dropped_bytes += position - mark
        self._gated[key] = handle
        raise OSError(errno.EIO, "injected: fsync failed", label)

    def fsync_fd(self, fd: int, path: str) -> None:
        # Directory fsyncs are labelled by role, not name: the store root's
        # basename is the (random) temp dir in tests, and replay stamps
        # must be identical across directories.
        label = "<dir>" if os.path.isdir(path) else self._label(path, "")
        fault, _ = self._register("fsync", label)
        if fault == "crash":
            raise self._crash("fsync", label)
        if fault is None:
            os.fsync(fd)
            return
        raise OSError(errno.EIO, "injected: fsync failed", path)

    def replace(self, source: str, destination: str) -> None:
        label = self._label(destination, "")
        fault, _ = self._register("replace", label)
        if fault == "crash":
            raise self._crash("replace", label)
        if fault == "enospc":
            raise OSError(errno.ENOSPC, "injected: no space left on device", destination)
        if fault == "eio":
            raise OSError(errno.EIO, "injected: rename failed", destination)
        os.replace(source, destination)

    def read_probe(self, path: str, label: str = "") -> None:
        label = self._label(path, label)
        fault, _ = self._register("read", label)
        if fault == "eio":
            raise OSError(errno.EIO, "injected: read failed", path)


@contextmanager
def fs_zone(plan: FsFaultPlan) -> Iterator[FaultyOS]:
    """Arm ``plan`` for the duration of the block; yields the shim.

    The census recipe: run the workload once under ``FsFaultPlan()``
    (all rates zero) to enumerate boundaries, then once per boundary ×
    flavor with ``fail_at=n`` and assert recovery — or, for ``crash``,
    reopen what the dead process left and assert that.
    """
    shim = FaultyOS(plan)
    previous = install_injector(shim)
    try:
        yield shim
    finally:
        install_injector(previous)
