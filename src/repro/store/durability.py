"""Fsync discipline and the disk-fault injection seam for persistence paths.

An ``os.replace`` only makes a rename atomic; it says nothing about the
*contents* of the source file reaching the platter, nor about the rename
itself surviving a power cut.  Every write-snapshot-then-rename sequence
in this repo therefore goes through these helpers:

1. write the temp file, :func:`fsync_file` it while still open;
2. :func:`durable_replace` it over the destination, which fsyncs the
   source path once more (cheap: no dirty pages remain) and then the
   parent directory so the rename is itself durable.

The FB-DURABLE fbcheck rule enforces that no persistence module calls
``os.replace`` without a preceding fsync of the source.

Beyond fsync ordering, this module is also the **single seam through
which the filesystem is touched**: writes, fsyncs, renames, and read
probes all route through the installed :class:`DiskInjector`.  The
default injector performs the real syscall; the fs-fault harness
(:mod:`repro.faults.fs`) installs a seeded shim that injects ENOSPC,
EIO, short writes, fsyncgate semantics and process death — so the
journal, FileStore, PackStore, compaction, and journal-checkpoint paths
are all fault- and crash-injectable at every write, fsync and rename
without monkeypatching, and without naming a boundary of their own.
Failures (injected or real) surface as the :mod:`repro.errors` disk
taxonomy (:class:`~repro.errors.DiskFullError` /
:class:`~repro.errors.DiskFaultError`), never raw ``OSError``; a
simulated crash surfaces as :class:`~repro.errors.SimulatedCrash`.
"""

from __future__ import annotations

import os
from typing import IO, Optional

from repro.errors import map_os_error


def _handle_path(handle: IO[bytes]) -> str:
    return str(getattr(handle, "name", "<handle>"))


class DiskInjector:
    """The no-fault disk shim: performs the real syscall, nothing else.

    Fault harnesses subclass this and install themselves via
    :func:`install_injector`; every override either performs the syscall
    or raises an ``OSError`` carrying the injected errno.  The wrappers
    below translate any ``OSError`` (injected or real) into the
    :mod:`repro.errors` disk taxonomy.
    """

    def write(self, handle: IO[bytes], data: bytes, label: str = "") -> None:
        handle.write(data)

    def fsync_handle(self, handle: IO[bytes], label: str = "") -> None:
        os.fsync(handle.fileno())

    def fsync_fd(self, fd: int, path: str) -> None:
        os.fsync(fd)

    def replace(self, source: str, destination: str) -> None:
        # The raw syscall primitive durable_replace builds its fsync
        # discipline around — the discipline lives in the caller.
        os.replace(source, destination)

    def read_probe(self, path: str, label: str = "") -> None:
        """Hook before a read path touches ``path`` (no-op when healthy)."""


_injector: DiskInjector = DiskInjector()


def install_injector(injector: Optional[DiskInjector]) -> DiskInjector:
    """Install a disk shim; returns the previous one (``None`` resets)."""
    global _injector
    previous = _injector
    _injector = injector if injector is not None else DiskInjector()
    return previous


def active_injector() -> DiskInjector:
    """The currently installed disk shim."""
    return _injector


def labels_observed() -> bool:
    """Does anything read boundary labels right now?

    True with a disk shim installed: it records (and seeds its draws
    from) the label of each write.  Otherwise a label is dropped unread,
    so a hot path may skip rendering one.
    """
    return type(_injector) is not DiskInjector


def write_bytes(handle: IO[bytes], data: bytes, label: str = "") -> None:
    """Write ``data`` through the disk shim; classify any failure.

    A short-write injection materializes a strict prefix of ``data``
    before raising, exactly the damage a real ENOSPC mid-write leaves —
    the un-ack discipline (truncate back to the acked size) is
    :class:`~repro.store.appendlog.AppendLog`'s, which appends go through.
    """
    try:
        _injector.write(handle, data, label)
    except OSError as exc:
        raise map_os_error(exc, "write", _handle_path(handle)) from exc


def fsync_file(handle: IO[bytes], label: str = "") -> None:
    """Flush a writable file object and fsync its descriptor.

    Raises :class:`~repro.errors.DiskFaultError` on failure.  Callers
    must treat the descriptor as tainted afterwards: the kernel drops
    dirty pages on a failed fsync, so the only sound recovery is to
    reopen and rewrite from the last durable watermark — never to fsync
    the same descriptor again (fsyncgate).
    """
    try:
        handle.flush()
        _injector.fsync_handle(handle, label)
    except OSError as exc:
        raise map_os_error(exc, "fsync", _handle_path(handle)) from exc


def fsync_path(path: str) -> None:
    """Fsync a path (file or directory) by descriptor.

    Directory fsync degrades to a no-op only where directories cannot be
    opened as descriptors (no ``os.O_DIRECTORY``: Windows) — rename
    durability is the filesystem's problem there, as it always was.
    Everywhere else a failure (EIO above all) is a real durability loss
    and propagates as a classified disk fault instead of being swallowed.
    """
    is_dir = os.path.isdir(path)
    if is_dir and not hasattr(os, "O_DIRECTORY"):  # pragma: no cover - Windows
        return
    flags = os.O_RDONLY
    if is_dir:
        flags |= os.O_DIRECTORY
    try:
        fd = os.open(path, flags)
    except OSError as exc:
        raise map_os_error(exc, "open", path) from exc
    try:
        _injector.fsync_fd(fd, path)
    except OSError as exc:
        raise map_os_error(exc, "fsync", path) from exc
    finally:
        os.close(fd)


def fsync_dir(path: str) -> None:
    """Fsync a directory so a rename/creation within it is durable."""
    fsync_path(path if path else ".")


def durable_replace(source: str, destination: str) -> None:
    """``os.replace`` with the full fsync discipline around it.

    Fsyncs ``source`` (file or directory tree root) before the rename and
    the destination's parent directory after it, so neither the contents
    nor the rename can be lost to a crash.
    """
    fsync_path(source)
    try:
        _injector.replace(source, destination)
    except OSError as exc:
        raise map_os_error(exc, "replace", destination) from exc
    fsync_dir(os.path.dirname(os.path.abspath(destination)))


def read_check(path: str, label: str = "") -> None:
    """Probe the disk shim before a read path touches ``path``.

    Free outside a fault zone; inside one, an injected EIO surfaces as
    :class:`~repro.errors.DiskFaultError` so the read-side taxonomy is
    exercised without monkeypatching ``open``.
    """
    try:
        _injector.read_probe(path, label)
    except OSError as exc:
        raise map_os_error(exc, "read", path) from exc
