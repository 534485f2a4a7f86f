"""Background integrity scrubbing for chunk stores.

The uid *is* the checksum: a scrub pass re-hashes every materialized
payload against its content address — the same primitive as client-side
verification (§III-C), but run server-side over the whole store so bit rot
is found before a client trips over it.  Corrupt copies are quarantined
(deleted, so reads turn into honest misses instead of wrong bytes) and,
when the store is a replicated :class:`~repro.cluster.cluster.ClusterStore`,
re-copied from a healthy replica on the spot.

Transient wire corruption is filtered by re-reading once before declaring
rot; transient store errors are retried through an (injectable, instant by
default) :class:`~repro.faults.retry.RetryPolicy`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from repro.chunk import Chunk, Uid
from repro.errors import (
    ChunkCorruptionError,
    DiskFaultError,
    StoreError,
    TransientError,
    TransientStoreError,
)
from repro.faults.retry import RetryPolicy
from repro.store.base import ChunkStore, physical_store

if TYPE_CHECKING:  # pragma: no cover - type-only import, no runtime cycle
    from repro.cluster.cluster import ClusterStore


@dataclass
class ScrubReport:
    """Outcome of one scrub pass."""

    scanned: int = 0
    ok: int = 0
    #: Copies whose bytes did not hash to their uid (after a re-read).
    corrupt: int = 0
    #: Corrupt copies replaced from a healthy replica (cluster only).
    repaired: int = 0
    #: Corrupt copies removed with no healthy source available.
    quarantined: int = 0
    #: Ids the store listed but could not produce bytes for.
    missing: int = 0
    #: Copies skipped because every read attempt failed transiently.
    unreadable: int = 0
    #: First-read mismatches that a re-read resolved (wire corruption).
    transient_mismatches: int = 0
    seconds: float = 0.0
    corrupt_uids: List[Uid] = field(default_factory=list)

    @property
    def healthy(self) -> bool:
        """True when nothing was found corrupt, missing, or unreadable."""
        return self.corrupt == 0 and self.missing == 0 and self.unreadable == 0

    def describe(self) -> str:
        """One-line summary."""
        return (
            f"scrub: {self.scanned} copies in {self.seconds:.3f}s — "
            f"{self.ok} ok, {self.corrupt} corrupt "
            f"({self.repaired} repaired, {self.quarantined} quarantined), "
            f"{self.missing} missing, {self.unreadable} unreadable"
        )


def read_copy(
    store: ChunkStore, uid: Uid, retry: RetryPolicy
) -> Tuple[str, Optional[Chunk]]:
    """One verified read: ('ok'|'corrupt'|'missing'|'unreadable', chunk)."""
    try:
        chunk = retry.call(lambda: store.get_maybe(uid))
    except ChunkCorruptionError:
        return "corrupt", None
    except (TransientError, DiskFaultError):
        # The device would not hand the bytes over (EIO): nothing says they
        # are wrong, so the copy is not rot and must not be quarantined.
        return "unreadable", None
    except StoreError:
        # e.g. a torn record on disk: bytes exist but cannot be framed.
        return "corrupt", None
    if chunk is None:
        return "missing", None
    if not chunk.is_valid():
        return "corrupt", chunk
    return "ok", chunk


def _frame_verdict(store: ChunkStore, uid: Uid) -> Optional[str]:
    """Ask the physical layer for an on-disk frame diagnosis, if it has one.

    Pack-style backends expose ``diagnose_record`` returning
    ``'ok' | 'missing' | 'torn' | 'crc' | 'codec'``; wrappers are peeled.
    None when no layer understands record frames (dict- and
    file-per-segment stores).
    """
    probe = getattr(physical_store(store), "diagnose_record", None)
    verdict = probe(uid) if callable(probe) else None
    return verdict if isinstance(verdict, str) else None


def diagnose_copy(
    store: ChunkStore,
    uid: Uid,
    retry: Optional[RetryPolicy] = None,
    reread_on_mismatch: bool = True,
) -> Tuple[str, Optional[Chunk], bool]:
    """Verify one stored copy against its content address.

    Returns ``(status, chunk, resolved)`` where ``status`` is one of
    ``'ok' | 'corrupt' | 'missing' | 'unreadable'`` and ``resolved`` is
    True when the first read mismatched but a re-read verified — wire
    corruption, not rot on disk.  This is the shared verification
    primitive: the scrubber, the cluster's ``durability_check``, and
    Merkle anti-entropy all discriminate wire from disk the same way.

    On a packed backend the wire-vs-disk question has a cheaper, sharper
    answer than a re-read: the record frame's CRC on disk.  When the
    physical layer reports deterministic frame damage (``'crc'`` or
    ``'torn'``), the copy is rot — no re-read can resolve it, so none is
    spent; only an intact frame falls back to the re-read heuristic.
    """
    retry = retry if retry is not None else RetryPolicy.instant()
    status, chunk = read_copy(store, uid, retry)
    if status == "corrupt":
        if _frame_verdict(store, uid) in ("crc", "torn"):
            return status, chunk, False
        if reread_on_mismatch:
            second_status, second_chunk = read_copy(store, uid, retry)
            if second_status == "ok":
                return second_status, second_chunk, True
    return status, chunk, False


class Scrubber:
    """Walks a store re-hashing every copy; quarantines and repairs rot."""

    def __init__(
        self,
        store: ChunkStore,
        reread_on_mismatch: bool = True,
        retry: Optional[RetryPolicy] = None,
        clock: Callable[[], float] = time.perf_counter,  # fbcheck: ignore[FB-DETERM]
    ) -> None:
        self.store = store
        self.reread_on_mismatch = reread_on_mismatch
        self.retry = retry if retry is not None else RetryPolicy.instant()
        self.clock = clock

    # -- read helpers --------------------------------------------------------

    def _diagnose(
        self, store: ChunkStore, uid: Uid, report: ScrubReport
    ) -> Tuple[str, Optional[Chunk]]:
        """Read a copy, re-reading once to filter transient mismatches."""
        status, chunk, resolved = diagnose_copy(
            store, uid, retry=self.retry, reread_on_mismatch=self.reread_on_mismatch
        )
        if resolved:
            report.transient_mismatches += 1
        return status, chunk

    # -- scrub entry points ---------------------------------------------------

    def scrub(self) -> ScrubReport:
        """Scrub the configured store (replica-aware for clusters).

        A replicated store is recognised by its maintenance surface
        (``trusted_nodes``), not by class: the scrubber sits below the
        cluster layer, which is what lets the cluster import it.
        """
        start = self.clock()
        if callable(getattr(self.store, "trusted_nodes", None)):
            report = self._scrub_cluster(self.store)  # type: ignore[arg-type]
        else:
            report = self._scrub_flat(self.store)
        report.seconds = self.clock() - start
        return report

    def _scrub_flat(self, store: ChunkStore) -> ScrubReport:
        """Scrub a single-copy store: quarantine rot (no repair source)."""
        report = ScrubReport()
        for uid in store.ids():
            report.scanned += 1
            status, _ = self._diagnose(store, uid, report)
            if status == "ok":
                report.ok += 1
            elif status == "missing":
                report.missing += 1
            elif status == "unreadable":
                report.unreadable += 1
            else:
                report.corrupt += 1
                report.corrupt_uids.append(uid)
                store.delete(uid)
                report.quarantined += 1
        return report

    def _scrub_cluster(self, cluster: "ClusterStore") -> ScrubReport:
        """Scrub each live node's copies; repair rot from healthy replicas.

        QUARANTINED nodes are skipped on both sides: their copies are not
        worth repairing in place (re-admission re-verifies everything),
        and they are never used as a repair source.
        """
        report = ScrubReport()
        for node in cluster.trusted_nodes():
            for uid in node.store.ids():
                report.scanned += 1
                status, _ = self._diagnose(node.store, uid, report)
                if status == "ok":
                    report.ok += 1
                    continue
                if status == "missing":
                    report.missing += 1
                    continue
                if status == "unreadable":
                    report.unreadable += 1
                    continue
                report.corrupt += 1
                report.corrupt_uids.append(uid)
                node.store.delete(uid)
                healthy = cluster.healthy_source(uid, exclude=node)
                if healthy is not None:
                    try:
                        self.retry.call(lambda: self._put_verified(node.store, healthy))
                    except TransientError:
                        # Copy stays quarantined; the next repair() places it.
                        report.quarantined += 1
                        continue
                    report.repaired += 1
                else:
                    report.quarantined += 1
        return report

    @staticmethod
    def _put_verified(store: ChunkStore, chunk: Chunk) -> None:
        """Write a repair copy and confirm the stored bytes hash to the uid
        (a torn repair write must not replace rot with fresh rot)."""
        store.put(chunk)
        got = store.get_maybe(chunk.uid)
        if got is None or not got.is_valid():
            # put() dedups on uid: evict the torn copy or the retry no-ops.
            store.delete(chunk.uid)
            raise TransientStoreError(
                f"repair write of {chunk.uid.short()} did not verify"
            )


def scrub(store: ChunkStore, **kwargs: object) -> ScrubReport:
    """Convenience: one scrub pass over ``store`` with default settings."""
    return Scrubber(store, **kwargs).scrub()  # type: ignore[arg-type]
