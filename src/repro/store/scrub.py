"""Background integrity scrubbing for chunk stores.

The uid *is* the checksum: a scrub pass re-hashes every materialized
payload against its content address — the same primitive as client-side
verification (§III-C), but run server-side over the whole store so bit rot
is found before a client trips over it.  Corrupt copies are quarantined
(deleted, so reads turn into honest misses instead of wrong bytes).  On a
replicated :class:`~repro.cluster.cluster.ClusterStore` the scrub only
finds and drops rot; putting copies back is the cluster's one repair loop,
Merkle anti-entropy, which the scrub runs once when it dropped anything.

Transient wire corruption is filtered by re-reading once before declaring
rot; transient store errors are retried through an (instant by default)
:class:`~repro.faults.retry.RetryPolicy`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.chunk import Chunk, Uid
from repro.errors import ChunkCorruptionError, DiskFaultError, StoreError, TransientError
from repro.faults.retry import RetryPolicy
from repro.store.base import ChunkStore, physical_store

#: ``ScrubReport.seconds`` is an operator's number, never hashed.
_clock = time.perf_counter  # fbcheck: ignore[FB-DETERM]


@dataclass
class ScrubReport:
    """Outcome of one scrub pass."""

    scanned: int = 0
    ok: int = 0
    #: Copies whose bytes did not hash to their uid (after a re-read).
    corrupt: int = 0
    #: Corrupt copies the anti-entropy pass put back (cluster only).
    repaired: int = 0
    #: Corrupt copies removed and not put back.
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
    store: ChunkStore, uid: Uid, retry: Optional[RetryPolicy] = None
) -> Tuple[str, Optional[Chunk], bool]:
    """Verify one stored copy against its content address.

    Returns ``(status, chunk, resolved)`` where ``status`` is one of
    ``'ok' | 'corrupt' | 'missing' | 'unreadable'`` and ``resolved`` is
    True when the first read mismatched but a re-read verified — wire
    corruption, not rot on disk.  This is the shared verification
    primitive: the scrubber, the cluster's ``durability_check``, and
    Merkle anti-entropy (its index and its transfer source) all
    discriminate wire from disk the same way.

    On a packed backend the wire-vs-disk question has a cheaper, sharper
    answer than a re-read: the record frame's CRC on disk.  When the
    physical layer reports deterministic frame damage (``'crc'`` or
    ``'torn'``), the copy is rot — no re-read can resolve it, so none is
    spent; only an intact frame falls back to the re-read heuristic.
    """
    retry = retry if retry is not None else RetryPolicy.instant()

    def read() -> Tuple[str, Optional[Chunk]]:
        try:
            chunk = retry.call(lambda: store.get_maybe(uid))
        except ChunkCorruptionError:
            return "corrupt", None
        except (TransientError, DiskFaultError):
            # The device would not hand the bytes over (EIO): nothing says
            # they are wrong, so the copy is not rot and must not be dropped.
            return "unreadable", None
        except StoreError:
            # e.g. a torn record on disk: bytes exist but cannot be framed.
            return "corrupt", None
        if chunk is None:
            return "missing", None
        return ("ok" if chunk.is_valid() else "corrupt"), chunk

    status, chunk = read()
    if status == "corrupt" and _frame_verdict(store, uid) not in ("crc", "torn"):
        second_status, second_chunk = read()
        if second_status == "ok":
            return second_status, second_chunk, True
    return status, chunk, False


def scrub(store: ChunkStore) -> ScrubReport:
    """One scrub pass: re-hash every stored copy and drop every rotten one.

    A replicated store is recognised by its maintenance surface
    (``trusted_nodes``), not by class — the scrubber sits below the
    cluster layer, which is what lets the cluster import it.  There the
    pass re-verifies each trusted node's copies (QUARANTINED nodes are
    left to re-admission) and drops rot exactly as on a single store.
    If it dropped anything it then runs one ``anti_entropy_pass``:
    ``repaired`` counts the dropped copies that pass put back from a
    trusted replica, ``quarantined`` the rest.  The pass ships only to a
    uid's ring owners, so a rotten stand-in copy on a non-owner is
    dropped, not re-copied in place.
    """
    start = _clock()
    report = ScrubReport()
    trusted_nodes = getattr(store, "trusted_nodes", None)
    holders = [node.store for node in trusted_nodes()] if callable(trusted_nodes) else [store]
    dropped: List[Tuple[ChunkStore, Uid]] = []
    for holder in holders:
        for uid in holder.ids():
            report.scanned += 1
            status, _, resolved = diagnose_copy(holder, uid)
            if resolved:
                report.transient_mismatches += 1
            if status == "ok":
                report.ok += 1
            elif status == "missing":
                report.missing += 1
            elif status == "unreadable":
                report.unreadable += 1
            else:
                report.corrupt += 1
                report.corrupt_uids.append(uid)
                holder.delete(uid)
                dropped.append((holder, uid))
    if dropped and callable(trusted_nodes):
        store.anti_entropy_pass()  # type: ignore[attr-defined]
        report.repaired = sum(1 for holder, uid in dropped if holder.has(uid))
    report.quarantined = len(dropped) - report.repaired
    report.seconds = _clock() - start
    return report
