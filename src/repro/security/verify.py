"""Client-side integrity validation.

"Given a version, the application can fetch the corresponding data from
the storage provider and validate the content and its history by checking
whether the Merkle root hash calculated on the spot is identical to the
data version" (§III-C).

:class:`Verifier` re-derives every hash itself — it never trusts the
store's bookkeeping.  It checks, per version uid:

1. the FNode chunk hashes to the uid the client holds;
2. the value tree: every reachable page hashes to the identifier its
   parent (or the FNode) references;
3. the history: every ``bases`` link resolves to an FNode chunk that
   hashes to the referenced uid, transitively to the roots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Union

from repro.chunk import Chunk, ChunkType, Uid
from repro.errors import ChunkCorruptionError, ChunkNotFoundError, TamperError, TransientError
from repro.postree.node import child_uids
from repro.store.base import ChunkStore
from repro.vcs.fnode import FNode


@dataclass
class VerificationReport:
    """Outcome of validating one version uid."""

    version: Uid
    ok: bool
    chunks_checked: int = 0
    fnodes_checked: int = 0
    errors: List[str] = field(default_factory=list)
    #: Referenced chunks the store could not produce at all.
    missing: int = 0
    #: Chunks whose bytes did not hash to the referenced uid.
    corrupt: int = 0
    #: Chunks unreadable within the retry budget (verdict unknown, NOT
    #: evidence of tampering — rerun when the store recovers).
    transient: int = 0
    #: Portable tamper-evidence records: one dict per integrity failure
    #: (``node``/``uid``/``op``/``kind``/``expected``/``served``), in the
    #: same shape the cluster's accountability board emits.  For a
    #: cluster-backed store, the board's attributions accrued during this
    #: verification ride along — detection ends in *who*, not just *that*.
    evidence: List[Dict[str, object]] = field(default_factory=list)

    def describe(self) -> str:
        """One-line summary."""
        status = "VALID" if self.ok else "TAMPERED"
        return (
            f"{self.version.base32()[:16]}…: {status} "
            f"({self.chunks_checked} chunks, {self.fnodes_checked} versions checked"
            + (f"; {len(self.errors)} error(s)" if self.errors else "")
            + ")"
        )


class Verifier:
    """Validates versions against a (possibly malicious or faulty) store.

    The error taxonomy matters here: *missing* and *corrupt* chunks are
    integrity failures, but a *transient* store error proves nothing — the
    verifier retries it (``retry``, instant by default) and, if the chunk
    stays unreachable, records an unknown verdict instead of crashing or
    falsely crying tamper.
    """

    def __init__(self, store: ChunkStore, retry: Optional["RetryPolicy"] = None) -> None:
        from repro.faults.retry import RetryPolicy

        self.store = store
        self.retry = retry if retry is not None else RetryPolicy.instant()

    @staticmethod
    def _evidence(
        uid: Uid, kind: str, served: Optional[str] = None
    ) -> Dict[str, object]:
        """One portable tamper-evidence record (board-compatible shape).

        The verifier is a *client*: it usually cannot name the replica
        that lied (``node`` stays empty), but it can state the claim
        (``expected``, the uid's digest) and what arrived instead
        (``served``).  Cluster-side attribution records with the node
        filled in are merged by :meth:`Verifier.verify_version`.
        """
        return {
            "node": "",
            "uid": uid.base32(),
            "op": "get",
            "kind": kind,
            "expected": uid.hex(),
            "served": served,
            "origin": "verifier",
            "strike": False,
        }

    def _fetch_checked(
        self, uid: Uid, report: VerificationReport
    ) -> Optional[Chunk]:
        """Fetch a chunk and confirm its bytes hash to ``uid``."""
        try:
            chunk = self.retry.call(lambda: self.store.get(uid))
        except ChunkNotFoundError:
            report.missing += 1
            report.errors.append(f"missing chunk {uid.short(16)}")
            report.evidence.append(self._evidence(uid, "missing"))
            return None
        except ChunkCorruptionError:
            # A verifying store already rejected the bytes for us.
            report.chunks_checked += 1
            report.corrupt += 1
            report.errors.append(
                f"chunk {uid.short(16)} content does not hash to its id"
            )
            report.evidence.append(self._evidence(uid, "corrupt"))
            return None
        except TransientError:
            report.transient += 1
            report.errors.append(
                f"chunk {uid.short(16)} unreachable (transient store error)"
            )
            return None
        report.chunks_checked += 1
        if not chunk.is_valid():
            report.corrupt += 1
            report.errors.append(
                f"chunk {uid.short(16)} content does not hash to its id"
            )
            report.evidence.append(
                self._evidence(
                    uid,
                    "corrupt",
                    served=Chunk.compute_uid(chunk.type, chunk.data).hex(),
                )
            )
            return None
        return chunk

    def _verify_value_tree(self, root: Uid, report: VerificationReport) -> None:
        """Recompute hashes of every page reachable from a value root."""
        seen: Set[Uid] = set()
        stack = [root]
        while stack:
            uid = stack.pop()
            if uid in seen:
                continue
            seen.add(uid)
            chunk = self._fetch_checked(uid, report)
            if chunk is not None:
                stack.extend(child_uids(chunk))

    def verify_version(
        self, version: Union[Uid, str], check_history: bool = True
    ) -> VerificationReport:
        """Validate the value and (optionally) full history of a version."""
        uid = Uid.parse(version) if isinstance(version, str) else version
        report = VerificationReport(version=uid, ok=True)
        # For cluster-backed stores, snapshot the accountability board's
        # evidence watermark so replica attributions accrued *during this
        # verification* can be merged into the client-side report below.
        board = getattr(self.store, "accountability", None)
        cluster = getattr(self.store, "cluster", None)
        if board is None and cluster is not None:
            board = getattr(cluster, "accountability", None)
        watermark = board.evidence_total if board is not None else 0
        pending = [uid]
        seen: Set[Uid] = set()
        first = True
        while pending:
            current = pending.pop()
            if current in seen:
                continue
            seen.add(current)
            chunk = self._fetch_checked(current, report)
            if chunk is None:
                break
            if chunk.type != ChunkType.FNODE:
                report.errors.append(
                    f"{current.short(16)} is not an FNode (got {chunk.type.name})"
                )
                break
            fnode = FNode.decode(chunk)
            report.fnodes_checked += 1
            if first:
                self._verify_value_tree(fnode.value_root, report)
                first = False
            if check_history:
                pending.extend(fnode.bases)
        if board is not None:
            report.evidence.extend(
                record.to_dict() for record in board.evidence_since(watermark)
            )
        report.ok = not report.errors
        return report

    def verify_or_raise(
        self, version: Union[Uid, str], check_history: bool = True
    ) -> VerificationReport:
        """Like :meth:`verify_version` but raises :class:`TamperError`."""
        report = self.verify_version(version, check_history=check_history)
        if not report.ok:
            raise TamperError("; ".join(report.errors))
        return report
