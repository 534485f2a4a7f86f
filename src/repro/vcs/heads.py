"""Branch heads behind one seam: the only place they move.

:class:`Heads` holds the :class:`~repro.vcs.branches.BranchTable` and, on
a durable engine, the :class:`~repro.vcs.journal.CommitJournal` that
persists it.  A move is a journal record, applied with the table's own
checks and then appended; a move whose sync or append fails is un-acked
by replaying the journal as recovery will, so no verb needs an undo.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import DiskFaultError, DiskFullError
from repro.store.base import ChunkStore
from repro.vcs.branches import BranchTable
from repro.vcs.journal import CommitJournal, Record, apply_record, checkpoint, replay_into


class Heads:
    """The branch table, its commit journal, and the verbs that move them."""

    def __init__(
        self, store: ChunkStore, journal: Optional[CommitJournal] = None, limit: int = 1 << 20
    ) -> None:
        """Heads over ``store``; with a ``journal``, those it replays, then
        a checkpoint if the replay dropped records (truncated for good)."""
        self.store = store
        self.journal = journal
        #: Bytes appended since the last checkpoint that trigger the next.
        self.limit = limit
        self.table = BranchTable()
        if journal is not None:
            records = journal.records
            if replay_into(self.table, records, store.has) < len(records):
                self.checkpoint()

    def move(self, record: Record) -> None:
        """Apply one head move, journal it, then maybe checkpoint.

        The table's checks raise before any byte is written (``live``
        :func:`~repro.vcs.journal.apply_record`).  At the journal's fsync
        point the chunk store is synced first: no head becomes durable
        before its chunks.  If the sync or the append fails,
        :meth:`reload` un-acks the move and the error is re-raised.
        """
        apply_record(self.table, record, self.store.has, live=True)
        if self.journal is None:
            return
        try:
            if self.journal.sync_due:
                self.store.sync()
            self.journal.append(record)
        except (DiskFullError, DiskFaultError):
            self.reload()
            raise
        if self.journal.size() - self.journal.checkpoint_size >= self.limit:
            try:
                self.checkpoint()
            except DiskFullError:
                # Deferred, not lost: the move is acked and durable; the
                # journal keeps growing until space frees up.
                pass

    def reload(self) -> None:
        """Rebuild the table by replaying the journal, as a reopen would."""
        if self.journal is not None:
            self.table = BranchTable()
            replay_into(self.table, self.journal.records, self.store.has)

    def checkpoint(self) -> None:
        """Rewrite the journal as one record per head, after syncing the
        store so it never names a commit that is not durable
        (:meth:`CommitJournal.reset` is atomic)."""
        if self.journal is not None:
            self.store.sync()
            self.journal.reset(checkpoint(self.table))

    def close(self) -> None:
        """Checkpoint and close the journal (idempotent)."""
        if self.journal is not None:
            self.checkpoint()
            self.journal.close()
            self.journal = None

    def abandon(self) -> None:
        """Release the journal without a checkpoint (crash simulation)."""
        if self.journal is not None:
            self.journal.abandon()
            self.journal = None
