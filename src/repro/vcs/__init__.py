"""Version control layer (paper §II-D).

ForkBase's extended key-value model: every Put creates an **FNode** — a
chunk holding the object's value root, its derivation links (``bases``)
and commit metadata.  FNodes form the **version derivation graph**, a DAG
whose node identifiers (uids) are tamper evident: the uid covers the value
Merkle root *and* the hash chain of bases, so equal uid ⇔ equal value and
equal history.

Branch heads are the only mutable state, held in a
:class:`~repro.vcs.branches.BranchTable` outside the Merkle world —
matching the paper's threat model, where "users keep track of the latest
uid of every branch that has been committed."  They move in one place,
:class:`~repro.vcs.heads.Heads`, which journals every move.
"""

from repro.vcs.branches import BranchTable
from repro.vcs.fnode import FNode
from repro.vcs.graph import VersionGraph
from repro.vcs.heads import Heads
from repro.vcs.journal import CommitJournal, apply_record, replay_into

__all__ = ["BranchTable", "CommitJournal", "FNode", "Heads", "VersionGraph", "apply_record",
           "replay_into"]
