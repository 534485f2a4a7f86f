"""ForkBase reproduction: an immutable, tamper-evident storage substrate
for branchable applications.

Python reimplementation of the system demonstrated in *ForkBase:
Immutable, Tamper-evident Storage Substrate for Branchable Applications*
(Lin et al., ICDE 2020 demo; engine described in Wang et al., PVLDB 2018).

Layer map (bottom-up, mirroring Fig. 1 of the paper):

- :mod:`repro.chunk`, :mod:`repro.rolling`, :mod:`repro.store`,
  :mod:`repro.cluster` -- content-addressed chunk storage with
  content-defined slicing, local and simulated-distributed backends.
- :mod:`repro.postree` -- the POS-Tree (SIRI index): structurally
  invariant Merkle B+-tree with O(D log N) diff and sub-tree-reusing
  three-way merge.
- :mod:`repro.types`, :mod:`repro.vcs` -- typed objects and the version
  derivation graph (FNodes, branches, tamper-evident uids).
- :mod:`repro.db` -- the engine facade (Put/Get/Branch/Merge/Diff/...).
- :mod:`repro.table`, :mod:`repro.security`, :mod:`repro.api` -- semantic
  views: relational datasets, verification + ACLs, CLI/REST surfaces.
- :mod:`repro.baselines`, :mod:`repro.workloads` -- comparison systems and
  synthetic workloads used by the benchmark harness.

Quickstart::

    from repro import ForkBase

    db = ForkBase()
    db.put("profile", {"name": "ada", "role": "admin"})
    db.branch("profile", "experiment")
    db.put("profile", {"name": "ada", "role": "analyst"}, branch="experiment")
    diff = db.diff("profile", branch_a="master", branch_b="experiment")
"""

from repro.db.engine import ForkBase, VersionInfo
from repro.store import FileStore, InMemoryStore
from repro.types import FBlob, FBool, FList, FMap, FNumber, FSet, FString

__version__ = "1.0.0"

__all__ = [
    "ForkBase",
    "VersionInfo",
    "FileStore",
    "InMemoryStore",
    "FBlob",
    "FBool",
    "FList",
    "FMap",
    "FNumber",
    "FSet",
    "FString",
    "__version__",
]
