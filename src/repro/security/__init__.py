"""Security layer: tamper evidence and access control.

Tamper evidence (paper §II-D, §III-C): "the storage is malicious, but the
users keep track of the latest uid of every branch."  Given a head uid, a
client can verify that every chunk of the returned value and every FNode
in the derivation history hashes back to the identifiers that reference
it — a malicious store cannot fabricate content for a known uid.

Access control: the demo architecture lists branch-based access control
among the semantic views; :mod:`~repro.security.acl` implements it with
per-key/per-branch grants and a wrapper engine that enforces them.
"""

from repro.faults.store import TamperingStore
from repro.security.acl import AccessController, Permission, SecuredForkBase
from repro.security.verify import VerificationReport, Verifier

__all__ = [
    "AccessController",
    "Permission",
    "SecuredForkBase",
    "TamperingStore",
    "VerificationReport",
    "Verifier",
]
