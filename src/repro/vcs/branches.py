"""Branch heads: the only mutable state in the system.

"A key may have multiple branches" (§II-D).  The table maps
``key → {branch name → head version uid}``.  It lives *outside* the
Merkle store on purpose: under the paper's threat model the storage is
untrusted, and it is the client's record of branch heads that anchors
tamper-evidence validation.

An engine changes it only through :class:`repro.vcs.heads.Heads`, which
on a durable engine persists it in the commit journal
(:mod:`repro.vcs.journal`): a checkpoint, then the head moves since.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from repro.chunk import Uid
from repro.errors import BranchExistsError, HeadMovedError, UnknownBranchError

DEFAULT_BRANCH = "master"

#: Sentinel distinguishing "no CAS requested" from "expect no branch" (None).
_UNSET = object()


class BranchTable:
    """Per-key named branch heads."""

    def __init__(self) -> None:
        self._heads: Dict[str, Dict[str, Uid]] = {}

    # -- queries ---------------------------------------------------------------

    def keys(self) -> List[str]:
        """All data keys that have at least one branch."""
        return sorted(self._heads)

    def __contains__(self, key: str) -> bool:
        """True if ``key`` has at least one branch (one dict probe)."""
        return key in self._heads

    def branches(self, key: str) -> List[str]:
        """Branch names for ``key`` (sorted, DEFAULT first if present)."""
        names = sorted(self._heads.get(key, ()))
        if DEFAULT_BRANCH in names:
            names.remove(DEFAULT_BRANCH)
            names.insert(0, DEFAULT_BRANCH)
        return names

    def has_branch(self, key: str, branch: str) -> bool:
        """True if the branch exists for the key."""
        return branch in self._heads.get(key, ())

    def head(self, key: str, branch: str) -> Uid:
        """Head uid of a branch, or raise :class:`UnknownBranchError`."""
        try:
            return self._heads[key][branch]
        except KeyError:
            raise UnknownBranchError(key, branch) from None

    def heads(self, key: str) -> Dict[str, Uid]:
        """All branch heads for ``key`` (copy)."""
        if key not in self._heads:
            raise UnknownBranchError(key, "<any>")
        return dict(self._heads[key])

    def all_heads(self) -> Iterator[Tuple[str, str, Uid]]:
        """Every (key, branch, head) triple."""
        for key in sorted(self._heads):
            for branch in sorted(self._heads[key]):
                yield key, branch, self._heads[key][branch]

    # -- mutations ---------------------------------------------------------------

    def set_head(self, key: str, branch: str, head: Uid, expected: object = _UNSET) -> None:
        """Move (or create) a branch head.

        With ``expected`` given, this is a compare-and-swap: ``None``
        asserts the branch does not exist yet; a uid asserts it is the
        current head.  A mismatch raises
        :class:`~repro.errors.HeadMovedError` — the signature of a
        concurrent writer — instead of silently losing their update.
        """
        if expected is not _UNSET:
            actual = self._heads.get(key, {}).get(branch)
            if actual != expected:
                raise HeadMovedError(key, branch, expected, actual)
        self._heads.setdefault(key, {})[branch] = head

    def create(self, key: str, branch: str, head: Uid) -> None:
        """Create a branch; error if it already exists."""
        if self.has_branch(key, branch):
            raise BranchExistsError(f"branch {branch!r} already exists for {key!r}")
        self.set_head(key, branch, head)

    def rename(self, key: str, old: str, new: str) -> None:
        """Rename a branch, preserving its head."""
        if not self.has_branch(key, old):
            raise UnknownBranchError(key, old)
        if self.has_branch(key, new):
            raise BranchExistsError(f"branch {new!r} already exists for {key!r}")
        heads = self._heads[key]
        heads[new] = heads.pop(old)

    def delete(self, key: str, branch: str) -> None:
        """Delete a branch head (the versions remain addressable)."""
        if not self.has_branch(key, branch):
            raise UnknownBranchError(key, branch)
        del self._heads[key][branch]
        if not self._heads[key]:
            del self._heads[key]

    def rename_key(self, old_key: str, new_key: str) -> None:
        """Move every branch of ``old_key`` under ``new_key``."""
        if old_key not in self._heads:
            raise UnknownBranchError(old_key, "<any>")
        if new_key in self._heads:
            raise BranchExistsError(f"key {new_key!r} already exists")
        self._heads[new_key] = self._heads.pop(old_key)

    def drop_key(self, key: str) -> None:
        """Forget every branch of ``key``."""
        self._heads.pop(key, None)

    def __len__(self) -> int:
        return sum(len(branches) for branches in self._heads.values())
