"""Consistent hashing ring with virtual nodes."""

from __future__ import annotations

import bisect
import hashlib
from typing import List, Sequence

from repro.chunk import Uid


def _point(label: bytes) -> int:
    """Ring position of a label (first 8 bytes of SHA-256)."""
    return int.from_bytes(hashlib.sha256(label).digest()[:8], "big")


#: Width of a ring coordinate in bits (anti-entropy buckets by prefix).
POSITION_BITS = 64

#: Virtual points each node scatters around the ring.
VNODES = 64


def ring_position(uid: Uid) -> int:
    """Public: the 64-bit ring coordinate of a uid.

    Placement and anti-entropy bucketing share this coordinate, so a
    digest-tree bucket corresponds to a contiguous arc of the ring — the
    property that keeps replica digests comparable across nodes.
    """
    return _point(uid)


class HashRing:
    """Maps chunk uids to an ordered replica list of node names."""

    def __init__(self, nodes: Sequence[str]) -> None:
        self._points: List[int] = []
        self._owners: List[str] = []
        self._nodes: List[str] = []
        for node in nodes:
            self.add_node(node)

    @property
    def nodes(self) -> List[str]:
        """Current member names (sorted)."""
        return sorted(self._nodes)

    def add_node(self, name: str) -> None:
        """Join a node: scatter its virtual points around the ring."""
        if name in self._nodes:
            raise ValueError(f"node {name!r} already in ring")
        self._nodes.append(name)
        for vnode in range(VNODES):
            point = _point(f"{name}#{vnode}".encode("utf-8"))
            index = bisect.bisect(self._points, point)
            self._points.insert(index, point)
            self._owners.insert(index, name)

    def remove_node(self, name: str) -> None:
        """Leave a node: drop its virtual points."""
        if name not in self._nodes:
            raise ValueError(f"node {name!r} not in ring")
        self._nodes.remove(name)
        keep = [(p, o) for p, o in zip(self._points, self._owners) if o != name]
        self._points = [p for p, _ in keep]
        self._owners = [o for _, o in keep]

    def replicas(self, uid: Uid, count: int) -> List[str]:
        """The first ``count`` distinct nodes clockwise from the uid."""
        if not self._nodes:
            return []
        count = min(count, len(self._nodes))
        start = bisect.bisect(self._points, _point(uid))
        chosen: List[str] = []
        for offset in range(len(self._points)):
            owner = self._owners[(start + offset) % len(self._points)]
            if owner not in chosen:
                chosen.append(owner)
                if len(chosen) == count:
                    break
        return chosen

    def primary(self, uid: Uid) -> str:
        """The first replica."""
        return self.replicas(uid, 1)[0]
