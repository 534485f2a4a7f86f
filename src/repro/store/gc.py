"""Mark-and-sweep garbage collection for chunk stores.

Immutability means nothing is ever overwritten, so space is reclaimed the
Git way: chunks unreachable from any live root (branch heads, plus their
full histories and value trees) can be swept.  Because all references are
content addresses, the marker only needs to know how to enumerate each
chunk type's children — there are no back-references or ref-counts to
maintain on the write path.

Typical use::

    from repro.store.gc import collect_garbage
    report = collect_garbage(engine)            # sweep in place
    report = collect_garbage(engine, dry_run=True)   # just measure
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Set

from repro.chunk import Chunk, ChunkType, Uid
from repro.errors import StoreError
from repro.postree.node import child_uids
from repro.store.base import ChunkStore, physical_store
from repro.vcs.fnode import FNode

if TYPE_CHECKING:
    from repro.db.engine import Engine


def chunk_children(chunk: Chunk) -> List[Uid]:
    """The uids a chunk references (its Merkle children)."""
    if chunk.type == ChunkType.FNODE:
        fnode = FNode.decode(chunk)
        return [fnode.value_root, *fnode.bases]
    # A tree's index nodes have children; every other chunk is terminal.
    return child_uids(chunk)


@dataclass
class GcReport:
    """Outcome of one collection."""

    live_chunks: int
    live_bytes: int
    swept_chunks: int
    swept_bytes: int
    dry_run: bool
    #: Segments that existed before / survived a segment compaction
    #: (both zero when the backend has no segments or ``compact=False``).
    segments_before: int = 0
    segments_after: int = 0
    #: On-disk bytes reclaimed by rewriting segments.
    compacted_bytes: int = 0

    @property
    def reclaim_fraction(self) -> float:
        """Share of bytes that were (or would be) reclaimed."""
        total = self.live_bytes + self.swept_bytes
        if total == 0:
            return 0.0
        return self.swept_bytes / total


def mark_live(store: ChunkStore, roots: Iterable[Uid]) -> Set[Uid]:
    """Every chunk reachable from ``roots`` (missing chunks are skipped)."""
    live: Set[Uid] = set()
    stack = list(roots)
    while stack:
        uid = stack.pop()
        if uid in live:
            continue
        chunk = store.get_maybe(uid)
        if chunk is None:
            continue
        live.add(uid)
        stack.extend(chunk_children(chunk))
    return live


def collect_garbage(
    engine: Engine,
    extra_roots: Iterable[Uid] = (),
    dry_run: bool = False,
    compact: bool = False,
) -> GcReport:
    """Sweep chunks unreachable from the engine's branch heads.

    Sweeping needs a store whose ``delete`` reclaims durably
    (``supports_in_place_sweep``): the dict-backed store frees memory
    immediately, and both segmented layouts drop index entries whose
    bytes die at the next segment compaction.  A store that lies about
    its holdings does not claim it, and is refused.

    With ``compact=True``, a segmented store additionally rewrites its
    live records into fresh segments after the sweep and unlinks the old
    ones, so the report's ``compacted_bytes`` shows actual disk space
    returned to the OS.
    """
    store = engine.store
    roots = [head for _, _, head in engine.heads.table.all_heads()]
    roots.extend(extra_roots)
    live = mark_live(store, roots)

    live_bytes = 0
    swept_chunks = 0
    swept_bytes = 0
    doomed: List[Uid] = []
    for uid in store.ids():
        chunk = store.get_maybe(uid)
        if chunk is None:
            continue
        if uid in live:
            live_bytes += chunk.size()
        else:
            doomed.append(uid)
            swept_chunks += 1
            swept_bytes += chunk.size()

    if not dry_run and doomed:
        if not store.supports_in_place_sweep:
            raise StoreError("in-place sweep requires a store with durable deletes")
        for uid in doomed:
            # Delete through the top of the stack so cache layers evict.
            store.delete(uid)
        # The engine's own stack evicted via delete(); *sibling* wrappers
        # sharing this physical store (another client's cache over the
        # same backing) hear about the sweep through the subscription bus
        # so they cannot keep serving chunks the store no longer holds.
        physical_store(store).notify_swept(doomed)

    segments_before = 0
    segments_after = 0
    compacted_bytes = 0
    if compact and not dry_run:
        physical = physical_store(store)
        compactor = getattr(physical, "compact_segments", None)
        if callable(compactor):
            outcome = compactor()
            segments_before = outcome["segments_before"]
            segments_after = outcome["segments_after"]
            compacted_bytes = max(0, outcome["bytes_before"] - outcome["bytes_after"])

    return GcReport(
        live_chunks=len(live),
        live_bytes=live_bytes,
        swept_chunks=swept_chunks,
        swept_bytes=swept_bytes,
        dry_run=dry_run,
        segments_before=segments_before,
        segments_after=segments_after,
        compacted_bytes=compacted_bytes,
    )

