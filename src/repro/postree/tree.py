"""The POS-Tree handles: one view base, one level cursor, the keyed tree.

Every tree — keyed (:class:`PosTree`), positional
(:class:`~repro.postree.listtree.PositionalTree`) and blob
(:class:`~repro.postree.listtree.BlobTree`) — is a *view*: (store, root
uid, config).  :class:`TreeView` owns what they share: node access through
the store's node seam, the reachability walk, and the
:class:`LevelCursor` that every left-to-right scan and the splice editor
step with.  All mutating operations return a new handle on a new root;
every chunk ever written stays materialized, which is exactly the paper's
immutability story (old versions remain addressable and share pages with
new ones).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union

from repro.chunk import Chunk, ChunkType, Uid
from repro.errors import ChunkEncodingError, TreeError
from repro.postree.builder import bulk_build
from repro.postree.config import DEFAULT_TREE_CONFIG, TreeConfig
from repro.postree.node import (
    AnyIndexNode,
    IndexNode,
    LeafEntry,
    LeafNode,
    load_node,
    node_level,
)
from repro.store.base import ChunkStore

Node = Union[LeafNode, IndexNode]

#: A blob leaf's chunk type, bound once: :meth:`TreeView.node` tests it
#: for every leaf a whole-blob read hands on.
_BLOB = ChunkType.BLOB

# A path records, from the root downward, (index node, child position)
# frames leading to — but not including — a node of interest.
PathFrame = Tuple[Any, int]
Path = List[PathFrame]

#: Share of a tree's records whose leaves may differ before
#: :meth:`PosTree.assign` stops comparing and bulk-builds instead.  Taken
#: over records, which the root counts, because how many leaves a tree has
#: is not known until the walk ends.  Measured on a 20k-entry dict (531
#: leaves, scattered changes; EXPERIMENTS "Whole-value put"): editing costs
#: ≈ 20 ms for the walk plus ≈ 0.23 ms per differing leaf, rebuilding ≈ 39 ms
#: whatever changed, so they cross near 90 differing leaves — a sixth of
#: the leaves, holding 30% of the records (a changed key is likelier to sit
#: in a large leaf).  Set just below the crossover: a rebuild too many costs
#: 2–3 ms, an edit too many up to 3× (every leaf differing: 143 vs 45 ms).
REBUILD_SHARE = 0.25


class LevelCursor:
    """Left-to-right cursor over the nodes of one level of a tree.

    Keeps the parent path of the current node, so moving on re-reads no
    ancestor it still stands under.  It knows nothing of keys or
    positions: a descent asks each index node to ``route`` the target,
    and ``offset`` is what the last one handed down — for a positional
    tree the target's offset inside ``current``, for a keyed tree the key.
    """

    __slots__ = ("_load", "_level", "_stack", "current", "offset")

    def __init__(
        self,
        load: Callable[[Uid], Any],
        level: int,
        top: Any,
        target: Any = None,
        stack: Iterable[PathFrame] = (),
    ) -> None:
        """Stand on the node of ``level`` that ``target`` routes to from
        ``top`` (the leftmost when None); ``stack`` is the path to ``top``."""
        self._load = load
        self._level = level
        self._stack: Path = list(stack)
        self._down(top, target)

    def _down(self, node: Any, target: Any) -> None:
        """Go from ``node`` down to this level, toward ``target``."""
        level = self._level
        while isinstance(node, AnyIndexNode) and node.level > level:
            pos, target = (0, None) if target is None else node.route(target)
            self._stack.append((node, pos))
            node = self._load(node.entries[pos].child)
        self.current = node
        self.offset = target

    def enter(self, parent: AnyIndexNode, pos: int, target: Any = None) -> None:
        """Step into child ``pos`` of ``parent`` and on down to this level."""
        self._stack.append((parent, pos))
        self._down(self._load(parent.entries[pos].child), target)

    def path(self) -> Path:
        """Copy of the current node's parent path."""
        return list(self._stack)

    def advance(self) -> bool:
        """Move to the next node at this level; False at the level's end."""
        stack = self._stack
        while stack:
            parent, pos = stack.pop()
            if pos + 1 < len(parent.entries):
                self.enter(parent, pos + 1)
                return True
        return False

    def nodes(self) -> Iterator[Any]:
        """The current node, then every following node of the level.

        Under a parent one level up, the parent's remaining children are
        read in one loop, each taking the path's top frame and ``current``
        in place; :meth:`advance` runs only to cross into the next parent.
        The nodes are read in the same order either way.
        """
        yield self.current
        stack = self._stack
        load = self._load
        above = self._level + 1
        while stack:
            parent, pos = stack[-1]
            if parent.level == above:
                entries = parent.entries
                self.offset = None
                for pos in range(pos + 1, len(entries)):
                    stack[-1] = (parent, pos)
                    self.current = node = load(entries[pos].child)
                    yield node
            if not self.advance():
                return
            yield self.current


class TreeView:
    """What every tree handle is: a root uid over a chunk store, and the
    chunking parameters its index levels (and entry leaves) are cut with."""

    __slots__ = ("store", "root", "config")

    #: The decoded node classes this view accepts (a handle on the wrong
    #: kind of root fails at its first read).
    NODES: Tuple[type, ...] = ()

    def __init__(
        self,
        store: ChunkStore,
        root: Uid,
        config: TreeConfig = DEFAULT_TREE_CONFIG,
    ) -> None:
        self.store = store
        self.root = root
        self.config = config

    def node(self, uid: Uid) -> Any:
        """Load a node in decoded form.

        Through the store's node seam: a store that remembers decoded
        nodes (:mod:`repro.store.nodecache`) hands one back for a dict
        probe; any other hands back the chunk, decoded here.  A BLOB
        chunk is a blob leaf's decoded form already, so a whole-blob
        read hands each leaf on as the seam returned it.
        """
        node = self.store.get_node(uid)
        if node.__class__ is Chunk and node.type is not _BLOB:
            node = load_node(node)
        if isinstance(node, self.NODES):
            return node
        raise self._foreign(uid, node)

    def _foreign(self, uid: Uid, node: Any) -> ChunkEncodingError:
        """The error for a node this kind of view does not read."""
        return ChunkEncodingError(
            f"not a {type(self).__name__} node: {uid.short()} is a {type(node).__name__}"
        )

    def cursor(self, target: Any = None) -> LevelCursor:
        """A cursor on the leaf ``target`` routes to (the leftmost when None)."""
        return LevelCursor(self.node, 0, self.node(self.root), target)

    def reachable(self) -> Iterator[Tuple[Uid, Any]]:
        """Every distinct (uid, node) reachable from the root, each once.

        O(N); meant for tests, SIRI checkers and storage accounting.
        """
        seen: Set[Uid] = set()
        stack = [self.root]
        while stack:
            uid = stack.pop()
            if uid in seen:
                continue
            seen.add(uid)
            node = self.node(uid)
            yield uid, node
            if isinstance(node, AnyIndexNode):
                stack.extend(node.children())

    def page_uids(self) -> Set[Uid]:
        """The set P(I) of all pages reachable from the root (SIRI Def. 1)."""
        return {uid for uid, _ in self.reachable()}

    def node_count_by_level(self) -> Dict[int, int]:
        """How many distinct pages exist per level (diagnostics)."""
        counts: Dict[int, int] = {}
        for _, node in self.reachable():
            level = node_level(node)
            counts[level] = counts.get(level, 0) + 1
        return counts


class PosTree(TreeView):
    """Ordered key→value POS-Tree over a chunk store."""

    __slots__ = ()

    NODES = (LeafNode, IndexNode)

    # -- constructors --------------------------------------------------------

    @classmethod
    def empty(
        cls, store: ChunkStore, config: TreeConfig = DEFAULT_TREE_CONFIG
    ) -> "PosTree":
        """A tree with no records (canonical empty leaf root)."""
        return cls(store, bulk_build(store, [], config), config)

    @classmethod
    def from_pairs(
        cls,
        store: ChunkStore,
        pairs: Iterable[Tuple[bytes, bytes]],
        config: TreeConfig = DEFAULT_TREE_CONFIG,
        presorted: bool = False,
    ) -> "PosTree":
        """Bulk-build from (key, value) pairs; sorts and dedups by default.

        With duplicates, the last value for a key wins (load semantics).
        ``presorted`` pairs are tuples with strictly increasing keys, and
        they are the records as they are.
        """
        entries = pairs if presorted else sorted(dict(pairs).items())
        return cls(store, bulk_build(store, entries, config), config)

    def with_root(self, root: Uid) -> "PosTree":
        """Same store/config, different root (cheap version switch)."""
        return PosTree(self.store, root, self.config)

    # -- node access ---------------------------------------------------------

    def root_node(self) -> Node:
        """The decoded root."""
        return self.node(self.root)

    def height(self) -> int:
        """Levels above the leaves (0 for a leaf-only tree)."""
        return node_level(self.root_node())

    # -- point reads ---------------------------------------------------------

    def get(self, key: bytes) -> Optional[bytes]:
        """Look up one key, following split keys down (B+-tree descent).

        One loop over the store's node seam, each node bisected in place:
        what :meth:`~TreeView.node` and :meth:`IndexNode.child_for` do,
        without a call to each per level.  The repeat is kept because it
        shows end to end: cold point gets run about 1.07× faster than with
        those calls (EXPERIMENTS "Records as plain tuples").
        """
        get_node = self.store.get_node
        probe = (key,)  # sorts just before the entry that starts with ``key``
        uid = self.root
        while True:
            node = get_node(uid)
            if node.__class__ is Chunk:
                node = load_node(node)
            if node.__class__ is IndexNode:
                entries = node.entries
                if not entries:
                    return None
                # The first child whose split key is >= key; past the end, the last.
                uid = entries[min(bisect_left(entries, probe), len(entries) - 1)][1]
                continue
            if node.__class__ is not LeafNode:
                raise self._foreign(uid, node)
            entries = node.entries
            found = bisect_left(entries, probe)
            if found < len(entries) and entries[found][0] == key:
                return entries[found][1]
            return None

    def has(self, key: bytes) -> bool:
        """Membership test."""
        return self.get(key) is not None

    def __contains__(self, key: bytes) -> bool:
        return self.has(key)

    def __len__(self) -> int:
        """Record count (O(1): aggregated in the root)."""
        return self.root_node().count

    # -- scans ----------------------------------------------------------------

    def leaves(self, start_key: Optional[bytes] = None) -> Iterator[LeafNode]:
        """Yield leaf nodes left-to-right, starting at the leaf that would
        contain ``start_key`` (or the leftmost)."""
        yield from self.cursor(start_key).nodes()

    def iter_entries(
        self,
        start: Optional[bytes] = None,
        end: Optional[bytes] = None,
    ) -> Iterator[LeafEntry]:
        """Yield records with ``start <= key < end`` in key order."""
        for leaf in self.leaves(start_key=start):
            entries = leaf.entries
            # Only the first leaf can hold keys below ``start``.
            first = 0 if start is None else bisect_left(entries, (start,))
            start = None
            if end is not None and entries and entries[-1][0] >= end:
                yield from entries[first : bisect_left(entries, (end,), first)]
                return
            yield from entries[first:] if first else entries

    def items(self) -> Iterator[Tuple[bytes, bytes]]:
        """All (key, value) pairs in key order."""
        return self.iter_entries()

    def keys(self) -> Iterator[bytes]:
        """All keys in order."""
        for key, _ in self.iter_entries():
            yield key

    # -- structure inspection --------------------------------------------------

    def check_structure(self) -> None:
        """Validate invariants: key order, split keys, counts, levels.

        Raises :class:`TreeError` on the first violation; used heavily by
        the test suite after every editing operation.
        """
        previous_key: Optional[bytes] = None
        root = self.root_node()
        expected_level = node_level(root)

        def visit(uid: Uid, level: int) -> Tuple[bytes, int]:
            nonlocal previous_key
            node = self.node(uid)
            if node_level(node) != level:
                raise TreeError(
                    f"node {uid.short()} at level {node_level(node)}, expected {level}"
                )
            if isinstance(node, LeafNode):
                for key, _ in node.entries:
                    if previous_key is not None and key <= previous_key:
                        raise TreeError(
                            f"key order violated at {key!r} (after {previous_key!r})"
                        )
                    previous_key = key
                return node.split_key(), node.count
            total = 0
            for entry in node.entries:
                child_max, child_count = visit(entry.child, level - 1)
                if child_max != entry.split_key:
                    raise TreeError(
                        f"split key mismatch under {uid.short()}: "
                        f"{entry.split_key!r} vs child max {child_max!r}"
                    )
                if child_count != entry.count:
                    raise TreeError(
                        f"count mismatch under {uid.short()}: "
                        f"{entry.count} vs child count {child_count}"
                    )
                total += child_count
            return node.split_key(), total

        visit(self.root, expected_level)

    # -- updates (immutable style) ----------------------------------------------

    def update(
        self,
        puts: Optional[Dict[bytes, bytes]] = None,
        deletes: Optional[Iterable[bytes]] = None,
    ) -> "PosTree":
        """Apply a batch of upserts and deletions; return the new tree.

        Uses the incremental splice editor (boundary-resynchronizing), so
        cost is proportional to the touched region, not the tree size.
        """
        from repro.postree.edit import apply_edits

        new_root = apply_edits(self, puts or {}, set(deletes or ()))
        return self.with_root(new_root)

    def assign(self, entries: List[Tuple[bytes, bytes]]) -> "PosTree":
        """Return the tree holding exactly ``entries`` (sorted, unique keys).

        The whole-value counterpart of :meth:`update`, for a caller that
        holds the new content rather than the edits.  Each leaf is compared,
        as a list, with the stretch of ``entries`` that would have to equal
        it; only a leaf that differs is diffed, against the records up to
        its split key, and the edits go through :meth:`update`.  Once the
        differing leaves cover more than :data:`REBUILD_SHARE` of the
        records the walk stops and the tree is bulk-built.  Either way the
        root is the one :func:`bulk_build` gives ``entries``.
        """
        budget = REBUILD_SHARE * max(len(self), len(entries))
        puts: Dict[bytes, bytes] = {}
        deletes: Set[bytes] = set()
        position = differing = 0
        for leaf in self.leaves():
            old = leaf.entries
            aligned = position + len(old)
            if old == entries[position:aligned]:
                position = aligned
                continue
            # Resynchronize on the split key: what sorts up to it is this
            # leaf's share of ``entries``, however many records that is.
            split_key = old[-1][0]
            end = bisect_left(entries, (split_key,), position)
            if end < len(entries) and entries[end][0] == split_key:
                end += 1
            differing += max(len(old), end - position)
            if differing > budget:
                break
            share = entries[position:end]
            # A changed record is in both differences; the put wins.
            deletes.update(key for key, _ in set(old).difference(share))
            puts.update(set(share).difference(old))
            position = end
        # Past the last leaf only new keys remain.
        if differing + len(entries) - position > budget:
            return PosTree.from_pairs(self.store, entries, self.config, presorted=True)
        puts.update(entries[position:])
        return self.update(puts, deletes)

    def put(self, key: bytes, value: bytes) -> "PosTree":
        """Upsert one record."""
        return self.update(puts={key: value})

    def delete(self, key: bytes) -> "PosTree":
        """Remove one record (no-op if absent)."""
        return self.update(deletes=[key])

    def __repr__(self) -> str:
        return f"PosTree({len(self)} records, root={self.root.short()}…)"
