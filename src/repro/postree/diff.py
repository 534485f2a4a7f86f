"""Fast differential queries between POS-Tree instances (paper §II-B).

"Because two sub-trees with identical content must have the same root id,
the Diff operation can be performed recursively by following the sub-trees
with different ids, and pruning ones with the same ids.  The complexity of
Diff is therefore O(D·log N)."

The implementation walks both trees with *lazy* entry cursors: a cursor
only loads a child node when the walk actually needs to look inside it.
Whenever both cursors sit at the start of sub-trees with equal uids — at
any level, even different levels on the two sides — the whole sub-tree is
skipped without ever being fetched from storage.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple, Union

from repro.chunk import Uid
from repro.postree.node import IndexNode, LeafNode

if TYPE_CHECKING:
    from repro.postree.tree import PosTree


class TreeDiff:
    """Key-level differences from tree A to tree B."""

    __slots__ = ("added", "removed", "changed", "subtrees_pruned", "nodes_loaded")

    def __init__(self) -> None:
        #: Keys present only in B (key → B value).
        self.added: Dict[bytes, bytes] = {}
        #: Keys present only in A (key → A value).
        self.removed: Dict[bytes, bytes] = {}
        #: Keys in both with different values (key → (A value, B value)).
        self.changed: Dict[bytes, Tuple[bytes, bytes]] = {}
        #: Sub-trees skipped because their uids matched (the pruning win).
        self.subtrees_pruned = 0
        #: Node chunks actually loaded during the walk (the measured cost).
        self.nodes_loaded = 0

    @property
    def edit_count(self) -> int:
        """D: the number of differing keys."""
        return len(self.added) + len(self.removed) + len(self.changed)

    def is_empty(self) -> bool:
        """True when the trees hold identical record sets."""
        return self.edit_count == 0

    def as_edits(self) -> Tuple[Dict[bytes, bytes], List[bytes]]:
        """Express the diff as (puts, deletes) that turn A into B."""
        puts: Dict[bytes, bytes] = dict(self.added)
        for key, (_, b_value) in self.changed.items():
            puts[key] = b_value
        return puts, list(self.removed)


class _LazyCursor:
    """Ordered record walk that loads nodes only when forced to look inside.

    The frame stack runs root→downward; the deepest frame is the
    *frontier*.  If the frontier node is an index node, its current child
    has not been loaded yet, so the diff can prune that child's uid
    against the other side before fetching it.  The diff reads and moves
    the frontier frame itself when it walks a leaf.
    """

    __slots__ = ("_tree", "frames", "done", "loads")

    def __init__(self, tree: PosTree) -> None:
        self._tree = tree
        self.frames: List[Tuple[object, int]] = []
        self.done = False
        self.loads = 0
        root = self._load(tree.root)
        if isinstance(root, LeafNode) and not root.entries:
            self.done = True
        elif isinstance(root, IndexNode) and not root.entries:
            self.done = True
        else:
            self.frames.append((root, 0))

    def _load(self, uid: Uid) -> Union[LeafNode, IndexNode]:
        self.loads += 1
        return self._tree.node(uid)

    # -- frontier inspection ---------------------------------------------------

    def expand(self) -> None:
        """Load the frontier child and push it (one level of descent)."""
        node, pos = self.frames[-1]
        child = self._load(node.entries[pos].child)
        self.frames.append((child, 0))

    def aligned_subtrees(self) -> Dict[Uid, int]:
        """Sub-trees whose first record is the current position.

        Maps sub-tree uid → depth of the frame holding it (so skipping is
        "advance that frame").  Topmost candidates iterate first.  The
        frontier child itself is always aligned; higher children require
        every deeper frame to sit at position 0.
        """
        out: Dict[Uid, int] = {}
        frames = self.frames
        # suffix_zero[d] := frames[d:] are all at position 0.
        zero = True
        suffix_zero = [False] * (len(frames) + 1)
        suffix_zero[len(frames)] = True
        for depth in range(len(frames) - 1, -1, -1):
            if frames[depth][1] != 0:
                zero = False
            suffix_zero[depth] = zero
        for depth, (node, pos) in enumerate(frames):
            if isinstance(node, LeafNode):
                break
            if suffix_zero[depth + 1]:
                out[node.entries[pos].child] = depth
        return out

    # -- movement ---------------------------------------------------------------

    def retreat(self) -> None:
        """Pop exhausted frames; leave the cursor at an unvisited child."""
        while self.frames:
            node, pos = self.frames[-1]
            if pos < len(node.entries):
                return
            self.frames.pop()
            if self.frames:
                parent, ppos = self.frames[-1]
                self.frames[-1] = (parent, ppos + 1)
        self.done = True

    def skip_subtree(self, depth: int) -> None:
        """Jump past the aligned sub-tree held by frame ``depth``."""
        del self.frames[depth + 1 :]
        node, pos = self.frames[-1]
        self.frames[-1] = (node, pos + 1)
        self.retreat()


def diff_trees(tree_a: PosTree, tree_b: PosTree) -> TreeDiff:
    """Compute the key-level diff from ``tree_a`` to ``tree_b``.

    Cost is O(D·log N) node loads: identical sub-trees are pruned by uid
    without being fetched.  Once both cursors stand in leaves, the two
    leaves are merge-walked in one loop until either runs out: past a
    leaf's first record no sub-tree starts at the cursor, so there is
    nothing to prune until a leaf boundary.
    """
    diff = TreeDiff()
    if tree_a.root == tree_b.root:
        diff.subtrees_pruned = 1
        return diff

    cursor_a = _LazyCursor(tree_a)
    cursor_b = _LazyCursor(tree_b)
    frames_a = cursor_a.frames
    frames_b = cursor_b.frames
    added, removed, changed = diff.added, diff.removed, diff.changed

    while not cursor_a.done and not cursor_b.done:
        node_a, pos_a = frames_a[-1]
        node_b, pos_b = frames_b[-1]
        ready_a = isinstance(node_a, LeafNode)
        ready_b = isinstance(node_b, LeafNode)
        # Which sub-trees start at both cursors (aligned_subtrees): none on
        # a side standing mid-leaf; only the pending child on a side whose
        # frontier index frame is past its first child; higher candidates
        # only where every deeper frame is at position 0.
        common = None
        if (ready_a and pos_a) or (ready_b and pos_b):
            pass  # mid-leaf: the leaf walk below takes it to the leaf's end
        elif pos_a and pos_b:
            if node_a.entries[pos_a].child == node_b.entries[pos_b].child:
                common = (len(frames_a) - 1, len(frames_b) - 1)
        else:
            subs_b = cursor_b.aligned_subtrees()
            for uid, depth_a in cursor_a.aligned_subtrees().items():  # topmost first
                if uid in subs_b:
                    common = (depth_a, subs_b[uid])
                    break
        if common is not None:
            cursor_a.skip_subtree(common[0])
            cursor_b.skip_subtree(common[1])
            diff.subtrees_pruned += 1
            continue
        # No prune possible at the current frontiers: descend one level on
        # the taller side (or both), re-checking for prunes as new child
        # uids surface.
        if not ready_a or not ready_b:
            if not ready_a and not ready_b:
                level_a = node_a.level
                level_b = node_b.level
                if level_a >= level_b:
                    cursor_a.expand()
                if level_b >= level_a:
                    cursor_b.expand()
            elif not ready_a:
                cursor_a.expand()
            else:
                cursor_b.expand()
            continue
        entries_a = node_a.entries
        entries_b = node_b.entries
        end_a = len(entries_a)
        end_b = len(entries_b)
        while pos_a < end_a and pos_b < end_b:
            key_a, value_a = entries_a[pos_a]
            key_b, value_b = entries_b[pos_b]
            if key_a < key_b:
                removed[key_a] = value_a
                pos_a += 1
            elif key_a > key_b:
                added[key_b] = value_b
                pos_b += 1
            else:
                if value_a != value_b:
                    changed[key_a] = (value_a, value_b)
                pos_a += 1
                pos_b += 1
        frames_a[-1] = (node_a, pos_a)
        frames_b[-1] = (node_b, pos_b)
        cursor_a.retreat()
        cursor_b.retreat()

    _drain(cursor_a, removed)
    _drain(cursor_b, added)
    diff.nodes_loaded = cursor_a.loads + cursor_b.loads
    return diff


def _drain(cursor: _LazyCursor, out: Dict[bytes, bytes]) -> None:
    """Copy every record left under ``cursor`` into ``out``."""
    frames = cursor.frames
    while not cursor.done:
        leaf, pos = frames[-1]
        if not isinstance(leaf, LeafNode):
            cursor.expand()
            continue
        out.update(leaf.entries[pos:])
        frames[-1] = (leaf, len(leaf.entries))
        cursor.retreat()


def diff_keys(tree_a: PosTree, tree_b: PosTree) -> List[bytes]:
    """Just the differing keys, sorted (convenience for renderers)."""
    diff = diff_trees(tree_a, tree_b)
    keys = set(diff.added) | set(diff.removed) | set(diff.changed)
    return sorted(keys)
