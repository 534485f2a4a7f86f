"""Incremental POS-Tree editing.

Applying a batch of upserts/deletes does **not** rebuild the tree, and does
not touch what lies between far-apart edits.  Each level is spliced in one
left-to-right pass over *regions*: the walker descends to the node the next
edit lands in, the content-defined chunker restarts at that node's
boundary and re-runs from there, and as soon as the emitted boundaries
*resynchronize* with the old ones — with no further edit in the node the
walker stands on — the region closes and every following page is
reused, up to the node of the next edit.  The walker gets there by a finger
move up and down its own parent stack (ancestors already decoded are not
re-read), so a dense batch that touches every node degenerates to a plain
walk of the level.  The consumed nodes' split keys and the new nodes'
descriptors then become the edit batch of the parent level, where the same
splice repeats (regions whose re-chunked span reaches the next edit's node
simply never close, so the batch shrinks on the way up), until the root.
Cost is O((D + resync window) · log N) pages *per region*, independent of
tree size and of the key span between regions.

An edit that keeps every entry's length costs less: when the walker stands
on a node at an old boundary and every op landing in it replaces an entry
with an encoding of the same length, every entry end stays where it was,
and a cut is a function of entry ends, the size and entry-count gates, and
the pattern hits at or past ``min_size - 1`` bytes into the node — whose
windows lie inside the node, as ``TreeConfig`` keeps ``min_size ≥ window``.
Only the windows that cover a changed byte can move a hit, so the kernel
hashes just those, on the old bytes and on the new ones, in one call.  If
their hits close the node where it closed before, the node is its old
payload with the entries patched in: nothing else is encoded, the chunker
does not run, no byte before the node is read, and the region closes at
the node's end (a changed window reaching into the next node cannot cut
there either).  Otherwise the node is re-chunked as above.  Its parent
then sees the same split key and count under a new uid — again a
same-length replacement — so a one-key update of a fixed-width value
costs O(changed bytes + window) hashed bytes per level, up to and
including the root.

Structural invariance (SIRI Property 1) makes this safe to verify: the
property tests assert that ``apply_edits`` yields a byte-identical root to
bulk-building the edited record set from scratch, and that every chunk it
writes is reachable from that root.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.chunk import Uid
from repro.chunk.codec import uvarint_size
from repro.postree.builder import WriteBatch, build_index_levels, build_tree
from repro.postree.node import (
    IndexEntry,
    IndexNode,
    LeafEntry,
    LeafNode,
    encode_index_entries,
    encode_index_entry,
    encode_leaf_entries,
    encode_leaf_entry,
    index_entry_size,
    leaf_entry_size,
)
from repro.postree.tree import LevelCursor, PosTree
from repro.rolling.chunker import ChunkerConfig
from repro.rolling.fast import VectorEntryChunker, pattern_candidates

#: A record or a child reference; field 0 is the key either way.
_Entry = Union[LeafEntry, IndexEntry]

#: One edit of a level's entry stream, keyed like the entries themselves
#: (record key at the leaves, split key above): the entry now stored
#: under that key, or None to remove it.  Batches are sorted by key.
_Op = Tuple[bytes, Optional[_Entry]]


def _index_memo(tree: PosTree) -> Callable[[Uid], Union[LeafNode, IndexNode]]:
    """``tree.node`` that decodes each index node once per edit.

    Shared by the walkers of every level: the walk of a level passes
    through all the ancestors the levels above will ask for again.
    """
    seen: Dict[Uid, IndexNode] = {}

    def load(uid: Uid) -> Union[LeafNode, IndexNode]:
        node: Union[LeafNode, IndexNode, None] = seen.get(uid)
        if node is None:
            node = tree.node(uid)
            if isinstance(node, IndexNode):
                seen[uid] = node
        return node

    return load


class _Walker(LevelCursor):
    """The editor's cursor: the shared level cursor plus the two things
    only a splice asks — a forward seek by key that re-reads nothing it
    stands under, and whether it stands on its level's last node.

    Kept apart from :class:`LevelCursor` on purpose: a seek reads split
    keys, which only keyed nodes have.
    """

    __slots__ = ()

    def seek(self, key: bytes) -> bool:
        """Move forward to the node ``key`` lands in; False if already there.

        ``key`` must not sort before the current node, so one at or below
        its last key lands in it.  Otherwise decided from the split keys on
        the current path alone — the first ancestor that routes ``key``
        elsewhere is where the path forks — so nothing the walker still
        stands under is read again.
        """
        if key <= self.current.entries[-1][0]:
            return False
        for depth, (parent, pos) in enumerate(self._stack):
            target = parent.child_for(key)
            if target != pos:
                del self._stack[depth:]
                self.enter(parent, target, key)
                return True
        return False

    def at_level_end(self) -> bool:
        """True on the level's last node (decided from the path, no read)."""
        return all(pos + 1 == len(parent.entries) for parent, pos in self._stack)


class _Emitter:
    """Shared boundary/buffer state machine for one level's splice.

    Entries arrive in *runs* (typically one old node's worth) so the
    chunker can hash each run with one vectorized pass instead of an
    interpreted loop per byte — the same batching contract the bulk
    builder uses, keeping editor and builder boundaries bit-identical.
    Each entry travels with its encoded string, which becomes the new
    node's payload: nothing is encoded a second time.  Nodes go to the
    edit's write batch, stored when the whole edit is done.
    """

    __slots__ = (
        "_batch", "_chunker", "_level", "buffer", "_encoded", "descriptors", "bytes_since_edit",
    )

    def __init__(self, batch: WriteBatch, chunker: VectorEntryChunker, level: int) -> None:
        self._batch = batch
        self._chunker = chunker
        self._level = level
        self.buffer: List = []
        self._encoded: List[bytes] = []
        self.descriptors: List[IndexEntry] = []
        self.bytes_since_edit: Optional[int] = None  # None: edit not reached

    def begin_region(self) -> None:
        """Restart at an old node boundary, the chunker with no history.

        A node's cut lies at least ``min_size`` bytes into it, and
        TreeConfig keeps ``min_size ≥ window``, so no window a cut depends
        on reaches back past the boundary: the bytes before it never
        decide one, and are not read.
        """
        self._chunker.seed(b"")
        self.bytes_since_edit = None

    def emit_node(self, node: Union[LeafNode, IndexNode]) -> None:
        """Emit a whole node whose cuts are an old node's (the patch step):
        the stream is at a boundary again, and the region closes there."""
        self._batch.append((node.to_chunk(), node))
        self.descriptors.append(node.descriptor())
        self.begin_region()

    def mark_edit(self) -> None:
        """A deletion: the stream diverges here with nothing emitted."""
        self.bytes_since_edit = 0

    def emit_run(
        self, entries: Sequence[_Entry], encoded: List[bytes], last_edited: Optional[int] = None
    ) -> None:
        """Feed a run of entries, flushing nodes on chunker boundaries.

        ``encoded[i]`` is the serialization of ``entries[i]``;
        ``last_edited`` is the position of the last entry of the run that
        an op put there (None: every entry is an old one).  Neither list
        is kept: nodes are built from slices of them.
        """
        if not entries:
            return
        start = 0
        for boundary in self._chunker.push_many(encoded):
            self.buffer += entries[start : boundary + 1]
            self._encoded += encoded[start : boundary + 1]
            self.flush()
            start = boundary + 1
        self.buffer += entries[start:]
        self._encoded += encoded[start:]
        if last_edited is not None:
            self.bytes_since_edit = sum(map(len, encoded[last_edited + 1 :]))
        elif self.bytes_since_edit is not None:
            self.bytes_since_edit += sum(map(len, encoded))

    def flush(self) -> None:
        """Materialize the buffered entries as one node."""
        if not self.buffer:
            return
        node: Union[LeafNode, IndexNode]
        if self._level == 0:
            node = LeafNode(self.buffer, encoded=self._encoded)
        else:
            node = IndexNode(self._level, self.buffer, encoded=self._encoded)
        self._batch.append((node.to_chunk(), node))
        self.descriptors.append(node.descriptor())
        self.buffer = []
        self._encoded = []

    def in_sync(self, window: int) -> bool:
        """True at an old node boundary the emitted stream shares: nothing
        buffered, and no edit inside the rolling window (or none yet)."""
        return not self.buffer and (
            self.bytes_since_edit is None or self.bytes_since_edit >= window
        )


def _splice_level(
    tree: PosTree, batch: WriteBatch, level: int, walker: _Walker, ops: Sequence[_Op]
) -> Tuple[List[IndexEntry], List[bytes], bool]:
    """Re-chunk one level around each of ``ops``, region by region.

    ``walker`` stands on the node the first op lands in; new nodes go to
    ``batch``.  Returns the new nodes' descriptors, the split keys of the
    old nodes they replace (both in key order, all regions together), and
    whether the splice was one region that ran to the level's end.
    """
    config = tree.config.leaf if level == 0 else tree.config.index
    encode: Callable[[Any], bytes] = encode_leaf_entry if level == 0 else encode_index_entry
    encode_many: Callable[[Any], List[bytes]] = (
        encode_leaf_entries if level == 0 else encode_index_entries
    )
    window = config.window
    emitter = _Emitter(batch, VectorEntryChunker(config), level)
    consumed: List[bytes] = []
    one_region = True
    op_index = 0

    def emit_node(entries: Sequence[_Entry], through: Optional[bytes]) -> None:
        """Emit ``entries`` merged with the ops up to key ``through`` (None:
        all that remain) as one chunker run per stretch between deletions.

        The entries no op touches go through the bulk encoder in whole
        stretches, a put's entry through the single one: each entry that
        is emitted is encoded once, and a replaced one never.
        """
        nonlocal op_index
        run: List[_Entry] = []
        encoded: List[bytes] = []
        last_edited: Optional[int] = None
        position = 0
        while op_index < len(ops) and (through is None or ops[op_index][0] <= through):
            key, entry = ops[op_index]
            op_index += 1
            # ``(key,)`` sorts just before every entry that starts with ``key``.
            found = bisect_left(entries, (key,), position)
            if found > position:
                untouched = entries[position:found]
                run += untouched
                encoded += encode_many(untouched)
            replaces = found < len(entries) and entries[found][0] == key
            position = found + 1 if replaces else found
            if entry is None:
                emitter.emit_run(run, encoded, last_edited)
                emitter.mark_edit()
                run, encoded, last_edited = [], [], None
            else:
                last_edited = len(run)
                run.append(entry)
                encoded.append(encode(entry))
        if position < len(entries):
            untouched = entries[position:]
            run += untouched
            encoded += encode_many(untouched)
        emitter.emit_run(run, encoded, last_edited)

    while True:
        entries = walker.current.entries
        if emitter.in_sync(window):
            # Every following node is reused verbatim, up to the next op's.
            if op_index == len(ops):
                return emitter.descriptors, consumed, False
            if walker.seek(ops[op_index][0]):
                one_region = False
                emitter.begin_region()
                entries = walker.current.entries
            # The ops landing in this node.  Past the level's last node
            # they append, and a patch only replaces.
            end = op_index
            while end < len(ops) and ops[end][0] <= entries[-1][0]:
                end += 1
            level_end = walker.at_level_end()
            if end == len(ops) or not level_end:
                patched = _patch(walker.current, ops[op_index:end], config, level_end)
                if patched is not None:
                    op_index = end
                    consumed.append(entries[-1][0])
                    emitter.emit_node(patched)
                    continue
        consumed.append(entries[-1][0])
        emit_node(entries, entries[-1][0])
        if not walker.advance():
            # End of the level: any remaining ops append past the max key.
            emit_node((), None)
            emitter.flush()
            return emitter.descriptors, consumed, one_region


def _patch(
    node: Union[LeafNode, IndexNode],
    ops: Sequence[_Op],
    config: ChunkerConfig,
    level_end: bool,
) -> Union[LeafNode, IndexNode, None]:
    """``node`` with ``ops`` applied, if that provably keeps its cuts; else None.

    ``node`` starts at a boundary both streams share (``level_end``: it is
    its level's last node), and each op must replace one of its entries
    with an encoding of the same length: the new payload is the old one
    with those encodings spliced in, and every entry end stays.  From a
    boundary the chunker closes the node at the entry holding its first
    hit at or past ``min_size - 1`` bytes (or the max-size position), or
    at entry ``min_entries - 1`` if that is later; every window from there
    on lies inside the node.  So only the windows covering a changed byte
    can move the cut, through their own first hit, old or new: the cut
    holds when the new one closes the node at its last entry, or does not
    close it while the old one did not either.  ``node`` itself comes back
    when no byte changes.
    """
    leaf = isinstance(node, LeafNode)
    encode: Callable[[Any], bytes] = encode_leaf_entry if leaf else encode_index_entry
    size: Callable[[Any], int] = leaf_entry_size if leaf else index_entry_size
    entries = node.entries
    data = node.to_chunk().data
    base = node.stream_start()
    patched: Optional[List] = None
    pieces: List[bytes] = []
    copied = at = base  # at: where entry ``position`` starts
    first = last = 0  # the changed bytes, in payload positions
    position = 0
    for key, entry in ops:
        found = bisect_left(entries, (key,), position)
        if entry is None or found == len(entries) or entries[found][0] != key:
            return None
        start = at + sum(map(size, entries[position:found]))
        end = start + size(entries[found])
        position, at = found + 1, end
        encoded = encode(entry)
        if len(encoded) != end - start:
            return None
        if encoded == data[start:end]:
            continue
        # The changed bytes lie past the key, and short of what the old
        # and new encodings still share at their ends.
        low = start + uvarint_size(len(key)) + len(key)
        while data[low] == encoded[low - start]:
            low += 1
        high = end
        while data[high - 1] == encoded[high - 1 - start]:
            high -= 1
        if patched is None:
            patched = list(entries)
            first = low
        patched[found] = entry
        pieces += (data[copied:start], encoded)
        copied, last = end, high
    if patched is None:
        return node
    pieces.append(data[copied:])
    stream = b"".join(pieces)
    # The positions whose window covers a changed byte, from the first
    # that can cut to the node's end.
    window = config.window
    low = max(first, base + config.min_size - 1)
    high = min(last + window - 1, len(data))
    if low < high:
        last_entry = len(entries) - 1
        last_start = len(data) - size(entries[-1])
        floor = config.min_entries - 1

        def rank(hit: Optional[int]) -> int:
            """Where a first hit closes the node: before its last entry
            (-1), at it (0), or not at all (1)."""
            if hit is None or floor > last_entry:
                return 1
            return 0 if low + hit >= last_start or floor == last_entry else -1

        # One kernel call: the new bytes, then — only where an old hit
        # could close the node at its last entry — the old ones, each led
        # by the window - 1 bytes before them (no hit there counts).
        lead = window - 1
        new = stream[low - lead - base : high - base]
        old = b""
        if not level_end and (high > last_start or floor == last_entry):
            old = data[low - lead : high]
        hits = pattern_candidates(new + old, config, b"").tolist()
        found = bisect_left(hits, lead)
        new_hit = hits[found] - lead if found < len(hits) and hits[found] < len(new) else None
        new_rank = rank(new_hit)
        if new_rank < 0:
            return None
        if new_rank > 0 and old:
            found = bisect_left(hits, len(new) + lead)
            if rank(hits[found] - len(new) - lead if found < len(hits) else None) <= 0:
                return None  # the old cut may have been this window's alone
    if leaf:
        return LeafNode(patched, encoded=[stream])
    return IndexNode(node.level, patched, encoded=[stream])


def _merge_entries(entries: Sequence[_Entry], ops: Sequence[_Op]) -> List:
    """One node's entries with ``ops`` applied, in key order."""
    merged: Dict[bytes, _Entry] = {entry[0]: entry for entry in entries}
    for key, entry in ops:
        if entry is None:
            merged.pop(key, None)
        else:
            merged[key] = entry
    return [merged[key] for key in sorted(merged)]


def apply_edits(
    tree: PosTree,
    puts: Dict[bytes, bytes],
    deletes: Set[bytes],
) -> Uid:
    """Apply a batch of edits; return the new root uid.

    Keys present in both ``puts`` and ``deletes`` are treated as puts.
    Every node the edit writes reaches the store in one ``put_nodes``.
    """
    edits: Dict[bytes, Optional[_Entry]] = {key: None for key in deletes}
    for key, value in puts.items():
        if not isinstance(key, bytes) or not isinstance(value, bytes):
            raise TypeError("POS-Tree keys and values must be bytes")
        edits[key] = (key, value)
    if not edits:
        return tree.root
    batch: WriteBatch = []
    root = _splice(tree, batch, sorted(edits.items()))
    tree.store.put_nodes(batch)
    return root


def _splice(tree: PosTree, batch: WriteBatch, ops: List[_Op]) -> Uid:
    """The edit itself, level by level, with its nodes going to ``batch``."""
    root = tree.root_node()
    if isinstance(root, LeafNode):
        # Height-0 tree: patch the leaf, else merge directly and bulk build
        # (already O(node)).
        patched = _patch(root, ops, tree.config.leaf, True) if root.entries else None
        if patched is not None:
            batch.append((patched.to_chunk(), patched))
            return patched.uid
        return build_tree(batch, _merge_entries(root.entries, ops), tree.config)

    load = _index_memo(tree)
    walker = _Walker(load, 0, root, ops[0][0])
    for level in range(root.level):
        start = walker.path()
        parent, pos = start[-1]
        descriptors, consumed, to_level_end = _splice_level(tree, batch, level, walker, ops)
        if to_level_end and all(above == 0 for _, above in start[:-1]):
            # One region from under the level's leftmost parent to its
            # end: the tree above no longer constrains anything — rebuild
            # it from scratch so the result matches bulk semantics (in
            # particular, a single surviving node becomes the root
            # instead of being wrapped).
            descriptors = parent.entries[:pos] + descriptors
            if not descriptors:
                return build_tree(batch, [], tree.config)
            return build_index_levels(batch, descriptors, tree.config, first_level=level + 1)
        # The parent level's batch: drop what was consumed, add what replaced it.
        edits = dict.fromkeys(consumed)
        edits.update((entry.split_key, entry) for entry in descriptors)
        ops = sorted(edits.items())
        walker = _Walker(load, level + 1, parent, stack=start[:-1])

    # The ops now address the root's own entries: final assembly.  Some
    # child survives (else the level below ran to its end, above).  The
    # root is its level's one node, so a patch that keeps its cuts keeps it
    # the root.
    patched = _patch(root, ops, tree.config.index, True)
    if patched is not None:
        batch.append((patched.to_chunk(), patched))
        return patched.uid
    return build_index_levels(
        batch, _merge_entries(root.entries, ops), tree.config, first_level=root.level
    )
