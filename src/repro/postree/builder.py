"""Bulk construction of POS-Trees.

The builder is the *reference semantics* of the structure: a POS-Tree is
defined as "what :func:`bulk_build` produces for this record set under
this config."  The incremental editor must reproduce it bit-for-bit; the
property tests compare the two on random workloads.

Construction follows §II-A: "the entire list of data entries is treated as
a byte sequence, and the pattern detection process scans it from the
beginning.  When a pattern occurs, a node is created from recently scanned
bytes" — then the emitted nodes' index entries form the next level's entry
sequence, recursively, until a single node remains.

Each level runs in three vector-friendly steps: encode every entry once,
compute the node spans with the vectorized chunker
(:mod:`repro.rolling.fast`, which cuts exactly where the streaming
reference does), then materialize nodes from span slices, reusing the
encodings for the chunk payloads.

Nodes are not stored one at a time: the builders append them to a
:data:`WriteBatch`, children before parents, and the verb that owns the
batch hands it to :meth:`~repro.store.base.ChunkStore.put_nodes` in one
call — :func:`bulk_build` owns its own, the editor and the positional
trees theirs.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional, Tuple, Union

from repro.chunk import Chunk, Uid
from repro.errors import KeyOrderError
from repro.postree.config import DEFAULT_TREE_CONFIG, TreeConfig
from repro.postree.node import (
    IndexEntry,
    LeafEntry,
    LeafNode,
    ListIndexEntry,
    empty_leaf,
    encode_leaf_entries,
)
from repro.rolling.chunker import ChunkerConfig
from repro.rolling.fast import fast_entry_spans
from repro.store.base import ChunkStore

#: One verb's writes in order, children before parents: ``(chunk, the
#: decoded node it encodes)`` pairs, what ``ChunkStore.put_nodes`` takes.
WriteBatch = List[Tuple[Chunk, Any]]


def build_leaf_level(
    batch: WriteBatch,
    entries: Iterable[LeafEntry],
    config: TreeConfig,
    check_order: bool = True,
) -> List[IndexEntry]:
    """Chunk sorted records into leaf nodes; return their descriptors."""
    if not isinstance(entries, list):
        entries = list(entries)
    if check_order:
        previous_key = None
        for key, _ in entries:
            if previous_key is not None and key <= previous_key:
                raise KeyOrderError(
                    f"keys must be strictly increasing: {previous_key!r} then {key!r}"
                )
            previous_key = key
    encoded = encode_leaf_entries(entries)
    descriptors: List[IndexEntry] = []
    for start, end in fast_entry_spans(encoded, config.leaf):
        node = LeafNode(entries[start:end], encoded=encoded[start:end])
        batch.append((node.to_chunk(), node))
        descriptors.append(node.descriptor())
    return descriptors


def build_index_levels(
    batch: WriteBatch,
    descriptors: Union[List[IndexEntry], List[ListIndexEntry]],
    config: TreeConfig,
    first_level: int = 1,
    cuts: Any = None,
    ruled: Optional[List[Any]] = None,
    ends: Optional[List[Any]] = None,
) -> Uid:
    """Stack index levels over ``descriptors`` until a single root remains.

    The one index builder of every tree: keyed descriptors stack keyed
    index nodes, positional ones (list leaves, blob chunks) positional
    index nodes — the descriptors name their node class.  ``descriptors``
    describe the nodes of level ``first_level - 1``; if there is exactly
    one, it *is* the root (no index node is built over a single child —
    bulk build and editor must agree on this).

    Given a cut index ``cuts`` (a store's
    :meth:`~repro.store.base.ChunkStore.cut_index`), each level reuses
    the cached node it knows at each cut (:func:`_reuse_nodes`).  The
    new nodes a chunking rule closed are appended to ``ruled``, and each
    level's last node to ``ends``, for the caller to note once the batch
    is stored.
    """
    level = first_level
    known_node: Optional[Callable[[List[Any], int], Any]] = None
    if cuts is not None and cuts.knows_cuts(config.index):
        known_node = cuts.node_probe(config.index)
    while len(descriptors) > 1:
        node_class: Any = descriptors[0].index_class()
        if known_node is not None:
            nodes = _reuse_nodes(node_class, level, descriptors, config.index, known_node, ruled)
        else:
            encoded = node_class.encode_entries(descriptors)
            nodes = [
                node_class(level, descriptors[start:end], encoded=encoded[start:end])
                for start, end in fast_entry_spans(encoded, config.index)
            ]
            if ruled is not None:
                ruled.extend(nodes[:-1])
        if ends is not None:
            ends.append(nodes[-1])
        next_descriptors: List[Any] = []
        for node in nodes:
            batch.append((node.to_chunk(), node))
            next_descriptors.append(node.descriptor())
        descriptors = next_descriptors
        level += 1
    return descriptors[0].child


def _reuse_nodes(
    node_class: Any,
    level: int,
    descriptors: List[Any],
    config: ChunkerConfig,
    known_node: Callable[[List[Any], int], Any],
    ruled: Optional[List[Any]],
) -> List[Any]:
    """Chunk one index level, reusing the node ``known_node`` (a cut
    index's :meth:`~repro.store.nodecache.NodeLRU.node_probe`) knows at
    each cut.

    :func:`~repro.postree.listtree._reuse_leaves` one level up, and
    bit-identical to chunking the whole level for the same reason: with
    ``min_size ≥ window`` (every :class:`TreeConfig` has it) the next
    cut depends only on the entries from the last cut on, so a node a
    rule closed is the next node wherever its entries recur at a cut.
    From a cut no known node starts at, a slice of entries is encoded
    and chunked, primed with the preceding bytes, doubling while none of
    its cuts starts a known node; a slice's last span was ended by the
    slice, so it is chunked again with the next one.  The level's last
    node was ended by the level, and is no rule-closed node to note; the
    probe reuses such a node only where it ends the level again.
    """
    nodes: List[Any] = []
    size = len(descriptors)
    # Every index entry carries a 32-byte child digest, so a slice this
    # long spans at least ``min_size`` and four expected nodes of bytes
    # (and ``min_entries``, for a config so small that this is 0).
    first_slice = max(config.min_entries, (config.min_size + (4 << config.pattern_bits)) // 32)
    at = 0
    known = known_node(descriptors, 0)
    while at < size:
        if known is not None:
            nodes.append(known)
            at += len(known.entries)
            known = known_node(descriptors, at) if at < size else None
            continue
        width = first_slice
        while known is None and at < size:
            base = at
            end = min(size, base + width)
            encoded = node_class.encode_entries(descriptors[base:end])
            preceding = b""
            primer = base
            while primer > 0 and len(preceding) < config.window:
                primer -= 1
                (entry,) = node_class.encode_entries(descriptors[primer : primer + 1])
                preceding = entry + preceding
            spans = fast_entry_spans(encoded, config, preceding)
            if end < size:
                spans.pop()
            for start, stop in spans:
                node = node_class(
                    level, descriptors[base + start : base + stop], encoded=encoded[start:stop]
                )
                nodes.append(node)
                at = base + stop
                if at == size:
                    break
                if ruled is not None:
                    ruled.append(node)
                known = known_node(descriptors, at)
                if known is not None:
                    break
            width *= 2
    return nodes


def build_tree(
    batch: WriteBatch,
    entries: Iterable[LeafEntry],
    config: TreeConfig,
    check_order: bool = True,
) -> Uid:
    """Build a POS-Tree over sorted, unique-keyed records into ``batch``;
    return its root.  An empty record set yields the canonical empty leaf.
    """
    descriptors = build_leaf_level(batch, entries, config, check_order=check_order)
    if not descriptors:
        node = empty_leaf()
        batch.append((node.to_chunk(), node))
        return node.uid
    return build_index_levels(batch, descriptors, config)


def bulk_build(
    store: ChunkStore,
    entries: Iterable[LeafEntry],
    config: TreeConfig = DEFAULT_TREE_CONFIG,
    check_order: bool = True,
) -> Uid:
    """Build a POS-Tree over sorted, unique-keyed records; return its root.

    :func:`build_tree` with a batch of its own, stored in one ``put_nodes``.
    """
    batch: WriteBatch = []
    root = build_tree(batch, entries, config, check_order)
    store.put_nodes(batch)
    return root
