"""LRU cache of *decoded* nodes, and the write-through store around it.

A cache of raw chunks would save the device read but still pay entry
decoding on every descent.  At an index fan-out of about ten and
≈ 1 KiB leaves the decode dominates a hot lookup, so :class:`NodeLRU`
keeps the decoded objects themselves: POS-Tree and list-tree nodes,
blob leaves, and the FNode of a version.  A hot descent, and a hot
``db.get``'s load of the branch head, touch no codec, no CRC and no
disk.

What it gives up when full depends on how a node came in.  A node a
``get_node`` miss had to fetch displaces the least recently used *leaf*:
point reads over a tree larger than the cache share its index levels
and scatter over its leaves, so they keep the few hundred index nodes
and cycle the leaves, and a cold get costs one leaf fetch.  A node a
write remembers displaces the least recently used node of any kind:
each commit supersedes the index path it rewrote, and the stale path
must be able to leave.

It has three holders, all on the node I/O seam
(:meth:`ChunkStore.put_nodes` / :meth:`ChunkStore.get_node`):

- :class:`NodeCacheStore` wraps a local backend — every durable engine
  ``ForkBase.open`` builds, with :data:`DURABLE_CAPACITY` nodes unless
  given another ``node_cache`` (``node_cache=0`` is the cacheless form);
- the default engine, ``ForkBase()``, whose store is a
  :class:`NodeCacheStore` over an :class:`~repro.store.memory.InMemoryStore`
  (``ForkBase(InMemoryStore())`` is the cacheless form);
- :class:`~repro.cluster.cluster.ClusterStore` keeps one in the
  coordinator, filled only by replicated reads it verified and writes it
  saw acked at quorum.

Every other holder that is not told a capacity keeps
:data:`DEFAULT_CAPACITY` nodes.

Each is filled from both sides of the seam: a read remembers what it
decoded, and a *write* remembers the objects the writer just encoded —
so the next commit's walk down the path the previous commit wrote
decodes nothing.  Write-through never outruns the device: the backing
write runs first, and the nodes are remembered only after it returned,
so a batch that raised leaves no entry.

``get`` / ``get_maybe`` deliberately bypass the cache and always reach
the backing store, so ``verify()``, the scrubber and gc see on-disk
damage through a warm cache — the price is that a cached node can
outlive rot in its record until one of them looks.  Content addressing
makes the sharing safe: a uid names one immutable byte string forever,
so a decoded node never goes stale, and handing the same object to every
reader is sound because nodes are sealed (FB-IMMUT).  It can become
*unbacked*, which is what the sweep subscription below is for.

This module sits above the layers whose nodes it decodes
(:mod:`repro.postree` layer 5, :mod:`repro.vcs` layer 7) and beside the
cluster that holds one; the trees see only the seam on
:class:`ChunkStore`, whose default is plain ``put`` / ``get``.

The engine is single-threaded: no module in ``src/`` starts a thread
(a tier-1 test scans for the imports), and an engine and its stores are
driven by one caller at a time.  So the node map and its counters take
no lock: a hit is a dict lookup and a ``move_to_end`` (two for a
leaf), the whole price of a warm level on a hot descent.  Read
verification is inherited from the backing store — wrapping a verifying
store must not silently disable its tamper checks.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.chunk import Chunk, ChunkType, Uid
from repro.postree.node import (
    NODE_CLASSES,
    AnyIndexNode,
    LeafNode,
    ListIndexEntry,
    ListIndexNode,
    ListLeafNode,
    Node,
)
from repro.rolling.chunker import ChunkerConfig
from repro.store.base import ChunkStore, WrapperStore, physical_store
from repro.store.stats import StoreStats
from repro.vcs.fnode import FNode

#: Everything ``get_node`` can hand back: a tree node of any kind, a
#: version record, or the raw chunk itself for types with no richer
#: decoding (BLOB, META, ...).
DecodedNode = Union[Node, FNode]

#: Decoded nodes a cache holds unless its holder says otherwise.
DEFAULT_CAPACITY = 4096

#: Decoded nodes a durable engine (``ForkBase.open``) holds by default.
#: Fewer than :data:`DEFAULT_CAPACITY`, because a durable engine's miss
#: has a device behind it and the in-memory engine's has none: this
#: cache need not hold whole values, only spare the device the reads
#: that verbs repeat — a big tree's index levels (a 50,000-row table is
#: 4,685 leaves under 365 index nodes) plus the working set of leaves a
#: branch → edit → diff → merge cycle walks more than once.  Every
#: cached node is resident memory; see EXPERIMENTS.md for what each
#: capacity costs in peak RSS on that cycle.
DURABLE_CAPACITY = 1024

#: Leading bytes of a blob leaf that key the cut index (fewer for a
#: config whose leaves may be shorter; see NodeLRU.note_cuts).  An index
#: node is keyed by its first child's digest.
CUT_HEAD = 32

#: The decoded leaf classes (a BLOB chunk is a leaf too: see is_leaf).
_LEAF_KINDS = frozenset((LeafNode, ListLeafNode))

#: The chunk type of a blob leaf, bound once for the hot paths.
_BLOB = ChunkType.BLOB


#: The tag of a config's level-end table: level ends are noted under
#: ``(config, LEVEL_END)``, rule-closed nodes under the config itself.
LEVEL_END = "level-end"

#: A cut-index key: the table (a config, or a config's level-end table)
#: and the node's first bytes (a leaf's own, an index node's first child
#: digest).
CutKey = Tuple[Any, bytes]

#: Chunk type -> the class whose ``from_chunk`` decodes it: the tree node
#: kinds (which tags those are is postree's to say) and the FNode.  A
#: class, not a bound ``from_chunk``: a decode looks the method up when
#: it runs.  A type with no entry is its own decoded form.
_DECODERS: Dict[ChunkType, type] = {**NODE_CLASSES, ChunkType.FNODE: FNode}


def decode_chunk(chunk: Chunk) -> DecodedNode:
    """Decode one chunk into its natural in-memory node form."""
    decoder = _DECODERS.get(chunk.type)
    return chunk if decoder is None else decoder.from_chunk(chunk)  # type: ignore[attr-defined]


def is_leaf(decoded: DecodedNode) -> bool:
    """Whether a decoded node is a tree leaf: a map or list leaf, or a
    BLOB chunk (a blob tree's leaf is its own decoded form)."""
    kind = decoded.__class__
    return kind in _LEAF_KINDS or (kind is Chunk and decoded.type == ChunkType.BLOB)  # type: ignore[union-attr]


class NodeLRU:
    """A bounded uid → decoded-node map in LRU order.

    A node enters in one of two ways, and each way has its own victim:

    - **fetched** (:meth:`remember_fetched`) — a ``get_node`` miss that
      read the chunk from storage displaces the least recently used
      *leaf* (a :class:`LeafNode`, a :class:`ListLeafNode` or a BLOB
      chunk), or the least recently used node when no other leaf is
      cached;
    - **written** (:meth:`remember`) — a node the writer just encoded
      displaces the least recently used node of any kind.

    A point read walks the same index nodes to a different leaf each
    time, so a fetch that gave up an index node would buy a miss on the
    next walk through it; a fetched leaf gives up a leaf.  Writes are
    what keep that from hoarding index nodes: every commit supersedes
    the index path it rewrote, and the superseded nodes age out in
    plain LRU order behind the writer's fresh ones.

    A hit makes a node the most recent in ``entries`` and, for a leaf,
    in ``leaves`` too.  ``entries`` is the one uid → node map: every
    cached node is in it.

    Beside it sits the *cut index* the blob builder reuses nodes
    through (:meth:`~repro.postree.listtree.BlobTree.from_bytes`):
    ``cuts`` maps a chunker config and a node's first bytes to that
    cached node, for nodes a builder saw closed by the pattern or
    max-size rule (:meth:`note_cuts`) — BLOB leaves by their first
    bytes, index nodes by their first child's digest — and
    ``(config, LEVEL_END)`` the same way to each level's last node,
    which the end of its level closed.  ``parents`` maps each child of
    a noted level-1 blob index node to that node, so a blob put that
    finds one known leaf takes the leaves after it in the node as one
    block (:class:`BlobWalk`).  ``cut_keys`` holds each noted node's
    key, so the entries go when the node is evicted, forgotten or
    cleared, and the index never outgrows the cache; a key also says
    which config, and which of its tables, a node was noted under.
    Upkeep on any other eviction is one ``dict.pop`` that finds
    nothing.

    It holds no store and judges no bytes: its holder remembers a node
    only once the node is known good (verified on read, or acked on
    write) and forgets what its storage swept.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.entries: "OrderedDict[Uid, DecodedNode]" = OrderedDict()
        # The cached leaves' uids, least recently used first.
        self.leaves: "OrderedDict[Uid, None]" = OrderedDict()
        # The cut-index key (config, head) of each noted cached node.
        self.cut_keys: Dict[Uid, CutKey] = {}
        # config, or (config, LEVEL_END) -> node head -> a cached node
        # starting so.
        self.cuts: Dict[Any, Dict[bytes, DecodedNode]] = {}
        # blob leaf uid -> a noted level-1 node that holds the leaf.
        self.parents: Dict[Uid, ListIndexNode] = {}
        self.hits = 0
        self.lookups = 0
        self.evictions = 0

    def lookup(self, uid: Uid) -> Optional[DecodedNode]:
        """The remembered node for ``uid`` (now most recent), else None.

        Counts one lookup either way.  :meth:`NodeCacheStore.get_node`
        inlines this body: its hit path is the hottest read in the engine.
        """
        self.lookups += 1
        cached = self.entries.get(uid)
        if cached is not None:
            self.hits += 1
            self.entries.move_to_end(uid)
            if is_leaf(cached):
                self.leaves.move_to_end(uid)
        return cached

    def remember(self, pairs: Iterable[Tuple[Uid, DecodedNode]]) -> None:
        """Remember written nodes, evicting the least recently used."""
        entries = self.entries
        leaves = self.leaves
        for uid, decoded in pairs:
            entries[uid] = decoded
            entries.move_to_end(uid)
            # is_leaf, inlined: a write batch holds every leaf of a blob.
            kind = decoded.__class__
            if kind in _LEAF_KINDS or (
                kind is Chunk and decoded.type is _BLOB  # type: ignore[union-attr]
            ):
                try:
                    leaves.move_to_end(uid)
                except KeyError:
                    leaves[uid] = None
        while len(entries) > self.capacity:
            victim, node = entries.popitem(last=False)
            leaves.pop(victim, None)
            key = self.cut_keys.pop(victim, None)
            if key is not None:
                self._uncut(victim, key, node)
            self.evictions += 1

    def remember_fetched(self, uid: Uid, decoded: DecodedNode) -> None:
        """Remember a node read from storage, evicting the least recently
        used leaf (the least recently used node if no other leaf is cached)."""
        entries = self.entries
        leaves = self.leaves
        entries[uid] = decoded
        entries.move_to_end(uid)
        leaf = is_leaf(decoded)
        if leaf:
            if uid in leaves:
                leaves.move_to_end(uid)
            else:
                leaves[uid] = None
        if len(entries) > self.capacity:
            self.evictions += 1
            if len(leaves) > leaf:  # a leaf other than this one is cached
                victim, _ = leaves.popitem(last=False)
                node = entries.pop(victim)
            else:
                # Two or more entries are cached, so the oldest is not
                # this one, and it is no leaf.
                victim, node = entries.popitem(last=False)
            key = self.cut_keys.pop(victim, None)
            if key is not None:
                self._uncut(victim, key, node)

    def forget(self, uids: Iterable[Uid]) -> None:
        """Drop any entries for ``uids`` (their storage no longer holds them)."""
        for uid in uids:
            node = self.entries.pop(uid, None)
            self.leaves.pop(uid, None)
            key = self.cut_keys.pop(uid, None)
            if key is not None:
                self._uncut(uid, key, node)

    def clear(self) -> None:
        """Drop every entry; the counters keep their values."""
        self.entries.clear()
        self.leaves.clear()
        self.cut_keys.clear()
        self.cuts.clear()
        self.parents.clear()

    # -- the cut index -------------------------------------------------------

    def knows_cuts(self, config: ChunkerConfig) -> bool:
        """Whether any cached node was noted as rule-closed under ``config``."""
        return config in self.cuts

    def blob_walk(self, config: ChunkerConfig) -> "BlobWalk":
        """The cut index as one blob put's leaf walk under ``config`` reads
        it, the config's tables bound once (:class:`BlobWalk`)."""
        return BlobWalk(self, config)

    def node_probe(
        self, config: ChunkerConfig
    ) -> Callable[[List[Any], int], Optional[AnyIndexNode]]:
        """``known_node(entries, at)`` for one index walk under ``config``:
        the cached index node noted under ``config`` whose entries
        ``entries`` repeat from ``at`` — one a rule closed, or a level end
        whose entries are exactly ``entries[at:]`` — else None.

        Looked up by the digest of ``entries[at]``'s child.  Binds the
        tables once (they do not change during a walk); counts no lookup
        and moves nothing: a caller that reuses the node writes it, and
        the write does.
        """
        rules = self.cuts.get(config) or {}
        ends = self.cuts.get((config, LEVEL_END)) or {}

        def known_node(entries: List[Any], at: int) -> Optional[AnyIndexNode]:
            first = entries[at].child
            node = rules.get(first)
            if isinstance(node, AnyIndexNode) and entries[at : at + len(node.entries)] == node.entries:
                return node
            node = ends.get(first)
            if isinstance(node, AnyIndexNode) and entries[at:] == node.entries:
                return node
            return None

        return known_node

    def note_cuts(
        self, config: ChunkerConfig, nodes: Iterable[Node], level_end: bool = False
    ) -> None:
        """Index nodes a builder closed under ``config``: by the pattern or
        max-size rule, or with ``level_end`` by the end of their level.  A
        BLOB leaf is keyed by its first :data:`CUT_HEAD` bytes (its first
        ``config.min_size``, if fewer: no such leaf is shorter), an index
        node by its first child's digest.

        A rule-closed node is the next node wherever its bytes (entries)
        recur at a cut; a level end only where they also end the level,
        so level ends get a table of their own, under ``(config,
        LEVEL_END)``.  A node once noted as rule-closed stays so: noting
        it as a level end changes nothing.

        Only nodes still cached are indexed.  A node keeps one entry, so
        one it had under another key goes; a head noted for another node
        now names this one.  A level-1 blob index node also becomes each
        of its children's entry in ``parents``.
        """
        table_key: Any = (config, LEVEL_END) if level_end else config
        width = min(CUT_HEAD, config.min_size)
        cached = self.entries
        cut_keys = self.cut_keys
        for node in nodes:
            uid = node.uid
            if uid not in cached:
                continue
            old = cut_keys.get(uid)
            if level_end and old is not None and old[0] == config:
                continue
            if node.__class__ is Chunk:
                key = (table_key, node.data[:width])  # type: ignore[union-attr]
            else:
                key = (table_key, node.entries[0].child)  # type: ignore[union-attr]
            cut_keys[uid] = key
            if old is not None and old != key:
                self._drop_cut(uid, old)
            self.cuts.setdefault(table_key, {})[key[1]] = node
            if node.__class__ is ListIndexNode and node.level == 1:  # type: ignore[union-attr]
                for child, _ in node.entries:  # type: ignore[union-attr]
                    self.parents[child] = node  # type: ignore[assignment]

    def _uncut(self, uid: Uid, key: CutKey, node: Optional[DecodedNode]) -> None:
        """Drop the rest of what the cut index holds for ``node``, which
        left the cache (its ``cut_keys`` entry ``key`` is gone already)."""
        self._drop_cut(uid, key)
        if node.__class__ is ListIndexNode and node.level == 1:  # type: ignore[union-attr]
            parents = self.parents
            for child, _ in node.entries:  # type: ignore[union-attr]
                if parents.get(child) is node:
                    del parents[child]

    def _drop_cut(self, uid: Uid, key: "CutKey") -> None:
        """Remove ``uid``'s cut-index entry, if the entry still names it."""
        table_key, head = key
        table = self.cuts.get(table_key)
        if table is None:
            return
        noted = table.get(head)
        if noted is not None and noted.uid == uid:
            del table[head]
            if not table:
                del self.cuts[table_key]

    def counters(self) -> Dict[str, int]:
        """``hits``, ``lookups``, ``size``, ``capacity``, ``evictions``
        and ``leaves`` (how many cached nodes are leaves) in one read."""
        return {
            "hits": self.hits,
            "lookups": self.lookups,
            "size": len(self.entries),
            "capacity": self.capacity,
            "evictions": self.evictions,
            "leaves": len(self.leaves),
        }


class BlobWalk:
    """One blob put's view of the cut index: its config's tables and the
    leaves' level-1 parents, bound once, since nothing is noted or
    evicted while the leaves are walked.

    :meth:`leaf` is the probe at a cut; :meth:`take` takes the leaf it
    found together with the children after it in a cached level-1 node,
    as far as the data repeats them.  So a near-duplicate put pays one
    probe per block of leaves, not one per leaf, and passes the node's
    own entries on as the leaves' descriptors.  Neither counts a lookup
    or moves a node: the put writes what it reuses, and the write does.
    """

    __slots__ = ("_cached", "_cut_keys", "_parents", "_config", "_ends_key", "_width",
                 "_rules", "_ends")

    def __init__(self, cache: NodeLRU, config: ChunkerConfig) -> None:
        self._cached = cache.entries
        self._cut_keys = cache.cut_keys
        self._parents = cache.parents
        self._config = config
        self._ends_key = (config, LEVEL_END)
        self._width = min(CUT_HEAD, config.min_size)
        self._rules = cache.cuts.get(config) or {}
        self._ends = cache.cuts.get(self._ends_key) or {}

    def leaf(self, data: bytes, at: int) -> Optional[Chunk]:
        """The cached BLOB leaf noted under the walk's config that
        ``data`` repeats from ``at`` — one a rule closed, or a level end
        that ``data`` ends with — else None."""
        head = data[at : at + self._width]
        leaf = self._rules.get(head)
        if leaf.__class__ is Chunk and data.startswith(leaf.data, at):  # type: ignore[union-attr]
            return leaf  # type: ignore[return-value]
        leaf = self._ends.get(head)
        if leaf.__class__ is Chunk and data[at:] == leaf.data:  # type: ignore[union-attr]
            return leaf  # type: ignore[return-value]
        return None

    def take(
        self,
        data: bytes,
        at: int,
        leaf: Chunk,
        leaves: List[Chunk],
        descriptors: List[ListIndexEntry],
    ) -> int:
        """Append ``leaf`` (which :meth:`leaf` found at ``at``), then the
        children after it in its cached level-1 parent as far as ``data``
        repeats them, with the node's entries as their descriptors;
        return where they end.

        Each child taken is a cached BLOB chunk noted under this walk's
        config — a parent may have been cut under another blob config,
        and only a leaf a rule closed under this one is the next leaf
        wherever it recurs — whose bytes ``data`` repeats next (a child
        noted as a level end only where ``data`` also ends with it).
        """
        uid = leaf.uid
        size = len(leaf.data)
        leaves.append(leaf)
        at += size
        node = self._parents.get(uid)
        first = 0
        if node is not None:
            entries = node.entries
            while entries[first].child != uid:
                first += 1
        if node is None or entries[first].count != size:
            descriptors.append(ListIndexEntry(uid, size))
            return at
        stop = first + 1
        cut_keys = self._cut_keys
        cached = self._cached
        config = self._config
        for child, count in entries[stop:]:
            key = cut_keys.get(child)
            if key is None:
                break
            chunk = cached[child]
            if chunk.__class__ is not Chunk:
                break
            payload = chunk.data  # type: ignore[union-attr]
            if len(payload) != count:
                break
            table = key[0]
            if table is config or table == config:
                if not data.startswith(payload, at):
                    break
            elif table != self._ends_key or len(data) - at != count or not data.endswith(payload):
                break
            leaves.append(chunk)  # type: ignore[arg-type]
            at += count
            stop += 1
        descriptors.extend(entries[first:stop])
        return at


class NodeCacheStore(WrapperStore):
    """Wraps a backing store with an LRU cache of decoded tree nodes."""

    def __init__(self, backing: ChunkStore, capacity: int = DEFAULT_CAPACITY) -> None:
        super().__init__(backing)
        self.node_cache = NodeLRU(capacity)
        # Decoded nodes outlive their chunks unless the physical layer
        # tells us it swept them (gc, quarantine resync): a descent must
        # not keep resolving through storage that no longer holds it.
        physical_store(backing).subscribe_sweeps(self)

    # -- the decoded-node surface --------------------------------------------

    def put_nodes(self, pairs: Iterable[Tuple[Chunk, DecodedNode]]) -> int:
        """Store a batch and remember the forms its writer already holds.

        Accounted like one ``put`` per chunk: a dedup hit is answered by
        ``has`` and never reaches the backing store, which gets the novel
        remainder as one batch.  That write comes first: if it raises,
        nothing was remembered.  A dedup hit remembers too — the chunk is
        backed.
        """
        has = self.backing.has
        stats = self.stats
        novel: List[Tuple[Chunk, DecodedNode]] = []
        remembered: List[Tuple[Uid, DecodedNode]] = []
        seen: Set[Uid] = set()
        # A near-duplicate blob is mostly dedup hits: those are summed
        # here and added once, as ``record_put`` would have added them.
        dups = dup_bytes = 0
        try:
            for pair in pairs:
                chunk, decoded = pair
                uid = chunk.uid
                if has(uid) or uid in seen:
                    dups += 1
                    dup_bytes += chunk.size()
                else:
                    seen.add(uid)
                    novel.append(pair)
                    stats.record_put(chunk.type.name, chunk.size(), True)
                remembered.append((uid, decoded))
        finally:
            stats.puts_dup += dups
            stats.logical_bytes += dup_bytes
        if novel:
            self.backing.put_nodes(novel)
        self.node_cache.remember(remembered)
        return len(novel)

    def get_node(self, uid: Uid) -> DecodedNode:
        """Fetch a chunk decoded to its node form, via the LRU cache.

        Raises :class:`~repro.errors.ChunkNotFoundError` like ``get``.
        """
        # NodeLRU.lookup, inlined: no extra call on a hot descent's hit.
        cache = self.node_cache
        cache.lookups += 1
        cached = cache.entries.get(uid)
        if cached is not None:
            cache.hits += 1
            cache.entries.move_to_end(uid)
            # is_leaf, inlined: a cached leaf is always in ``leaves``.
            kind = cached.__class__
            if kind in _LEAF_KINDS or (
                kind is Chunk and cached.type is _BLOB  # type: ignore[union-attr]
            ):
                cache.leaves.move_to_end(uid)
            return cached
        decoded = decode_chunk(self.backing.get(uid))
        cache.remember_fetched(uid, decoded)
        return decoded

    def cut_index(self) -> NodeLRU:
        """The node cache: it indexes the blob leaves it holds."""
        return self.node_cache

    @property
    def node_hits(self) -> int:
        """``get_node`` calls served without a fetch or a decode."""
        return self.node_cache.counters()["hits"]

    @property
    def node_lookups(self) -> int:
        """``get_node`` calls in all."""
        return self.node_cache.counters()["lookups"]

    @property
    def node_hit_rate(self) -> float:
        """Fraction of ``get_node`` calls served without decoding."""
        counters = self.node_cache.counters()
        return counters["hits"] / counters["lookups"] if counters["lookups"] else 0.0

    # -- chunk primitives pass through (WrapperStore); a batch stays a batch --

    def _insert_many(self, chunks: List[Chunk]) -> None:
        self.backing.put_many(chunks)

    def _delete(self, uid: Uid) -> bool:
        self.node_cache.forget((uid,))
        return self.backing.delete(uid)

    def invalidate_swept(self, uids: List[Uid]) -> None:
        """Evict decoded nodes whose backing chunks were swept elsewhere."""
        self.node_cache.forget(uids)

    def close(self) -> None:
        """Close the backing store; a closed store holds no decoded node."""
        self.node_cache.clear()
        self.backing.close()

    def abandon(self) -> None:
        """Abandon the backing store, dropping every decoded node."""
        self.node_cache.clear()
        self.backing.abandon()

    def stats_snapshot(self) -> StoreStats:
        """The backing store's snapshot plus this layer's cache counters."""
        snap = self.backing.stats_snapshot()
        counters = self.node_cache.counters()
        snap.cache_hits += counters["hits"]
        snap.cache_lookups += counters["lookups"]
        return snap
