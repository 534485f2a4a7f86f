"""Outside-in span tracer: timing wrappers on each layer's public calls.

The traced run answers "which layer ate the op's time" without touching
``src/``: :data:`WRAP_TABLE` names the public callables at each layer
boundary, :meth:`Tracer.install` swaps a timing wrapper in for each, and
:meth:`Tracer.remove` puts the originals back.  Every call becomes a span
``(layer, name, start_ns, end_ns, parent_id, op_id)`` held in memory until
the run ends; a span's *self time* is its duration minus the part its
child spans cover, so the layers' self times add up to the root spans.

In-program spans are ROADMAP item 4; this is the bench-only stand-in.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import sys
import time
from array import array
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Span group -> the public callables timed under it.  The part of a key
#: before the first dot is the layer (a ``src/repro`` package name); the
#: whole key is the prefix of the per-layer metrics fed by those spans.
#: Class methods are wrapped by ``setattr`` on the class named here (an
#: inherited method is shadowed on that subclass only, so ``PackStore.put``
#: does not also time ``NodeCacheStore.put``); module functions are
#: replaced in every loaded ``repro.*`` module that holds the same object.
WRAP_TABLE: Dict[str, List[Tuple[str, str]]] = {
    "db.open": [("repro.db.engine", "ForkBase.open")],
    "db.close": [("repro.db.engine", "ForkBase.close")],
    "db.put": [("repro.db.engine", "ForkBase.put")],
    "db.get": [
        ("repro.db.engine", "ForkBase.get"),
        ("repro.db.engine", "ForkBase.get_value"),
    ],
    "db.branch": [("repro.db.engine", "ForkBase.branch")],
    "db.diff": [("repro.db.engine", "ForkBase.diff")],
    "db.merge": [("repro.db.engine", "ForkBase.merge")],
    "db.verify": [("repro.db.engine", "ForkBase.verify")],
    "table.load_csv": [("repro.table.dataset", "DataTable.load_csv")],
    "table.upsert": [("repro.table.dataset", "DataTable.upsert_rows")],
    "table.export": [("repro.table.dataset", "DataTable.export_csv")],
    "table.branching": [
        ("repro.table.dataset", "DataTable.branch"),
        ("repro.table.dataset", "DataTable.diff"),
        ("repro.table.dataset", "DataTable.merge"),
    ],
    "types.wrap": [("repro.types.convert", "wrap")],
    "types.unwrap": [("repro.types.convert", "unwrap")],
    "types.fobject": [
        ("repro.types.fmap", "FMap.from_dict"),
        ("repro.types.fmap", "FMap.get"),
        ("repro.types.fmap", "FMap.scan"),
        ("repro.types.fmap", "FMap.set"),
        ("repro.types.fmap", "FMap.update"),
        ("repro.types.fmap", "FMap.to_dict"),
        ("repro.types.blob", "FBlob.from_bytes"),
        ("repro.types.blob", "FBlob.read"),
    ],
    "postree.edit": [
        ("repro.postree.tree", "PosTree.update"),
        ("repro.postree.edit", "apply_edits"),
    ],
    "postree.lookup": [
        ("repro.postree.tree", "PosTree.get"),
        ("repro.postree.tree", "PosTree.leaves"),
        ("repro.postree.listtree", "BlobTree.iter_chunks"),
    ],
    "postree.build": [
        ("repro.postree.tree", "PosTree.from_pairs"),
        ("repro.postree.builder", "bulk_build"),
        ("repro.postree.builder", "build_index_levels"),
        ("repro.postree.listtree", "BlobTree.from_bytes"),
    ],
    "postree.diff": [("repro.postree.diff", "diff_trees")],
    "postree.merge": [("repro.postree.merge", "three_way_merge")],
    "postree.node.encode": [
        ("repro.postree.node", "LeafNode.to_chunk"),
        ("repro.postree.node", "IndexNode.to_chunk"),
        ("repro.postree.listtree", "ListIndexNode.to_chunk"),
    ],
    "postree.node.decode": [
        ("repro.postree.node", "LeafNode.from_chunk"),
        ("repro.postree.node", "IndexNode.from_chunk"),
        ("repro.postree.node", "load_node"),
        ("repro.postree.listtree", "ListIndexNode.from_chunk"),
    ],
    "rolling.entry": [
        ("repro.rolling.chunker", "EntryChunker.push"),
        ("repro.rolling.chunker", "EntryChunker.push_many"),
        ("repro.rolling.fast", "VectorEntryChunker.push"),
        ("repro.rolling.fast", "VectorEntryChunker.push_many"),
    ],
    "rolling.bytes": [
        ("repro.rolling.fast", "fast_chunk_spans"),
        ("repro.rolling.chunker", "iter_chunk_spans"),
    ],
    "chunk.hash": [("repro.chunk.chunk", "Chunk.compute_uid")],
    "chunk.base32": [("repro.chunk.uid", "Uid.base32")],
    "store.nodecache": [
        ("repro.store.nodecache", "NodeCacheStore.get_node"),
        ("repro.store.nodecache", "NodeCacheStore.put"),
        ("repro.store.nodecache", "NodeCacheStore.get"),
        ("repro.store.nodecache", "NodeCacheStore.get_maybe"),
        ("repro.store.nodecache", "NodeCacheStore.has"),
    ],
    "store.backend.put": [
        (module, f"{cls}.{verb}")
        for module, cls in (
            ("repro.store.packstore", "PackStore"),
            ("repro.store.filestore", "FileStore"),
            ("repro.store.memory", "InMemoryStore"),
        )
        for verb in ("put", "put_many", "has")
    ],
    "store.backend.get": [
        (module, f"{cls}.{verb}")
        for module, cls in (
            ("repro.store.packstore", "PackStore"),
            ("repro.store.filestore", "FileStore"),
            ("repro.store.memory", "InMemoryStore"),
        )
        for verb in ("get", "get_maybe")
    ],
    "vcs.commit": [("repro.vcs.graph", "VersionGraph.commit")],
    "vcs.load": [("repro.vcs.graph", "VersionGraph.load")],
    "vcs.journal.append": [
        ("repro.vcs.journal", "CommitJournal.append"),
        ("repro.vcs.journal", "CommitJournal.size"),
    ],
    "vcs.journal.reset": [("repro.vcs.journal", "CommitJournal.reset")],
    "security.verify": [("repro.security.verify", "Verifier.verify_version")],
    "cluster.put": [("repro.cluster.cluster", "ClusterStore.put")],
    "cluster.get": [
        ("repro.cluster.cluster", "ClusterStore.get"),
        ("repro.cluster.cluster", "ClusterStore.get_maybe"),
        ("repro.cluster.cluster", "ClusterStore.has"),
    ],
    "cluster.ring": [("repro.cluster.ring", "HashRing.replicas")],
    "cluster.transport": [("repro.faults.network", "PartitionedTransport.send")],
    "cluster.node": [
        ("repro.cluster.node", "StorageNode.put"),
        ("repro.cluster.node", "StorageNode.get"),
        ("repro.cluster.node", "StorageNode.has"),
    ],
    "cluster.antientropy": [("repro.cluster.cluster", "ClusterStore.anti_entropy_pass")],
}

#: Work counted at the same boundary as the span: ``(args, result) -> n``.
#: Hashing, chunking and encoding cost scales with bytes, so their ratios
#: are measured where the bytes pass; ``upsert_rows`` records its batch
#: size so single / clustered / scattered upserts can be told apart.
COUNTERS: Dict[Tuple[str, str], Callable[[Tuple[Any, ...], Any], int]] = {
    ("repro.chunk.chunk", "Chunk.compute_uid"): lambda args, _result: len(args[1]),
    ("repro.rolling.fast", "fast_chunk_spans"): lambda args, _result: len(args[0]),
    ("repro.rolling.chunker", "EntryChunker.push"): lambda args, _result: len(args[1]),
    ("repro.rolling.fast", "VectorEntryChunker.push"): lambda args, _result: len(args[1]),
    ("repro.rolling.chunker", "EntryChunker.push_many"): (
        lambda args, _result: sum(map(len, args[1]))
    ),
    ("repro.rolling.fast", "VectorEntryChunker.push_many"): (
        lambda args, _result: sum(map(len, args[1]))
    ),
    ("repro.table.dataset", "DataTable.upsert_rows"): lambda args, _result: len(args[1]),
    ("repro.table.dataset", "DataTable.export_csv"): lambda _args, result: len(result),
    # 1 for a merge that committed; 0 for fast-forward / already up to date.
    ("repro.db.engine", "ForkBase.merge"): (
        lambda _args, result: int(result.message not in ("fast-forward", "already up to date"))
    ),
    # The engine asks the journal its size after every append, so the
    # returned sizes are the journal's growth, sampled at the boundary.
    ("repro.vcs.journal", "CommitJournal.size"): lambda _args, result: result,
}

#: ``op_id`` of spans recorded before the timed phase (set-up) and after
#: it (close, reopen, end-of-run checks); timed ops count from 0.
OP_SETUP = -1
OP_FINISH = -2


def layer_of(group: str) -> str:
    """The layer (``src/repro`` package) a span group belongs to."""
    return group.split(".", 1)[0]


def resolve(module_name: str, qualname: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, raw object)`` for one wrap-table entry.

    ``owner`` is the class for ``Class.method`` and the module for a plain
    function; ``raw`` is what ``owner`` statically holds (so a
    ``staticmethod``/``classmethod`` descriptor comes back unbound).
    Raises :class:`AttributeError` when the name is gone, which is how a
    rename in ``src/`` fails loudly instead of tracing nothing.
    """
    module = importlib.import_module(module_name)
    owner: Any = module
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attribute, inspect.getattr_static(owner, attribute)


def _repro_modules() -> List[Any]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


class Tracer:
    """Installs the wrappers, holds the spans, and summarises them."""

    def __init__(self) -> None:
        self.names: List[str] = []  # span name id -> "Class.method" / "function"
        self.groups: List[str] = []  # span name id -> WRAP_TABLE key
        # One column per span field; arrays keep a million spans out of the
        # garbage collector's sight (tuples would be tracked objects).
        self.name_ids = array("l")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("l")
        self.ops = array("l")
        self.counts = array("q")
        #: Single-slot holder so wrappers read the current op without an
        #: attribute lookup on the tracer.
        self.current_op = [OP_SETUP]
        self._stack = [-1]
        self._class_patches: List[Tuple[Any, str, bool, Any]] = []
        self._function_patches: List[Tuple[Any, Any]] = []  # (original, wrapper)

    # -- wrapping ------------------------------------------------------------

    def install(self) -> None:
        """Swap a timing wrapper in for every callable in the wrap table."""
        import repro

        # Load every module first: one imported mid-run would bind the
        # wrapper by ``from x import f`` and keep it after ``remove``.
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(info.name)
        for group, entries in WRAP_TABLE.items():
            for module_name, qualname in entries:
                owner, attribute, raw = resolve(module_name, qualname)
                name_id = len(self.names)
                self.names.append(qualname)
                self.groups.append(group)
                counter = COUNTERS.get((module_name, qualname))
                if inspect.isclass(owner):
                    self._patch_class(owner, attribute, raw, name_id, counter)
                else:
                    self._patch_function(raw, name_id, counter)

    def _patch_class(
        self, cls: type, attribute: str, raw: Any, name_id: int, counter: Any
    ) -> None:
        own = attribute in vars(cls)
        if isinstance(raw, staticmethod):
            wrapped: Any = staticmethod(self._wrap(raw.__func__, name_id, counter))
        elif isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(raw.__func__, name_id, counter))
        else:
            wrapped = self._wrap(raw, name_id, counter)
        self._class_patches.append((cls, attribute, own, raw))
        setattr(cls, attribute, wrapped)

    def _patch_function(self, original: Any, name_id: int, counter: Any) -> None:
        wrapper = self._wrap(original, name_id, counter)
        self._function_patches.append((original, wrapper))
        for module in _repro_modules():
            for attribute, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attribute, wrapper)

    def remove(self) -> None:
        """Put every original back (idempotent)."""
        for cls, attribute, own, raw in reversed(self._class_patches):
            if own:
                setattr(cls, attribute, raw)
            else:
                delattr(cls, attribute)
        self._class_patches.clear()
        for original, wrapper in self._function_patches:
            for module in _repro_modules():
                for attribute, value in list(vars(module).items()):
                    if value is wrapper:
                        setattr(module, attribute, original)
        self._function_patches.clear()

    def _wrap(self, fn: Callable[..., Any], name_id: int, counter: Any) -> Callable[..., Any]:
        # Everything the hot path touches is a local: the wrapper costs
        # two clock reads, six array appends and a stack push/pop.
        clock = time.perf_counter_ns
        name_ids, starts, ends = self.name_ids, self.starts, self.ends
        parents, ops, counts = self.parents, self.ops, self.counts
        stack, current_op = self._stack, self.current_op

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ops.append(current_op[0])
            counts.append(0)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if counter is not None:
                counts[index] = counter(args, result)
            return result

        def traced_generator(*args: Any, **kwargs: Any) -> Iterator[Any]:
            # One span from first resumption to exhaustion (or close).  The
            # consumers in src/ are plain nested for-loops, so generators
            # finish innermost-first and the stack stays a stack; should
            # two ever interleave, drop this span wherever it sits.  (The
            # span-opening lines are repeated, not shared: a helper call
            # before the clock read would be charged to the caller's span.)
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ops.append(current_op[0])
            counts.append(0)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                yield from fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                if stack[-1] == index:
                    stack.pop()
                else:
                    stack.remove(index)

        wrapper = traced_generator if inspect.isgeneratorfunction(fn) else traced
        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    # -- summarising ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.starts)

    def self_times(self) -> List[int]:
        """Per-span self time in ns: duration minus what its children cover."""
        starts, ends, parents = self.starts, self.ends, self.parents
        own = [end - start for start, end in zip(starts, ends)]
        for index, parent in enumerate(parents):
            if parent >= 0:
                own[parent] -= ends[index] - starts[index]
        return own

    def summarise(self) -> "TraceSummary":
        """Fold the timed-phase spans (``op_id >= 0``) into per-group totals."""
        return TraceSummary(self)

    def write_jsonl(self, path: str) -> None:
        """Dump every span, set-up and end-of-run ones included.

        Line 1 names the columns and the span names (with their group and
        layer); every further line is one span as a JSON array — a
        million spans at a fifth of the size of self-describing objects.
        """
        own = self.self_times()
        header = {
            "fields": [
                "id", "name_id", "start_ns", "end_ns", "self_ns", "parent_id", "op_id", "n",
            ],
            "names": [
                {"name": name, "group": group, "layer": layer_of(group)}
                for name, group in zip(self.names, self.groups)
            ],
            "op_id": {"set-up": OP_SETUP, "end-of-run": OP_FINISH, "timed ops": "0.."},
        }
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            handle.writelines(
                f"[{index},{name_id},{start},{end},{self_ns},{parent},{op},{count}]\n"
                for index, (name_id, start, end, self_ns, parent, op, count) in enumerate(
                    zip(self.name_ids, self.starts, self.ends, own,
                        self.parents, self.ops, self.counts)
                )
            )


class TraceSummary:
    """Per-group and per-name aggregates over the timed-phase spans."""

    #: Span names whose individual durations (not just totals) are metrics.
    SAMPLED = frozenset({
        "ForkBase.diff", "ForkBase.merge", "ForkBase.open",
        "DataTable.upsert_rows", "DataTable.export_csv",
    })

    def __init__(self, tracer: Tracer) -> None:
        self.self_ns: Dict[str, int] = {group: 0 for group in WRAP_TABLE}
        self.calls: Dict[str, int] = {group: 0 for group in WRAP_TABLE}
        self.counted: Dict[str, int] = {group: 0 for group in WRAP_TABLE}
        #: Calls per span name ("PosTree.get"), for call-count metrics.
        self.name_calls: Dict[str, int] = {}
        #: ``(duration_ns, n, op_id)`` per span of the :data:`SAMPLED` names,
        #: set-up and end-of-run spans included.
        self.samples: Dict[str, List[Tuple[int, int, int]]] = {}
        #: Σ duration of parentless spans: the time the harness spent
        #: inside the program rather than in its own loop.
        self.root_ns = 0
        #: Node encodes that really encoded (``to_chunk`` caches): those
        #: with a ``compute_uid`` child, and the bytes they hashed.
        self.encodes = 0
        self.encoded_bytes = 0
        #: Journal growth over the timed phase, from ``CommitJournal.size``.
        self.journal_bytes = 0
        #: The last ``Verifier.verify_version`` call (end-of-run oracle) and
        #: the bytes hashed inside it.
        self.verify_ns = 0
        self.verified_bytes = 0
        own = tracer.self_times()
        names, groups = tracer.names, tracer.groups
        name_ids, starts, ends = tracer.name_ids, tracer.starts, tracer.ends
        parents, ops, counts = tracer.parents, tracer.ops, tracer.counts
        journal_size: Optional[int] = None
        verify_window = (0, 0)
        for index, name_id in enumerate(name_ids):
            name = names[name_id]
            if name in self.SAMPLED:
                self.samples.setdefault(name, []).append(
                    (ends[index] - starts[index], counts[index], ops[index])
                )
            elif name == "Verifier.verify_version":
                verify_window = (starts[index], ends[index])
                self.verified_bytes = 0
            elif name == "Chunk.compute_uid" and starts[index] < verify_window[1]:
                self.verified_bytes += counts[index]
            if ops[index] < 0:
                continue
            group = groups[name_id]
            self.self_ns[group] += own[index]
            self.calls[group] += 1
            self.counted[group] += counts[index]
            self.name_calls[name] = self.name_calls.get(name, 0) + 1
            parent = parents[index]
            if parent < 0:
                self.root_ns += ends[index] - starts[index]
            elif group == "chunk.hash" and groups[name_ids[parent]] == "postree.node.encode":
                self.encodes += 1
                self.encoded_bytes += counts[index]
            if name == "CommitJournal.size":
                size = counts[index]
                if journal_size is not None:
                    # A smaller size means a compaction reset came between.
                    self.journal_bytes += size - journal_size if size >= journal_size else size
                journal_size = size
        self.verify_ns = verify_window[1] - verify_window[0]

    def layer_self_ns(self) -> Dict[str, int]:
        """Self time per layer, summed over its groups."""
        totals: Dict[str, int] = {}
        for group, value in self.self_ns.items():
            layer = layer_of(group)
            totals[layer] = totals.get(layer, 0) + value
        return totals

    def durations_ms(self, name: str, n: Optional[int] = None) -> List[float]:
        """Timed-phase durations of the spans called ``name`` (with count ``n``)."""
        return [
            duration / 1e6
            for duration, count, op in self.samples.get(name, [])
            if op >= 0 and (n is None or count == n)
        ]
