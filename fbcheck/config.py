"""Declarative configuration for every fbcheck rule.

This module is the one place the enforced architecture is written down:
the layer table (FB-LAYERS), the hash-feeding value modules (FB-IMMUT), the
determinism domain (FB-DETERM), the persistence paths (FB-DURABLE), and the
per-rule allowlists.  Rules read it; they hard-code nothing.

Allowlist entries have the form ``"<path-suffix>::<detail>"`` — the path
part matches a suffix of the (virtual) repo-relative path and ``detail`` is
rule-specific (documented on each rule class).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Mapping, Sequence, Tuple

# ---------------------------------------------------------------------------
# FB-LAYERS: the import DAG, declared as module-prefix → layer number.
#
# Lower layers never import higher ones (equal layers may import each
# other; actual cycles are caught separately).  The longest dotted prefix
# wins, which is how repro.store splits: the storage primitives
# (base/memory/stats/durability) and the durable backends over them
# (appendlog/segments and the two record formats, filestore/packstore)
# sit below the fault planes and the POS-Tree that writes through them,
# and the tree-walking maintenance pass (gc) and the package facade sit
# above everything.
# Deferred (function-scope) imports and ``if TYPE_CHECKING`` imports are
# exempt — they cannot create import-time cycles and are the sanctioned
# escape hatch for runtime mutual recursion (db ↔ security.verify).
# ---------------------------------------------------------------------------
LAYERS: Mapping[str, int] = {
    "repro.errors": 0,
    "repro.chunk": 1,
    "repro.rolling": 2,
    "repro.store.stats": 3,
    "repro.store.durability": 3,
    "repro.store.base": 3,
    "repro.store.memory": 3,
    # The retry helper is pure policy over repro.errors; it sits beside
    # the storage primitives so the append log can bound ENOSPC retries.
    # The fault kernel under it is pure hashlib/struct.
    "repro.faults.retry": 3,
    "repro.faults.kernel": 3,
    # The durable-append primitive crosses only the disk seam
    # (store.durability), so no fault plane sits under it: a plane
    # injects from outside, through the installed DiskInjector.  The
    # segment store over it and its two record formats sit beside it,
    # below everything that stores chunks.
    "repro.store.appendlog": 3,
    "repro.store.segments": 3,
    "repro.store.filestore": 3,
    "repro.store.packstore": 3,
    # The scrubber and its copy-verification primitive (``diagnose_copy``)
    # need only errors, chunks, the retry helper and the store interface;
    # a replicated store is recognised by its public maintenance surface,
    # never imported — so the cluster's maintenance plane can import them
    # at module level.
    "repro.store.scrub": 4,
    # Every plane — including the stores that lie (rotting, byzantine,
    # scripted) — knows chunks and stores, never the cluster it is
    # installed on.
    "repro.faults": 4,
    "repro.postree": 5,
    "repro.types": 6,
    "repro.vcs": 7,
    "repro.cluster": 8,
    "repro.cluster.membership": 8,
    "repro.cluster.antientropy": 8,
    # Latency tracking and circuit breaking are peers of membership: the
    # gray-failure trio (tracker, breaker, deadline) serves the cluster
    # store but must never import above it.  The read walk always hedges
    # off the tracker, and all three count transport ticks, the
    # cluster's one clock, handed in by the store.
    "repro.cluster.latency": 8,
    "repro.cluster.breaker": 8,
    # The tamper scorecard is pure bookkeeping over chunk uids; it serves
    # the cluster store and anti-entropy but imports neither.
    "repro.cluster.accountability": 8,
    # The decoded-node cache decodes POS-Tree nodes and FNodes, so it sits
    # above the tree and version layers it understands — and beside the
    # cluster, whose coordinator holds one.
    "repro.store.nodecache": 8,
    "repro.store.gc": 9,
    "repro.store": 9,  # the facade re-exports gc/nodecache (and scrub)
    "repro.security.verify": 10,
    "repro.db": 11,
    "repro.security": 12,  # security.acl wraps the engine
    "repro.table": 12,
    "repro.workloads": 13,
    "repro.apps": 13,
    "repro.api": 13,
    "repro.baselines": 13,
    "repro": 14,  # the root facade may import anything
}

#: Modules whose classes hold bytes that feed SHA-256 (paper §II-A, §III-C):
#: instances must never be mutated after construction.
IMMUT_VALUE_MODULES: Tuple[str, ...] = (
    "src/repro/chunk/chunk.py",
    "src/repro/chunk/uid.py",
    "src/repro/postree/node.py",
    "src/repro/vcs/fnode.py",
)

#: Class names exported by the value modules (used for cross-module
#: mutation inference where only a constructor call is visible).
IMMUT_VALUE_CLASSES: FrozenSet[str] = frozenset(
    {
        "Chunk",
        "Uid",
        "IndexEntry",
        "LeafNode",
        "EncodedNode",
        "AnyIndexNode",
        "IndexNode",
        "ListIndexEntry",
        "ListLeafNode",
        "ListIndexNode",
        "FNode",
    }
)

#: Paths whose classes must all be sealed (frozen dataclass, __slots__,
#: NamedTuple, Enum, or exception): the chunk and POS-Tree layers plus the
#: committed-version record.
IMMUT_SEALED_PATHS: Tuple[str, ...] = (
    "src/repro/chunk/",
    "src/repro/postree/",
    "src/repro/vcs/fnode.py",
)

#: Modules allowed to assemble/mutate value-class instances in flight
#: (the tree builders own nodes until they are hashed).
IMMUT_BUILDER_PATHS: Tuple[str, ...] = (
    "src/repro/postree/builder.py",
    "src/repro/postree/edit.py",
)

#: Methods that *seal* a value object (compute + memoize its hash): the
#: paper's "immutable after complete construction" boundary.
IMMUT_SEAL_METHODS: FrozenSet[str] = frozenset({"__init__", "__post_init__", "__new__", "__setstate__"})

#: Paths where every byte must be reproducible across runs and platforms:
#: anything that feeds hashing, chunk boundaries, or codecs.
DETERM_CORE_PATHS: Tuple[str, ...] = (
    "src/repro/chunk/",
    "src/repro/rolling/",
    "src/repro/postree/",
    "src/repro/types/",
    "src/repro/vcs/",
    "src/repro/store/",
    "src/repro/security/",
    "src/repro/db/",
    # The cluster's heartbeat/anti-entropy machinery must replay exactly:
    # transport ticks and probe rounds only, never the wall clock.
    "src/repro/cluster/",
)

#: Seeded consumers of randomness: the fault planner and workload
#: generators derive every draw from an explicit seed, so `random.Random`
#: use there is the sanctioned pattern (never module-level `random.*`).
DETERM_SEEDED_USER_PATHS: Tuple[str, ...] = (
    "src/repro/faults/",
    "src/repro/workloads/",
)

#: Builtin exceptions that may be raised directly; everything else must
#: come from the repro.errors taxonomy (or subclass it).
ERRORS_BUILTIN_ALLOW: FrozenSet[str] = frozenset(
    {
        "ValueError",
        "TypeError",
        "KeyError",
        "IndexError",
        "NotImplementedError",
        "StopIteration",
        "AssertionError",
        "SystemExit",
    }
)

#: Paths that persist state via rename (FB-DURABLE): every rename here is
#: :func:`repro.store.durability.durable_replace` — a bare ``os.replace``
#: can publish an empty/stale file, or lose the rename, after power loss.
DURABLE_PERSISTENCE_PATHS: Tuple[str, ...] = (
    "src/repro/store/",
    "src/repro/vcs/",
    "src/repro/db/",
    "src/repro/api/",
    "src/repro/cluster/",
)

#: NamedTuple/stdlib attribute names that start with an underscore but are
#: public by contract.
PRIVACY_PUBLIC_UNDERSCORE: FrozenSet[str] = frozenset(
    {"_replace", "_asdict", "_fields", "_field_defaults", "_make"}
)

@dataclass(frozen=True)
class Config:
    """Everything a rule may consult, bundled for injection in tests."""

    layers: Mapping[str, int] = field(default_factory=lambda: dict(LAYERS))
    immut_value_modules: Tuple[str, ...] = IMMUT_VALUE_MODULES
    immut_value_classes: FrozenSet[str] = IMMUT_VALUE_CLASSES
    immut_sealed_paths: Tuple[str, ...] = IMMUT_SEALED_PATHS
    immut_builder_paths: Tuple[str, ...] = IMMUT_BUILDER_PATHS
    immut_seal_methods: FrozenSet[str] = IMMUT_SEAL_METHODS
    determ_core_paths: Tuple[str, ...] = DETERM_CORE_PATHS
    determ_seeded_user_paths: Tuple[str, ...] = DETERM_SEEDED_USER_PATHS
    errors_builtin_allow: FrozenSet[str] = ERRORS_BUILTIN_ALLOW
    privacy_public_underscore: FrozenSet[str] = PRIVACY_PUBLIC_UNDERSCORE
    durable_persistence_paths: Tuple[str, ...] = DURABLE_PERSISTENCE_PATHS
    #: Per-rule allowlists: rule id → ("path-suffix::detail", ...).
    allow: Mapping[str, Sequence[str]] = field(default_factory=dict)


#: Allowlist for the live tree.  Every entry names the invariant-preserving
#: exception it grants; prefer a pragma for one-off suppressions and an
#: entry here for sanctioned *patterns*.
DEFAULT_ALLOW: Dict[str, Sequence[str]] = {
    # to_chunk() is the sealing step itself: it computes the node's chunk
    # (hash) once and memoizes it; after it runs the object is immutable.
    "FB-IMMUT": (
        "src/repro/postree/node.py::EncodedNode.to_chunk",
    ),
    # The disk-fault shim *is* the faulty kernel: raising OSError with a
    # real errno is its contract (callers classify via map_os_error).
    "FB-ERRORS": ("src/repro/faults/fs.py::OSError",),
}

DEFAULT_CONFIG = Config(allow=DEFAULT_ALLOW)
