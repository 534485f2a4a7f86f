"""The eight workloads: seeded inputs, set-up, one timed op, and the oracle.

Every workload drives **engine verbs only** (``ForkBase``, ``FMap`` /
``FBlob``, ``DataTable``, and ``ClusterStore`` as a store) from one client
thread, closed loop.  The whole op stream — and the value every read must
return — is generated from the seed *before* anything is timed, so the
program under test sees only inputs, and the plain ``dict`` / ``bytes``
model the results are checked against never runs inside a timed region.

A workload is five small pieces the harness calls in order::

    generate(rng, ops_scale, size_scale) -> Inputs     (untimed, from seed)
    setup(inputs, directory)            -> state      (timed: setup_s)
    step(state, op)                     -> result     (timed: one op)
    check(state, op, result)            -> bool       (untimed oracle)
    finish(state, inputs)               -> checks     (close, reopen, verify)

Data sizes are fixed by the issue; only op counts follow ``--seconds``.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import random
import shutil
from types import SimpleNamespace
from typing import Any, Dict, List, NamedTuple, Sequence, Tuple

from repro.cluster import ClusterStore
from repro.db import ForkBase
from repro.faults.network import PartitionedTransport
from repro.store import InMemoryStore, StoreStats, physical_store
from repro.table import DataTable
from repro.table.schema import Schema
from repro.types import FBlob, FMap
from repro.workloads import ZipfSampler, generate_rows, rows_to_csv
from repro.workloads.csvgen import SALES_COLUMNS

Check = Tuple[str, bool]


class Op(NamedTuple):
    """One pre-generated operation and everything needed to judge it."""

    kind: str
    args: Tuple[Any, ...]
    #: What the op's read must return (``None`` for write-only ops).
    expect: Any = None
    #: Bytes the caller hands to put-type verbs in this op.
    user_bytes: int = 0
    #: Payload bytes through the workload's bulk verb (``mb_s`` numerator).
    moved_bytes: int = 0


class Inputs(NamedTuple):
    """Everything ``generate`` derives from the seed."""

    initial: Any  # what set-up loads
    ops: List[Op]
    final: Any  # the model after every op
    setup_user_bytes: int


def _feed(hasher: Any, value: Any) -> None:
    """Canonical, type-tagged hashing of nested inputs (for ``input_digest``)."""
    if isinstance(value, bytes):
        hasher.update(b"b%d:" % len(value))
        hasher.update(value)
    elif isinstance(value, str):
        _feed(hasher, value.encode("utf-8"))
    elif isinstance(value, dict):
        hasher.update(b"d%d:" % len(value))
        for key in sorted(value):
            _feed(hasher, key)
            _feed(hasher, value[key])
    elif isinstance(value, (list, tuple)):
        hasher.update(b"l%d:" % len(value))
        for item in value:
            _feed(hasher, item)
    else:
        hasher.update(repr(value).encode("utf-8") + b";")


def input_digest(inputs: Inputs) -> str:
    """SHA-256 over the initial data and the op stream (expectations included)."""
    hasher = hashlib.sha256()
    _feed(hasher, inputs.initial)
    _feed(hasher, inputs.ops)
    return hasher.hexdigest()


def dir_bytes(directory: str) -> int:
    """Sum of file sizes under ``directory`` (what the data really occupies)."""
    total = 0
    for root, _dirs, files in os.walk(directory):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


def scaled(count: int, scale: float, floor: int = 1) -> int:
    return max(floor, round(count * scale))


def pairs_bytes(mapping: Dict[Any, Any]) -> int:
    return sum(len(key) + len(value) for key, value in mapping.items())


def make_map(rng: random.Random, entries: int) -> Dict[bytes, bytes]:
    """11-byte keys, 100-byte incompressible values (≈11 MB at 100k)."""
    return {b"k%010d" % index: rng.randbytes(100) for index in range(entries)}


def zipf_keys(rng: random.Random, keys: Sequence[bytes], count: int) -> List[bytes]:
    """``count`` Zipf-0.99 draws; rank → key through a seeded shuffle so the
    hot set is scattered over the leaves, not packed into the leftmost one."""
    order = list(keys)
    rng.shuffle(order)
    sampler = ZipfSampler(len(order), 0.99, seed=rng.getrandbits(32))
    return [order[sampler.sample()] for _ in range(count)]


def fresh_map_root(model: Dict[bytes, bytes]) -> Any:
    """Root of a from-scratch bulk build: what structural invariance promises."""
    return FMap.from_dict(InMemoryStore(), model).root


class Workload:
    """Shared plumbing; subclasses fill in the five pieces."""

    name = ""
    #: Ops whose rate and latency are ``ops_s`` / ``p50_ms`` / ``p95_ms``.
    rate_kinds: Tuple[str, ...] = ()
    #: Ops whose latencies feed the percentiles (empty: the rate kinds).
    latency_kinds: Tuple[str, ...] = ()
    #: Ops whose payload and time are ``mb_s``.
    bulk_kinds: Tuple[str, ...] = ()
    key = "m"

    def percentile_kinds(self) -> Tuple[str, ...]:
        return self.latency_kinds or self.rate_kinds

    def generate(self, rng: random.Random, ops_scale: float, size_scale: float) -> Inputs:
        raise NotImplementedError

    def setup(self, inputs: Inputs, directory: str) -> Any:
        raise NotImplementedError

    def step(self, state: Any, op: Op) -> Any:
        raise NotImplementedError

    def check(self, state: Any, op: Op, result: Any) -> bool:
        return op.expect is None or result == op.expect

    def moved_bytes(self, op: Op, result: Any) -> int:
        return op.moved_bytes

    def finish(self, state: Any, inputs: Inputs) -> List[Check]:
        raise NotImplementedError

    def teardown(self, state: Any) -> None:
        """Release a set-up that will not be measured further."""
        state.db.close()
        shutil.rmtree(state.directory, ignore_errors=True)

    def backend_stats(self, state: Any) -> List[StoreStats]:
        """Live counters of the store(s) that physically hold the chunks."""
        return state.retired_stats + [physical_store(state.db.store).stats]

    def cache_counters(self, state: Any) -> Tuple[int, int]:
        """``(hits, lookups)`` of the decoded-node cache, if one is configured."""
        store = state.db.store
        return getattr(store, "node_hits", 0), getattr(store, "node_lookups", 0)

    def extra_counters(self, state: Any) -> Dict[str, float]:
        """Workload-specific counts sampled before and after the timed phase."""
        return {}

    # -- durable-engine helpers ------------------------------------------------

    def close_and_reopen(self, state: Any) -> None:
        """Close, weigh the directory, reopen with defaults for the checks."""
        state.db.close()
        state.stored_bytes = dir_bytes(state.directory)
        state.db = ForkBase.open(state.directory)


def new_state(db: ForkBase, directory: str, **fields: Any) -> Any:
    return SimpleNamespace(db=db, directory=directory, retired_stats=[], stored_bytes=0, **fields)


# ---------------------------------------------------------------------------
# 1-3: one 100k-entry FMap on the pack backend
# ---------------------------------------------------------------------------

MAP_ENTRIES = 100_000


class MapWorkload(Workload):
    #: A 100k-entry map is ≈10.8k nodes (≈1 KiB leaves), so 16384 decoded
    #: nodes hold all of it: the "fits the program's cache" case.
    node_cache = 16384
    #: The issue's 6,000-commit phase crossed one compaction at the default
    #: 1 MiB journal limit; the limit is scaled with the op count (÷3, to a
    #: power of two) so a 2,400-commit phase still crosses one.
    journal_limit = 1 << 18

    def open(self, directory: str, node_cache: int) -> ForkBase:
        return ForkBase.open(directory, backend="pack", fsync="batch",
                             journal_limit=self.journal_limit, node_cache=node_cache)

    def open_and_load(self, directory: str, model: Dict[bytes, bytes]) -> ForkBase:
        db = self.open(directory, self.node_cache)
        db.put(self.key, FMap.from_dict(db.store, model))
        return db

    def setup(self, inputs: Inputs, directory: str) -> Any:
        db = self.open_and_load(directory, inputs.initial)
        # Fill the node cache: users of a long-lived engine work warm.
        db.get_value(self.key)
        return new_state(db, directory)

    def finish(self, state: Any, inputs: Inputs) -> List[Check]:
        self.close_and_reopen(state)
        return [
            ("contents", state.db.get_value(self.key) == inputs.final),
            ("verify", state.db.verify(self.key).ok),
        ]


class MapCommit(MapWorkload):
    """``get → set(one Zipf key) → put``: the single-key commit path."""

    name = "map_commit"
    rate_kinds = bulk_kinds = ("commit",)
    commits = 2400

    def generate(self, rng: random.Random, ops_scale: float, size_scale: float) -> Inputs:
        initial = make_map(rng, scaled(MAP_ENTRIES, size_scale, 200))
        final = dict(initial)
        ops = []
        for key in zipf_keys(rng, sorted(initial), scaled(self.commits, ops_scale, 10)):
            value = rng.randbytes(100)
            final[key] = value
            size = len(key) + len(value)
            ops.append(Op("commit", (key, value), None, size, size))
        return Inputs(initial, ops, final, pairs_bytes(initial))

    def step(self, state: Any, op: Op) -> Any:
        key, value = op.args
        db = state.db
        return db.put(self.key, db.get(self.key).set(key, value))

    def finish(self, state: Any, inputs: Inputs) -> List[Check]:
        checks = super().finish(state, inputs)
        root = state.db.get(self.key).root
        return checks + [("bulk_build_root", root == fresh_map_root(inputs.final))]


class MapReadHot(MapWorkload):
    """95% Zipf point gets + 5% 50-entry scans; the working set fits the cache."""

    name = "map_read_hot"
    rate_kinds = bulk_kinds = ("get", "scan")
    reads = 170_000
    scan_length = 50

    def generate(self, rng: random.Random, ops_scale: float, size_scale: float) -> Inputs:
        initial = make_map(rng, scaled(MAP_ENTRIES, size_scale, 200))
        keys = sorted(initial)
        count = scaled(self.reads, ops_scale, 40)
        scans = count // 20  # exactly 5%, so the mix does not vary with the seed
        ops = []
        for key in zipf_keys(rng, keys, count - scans):
            ops.append(Op("get", (key,), initial[key], 0, len(initial[key])))
        for _ in range(scans):
            first = rng.randrange(len(keys) - self.scan_length)
            span = keys[first : first + self.scan_length]
            expect = [(key, initial[key]) for key in span]
            ops.append(Op("scan", (span[0], keys[first + self.scan_length]), expect, 0,
                          sum(len(key) + len(value) for key, value in expect)))
        rng.shuffle(ops)
        return Inputs(initial, ops, initial, pairs_bytes(initial))

    def step(self, state: Any, op: Op) -> Any:
        fmap = state.db.get(self.key)
        if op.kind == "get":
            return fmap.get(op.args[0])
        return list(fmap.scan(*op.args))


class MapReadCold(MapWorkload):
    """Uniform point gets with a node cache of ≈10% of the nodes."""

    name = "map_read_cold"
    rate_kinds = bulk_kinds = ("get",)
    reads = 56_000
    #: Holds the ≈900 index nodes and a sliver of the ≈9.9k leaves, so
    #: every lookup ends in a backend read and a leaf decode.
    cold_cache = 1024

    def generate(self, rng: random.Random, ops_scale: float, size_scale: float) -> Inputs:
        initial = make_map(rng, scaled(MAP_ENTRIES, size_scale, 200))
        keys = sorted(initial)
        ops = []
        for _ in range(scaled(self.reads, ops_scale, 40)):
            key = keys[rng.randrange(len(keys))]
            ops.append(Op("get", (key,), initial[key], 0, len(initial[key])))
        return Inputs(initial, ops, initial, pairs_bytes(initial))

    def setup(self, inputs: Inputs, directory: str) -> Any:
        db = self.open_and_load(directory, inputs.initial)
        loaded = physical_store(db.store).stats
        db.close()
        cache = max(8, self.cold_cache * len(inputs.initial) // MAP_ENTRIES)
        state = new_state(self.open(directory, cache), directory)
        state.retired_stats.append(loaded)
        return state

    def step(self, state: Any, op: Op) -> Any:
        return state.db.get(self.key).get(op.args[0])


# ---------------------------------------------------------------------------
# 4: whole-dict put on the default in-memory engine
# ---------------------------------------------------------------------------


class DictPut(Workload):
    """``db.put(key, whole_dict_with_one_key_changed)`` + ``db.get_value``."""

    name = "dict_put"
    rate_kinds = bulk_kinds = ("put_get",)
    key = "cfg"
    entries = 20_000
    puts = 80

    def generate(self, rng: random.Random, ops_scale: float, size_scale: float) -> Inputs:
        count = scaled(self.entries, size_scale, 100)
        initial = {
            f"key{index:06d}": f"value-{index}-" + "x" * rng.randrange(10, 60)
            for index in range(count)
        }
        final = dict(initial)
        size = pairs_bytes(initial)
        ops = []
        for number in range(scaled(self.puts, ops_scale, 4)):
            key = f"key{rng.randrange(count):06d}"
            value = f"changed-{number}-" + "y" * rng.randrange(10, 60)
            size += len(value) - len(final[key])
            final[key] = value
            ops.append(Op("put_get", (key, value), None, size, 2 * size))
        return Inputs(initial, ops, final, pairs_bytes(initial))

    def setup(self, inputs: Inputs, directory: str) -> Any:
        db = ForkBase()
        db.put(self.key, inputs.initial)
        expected = {key.encode(): value.encode() for key, value in inputs.initial.items()}
        return new_state(db, directory, cfg=dict(inputs.initial), expected=expected)

    def step(self, state: Any, op: Op) -> Any:
        key, value = op.args
        state.cfg[key] = value
        state.db.put(self.key, state.cfg)
        return state.db.get_value(self.key)

    def check(self, state: Any, op: Op, result: Any) -> bool:
        key, value = op.args
        state.expected[key.encode()] = value.encode()
        return result == state.expected

    def finish(self, state: Any, inputs: Inputs) -> List[Check]:
        final = {key.encode(): value.encode() for key, value in inputs.final.items()}
        state.stored_bytes = state.db.physical_size()
        return [
            ("contents", state.db.get_value(self.key) == final),
            ("verify", state.db.verify(self.key).ok),
            ("bulk_build_root", state.db.get(self.key).root == fresh_map_root(final)),
        ]


# ---------------------------------------------------------------------------
# 5: versions of one 4 MiB blob
# ---------------------------------------------------------------------------


class BlobVersions(Workload):
    """Each op stores a near-duplicate 4 MiB blob and reads an earlier version."""

    name = "blob_versions"
    rate_kinds = bulk_kinds = ("version",)
    key = "b"
    blob_bytes = 4 << 20
    versions = 96

    def generate(self, rng: random.Random, ops_scale: float, size_scale: float) -> Inputs:
        size = scaled(self.blob_bytes, size_scale, 1 << 14)
        letters = "abcdefghijklmnopqrstuvwxyz"
        vocabulary = [
            "".join(rng.choices(letters, k=rng.randrange(2, 11))) for _ in range(2000)
        ]
        text = " ".join(rng.choices(vocabulary, k=size // 5)).encode("ascii")
        while len(text) < size:
            text += text
        data = initial = text[:size]
        sizes = [len(data)]
        digests = [hashlib.sha256(data).digest()]
        ops = []
        for _ in range(scaled(self.versions, ops_scale, 4)):
            offset = rng.randrange(len(data) - 32)
            patch = "".join(rng.choices(letters + " ", k=64)).encode("ascii")
            data = data[:offset] + patch + data[offset + 32 :]
            sizes.append(len(data))
            digests.append(hashlib.sha256(data).digest())
            earlier = rng.randrange(len(digests) - 1)
            ops.append(Op("version", (offset, patch, earlier), digests[earlier],
                          len(data), len(data) + sizes[earlier]))
        return Inputs(initial, ops, data, len(initial))

    def setup(self, inputs: Inputs, directory: str) -> Any:
        db = ForkBase.open(directory, backend="pack", fsync="batch", node_cache=4096)
        info = db.put(self.key, FBlob.from_bytes(db.store, inputs.initial))
        return new_state(db, directory, data=inputs.initial, versions=[info.uid])

    def step(self, state: Any, op: Op) -> Any:
        offset, patch, earlier = op.args
        db = state.db
        state.data = data = state.data[:offset] + patch + state.data[offset + 32 :]
        state.versions.append(db.put(self.key, FBlob.from_bytes(db.store, data)).uid)
        return db.get(self.key, version=state.versions[earlier]).read()

    def check(self, state: Any, op: Op, result: Any) -> bool:
        return hashlib.sha256(result).digest() == op.expect

    def finish(self, state: Any, inputs: Inputs) -> List[Check]:
        self.close_and_reopen(state)
        blob = state.db.get(self.key)
        fresh = FBlob.from_bytes(InMemoryStore(), inputs.final)
        return [
            ("contents", blob.read() == inputs.final),
            ("verify", state.db.verify(self.key).ok),
            ("bulk_build_root", blob.root == fresh.root),
        ]


# ---------------------------------------------------------------------------
# 6: the paper's demo scenario on engine defaults
# ---------------------------------------------------------------------------


class TableBranch(Workload):
    """CSV import, then branch / upsert / diff / fast-forward / 3-way merge."""

    name = "table_branch"
    rate_kinds = ("cycle",)
    bulk_kinds = ("import",)
    key = "t0"
    rows = 50_000
    imports = 2  # timed; the first table is loaded in set-up
    cycles = 5
    clustered = 20
    #: One scattered row is drawn from a 1%-wide window around each of these
    #: fractions of the key range.  ``_splice_leaves`` re-chunks everything
    #: between the smallest and largest edited key, so the *span* of a
    #: scattered batch is the input its cost depends on; a uniform draw
    #: would move the per-seed median by more than the regression bound.
    scatter_at = (0.1, 0.3, 0.5, 0.7, 0.9)

    def generate(self, rng: random.Random, ops_scale: float, size_scale: float) -> Inputs:
        count = scaled(self.rows, size_scale, 1000)
        schema = Schema.of(SALES_COLUMNS, "id")
        rows = generate_rows(count, seed=rng.getrandbits(32))
        initial = rows_to_csv(rows)
        ops = []
        for number in range(1, self.imports + 1):
            text = rows_to_csv(generate_rows(count, seed=rng.getrandbits(32)))
            ops.append(Op("import", (f"t{number}", text), count, len(text), len(text)))
        final = {row["id"]: row for row in rows}
        for cycle in range(scaled(self.cycles, ops_scale, 2)):
            scattered = [
                int((at + rng.uniform(-0.005, 0.005)) * count) for at in self.scatter_at
            ]
            taken = set(scattered)
            start = rng.randrange(count - self.clustered)
            while taken & set(range(start, start + self.clustered)):
                start = rng.randrange(count - self.clustered)
            taken.update(range(start, start + self.clustered))
            single = rng.randrange(count)
            while single in taken:
                single = rng.randrange(count)
            batches = []
            for label, indices in (
                ("single", [single]),
                ("clustered", range(start, start + self.clustered)),
                ("scattered", scattered),
            ):
                batch = [dict(rows[i], note=f"{label} edit {cycle}") for i in indices]
                batches.append(batch)
                final.update((row["id"], row) for row in batch)
            edited = [row for batch in batches for row in batch]
            size = sum(len(schema.row_key(r)) + len(schema.encode_row(r)) for r in edited)
            expect = sorted(row["id"] for row in edited)
            ops.append(Op("cycle", (cycle, *batches), expect, size, size))
        return Inputs(initial, ops, [final[pk] for pk in sorted(final)], len(initial))

    def setup(self, inputs: Inputs, directory: str) -> Any:
        db = ForkBase.open(directory)  # exactly what `forkbase` CLI users get
        table, _report = DataTable.load_csv(db, self.key, inputs.initial, "id")
        return new_state(db, directory, table=table)

    def step(self, state: Any, op: Op) -> Any:
        if op.kind == "import":
            name, text = op.args
            return DataTable.load_csv(state.db, name, text, "id")[1].rows_loaded
        cycle, single, clustered, scattered = op.args
        table = state.table
        a, b = f"a{cycle}", f"b{cycle}"
        table.branch(a)
        table.branch(b)
        table.upsert_rows(single, a)
        table.upsert_rows(clustered, a)
        table.upsert_rows(scattered, b)
        diff = table.diff(a, b)
        table.merge(a)  # fast-forward
        table.merge(b)  # true three-way
        return sorted(row.pk for row in diff.changed)

    def finish(self, state: Any, inputs: Inputs) -> List[Check]:
        self.close_and_reopen(state)
        db = state.db
        expected = rows_to_csv(inputs.final)
        fresh = ForkBase()
        DataTable.load_csv(fresh, self.key, expected, "id")
        return [
            ("contents", DataTable(db, self.key).export_csv() == expected),
            ("verify", db.verify(self.key).ok),
            ("bulk_build_root", db.get(self.key).root == fresh.get(self.key).root),
        ]


# ---------------------------------------------------------------------------
# 7-8: the same engine over a 4-node replicated ClusterStore
# ---------------------------------------------------------------------------


class ClusterWorkload(Workload):
    entries = 20_000

    def open_cluster(self, model: Dict[bytes, bytes]) -> ForkBase:
        cluster = ClusterStore(
            node_count=4, replication=3, write_quorum=2, transport=PartitionedTransport()
        )
        # Commit timestamps feed FNode uids and uids decide placement: a
        # counting clock makes every chunk count repeat exactly.
        db = ForkBase(cluster, clock=itertools.count(1_700_000_000).__next__)
        db.put(self.key, FMap.from_dict(db.store, model))
        return db

    def commit(self, db: ForkBase, key: bytes, value: bytes) -> Any:
        return db.put(self.key, db.get(self.key).set(key, value))

    def teardown(self, state: Any) -> None:
        state.db.close()

    def backend_stats(self, state: Any) -> List[StoreStats]:
        return [node.store.stats for node in state.db.store.nodes.values()]

    def extra_counters(self, state: Any) -> Dict[str, float]:
        cluster = state.db.store
        return {
            "transport_messages": cluster.transport.stats()["sent"],
            "replica_copies": cluster.total_replica_count(),
            "chunks": len(cluster.ids()),
        }

    def finish(self, state: Any, inputs: Inputs) -> List[Check]:
        db = state.db
        cluster = db.store
        state.stored_bytes = sum(node.bytes_held() for node in cluster.nodes.values())
        durability = cluster.durability_check()
        return [
            ("contents", db.get_value(self.key) == inputs.final),
            ("verify", db.verify(self.key).ok),
            ("bulk_build_root", db.get(self.key).root == fresh_map_root(inputs.final)),
            ("durability", durability["lost"] == 0 and durability["single"] == 0),
        ]


class ClusterMixed(ClusterWorkload):
    """Half single-key commits, half point gets, through the transport."""

    name = "cluster_mixed"
    #: Latency percentiles are taken over the commits only: a 50/50 mix of
    #: 0.4 ms gets and 3 ms commits has its median *between* the two modes,
    #: where it jumps on noise.  The gets still count in ``ops_s``/``mb_s``.
    rate_kinds = ("commit", "get")
    latency_kinds = ("commit",)
    bulk_kinds = ("commit", "get")
    ops = 3600

    def generate(self, rng: random.Random, ops_scale: float, size_scale: float) -> Inputs:
        initial = make_map(rng, scaled(self.entries, size_scale, 200))
        count = scaled(self.ops, ops_scale, 20)
        kinds = ["commit"] * (count // 2) + ["get"] * (count - count // 2)
        rng.shuffle(kinds)
        final = dict(initial)
        ops = []
        for kind, key in zip(kinds, zipf_keys(rng, sorted(initial), count)):
            if kind == "get":
                ops.append(Op("get", (key,), final[key], 0, len(final[key])))
            else:
                value = rng.randbytes(100)
                final[key] = value
                size = len(key) + len(value)
                ops.append(Op("commit", (key, value), None, size, size))
        return Inputs(initial, ops, final, pairs_bytes(initial))

    def setup(self, inputs: Inputs, directory: str) -> Any:
        return new_state(self.open_cluster(inputs.initial), directory)

    def step(self, state: Any, op: Op) -> Any:
        if op.kind == "get":
            return state.db.get(self.key).get(op.args[0])
        return self.commit(state.db, *op.args)


class ClusterRepair(ClusterWorkload):
    """Drop 1% of one node's copies, then one Merkle anti-entropy pass."""

    name = "cluster_repair"
    rate_kinds = bulk_kinds = ("repair",)
    setup_commits = 500
    passes = 36
    victim = "node-01"

    def generate(self, rng: random.Random, ops_scale: float, size_scale: float) -> Inputs:
        model = make_map(rng, scaled(self.entries, size_scale, 200))
        final = dict(model)
        commits = []
        for key in zipf_keys(rng, sorted(model), scaled(self.setup_commits, size_scale, 10)):
            value = rng.randbytes(100)
            final[key] = value
            commits.append((key, value))
        ops = [
            Op("repair", (rng.getrandbits(32),))
            for _ in range(scaled(self.passes, ops_scale, 3))
        ]
        size = pairs_bytes(model) + sum(len(k) + len(v) for k, v in commits)
        return Inputs((model, commits), ops, final, size)

    def setup(self, inputs: Inputs, directory: str) -> Any:
        model, commits = inputs.initial
        db = self.open_cluster(model)
        for key, value in commits:
            self.commit(db, key, value)
        return new_state(db, directory, reports=[])

    def step(self, state: Any, op: Op) -> Any:
        cluster = state.db.store
        node = cluster.nodes[self.victim]
        held = sorted(node.store.ids())
        dropped = random.Random(op.args[0]).sample(held, max(1, len(held) // 100))
        size = 0
        for uid in dropped:
            size += node.store.get(uid).size()
            node.drop(uid)
        state.reports.append(cluster.anti_entropy_pass())
        return dropped, size

    def check(self, state: Any, op: Op, result: Any) -> bool:
        node = state.db.store.nodes[self.victim]
        return all(node.store.has(uid) for uid in result[0])

    def moved_bytes(self, op: Op, result: Any) -> int:
        return result[1]

    def extra_counters(self, state: Any) -> Dict[str, float]:
        counters = super().extra_counters(state)
        for field in ("copies_verified", "chunks_examined", "chunks_transferred"):
            counters[field] = sum(getattr(report, field) for report in state.reports)
        return counters


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        MapCommit(), MapReadHot(), MapReadCold(), DictPut(),
        BlobVersions(), TableBranch(), ClusterMixed(), ClusterRepair(),
    )
}


def reference_prefix(workload: Workload, ops: List[Op]) -> List[Op]:
    """The leading slice an untraced reference pass replays.

    A traced invocation needs an untraced p50 of the same ops to state its
    own overhead; a quarter of the latency-bearing ops (at least eight) is
    enough for a median and keeps the traced run inside the time budget.
    """
    kinds = workload.percentile_kinds()
    total = sum(1 for op in ops if op.kind in kinds)
    wanted = max(total // 4, min(total, 8))
    seen = 0
    for index, op in enumerate(ops):
        seen += op.kind in kinds
        if seen >= wanted:
            return ops[: index + 1]
    return ops
