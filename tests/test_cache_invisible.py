"""Differential property: a decoded-node cache is invisible.

One random verb sequence is driven against the same engine opened with
``node_cache`` 0, 8 (evicts constantly) and 4096 (holds everything), on
the file and on the pack layout — and, on a 4-node cluster, through the
coordinator (whose node cache answers ``get_node``) and through a client
endpoint (which has none).  Whatever a verb returns — version
uids, value roots, values, errors — and what the engines hold afterwards
(heads, values, ``history()``, ``verify().ok``) must be identical: the
cache, read-populated or write-through, may change what is *fetched and
decoded*, never what is *answered or stored*.
"""

from __future__ import annotations

import hashlib
import itertools
import tempfile
from typing import Any, Callable, Dict, List, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chunk import Chunk, ChunkType
from repro.cluster import ClusterStore
from repro.db import ForkBase
from repro.errors import ChunkNotFoundError, ForkBaseError
from repro.postree.merge import resolve_ours
from repro.store import InMemoryStore, NodeCacheStore, physical_store
from repro.store.nodecache import DEFAULT_CAPACITY
from repro.types import FBlob, FList, FObject
from repro.types.convert import unwrap
from repro.vcs.branches import BranchTable

NODE_CACHES = (0, 8, 4096)
BACKENDS = ("file", "pack")
#: One key per value type, so every edit verb finds a value it applies to.
KEYS = ("map", "blob", "list", "set")
MAX_BRANCHES = 3


def _bytes(salt: int, index: int, size: int) -> bytes:
    """Deterministic filler: ops carry two small ints, not kilobytes."""
    return (hashlib.sha256(b"%d:%d" % (salt, index)).digest() * (size // 32 + 1))[:size]


def _map(size: int, salt: int) -> Dict[bytes, bytes]:
    return {b"k%04d" % i: _bytes(salt, i, 8 + (i * 7 + salt) % 40) for i in range(size)}


key = st.sampled_from(KEYS)
#: Which of the key's existing branches a verb addresses (index mod count).
branch = st.integers(min_value=0, max_value=MAX_BRANCHES - 1)
small = st.integers(min_value=0, max_value=7)
map_key = st.integers(min_value=0, max_value=420).map(lambda i: b"k%04d" % i)
fraction = st.floats(min_value=0, max_value=1, allow_nan=False)

OPS = st.one_of(
    # whole-value puts: maps deep enough to have index levels, blobs of a
    # few chunks, lists of a few leaves
    st.tuples(st.just("put-map"), branch, st.integers(0, 400), small),
    st.tuples(st.just("put-blob"), branch, st.integers(0, 20_000), small),
    st.tuples(st.just("put-list"), branch, st.integers(0, 300), small),
    st.tuples(st.just("put-set"), branch, st.integers(0, 900), small),
    # the head's own value with a few keys changed, as a plain dict / set:
    # the put that edits the head instead of rebuilding it
    st.tuples(st.just("put-map-near"), branch, st.lists(map_key, max_size=6), small),
    st.tuples(st.just("put-set-near"), branch, st.lists(map_key, max_size=6)),
    # edits of the value at a head (the splice editor under a map)
    st.tuples(st.just("map-set"), branch, map_key, small),
    st.tuples(st.just("map-remove"), branch, map_key),
    st.tuples(st.just("map-update"), branch, st.lists(map_key, max_size=6), small),
    st.tuples(st.just("blob-splice"), branch, fraction, fraction, small),
    st.tuples(st.just("list-edit"), branch,
              st.sampled_from(("append", "insert", "delete", "set")), fraction, small),
    st.tuples(st.just("branch"), key, branch),
    st.tuples(st.just("merge"), key, branch, branch),
    st.tuples(st.just("get-version"), st.integers(min_value=0)),
    st.tuples(st.just("gc")),
    st.tuples(st.just("reopen")),
)

#: Every example starts from one value of each type, so edits, branches
#: and merges have something to work on from the first drawn verb.
PROLOGUE = [
    ("put-map", 0, 300, 0), ("put-blob", 0, 9_000, 0), ("put-list", 0, 120, 0),
    ("put-set", 0, 600, 0),
]


class _Driver:
    """One engine configuration; ``apply`` returns what the verb answered."""

    def __init__(self, open: Callable[[], ForkBase], backend: str, verify_reads: bool) -> None:
        self.open = open
        self.backend = backend
        self.verify_reads = verify_reads
        self.ticks = itertools.count()
        self.versions: List[Tuple[str, Any]] = []
        self._start()

    def _start(self) -> None:
        self.db = self.open()
        self.db._clock = lambda: float(next(self.ticks))
        if self.verify_reads:
            store = self.db.store
            store.verify_reads = physical_store(store).verify_reads = True

    def _branch(self, key: str, pick: int) -> str:
        names = sorted(self.db.branches(key)) if self.db.exists(key) else ["master"]
        return names[pick % len(names)]

    def _commit(self, key: str, pick: int, value: Any) -> Tuple[str, str]:
        branch = self._branch(key, pick)
        info = self.db.put(key, value, branch=branch)
        self.versions.append((key, info.uid))
        return info.uid.hex(), self.db.get(key, branch).root.hex()

    def _edit(self, key: str, pick: int, edit: Callable[[Any], FObject]) -> Tuple[str, str]:
        return self._commit(key, pick, edit(self.db.get(key, self._branch(key, pick))))

    def apply(self, op: Tuple[Any, ...]) -> Any:
        try:
            return self._apply(*op)
        except ForkBaseError as exc:
            return type(exc).__name__

    def _apply(self, verb: str, *args: Any) -> Any:
        db = self.db
        if verb == "put-map":
            pick, size, salt = args
            return self._commit("map", pick, _map(size, salt))
        if verb == "put-blob":
            pick, size, salt = args
            return self._commit("blob", pick, FBlob.from_bytes(db.store, _bytes(salt, 0, size)))
        if verb == "put-list":
            pick, size, salt = args
            items = [_bytes(salt, i, 4 + i % 30) for i in range(size)]
            return self._commit("list", pick, FList.from_items(db.store, items))
        if verb == "put-set":
            pick, size, salt = args
            return self._commit("set", pick, {b"k%04d" % (i * (salt + 1)) for i in range(size)})
        if verb == "put-map-near":
            pick, keys, salt = args
            value = unwrap(db.get("map", self._branch("map", pick)))
            value.update((k, _bytes(salt, n, 20)) for n, k in enumerate(keys[::2]))
            for k in keys[1::2]:
                value.pop(k, None)
            return self._commit("map", pick, value)
        if verb == "put-set-near":
            pick, keys = args
            value = unwrap(db.get("set", self._branch("set", pick)))
            return self._commit("set", pick, value.symmetric_difference(keys))
        if verb == "map-set":
            pick, map_key, salt = args
            return self._edit("map", pick, lambda m: m.set(map_key, _bytes(salt, 1, 33)))
        if verb == "map-remove":
            pick, map_key = args
            return self._edit("map", pick, lambda m: m.remove(map_key))
        if verb == "map-update":
            pick, keys, salt = args
            puts = {k: _bytes(salt, n, 20) for n, k in enumerate(keys[::2])}
            return self._edit("map", pick, lambda m: m.update(puts, keys[1::2]))
        if verb == "blob-splice":
            pick, at, width, salt = args

            def splice(blob: FBlob) -> FBlob:
                start = int(at * blob.size())
                stop = min(blob.size(), start + int(width * 64))
                return blob.splice(start, stop, _bytes(salt, 2, 8 * salt))

            return self._edit("blob", pick, splice)
        if verb == "list-edit":
            pick, kind, at, salt = args

            def edit(items: FList) -> FList:
                item = _bytes(salt, 3, 12)
                if kind == "append" or not len(items):
                    return items.append(item)
                position = int(at * (len(items) - 1))
                if kind == "insert":
                    return items.insert(position, item)
                if kind == "delete":
                    return items.delete(position)
                return items.set(position, item)

            return self._edit("list", pick, edit)
        if verb == "branch":
            key, pick = args
            count = len(db.branches(key))
            if count == MAX_BRANCHES:
                return "enough-branches"
            return db.branch(key, f"fork-{count}", from_branch=self._branch(key, pick)).hex()
        if verb == "merge":
            key, source, into = args
            info = db.merge(
                key, self._branch(key, source), self._branch(key, into), resolver=resolve_ours
            )
            self.versions.append((key, info.uid))
            return info.uid.hex(), info.message
        if verb == "get-version":
            key, uid = self.versions[args[0] % len(self.versions)]
            return unwrap(db.get(key, version=uid))
        if verb == "gc":
            # Only the pack layout sweeps in place; what *would* go is
            # the same set either way.
            report = db.collect_garbage(dry_run=self.backend != "pack")
            return report.live_chunks, report.swept_chunks
        if verb == "reopen":
            db.close()
            self._start()
            return sorted(self.db.keys())
        raise AssertionError(verb)

    def final_state(self) -> Any:
        db = self.db
        state = []
        for key, branch, head in sorted(db.heads.table.all_heads()):
            state.append((
                key, branch, head.hex(),
                db.get(key, branch).root.hex(),
                unwrap(db.get(key, branch)),
                [fnode.uid.hex() for fnode in db.history(key, branch)],
                db.verify(key, branch).ok,
            ))
        return state


def _durable(directory: str, backend: str, node_cache: int) -> Callable[[], ForkBase]:
    return lambda: ForkBase.open(directory, backend=backend, node_cache=node_cache)


def _clustered(cached: bool) -> Callable[[], ForkBase]:
    """Engines over one 4-node cluster: through the coordinator, which
    caches decoded nodes, or through a client endpoint, which does not.
    The cluster keeps no head record, so a reopen keeps the heads."""
    cluster = ClusterStore(node_count=4, replication=3, write_quorum=2)
    store = cluster if cached else cluster.client("api")
    heads = BranchTable()

    def open_engine() -> ForkBase:
        db = ForkBase(store)
        db.heads.table = heads
        return db

    return open_engine


@given(ops=st.lists(OPS, min_size=1, max_size=14), verify_reads=st.booleans())
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_node_cache_is_invisible(ops, verify_reads):
    with tempfile.TemporaryDirectory() as root:
        drivers = {
            (backend, cache): _Driver(_durable(f"{root}/{backend}-{cache}", backend, cache),
                                      backend, verify_reads)
            for backend in BACKENDS
            for cache in NODE_CACHES
        }
        try:
            reference = drivers[BACKENDS[0], NODE_CACHES[0]]
            for op in PROLOGUE + ops:
                answer = reference.apply(op)
                for config, driver in drivers.items():
                    if driver is not reference:
                        assert driver.apply(op) == answer, (config, op)
            state = reference.final_state()
            assert all(entry[-1] for entry in state), "verify() failed"
            for config, driver in drivers.items():
                assert driver.final_state() == state, config
            # Within a layout (gc really sweeps only pack), the caches
            # leave exactly the same chunks behind.
            for backend in BACKENDS:
                held = [
                    sorted(uid.digest for uid in drivers[backend, cache].db.store.ids())
                    for cache in NODE_CACHES
                ]
                assert held[0] == held[1] == held[2], backend
        finally:
            for driver in drivers.values():
                driver.db.abandon()


@given(ops=st.lists(OPS, min_size=1, max_size=14), verify_reads=st.booleans())
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_cluster_node_cache_is_invisible(ops, verify_reads):
    cached, uncached = (
        _Driver(_clustered(cache), "cluster", verify_reads) for cache in (True, False)
    )
    for op in PROLOGUE + ops:
        assert cached.apply(op) == uncached.apply(op), op
    state = uncached.final_state()
    assert all(entry[-1] for entry in state), "verify() failed"
    assert cached.final_state() == state
    assert sorted(uid.digest for uid in cached.db.store.ids()) == sorted(
        uid.digest for uid in uncached.db.store.ids()
    )
    assert cached.db.store.node_hits > 0 and uncached.db.store.cluster.node_lookups == 0


# -- the default engine: ForkBase() caches decoded nodes ----------------------


def _default_engine_script(db: ForkBase) -> Tuple[list, list, list, list]:
    """Whole-value puts, a branch, a diff, a 3-way merge, a drop and a gc."""
    base = {f"k{i:04d}": f"value-{i}-" + "x" * (i % 37) for i in range(2000)}
    answers: List[Any] = [db.put("m", base).uid]
    db.branch("m", "dev")
    dev = dict(base, k0010="on-dev")
    del dev["k0020"]
    answers.append(db.put("m", dev, branch="dev").uid)
    answers.append(db.put("m", dict(base, k1900="on-master", k2500="new")).uid)
    diff = db.diff("m", "master", "dev")
    answers.append((diff.added, diff.removed, diff.changed))
    merged = db.merge("m", "dev")
    answers.append((merged.uid, merged.message, db.get_value("m")))
    db.put("s", {f"member-{i}" for i in range(900)})
    answers.append(db.put("s", {f"member-{i}" for i in range(3, 905)}).uid)
    db.put("scratch", {f"t{i:03d}": "y" * i for i in range(400)})
    db.get_value("scratch")
    db.drop("scratch")
    report = db.collect_garbage()
    assert report.swept_chunks > 0
    answers.append((report.live_chunks, report.swept_chunks))
    heads = sorted(db.heads.table.all_heads())
    values = [
        (key, branch, db.get(key, branch).root, db.get_value(key, branch))
        for key, branch, _ in heads
    ]
    return answers, heads, values, sorted(uid.digest for uid in db.store.ids())


def test_default_engine_cache_is_invisible():
    cached = ForkBase(clock=itertools.count(1_700_000_000).__next__)
    plain = ForkBase(InMemoryStore(), clock=itertools.count(1_700_000_000).__next__)
    assert _default_engine_script(cached) == _default_engine_script(plain)
    assert isinstance(cached.store, NodeCacheStore) and cached.store.node_hits > 0
    assert cached.store.node_cache.capacity == DEFAULT_CAPACITY


def _one_key_puts(db: ForkBase, rounds: int = 6) -> int:
    """Backend gets spent by whole-dict puts (one key changed) + reads,
    after the first put."""
    value = {f"k{i:05d}": f"value-{i}" for i in range(6000)}
    db.put("cfg", value)
    db.get_value("cfg")
    backing = physical_store(db.store)
    before = backing.stats.snapshot()
    for n in range(rounds):
        value[f"k{n * 997 % 6000:05d}"] = f"edited-{n}"
        db.put("cfg", value)
        assert db.get_value("cfg") == {k.encode(): v.encode() for k, v in value.items()}
    return backing.stats.delta(before).gets


def test_default_engine_whole_dict_puts_read_nothing_back():
    assert _one_key_puts(ForkBase()) == 0
    # The cacheless engine decodes the head from its bytes on every put and read.
    assert _one_key_puts(ForkBase(InMemoryStore())) > 0


def test_default_engine_rot_under_a_cached_node_is_still_reported():
    db = ForkBase()
    db.put("cfg", {f"k{i:05d}": f"value-{i}" for i in range(3000)})
    want = db.get_value("cfg")
    backing = physical_store(db.store)
    leaf = next(uid for uid in backing.ids() if backing.get(uid).type == ChunkType.LEAF)
    assert leaf in db.store.node_cache.entries
    original = backing._chunks[leaf]
    backing._chunks[leaf] = Chunk(original.type, b"ROT" + original.data[3:], uid=leaf)
    # The price of the cache: the decoded node outlives the rot in its bytes...
    assert db.get_value("cfg") == want
    # ...until verify or scrub, which read the chunks themselves, looks.
    report = db.verify("cfg")
    assert not report.ok and report.corrupt == 1
    scrubbed = db.scrub()
    assert scrubbed.corrupt == 1 and scrubbed.corrupt_uids == [leaf]
    # The quarantine swept the copy, and with it the cached node.
    assert leaf not in db.store.node_cache.entries
    with pytest.raises(ChunkNotFoundError):
        db.get_value("cfg")
