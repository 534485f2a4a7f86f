"""A uid is a ``bytes`` subclass, so ``Uid(d) == d``: no uid-keyed map may
hold a plain ``bytes`` key, and a user key that equals a node digest must
stay a user key.

The first class drives put / branch / merge / diff / gc on every store
kind and then looks at every key of every uid-keyed table; the second
stores a map whose user keys are byte-equal to its own node digests; the
third pins what the value converters do with a uid (it is bytes).
"""

from __future__ import annotations

import json
import random

import pytest

from repro.api.cli import _printable
from repro.api.rest import _jsonable
from repro.chunk import Uid
from repro.cluster import ClusterStore
from repro.db import ForkBase
from repro.store import InMemoryStore, physical_store
from repro.store.segments import SegmentStore
from repro.types import FBlob, FMap
from repro.types.convert import unwrap, wrap


def _rows(count: int, tag: str = "v") -> dict:
    return {f"k{i:05d}": f"{tag}{i}" for i in range(count)}


def _workload(db: ForkBase, sweep: bool) -> None:
    data = random.Random(48).randbytes(200_000)
    db.put("m", _rows(2_000))
    db.put("b", data)
    db.branch("m", "dev")
    db.put("m", {**_rows(2_000), "k00007": "dev", "k01500": "dev"}, branch="dev")
    db.put("m", {**_rows(2_000), "k00900": "main"})
    db.merge("m", "dev")
    db.put("b", data[:100_000] + b"edit" + data[100_004:])
    assert db.diff("m", "master", "dev").edit_count == 1
    assert db.get_value("m")[b"k00900"] == b"main"
    db.put("gone", {"a": "1"})
    db.put("gone", {"a": "2"})
    db.collect_garbage(dry_run=not sweep)


def _assert_uid_keys(keys, where: str) -> int:
    keys = list(keys)
    strays = [key for key in keys if type(key) is not Uid]
    assert not strays, f"{where}: {len(strays)} key(s) not Uid, e.g. {strays[0]!r}"
    return len(keys)


def _assert_cache_keys(cache) -> None:
    assert _assert_uid_keys(cache.entries, "NodeLRU.entries")
    assert _assert_uid_keys(cache.leaves, "NodeLRU.leaves")
    assert _assert_uid_keys(cache.cut_keys, "NodeLRU.cut_keys")
    assert _assert_uid_keys(cache.parents, "NodeLRU.parents")


class TestEveryUidKeyedTableHoldsUids:
    def test_in_memory_engine(self):
        db = ForkBase()
        _workload(db, sweep=True)
        _assert_cache_keys(db.store.node_cache)
        memory = physical_store(db.store)
        assert isinstance(memory, InMemoryStore)
        assert _assert_uid_keys(memory._chunks, "InMemoryStore._chunks")

    @pytest.mark.parametrize("backend", ["file", "pack"])
    def test_durable_engine(self, tmp_path, backend):
        db = ForkBase.open(str(tmp_path), backend=backend)
        _workload(db, sweep=True)
        _assert_cache_keys(db.store.node_cache)
        segments = physical_store(db.store)
        assert isinstance(segments, SegmentStore)
        assert _assert_uid_keys(segments._index, "SegmentStore._index")
        db.close()
        # The index snapshot loads back as uids too.
        again = ForkBase.open(str(tmp_path), backend=backend)
        assert _assert_uid_keys(physical_store(again.store)._index, "reloaded _index")
        again.close()

    def test_cluster(self):
        cluster = ClusterStore(node_count=4, replication=3)
        db = ForkBase(cluster)
        cluster.kill_node("node-02")
        _workload(db, sweep=False)
        assert any(cluster.hints.values())
        for name, hints in cluster.hints.items():
            _assert_uid_keys(hints, f"hints for {name}")
        cluster.revive_node("node-02")
        cluster.anti_entropy_pass()
        _assert_cache_keys(cluster.node_cache)
        for name, node in cluster.nodes.items():
            _assert_uid_keys(physical_store(node.store)._chunks, f"{name} chunks")
        state = cluster.replica_digests
        assert _assert_uid_keys(state.placement, "ReplicaDigests.placement")
        for name, held in state.held.items():
            assert _assert_uid_keys(held, f"ReplicaDigests.held[{name}]")
        for pair, tree in state.trees.items():
            for bucket in tree.buckets:
                _assert_uid_keys(bucket, f"digest tree {pair}")


def _digest_keyed(db: ForkBase):
    """Put a map, then add user keys equal to digests of its middle leaves.

    The map's keys start with ``k``; a digest key sorts before or after
    all of them, so the middle leaves stay in the new tree.
    """
    base = _rows(3_000)
    db.put("m", base)
    leaves = [leaf.uid for leaf in db.get("m").tree.leaves()]
    middle = leaves[len(leaves) // 3 : 2 * len(leaves) // 3]
    assert len(middle) >= 3
    db.branch("m", "dev")
    aliased = {bytes(uid): b"leaf-%d" % i for i, uid in enumerate(middle)}
    db.put("m", {**{k.encode(): v.encode() for k, v in base.items()}, **aliased}, branch="dev")
    tree = db.get("m", branch="dev").tree
    assert set(middle) <= tree.page_uids()  # each key is one of its own nodes
    return base, aliased, middle


class TestUserKeysEqualToNodeDigests:
    @pytest.mark.parametrize("engine", ["memory", "pack"])
    def test_reads_diffs_and_merges(self, tmp_path, engine):
        db = ForkBase() if engine == "memory" else ForkBase.open(str(tmp_path), backend="pack")
        base, aliased, middle = _digest_keyed(db)
        dev = db.get("m", branch="dev")
        for key, value in aliased.items():
            assert dev.get(key) == value
            assert dev.get(Uid(key)) == value
        assert db.get("m").get(bytes(middle[0])) is None
        values = db.get_value("m", branch="dev")
        assert len(values) == len(base) + len(aliased)
        assert all(type(key) is bytes for key in values)
        diff = db.diff("m", "master", "dev")
        assert diff.added == aliased and not diff.removed and not diff.changed
        db.put("m", {**base, "k00001": "main"})
        db.merge("m", "dev")
        merged = db.get_value("m")
        assert merged[b"k00001"] == b"main"
        assert {key: merged[key] for key in aliased} == aliased
        assert db.verify("m")
        if engine == "pack":
            db.close()


class TestConvertersTakeTheBytesBranch:
    """A uid passed as a value is its 32 digest bytes, like any ``bytes``."""

    def test_wrap_stores_the_digest_as_a_blob(self):
        uid = Uid.of(b"value")
        blob = wrap(InMemoryStore(), uid)
        assert isinstance(blob, FBlob) and unwrap(blob) == uid.digest

    def test_a_uid_map_key_is_its_digest(self):
        uid = Uid.of(b"key")
        fmap = wrap(InMemoryStore(), {uid: b"v"})
        assert isinstance(fmap, FMap) and unwrap(fmap) == {uid.digest: b"v"}

    def test_cli_printable_decodes_the_digest(self):
        uid = Uid.of(b"print")
        assert _printable(uid) == _printable(uid.digest)
        assert _printable(uid) == uid.digest.decode("utf-8", errors="replace")

    def test_rest_jsonable_decodes_the_digest(self):
        uid = Uid.of(b"json")
        assert _jsonable(uid) == _jsonable(uid.digest)
        assert isinstance(_jsonable(uid), str)
        json.dumps(_jsonable({"v": [uid]}))
