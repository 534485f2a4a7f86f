"""``db.put(key, dict | set)`` edits the head; nobody can tell, except by counting.

A plain dict put over a map head (a set over a set head) is stored by
:meth:`PosTree.assign` — the head's leaves compared with the incoming
value, the differing ones spliced — and falls back to a bulk build once
too much differs.  Both sides must be indistinguishable from the bulk
build a first put does: same root, same value, same history.  What *is*
different is the work, and that is counted here, not timed.
"""

from __future__ import annotations

import hashlib
import tempfile
from typing import Any, Dict, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.postree.edit as edit_module
import repro.postree.tree as tree_module
from repro.db import ForkBase
from repro.postree.node import LeafNode
from repro.postree.tree import REBUILD_SHARE
from repro.store import InMemoryStore, NodeCacheStore
from repro.types import FMap, FSet


def _value(salt: int, index: int) -> bytes:
    size = 8 + (index * 7 + salt) % 60
    return (hashlib.sha256(b"%d:%d" % (salt, index)).digest() * 3)[:size]


def _dict(indices, salt: int) -> Dict[bytes, bytes]:
    return {b"k%05d" % i: _value(salt, i) for i in indices}


#: How the second value relates to the first.  Sizes reach a few dozen
#: default-config leaves, so "one key" and "every key" fall on opposite
#: sides of the rebuild cutoff.
KINDS = (
    "equal", "one-changed", "few-changed", "emptied", "from-empty", "disjoint",
    "superset", "subset", "appended", "every-value-changed", "one-removed", "one-added",
    "run-removed", "run-inserted",
)


def _successor(
    kind: str, size: int, salt: int, pick: int
) -> Tuple[Dict[bytes, bytes], Dict[bytes, bytes]]:
    old = _dict(range(0, 2 * size, 2), salt)
    new = dict(old)
    keys = sorted(old)
    if kind == "one-changed" and keys:
        new[keys[pick % size]] = b"changed"
    elif kind == "few-changed" and keys:
        for step in range(5):
            new[keys[(pick + step * 97) % size]] = b"changed-%d" % step
    elif kind == "emptied":
        new = {}
    elif kind == "from-empty":
        old = {}
    elif kind == "disjoint":
        new = _dict(range(1, 2 * size, 2), salt)
    elif kind == "superset":
        new.update(_dict(range(1, 2 * size, 2), salt + 1))
    elif kind == "subset":
        new = {key: old[key] for key in keys[::3]}
    elif kind == "appended":
        new.update(_dict(range(2 * size, 2 * size + 1 + pick % 40), salt))
    elif kind == "every-value-changed":
        new = _dict(range(0, 2 * size, 2), salt + 1)
    elif kind == "one-removed" and keys:
        del new[keys[pick % size]]
    elif kind == "one-added":
        new[b"k%05d" % (2 * (pick % (size + 1)) + 1)] = b"added"
    elif kind == "run-removed" and keys:
        # A twentieth of the keys, contiguous: a few whole leaves go.
        for key in keys[pick % size :][: 1 + size // 20]:
            del new[key]
    elif kind == "run-inserted":
        first = 2 * (pick % (size + 1)) + 1
        new.update(_dict(range(first, first + 2 + size // 10, 2), salt + 2))
    return old, new


def _engines(root: str) -> Dict[str, ForkBase]:
    engines = {
        "memory": ForkBase(),
        "memory+cache": ForkBase(NodeCacheStore(InMemoryStore(), capacity=64)),
    }
    for backend in ("file", "pack"):
        for cache in (0, 64):
            engines[f"{backend}+{cache}"] = ForkBase.open(
                f"{root}/{backend}-{cache}", backend=backend, node_cache=cache
            )
    return engines


_cases = settings(max_examples=30, deadline=None, suppress_health_check=list(HealthCheck))


@given(
    kind=st.sampled_from(KINDS),
    size=st.one_of(st.integers(0, 12), st.integers(150, 500)),
    salt=st.integers(0, 7),
    pick=st.integers(0, 10_000),
)
@_cases
def test_dict_put_onto_head_is_invisible(kind, size, salt, pick):
    old, new = _successor(kind, size, salt, pick)
    fresh = InMemoryStore()
    with tempfile.TemporaryDirectory() as root:
        engines = _engines(root)
        try:
            for name, db in engines.items():
                # Text keys, bytes values: both spellings reach one tree.
                for puts, value in enumerate((old, new, old), start=1):
                    db.put("cfg", {key.decode(): data for key, data in value.items()})
                    assert db.get("cfg").root == FMap.from_dict(fresh, value).root, (name, puts)
                    assert db.get_value("cfg") == value, (name, puts)
                    assert len(db.history("cfg")) == puts, (name, puts)
                assert db.verify("cfg").ok, name
                db.get("cfg").tree.check_structure()
        finally:
            for db in engines.values():
                db.close()


@given(
    kind=st.sampled_from(KINDS),
    size=st.one_of(st.integers(0, 12), st.integers(300, 900)),
    salt=st.integers(0, 7),
    pick=st.integers(0, 10_000),
)
@_cases
def test_set_put_onto_head_is_invisible(kind, size, salt, pick):
    old, new = (set(value) for value in _successor(kind, size, salt, pick))
    fresh = InMemoryStore()
    with tempfile.TemporaryDirectory() as root:
        engines = _engines(root)
        try:
            for name, db in engines.items():
                for puts, members in enumerate((old, new, old), start=1):
                    # A frozenset is a set to ``wrap``; so is a mix of str and bytes.
                    value: Any = frozenset(members) if puts == 2 else {
                        member.decode() if sum(member) % 2 else member for member in members
                    }
                    db.put("tags", value)
                    assert db.get("tags").root == FSet.from_iterable(fresh, members).root, (name, puts)
                    assert db.get_value("tags") == members, (name, puts)
                    assert len(db.history("tags")) == puts, (name, puts)
                assert db.verify("tags").ok, name
        finally:
            for db in engines.values():
                db.close()


def test_the_head_edited_is_the_head_of_the_branch_put_to():
    db = ForkBase()
    base = _dict(range(400), 0)
    db.put("cfg", base)
    db.branch("cfg", "dev")
    on_dev = {**base, b"k00007": b"dev"}
    on_master = {**base, b"k00300": b"master"}
    db.put("cfg", on_dev, branch="dev")
    db.put("cfg", on_master)
    assert db.get_value("cfg", "dev") == on_dev
    assert db.get_value("cfg") == on_master
    fresh = InMemoryStore()
    assert db.get("cfg", "dev").root == FMap.from_dict(fresh, on_dev).root
    assert db.get("cfg").root == FMap.from_dict(fresh, on_master).root


class TestWorkBound:
    """Counted, not timed: the dict_put workload's shape (20k entries)."""

    ENTRIES = 20_000

    @pytest.fixture()
    def loaded(self, monkeypatch):
        db = ForkBase()
        value = {f"key{i:06d}": f"value-{i}-" + "x" * (10 + i * 7 % 50) for i in range(self.ENTRIES)}
        db.put("cfg", value)
        nodes = db.get("cfg").tree.node_count_by_level()
        counts = {"bulk_build": 0, "leaf_decodes": 0}

        def counting(name: str, fn):
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        # Every name a rebuild goes through: the bulk-build verb, and the
        # batch builder the editor binds for a height-0 tree.
        monkeypatch.setattr(
            tree_module, "bulk_build", counting("bulk_build", tree_module.bulk_build)
        )
        monkeypatch.setattr(
            edit_module, "build_tree", counting("bulk_build", edit_module.build_tree)
        )
        decode = LeafNode.from_chunk.__func__
        monkeypatch.setattr(
            LeafNode, "from_chunk", classmethod(counting("leaf_decodes", decode))
        )
        return db, value, nodes[0], counts

    @staticmethod
    def _put(db: ForkBase, value: Dict[str, str]) -> int:
        """``store.put`` calls one ``db.put`` makes (new or deduplicated)."""
        before = db.store.stats.snapshot()
        db.put("cfg", value)
        spent = db.store.stats.delta(before)
        return spent.puts_new + spent.puts_dup

    def test_one_value_changed_costs_its_path(self, loaded):
        db, value, leaves, counts = loaded
        value["key010000"] = "changed"
        # The parent rebuilt: one store.put per node of the tree, 542 here.
        assert self._put(db, value) <= 16
        assert counts["bulk_build"] == 0
        assert db.get_value("cfg") == {k.encode(): v.encode() for k, v in value.items()}

    def test_unchanged_value_is_still_a_version_and_writes_only_it(self, loaded):
        db, value, leaves, counts = loaded
        assert self._put(db, value) == 1  # the FNode
        assert counts["bulk_build"] == 0
        assert len(db.history("cfg")) == 2

    def test_every_value_changed_rebuilds_once_and_stops_comparing(self, loaded):
        db, value, leaves, counts = loaded
        value = {key: text + "!" for key, text in value.items()}
        self._put(db, value)
        assert counts["bulk_build"] == 1
        # The walk gave up once the differing leaves passed the cutoff —
        # it did not read the other three quarters of the head.
        assert counts["leaf_decodes"] <= REBUILD_SHARE * leaves + 2
        fresh = FMap.from_dict(
            InMemoryStore(), {k.encode(): v.encode() for k, v in value.items()}
        )
        assert db.get("cfg").root == fresh.root

    def test_scattered_changes_on_either_side_of_the_cutoff(self, loaded):
        """Same root from the edit side and from the rebuild side."""
        db, value, leaves, counts = loaded
        for stride, rebuilds in ((2_000, 0), (20, 1)):
            counts["bulk_build"] = 0
            for index in range(0, self.ENTRIES, stride):
                value[f"key{index:06d}"] = f"stride-{stride}"
            self._put(db, value)
            assert counts["bulk_build"] == rebuilds, stride
            fresh = FMap.from_dict(
                InMemoryStore(), {k.encode(): v.encode() for k, v in value.items()}
            )
            assert db.get("cfg").root == fresh.root
