"""Tests for the version layer (repro.vcs)."""

import pytest

from repro.chunk import Chunk, Uid
from repro.errors import BranchExistsError, UnknownBranchError, UnknownVersionError
from repro.store import InMemoryStore, NodeCacheStore
from repro.vcs import BranchTable, FNode, VersionGraph, replay_into
from repro.vcs.journal import checkpoint


def _value_root(n: int) -> Uid:
    return Uid.of(b"value-%d" % n)


class TestFNode:
    def test_round_trip(self):
        node = FNode(
            key="data",
            type_name="map",
            value_root=_value_root(1),
            bases=(_value_root(2),),
            author="alice",
            message="hello",
            timestamp=99.5,
        )
        decoded = FNode.decode(node.encode())
        assert decoded == node

    def test_uid_covers_value(self):
        a = FNode("k", "map", _value_root(1))
        b = FNode("k", "map", _value_root(2))
        assert a.uid != b.uid

    def test_uid_covers_history(self):
        """Equal value, different bases ⇒ different uid (hash chain)."""
        a = FNode("k", "map", _value_root(1), bases=())
        b = FNode("k", "map", _value_root(1), bases=(a.uid,))
        assert a.uid != b.uid

    def test_uid_covers_metadata(self):
        a = FNode("k", "map", _value_root(1), message="one")
        b = FNode("k", "map", _value_root(1), message="two")
        assert a.uid != b.uid

    def test_equivalence_same_value_and_history(self):
        """Paper §II-D: same value + same history ⇒ same uid."""
        a = FNode("k", "map", _value_root(1), bases=(), author="x", timestamp=1.0)
        b = FNode("k", "map", _value_root(1), bases=(), author="x", timestamp=1.0)
        assert a.uid == b.uid

    def test_merge_and_initial_flags(self):
        initial = FNode("k", "map", _value_root(1))
        child = FNode("k", "map", _value_root(2), bases=(initial.uid,))
        merge = FNode("k", "map", _value_root(3), bases=(initial.uid, child.uid))
        assert initial.is_initial() and not initial.is_merge()
        assert not child.is_initial() and not child.is_merge()
        assert merge.is_merge()

    def test_short_uid_is_base32_prefix(self):
        node = FNode("k", "map", _value_root(1))
        assert node.uid.base32().startswith(node.short_uid())


class TestVersionGraph:
    def _chain(self, graph, n):
        uids = []
        parent = ()
        for index in range(n):
            node = FNode("k", "map", _value_root(index), bases=parent)
            uids.append(graph.commit(node))
            parent = (uids[-1],)
        return uids

    def test_commit_and_load(self):
        graph = VersionGraph(InMemoryStore())
        node = FNode("k", "map", _value_root(0))
        uid = graph.commit(node)
        assert graph.load(uid) == node
        assert graph.exists(uid)

    def test_load_unknown_raises(self):
        graph = VersionGraph(InMemoryStore())
        with pytest.raises(UnknownVersionError):
            graph.load(Uid.of(b"nothing"))

    def test_history_newest_first(self):
        graph = VersionGraph(InMemoryStore())
        uids = self._chain(graph, 5)
        history = [n.uid for n in graph.history(uids[-1])]
        assert history == list(reversed(uids))

    def test_history_limit(self):
        graph = VersionGraph(InMemoryStore())
        uids = self._chain(graph, 5)
        assert len(list(graph.history(uids[-1], limit=2))) == 2

    def test_is_ancestor(self):
        graph = VersionGraph(InMemoryStore())
        uids = self._chain(graph, 4)
        assert graph.is_ancestor(uids[0], uids[3])
        assert not graph.is_ancestor(uids[3], uids[0])
        assert graph.is_ancestor(uids[2], uids[2])

    def test_lca_on_fork(self):
        graph = VersionGraph(InMemoryStore())
        root = graph.commit(FNode("k", "map", _value_root(0)))
        left = graph.commit(FNode("k", "map", _value_root(1), bases=(root,)))
        right = graph.commit(FNode("k", "map", _value_root(2), bases=(root,)))
        assert graph.lowest_common_ancestor(left, right) == root

    def test_lca_on_chain_is_older_head(self):
        graph = VersionGraph(InMemoryStore())
        uids = self._chain(graph, 3)
        assert graph.lowest_common_ancestor(uids[0], uids[2]) == uids[0]

    def test_lca_after_merge(self):
        graph = VersionGraph(InMemoryStore())
        root = graph.commit(FNode("k", "map", _value_root(0)))
        left = graph.commit(FNode("k", "map", _value_root(1), bases=(root,)))
        right = graph.commit(FNode("k", "map", _value_root(2), bases=(root,)))
        merge = graph.commit(
            FNode("k", "map", _value_root(3), bases=(left, right))
        )
        further = graph.commit(FNode("k", "map", _value_root(4), bases=(right,)))
        assert graph.lowest_common_ancestor(merge, further) == right

    def test_chain_length(self):
        graph = VersionGraph(InMemoryStore())
        uids = self._chain(graph, 7)
        assert graph.chain_length(uids[-1]) == 7

    @pytest.mark.parametrize("cached", [False, True], ids=["plain", "node-cache"])
    def test_ancestry_walks_hash_no_fnode(self, monkeypatch, cached):
        # 200 commits on a trunk; every tenth also starts a side commit
        # that the next tenth merges back in.
        graph = VersionGraph(NodeCacheStore(InMemoryStore()) if cached else InMemoryStore())
        trunk = [graph.commit(FNode("k", "map", _value_root(0)))]
        side = None
        for index in range(1, 200):
            bases = (trunk[-1],) if side is None else (trunk[-1], side)
            trunk.append(graph.commit(FNode("k", "map", _value_root(index), bases=bases)))
            side = None
            if index % 10 == 0:
                side = graph.commit(FNode("k", "side", _value_root(index), bases=(trunk[-1],)))
        stray = graph.commit(FNode("k", "map", _value_root(999)))
        expected = {fnode.uid for fnode in graph.history(trunk[-1])}
        assert len(expected) == 200 + 19

        hashed = []
        compute = Chunk.compute_uid
        monkeypatch.setattr(
            Chunk, "compute_uid", staticmethod(lambda *args: hashed.append(1) or compute(*args))
        )
        assert graph.is_ancestor(trunk[57], trunk[57])
        assert graph.is_ancestor(trunk[0], trunk[-1])
        assert graph.is_ancestor(trunk[120], trunk[-1])
        assert not graph.is_ancestor(trunk[-1], trunk[0])
        assert not graph.is_ancestor(stray, trunk[-1])
        assert graph.ancestors(trunk[-1]) == expected
        assert graph.ancestors(trunk[3]) == set(trunk[:4])
        assert hashed == []


class TestBranchTable:
    def test_create_and_head(self):
        table = BranchTable()
        head = Uid.of(b"h")
        table.create("key", "master", head)
        assert table.head("key", "master") == head
        assert table.has_branch("key", "master")

    def test_create_duplicate_rejected(self):
        table = BranchTable()
        table.create("key", "master", Uid.of(b"h"))
        with pytest.raises(BranchExistsError):
            table.create("key", "master", Uid.of(b"h2"))

    def test_unknown_branch_raises(self):
        table = BranchTable()
        with pytest.raises(UnknownBranchError):
            table.head("key", "missing")

    def test_branches_master_first(self):
        table = BranchTable()
        table.create("key", "zeta", Uid.of(b"1"))
        table.create("key", "master", Uid.of(b"2"))
        table.create("key", "alpha", Uid.of(b"3"))
        assert table.branches("key") == ["master", "alpha", "zeta"]

    def test_rename_branch(self):
        table = BranchTable()
        head = Uid.of(b"h")
        table.create("key", "old", head)
        table.rename("key", "old", "new")
        assert table.head("key", "new") == head
        assert not table.has_branch("key", "old")

    def test_rename_collision_rejected(self):
        table = BranchTable()
        table.create("key", "a", Uid.of(b"1"))
        table.create("key", "b", Uid.of(b"2"))
        with pytest.raises(BranchExistsError):
            table.rename("key", "a", "b")

    def test_delete_branch_and_key_cleanup(self):
        table = BranchTable()
        table.create("key", "only", Uid.of(b"h"))
        table.delete("key", "only")
        assert "key" not in table.keys()

    def test_rename_key(self):
        table = BranchTable()
        table.create("old", "master", Uid.of(b"h"))
        table.rename_key("old", "new")
        assert table.head("new", "master") == Uid.of(b"h")
        assert "old" not in table.keys()

    def test_serialization_round_trip(self):
        table = BranchTable()
        table.create("k1", "master", Uid.of(b"1"))
        table.create("k1", "dev", Uid.of(b"2"))
        table.create("k2", "master", Uid.of(b"3"))
        # A table persists as its journal checkpoint: one set-head per head.
        restored = BranchTable()
        assert replay_into(restored, checkpoint(table), lambda uid: True) == len(table) == 3
        assert list(restored.all_heads()) == list(table.all_heads())
        assert restored.head("k1", "dev") == Uid.of(b"2")

    def test_all_heads_and_len(self):
        table = BranchTable()
        table.create("k", "a", Uid.of(b"1"))
        table.create("k", "b", Uid.of(b"2"))
        assert len(table) == 2
        assert len(list(table.all_heads())) == 2
