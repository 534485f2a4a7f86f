"""Tests for the ForkBase engine facade (repro.db.engine)."""

import pytest

from repro.db import ForkBase
from repro.errors import (
    BranchExistsError,
    ChunkCorruptionError,
    MergeConflictError,
    TransientStoreError,
    TypeMismatchError,
    UnknownBranchError,
    UnknownKeyError,
)
from repro.store import InMemoryStore
from repro.store.base import WrapperStore
from repro.vcs.branches import BranchTable
from repro.postree.merge import resolve_ours, resolve_theirs


class TestPutGet:
    def test_put_returns_version_info(self, engine):
        info = engine.put("k", {"a": "1"}, message="first")
        assert info.key == "k"
        assert info.branch == "master"
        assert info.type_name == "map"
        assert len(info.version) == 52  # Base32 uid

    @pytest.mark.parametrize(
        "value",
        ["text", 42, 2.5, True, b"blob-bytes", {"k": "v"}, {"m"}, ["a", "b"]],
    )
    def test_all_types_round_trip(self, engine, value):
        engine.put("obj", value)
        got = engine.get_value("obj")
        if isinstance(value, dict):
            assert got == {k.encode(): v.encode() for k, v in value.items()}
        elif isinstance(value, set):
            assert got == {m.encode() for m in value}
        elif isinstance(value, list):
            assert got == [i.encode() for i in value]
        else:
            assert got == value

    def test_get_by_version(self, engine):
        v1 = engine.put("k", {"a": "1"})
        engine.put("k", {"a": "2"})
        assert engine.get_value("k", version=v1.uid) == {b"a": b"1"}
        assert engine.get_value("k", version=v1.version) == {b"a": b"1"}
        assert engine.get_value("k") == {b"a": b"2"}

    def test_unknown_key_raises(self, engine):
        with pytest.raises(UnknownBranchError):
            engine.get("ghost")

    def test_type_change_rejected(self, engine):
        engine.put("k", {"a": "1"})
        with pytest.raises(TypeMismatchError):
            engine.put("k", "now a string")

    def test_type_change_rejected_before_anything_is_written(self, engine):
        """A plain value of the wrong type used to be wrapped (a whole
        tree's worth of chunks) before the head's type was looked at."""
        engine.put("k", {"a": "b"})
        held = len(engine.store)
        for value in (["x"], {"member"}, b"blob", "text", 7, True):
            with pytest.raises(TypeMismatchError, match="'k' is map"):
                engine.put("k", value)
            assert len(engine.store) == held
        assert engine.get_value("k") == {b"a": b"b"}
        assert len(engine.history("k")) == 1

    def test_put_same_value_twice_same_value_root(self, engine):
        v1 = engine.put("k", {"a": "1"})
        v2 = engine.put("k", {"a": "1"})
        n1 = engine.graph.load(v1.uid)
        n2 = engine.graph.load(v2.uid)
        assert n1.value_root == n2.value_root  # full value dedup
        assert v1.uid != v2.uid  # but the versions are distinct commits

    def test_keys_and_exists(self, engine):
        engine.put("alpha", "1")
        engine.put("beta", "2")
        assert engine.keys() == ["alpha", "beta"]
        assert engine.exists("alpha")
        assert engine.exists("alpha", "master")
        assert not engine.exists("alpha", "dev")
        assert not engine.exists("gamma")


class TestBranching:
    def test_branch_shares_head(self, engine):
        engine.put("k", {"a": "1"})
        head = engine.branch("k", "dev")
        assert head == engine.head("k", "master")
        assert engine.head("k", "dev") == head

    def test_branch_divergence(self, engine):
        engine.put("k", {"a": "1"})
        engine.branch("k", "dev")
        engine.put("k", {"a": "2"}, branch="dev")
        assert engine.get_value("k", branch="master") == {b"a": b"1"}
        assert engine.get_value("k", branch="dev") == {b"a": b"2"}

    def test_branch_from_version(self, engine):
        v1 = engine.put("k", {"a": "1"})
        engine.put("k", {"a": "2"})
        engine.branch("k", "old", version=v1.uid)
        assert engine.get_value("k", branch="old") == {b"a": b"1"}

    def test_duplicate_branch_rejected(self, engine):
        engine.put("k", "v")
        engine.branch("k", "dev")
        with pytest.raises(BranchExistsError):
            engine.branch("k", "dev")

    def test_latest_lists_all_heads(self, engine):
        engine.put("k", "v")
        engine.branch("k", "b1")
        engine.branch("k", "b2")
        assert set(engine.latest("k")) == {"master", "b1", "b2"}

    def test_rename_and_delete_branch(self, engine):
        engine.put("k", "v")
        engine.branch("k", "tmp")
        engine.rename_branch("k", "tmp", "kept")
        assert "kept" in engine.branches("k")
        engine.delete_branch("k", "kept")
        assert "kept" not in engine.branches("k")

    def test_rename_key(self, engine):
        engine.put("old-name", "v")
        engine.rename("old-name", "new-name")
        assert engine.get_value("new-name") == "v"
        assert "old-name" not in engine.keys()

    def test_branches_requires_known_key(self, engine):
        with pytest.raises(UnknownKeyError):
            engine.branches("ghost")

    def test_key_probes_do_not_list_every_key(self, engine, monkeypatch):
        """``exists``, ``branches`` and ``drop`` ask the branch table about
        one key; none of them sorts the whole key list to do it."""
        engine.put("k", "v")
        calls = []
        original = BranchTable.keys
        monkeypatch.setattr(
            BranchTable, "keys", lambda table: calls.append(1) or original(table)
        )
        assert engine.exists("k") and not engine.exists("ghost")
        assert engine.branches("k") == ["master"]
        with pytest.raises(UnknownKeyError):
            engine.branches("ghost")
        engine.drop("k")
        assert not engine.exists("k")
        assert calls == []


class TestHistory:
    def test_history_order_and_content(self, engine):
        engine.put("k", {"a": "1"}, message="one")
        engine.put("k", {"a": "2"}, message="two")
        engine.put("k", {"a": "3"}, message="three")
        history = engine.history("k")
        assert [n.message for n in history] == ["three", "two", "one"]
        assert history[-1].is_initial()

    def test_history_hash_chain(self, engine):
        engine.put("k", "1")
        engine.put("k", "2")
        history = engine.history("k")
        assert history[0].bases == (history[1].uid,)

    def test_meta(self, engine):
        engine.put("k", {"a": "1", "b": "2"}, message="load")
        meta = engine.meta("k")
        assert meta["type"] == "map"
        assert meta["size"] == 2
        assert meta["message"] == "load"
        assert meta["branches"] == ["master"]
        assert len(meta["version"]) == 52

    def test_engine_author_stamps_versions_unless_overridden(self):
        engine = ForkBase(author="alice")
        assert engine.put("k", "1").author == "alice"
        assert engine.put("k", "2", author="bob").author == "bob"
        assert [n.author for n in engine.history("k")] == ["bob", "alice"]
        assert engine.meta("k")["author"] == "bob"


class TestDiffMerge:
    def _setup(self, engine):
        engine.put("k", {"a": "1", "b": "2", "c": "3"})
        engine.branch("k", "dev")
        return engine

    def test_diff_branches(self, engine):
        self._setup(engine)
        engine.put("k", {"a": "1", "b": "DEV", "c": "3", "d": "4"}, branch="dev")
        diff = engine.diff("k", branch_a="master", branch_b="dev")
        assert set(diff.changed) == {b"b"}
        assert set(diff.added) == {b"d"}

    def test_diff_versions(self, engine):
        v1 = engine.put("k", {"a": "1"})
        v2 = engine.put("k", {"a": "2"})
        diff = engine.diff("k", version_a=v1.uid, version_b=v2.uid)
        assert diff.changed == {b"a": (b"1", b"2")}

    def test_diff_type_mismatch(self, engine):
        engine.put("m", {"a": "1"})
        engine.put("s", "text")
        with pytest.raises(TypeMismatchError):
            engine.diff("m", version_a=engine.head("m"), version_b=engine.head("s"))

    def test_merge_disjoint(self, engine):
        self._setup(engine)
        engine.put("k", {"a": "M", "b": "2", "c": "3"}, branch="master")
        engine.put("k", {"a": "1", "b": "2", "c": "D"}, branch="dev")
        info = engine.merge("k", from_branch="dev")
        assert engine.get_value("k") == {b"a": b"M", b"b": b"2", b"c": b"D"}
        node = engine.graph.load(info.uid)
        assert node.is_merge()

    def test_merge_fast_forward(self, engine):
        self._setup(engine)
        engine.put("k", {"a": "x", "b": "2", "c": "3"}, branch="dev")
        info = engine.merge("k", from_branch="dev")
        assert info.message == "fast-forward"
        assert engine.head("k", "master") == engine.head("k", "dev")

    def test_merge_already_up_to_date(self, engine):
        self._setup(engine)
        info = engine.merge("k", from_branch="dev")
        assert info.message == "already up to date"

    def test_merge_conflict_and_resolution(self, engine):
        self._setup(engine)
        engine.put("k", {"a": "M", "b": "2", "c": "3"}, branch="master")
        engine.put("k", {"a": "D", "b": "2", "c": "3"}, branch="dev")
        with pytest.raises(MergeConflictError):
            engine.merge("k", from_branch="dev")
        info = engine.merge("k", from_branch="dev", resolver=resolve_theirs)
        assert engine.get_value("k")[b"a"] == b"D"

    def test_merge_primitive_whole_value(self, engine):
        engine.put("s", "base")
        engine.branch("s", "dev")
        engine.put("s", "master-edit", branch="master")
        # dev unchanged: merge takes master trivially (already up to date
        # in the from-direction, so merge dev INTO master is a no-op).
        info = engine.merge("s", from_branch="dev")
        assert engine.get_value("s") == "master-edit"

    def test_merge_primitive_conflict(self, engine):
        engine.put("s", "base")
        engine.branch("s", "dev")
        engine.put("s", "left", branch="master")
        engine.put("s", "right", branch="dev")
        with pytest.raises(MergeConflictError):
            engine.merge("s", from_branch="dev")
        engine.merge("s", from_branch="dev", resolver=resolve_ours)
        assert engine.get_value("s") == "left"

    def test_merged_history_contains_both_parents(self, engine):
        self._setup(engine)
        engine.put("k", {"a": "M", "b": "2", "c": "3"}, branch="master")
        engine.put("k", {"a": "1", "b": "2", "c": "D"}, branch="dev")
        head_master = engine.head("k", "master")
        head_dev = engine.head("k", "dev")
        info = engine.merge("k", from_branch="dev")
        node = engine.graph.load(info.uid)
        assert set(node.bases) == {head_master, head_dev}


class TestPersistence:
    def test_open_close_round_trip(self, tmp_path):
        directory = str(tmp_path / "db")
        with ForkBase.open(directory, author="a") as engine:
            engine.put("k", {"a": "1"})
            engine.branch("k", "dev")
            engine.put("k", {"a": "2"}, branch="dev")
            dev_head = engine.head("k", "dev")
        with ForkBase.open(directory) as engine:
            assert engine.get_value("k", branch="dev") == {b"a": b"2"}
            assert engine.head("k", "dev") == dev_head
            assert engine.branches("k") == ["master", "dev"]

    def test_storage_stats_exposed(self, engine):
        engine.put("k", {"a": "1"})
        stats = engine.storage_stats()
        assert stats.physical_bytes > 0
        assert engine.physical_size() == stats.physical_bytes


class _FailingReads(WrapperStore):
    """Serves reads until told to fail them, then raises ``error`` on each."""

    def __init__(self, backing):
        super().__init__(backing)
        self.error = None
        self.failed = 0

    def _fetch(self, uid):
        if self.error is not None:
            self.failed += 1
            raise self.error
        return super()._fetch(uid)


class TestReadGuard:
    """``get_value`` runs its read under one guard, like ``get``."""

    def _engine(self):
        store = _FailingReads(InMemoryStore())
        engine = ForkBase(store)
        engine.put("k", {"a": "1", "b": "2"})
        return engine, store

    @pytest.mark.parametrize("verb", ["get", "get_value"])
    def test_a_transient_fault_is_tried_max_attempts_times(self, verb):
        engine, store = self._engine()
        store.error = TransientStoreError("flaky read")
        with pytest.raises(TransientStoreError):
            getattr(engine, verb)("k")
        assert store.failed == engine.retry.attempts

    @pytest.mark.parametrize("verb", ["get", "get_value"])
    def test_a_corrupt_read_runs_one_scrub(self, verb, monkeypatch):
        engine, store = self._engine()
        scrubs = []
        monkeypatch.setattr(engine, "scrub", lambda **kwargs: scrubs.append(kwargs))
        store.error = ChunkCorruptionError("rotten")
        with pytest.raises(ChunkCorruptionError):
            getattr(engine, verb)("k")
        assert len(scrubs) == 1
        assert store.failed == 2  # the read, and its one retry after the scrub

    def test_get_value_still_reads_through_the_guard(self):
        engine, store = self._engine()
        assert engine.get_value("k") == {b"a": b"1", b"b": b"2"}
