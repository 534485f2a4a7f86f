"""Write-ahead commit journal + head CAS (crash-consistent version layer).

Covers the journal file format (round-trip, torn tails, corrupt interior
records, checkpoint rewrites), record replay onto a :class:`BranchTable`,
the compare-and-swap head update, and the engine-level guarantees: no
acknowledged commit is lost across a simulated SIGKILL, and a concurrent
head move surfaces as :class:`HeadMovedError` instead of a lost update.
"""

from __future__ import annotations

import json
import math
import os

import pytest

from repro.chunk import Uid
from repro.db.engine import ForkBase
from repro.errors import (
    BranchExistsError,
    EngineError,
    HeadMovedError,
    JournalCorruptError,
    JournalError,
    UnknownBranchError,
)
from repro.vcs import BranchTable, CommitJournal, FNode, apply_record, replay_into
from repro.vcs.journal import _HEADER, MAGIC, checkpoint


def _uid(n: int) -> Uid:
    return Uid(bytes([n % 256]) * 32)


def _holds_all(uid: Uid) -> bool:
    return True


def _records(count: int):
    return [
        {"op": "set-head", "key": "k", "branch": "master",
         "head": _uid(i + 1).base32(), "prev": None}
        for i in range(count)
    ]


# -- journal file format -------------------------------------------------------


def test_roundtrip_close_reopen(tmp_path):
    path = str(tmp_path / "journal.wal")
    journal = CommitJournal(path, fsync="always")
    for record in _records(5):
        journal.append(record)
    assert len(journal) == 5
    journal.close()

    reopened = CommitJournal(path)
    assert reopened.records == _records(5)
    reopened.close()


def test_records_returns_copies(tmp_path):
    journal = CommitJournal(str(tmp_path / "j.wal"))
    journal.append(_records(1)[0])
    journal.records[0]["op"] = "mutated"
    assert journal.records[0]["op"] == "set-head"
    journal.close()


def test_invalid_fsync_policy_rejected(tmp_path):
    with pytest.raises(ValueError):
        CommitJournal(str(tmp_path / "j.wal"), fsync="sometimes")


@pytest.mark.parametrize("policy", ["always", "batch", "never"])
def test_all_policies_survive_abandon(tmp_path, policy):
    # Every append is at least *flushed*, so an acknowledged record
    # survives a process kill under every policy (fsync is about power).
    path = str(tmp_path / policy / "j.wal")
    os.makedirs(os.path.dirname(path))
    journal = CommitJournal(path, fsync=policy)
    for record in _records(3):
        journal.append(record)
    journal.abandon()
    reopened = CommitJournal(path)
    assert reopened.records == _records(3)
    reopened.close()


def test_torn_tail_truncated_at_every_offset(tmp_path):
    # Build a journal with 3 records, then chop the file anywhere inside
    # the final record: recovery must keep the first two and physically
    # truncate the tail.
    path = str(tmp_path / "j.wal")
    journal = CommitJournal(path, fsync="always")
    for record in _records(3):
        journal.append(record)
    journal.close()
    blob = open(path, "rb").read()
    payload = json.dumps(_records(3)[1], sort_keys=True, separators=(",", ":"))
    record_size = _HEADER.size + len(payload)
    full = len(blob)
    last_start = full - record_size
    for cut in range(last_start + 1, full):
        torn = str(tmp_path / f"torn{cut}.wal")
        with open(torn, "wb") as handle:
            handle.write(blob[:cut])
        reopened = CommitJournal(torn)
        assert reopened.records == _records(2), f"cut at {cut}"
        assert os.path.getsize(torn) == last_start  # tail is gone for good
        reopened.close()


def test_torn_magic_recreated(tmp_path):
    path = str(tmp_path / "j.wal")
    with open(path, "wb") as handle:
        handle.write(MAGIC[:3])  # died while writing the magic
    journal = CommitJournal(path)
    assert len(journal) == 0
    journal.append(_records(1)[0])
    journal.close()
    assert CommitJournal(path).records == _records(1)


def test_bad_magic_raises(tmp_path):
    path = str(tmp_path / "j.wal")
    with open(path, "wb") as handle:
        handle.write(b"NOTMYWAL" + b"\x00" * 16)
    with pytest.raises(JournalCorruptError):
        CommitJournal(path)


def test_corrupt_interior_record_raises(tmp_path):
    path = str(tmp_path / "j.wal")
    journal = CommitJournal(path, fsync="always")
    for record in _records(3):
        journal.append(record)
    journal.close()
    blob = bytearray(open(path, "rb").read())
    # Flip one payload byte of the *first* record: all bytes present, so
    # this is rot/tampering, not a torn append — recovery must refuse.
    flip = len(MAGIC) + _HEADER.size + 4
    blob[flip] ^= 0xFF
    with open(path, "wb") as handle:
        handle.write(bytes(blob))
    with pytest.raises(JournalCorruptError):
        CommitJournal(path)


def test_rewritten_head_that_still_parses_raises(tmp_path):
    """Tampering that leaves valid JSON (the first record's head replaced
    by the second's) is caught by the record CRC alone."""
    path = str(tmp_path / "j.wal")
    journal = CommitJournal(path, fsync="always")
    first, second = _records(2)
    journal.append(first)
    journal.append(second)
    journal.close()
    blob = open(path, "rb").read()
    forged = blob.replace(first["head"].encode(), second["head"].encode(), 1)
    assert forged != blob
    with open(path, "wb") as handle:
        handle.write(forged)
    with pytest.raises(JournalCorruptError):
        CommitJournal(path)


def test_reset_truncates_and_survives_reopen(tmp_path):
    path = str(tmp_path / "j.wal")
    journal = CommitJournal(path, fsync="always")
    for record in _records(4):
        journal.append(record)
    journal.reset([])
    assert len(journal) == 0
    assert journal.size() == len(MAGIC)
    # A checkpoint is the new file's first records; appends follow it.
    journal.reset(_records(4)[-1:])
    assert journal.records == _records(4)[-1:]
    assert journal.size() == journal.checkpoint_size > len(MAGIC)
    journal.append({"op": "drop-key", "key": "k"})
    journal.close()
    assert CommitJournal(path).records == _records(4)[-1:] + [{"op": "drop-key", "key": "k"}]


def test_append_after_close_raises(tmp_path):
    journal = CommitJournal(str(tmp_path / "j.wal"))
    journal.close()
    with pytest.raises(JournalError):
        journal.append(_records(1)[0])


# -- replay --------------------------------------------------------------------


def test_apply_record_covers_every_op():
    table = BranchTable()
    ops = [
        {"op": "set-head", "key": "a", "branch": "master", "head": _uid(1).base32()},
        {"op": "create-branch", "key": "a", "branch": "dev", "head": _uid(1).base32()},
        {"op": "set-head", "key": "a", "branch": "dev", "head": _uid(2).base32()},
        {"op": "rename-branch", "key": "a", "old": "dev", "new": "stable"},
        {"op": "set-head", "key": "b", "branch": "master", "head": _uid(3).base32()},
        {"op": "rename-key", "old": "b", "new": "c"},
        {"op": "delete-branch", "key": "a", "branch": "stable"},
        {"op": "set-head", "key": "d", "branch": "master", "head": _uid(4).base32()},
        {"op": "drop-key", "key": "d"},
    ]
    for record in ops:
        apply_record(table, record, _holds_all)
    assert table.keys() == ["a", "c"]
    assert table.branches("a") == ["master"]
    assert table.head("a", "master") == _uid(1)
    assert table.head("c", "master") == _uid(3)


def test_apply_unknown_op_raises():
    with pytest.raises(JournalCorruptError):
        apply_record(BranchTable(), {"op": "transmogrify", "key": "a"}, _holds_all)


def test_apply_inapplicable_op_raises():
    # Deleting a branch that does not exist means the journal lost an op
    # — corruption, not a conflict to paper over.
    with pytest.raises(JournalCorruptError):
        apply_record(
            BranchTable(), {"op": "delete-branch", "key": "a", "branch": "x"}, _holds_all
        )


def test_replay_stops_at_the_first_head_the_store_does_not_hold():
    records = [
        {"op": "set-head", "key": "a", "branch": "master", "head": _uid(1).base32()},
        {"op": "create-branch", "key": "a", "branch": "dev", "head": _uid(2).base32()},
        {"op": "delete-branch", "key": "a", "branch": "master"},
        {"op": "set-head", "key": "b", "branch": "master", "head": _uid(1).base32()},
    ]
    table = BranchTable()
    assert replay_into(table, records, lambda uid: uid != _uid(2)) == 1
    # A prefix: the later records stay unapplied even where they could.
    assert list(table.all_heads()) == [("a", "master", _uid(1))]
    table = BranchTable()
    assert replay_into(table, records, _holds_all) == len(records)
    assert list(table.all_heads()) == [("a", "dev", _uid(2)), ("b", "master", _uid(1))]


# -- head CAS ------------------------------------------------------------------


def test_set_head_cas_semantics():
    table = BranchTable()
    # expected=None asserts "branch does not exist yet".
    table.set_head("k", "master", _uid(1), expected=None)
    with pytest.raises(HeadMovedError):
        table.set_head("k", "master", _uid(2), expected=None)
    # A stale expectation is a concurrent writer.
    with pytest.raises(HeadMovedError) as info:
        table.set_head("k", "master", _uid(3), expected=_uid(9))
    assert info.value.expected == _uid(9)
    assert info.value.actual == _uid(1)
    # The right expectation swaps.
    table.set_head("k", "master", _uid(3), expected=_uid(1))
    assert table.head("k", "master") == _uid(3)
    # No expectation = unconditional (replay path).
    table.set_head("k", "master", _uid(4))
    assert table.head("k", "master") == _uid(4)


def test_engine_put_detects_concurrent_head_move(tmp_path):
    # Deterministic race: a rival commit moves the head between our
    # graph.commit and the CAS, so put() must raise instead of silently
    # orphaning the rival's acknowledged commit.
    engine = ForkBase.open(str(tmp_path / "db"))
    engine.put("k", {"a": "1"})
    journal_len_before = None
    real_commit = engine.graph.commit
    raced = []

    def racing_commit(fnode: FNode):
        uid = real_commit(fnode)
        if not raced:
            raced.append(True)
            rival = FNode(
                key=fnode.key,
                type_name=fnode.type_name,
                value_root=fnode.value_root,
                bases=fnode.bases,
                author="rival",
                message="sneaked in",
                timestamp=fnode.timestamp + 1.0,
            )
            engine.heads.table.set_head("k", "master", real_commit(rival))
        return uid

    engine.graph.commit = racing_commit  # type: ignore[method-assign]
    journal_len_before = len(engine.heads.journal)
    with pytest.raises(HeadMovedError):
        engine.put("k", {"a": "2"})
    # The rival's update is intact and the failed put journaled nothing.
    assert engine.graph.load(engine.heads.table.head("k", "master")).author == "rival"
    assert len(engine.heads.journal) == journal_len_before
    engine.close()


def test_merge_cas_guards_fast_forward(tmp_path):
    engine = ForkBase.open(str(tmp_path / "db"))
    engine.put("k", {"a": "1"})
    engine.branch("k", "feature")
    engine.put("k", {"a": "2"}, branch="feature")
    head_into = engine.heads.table.head("k", "master")
    # Move master underneath the merge (the concurrent writer).
    real_head = engine.heads.table.head
    engine.heads.table.set_head("k", "master", engine.heads.table.head("k", "feature"))
    engine.heads.table.set_head("k", "master", head_into)  # restore
    info = engine.merge("k", "feature", "master")
    assert info.message == "fast-forward"
    assert real_head("k", "master") == engine.heads.table.head("k", "feature")
    engine.close()


# -- engine recovery (the seed data-loss regression) ---------------------------


def test_heads_survive_process_kill(tmp_path):
    """The seed bug: puts acknowledged, process killed before close() —
    pre-journal, branches.json was never written and every head vanished."""
    directory = str(tmp_path / "db")
    engine = ForkBase.open(directory, fsync="never")  # worst policy on purpose
    expected = {}
    for i in range(20):
        info = engine.put(f"key-{i}", {"n": str(i)}, message=f"put {i}")
        expected[f"key-{i}"] = info.uid
    engine.abandon()  # SIGKILL analogue: no close(), no checkpoint

    recovered = ForkBase.open(directory)
    assert sorted(recovered.keys()) == sorted(expected)
    for key, uid in expected.items():
        assert recovered.heads.table.head(key, "master") == uid
        assert recovered.get_value(key) == {b"n": key.split("-")[1].encode()}
        assert recovered.verify(key).ok
    recovered.close()


def test_recovery_replays_full_workload(tmp_path):
    directory = str(tmp_path / "db")
    engine = ForkBase.open(directory, fsync="always")
    engine.put("doc", {"v": "1"})
    engine.branch("doc", "draft")
    engine.put("doc", {"v": "2"}, branch="draft")
    engine.rename_branch("doc", "draft", "final")
    engine.merge("doc", "final", "master")
    engine.put("tmp", ["1", "2", "3"])
    engine.drop("tmp")
    engine.put("old", {"x": "1"})
    engine.rename("old", "new")
    engine.branch("new", "dead")
    engine.delete_branch("new", "dead")
    snapshot = {
        (key, branch): head for key, branch, head in engine.heads.table.all_heads()
    }
    engine.abandon()

    recovered = ForkBase.open(directory)
    assert {
        (key, branch): head for key, branch, head in recovered.heads.table.all_heads()
    } == snapshot
    assert recovered.get_value("doc") == {b"v": b"2"}
    assert recovered.get_value("new") == {b"x": b"1"}
    assert "tmp" not in recovered.keys()
    recovered.close()


def _checkpoint_on_disk(directory: str, engine: ForkBase) -> None:
    """``journal.wal`` is the magic plus exactly one record per head."""
    on_disk = CommitJournal(os.path.join(directory, "journal.wal"))
    assert on_disk.records == checkpoint(engine.heads.table)
    assert len(on_disk) == len(engine.heads.table)
    on_disk.close()


def test_compaction_bounds_journal_size(tmp_path):
    directory = str(tmp_path / "db")
    engine = ForkBase.open(directory, fsync="never", journal_limit=512)
    engine.put("k", {"i": "start"})
    for name in ("b0", "b1", "b2"):
        engine.branch("k", name)
    for i in range(40):
        engine.put("k", {"i": str(i)})
    # Compaction kept the journal under checkpoint + limit + one record.
    assert len(MAGIC) < engine.heads.journal.checkpoint_size
    assert engine.heads.journal.size() < engine.heads.journal.checkpoint_size + 512 + 256
    engine.abandon()
    recovered = ForkBase.open(directory)
    assert recovered.get_value("k") == {b"i": b"39"}
    assert len(recovered.heads.table) == 4
    recovered.close()
    _checkpoint_on_disk(directory, recovered)


def test_clean_close_truncates_journal(tmp_path):
    directory = str(tmp_path / "db")
    engine = ForkBase.open(directory)
    engine.put("k", {"a": "1"})
    engine.put("k", {"a": "2"})
    engine.branch("k", "dev")
    engine.put("other", {"b": "1"})
    engine.close()
    # close() checkpoints: the journal holds one record per head.
    _checkpoint_on_disk(directory, engine)
    reopened = ForkBase.open(directory)
    assert reopened.get_value("k") == {b"a": b"2"}
    assert reopened.get_value("k", "dev") == {b"a": b"2"}
    reopened.close()


def test_checkpoint_larger_than_the_limit_does_not_compact_every_commit(tmp_path):
    limit = 1024
    engine = ForkBase.open(str(tmp_path / "db"), fsync="never", journal_limit=limit)
    for i in range(30):
        engine.put(f"key-{i:02d}", {"i": str(i)})
    engine.heads.checkpoint()
    start = engine.heads.journal.size()
    assert engine.heads.journal.checkpoint_size == start > 2 * limit  # the checkpoint alone
    checkpoints = []
    real_reset = engine.heads.journal.reset
    engine.heads.journal.reset = lambda records: (checkpoints.append(1), real_reset(records))
    engine.put("key-00", {"i": "100"})
    assert not checkpoints
    record = engine.heads.journal.size() - start
    for i in range(101, 160):
        engine.put("key-00", {"i": str(i)})
    # A checkpoint once per ``limit`` bytes appended, not once per commit.
    commits_per_checkpoint = math.ceil(limit / record)
    assert len(checkpoints) == 60 // commits_per_checkpoint > 1
    engine.close()
    # A reopened journal finds where its checkpoint ends by the flag.
    engine = ForkBase.open(str(tmp_path / "db"), fsync="never", journal_limit=limit)
    assert engine.heads.journal.checkpoint_size == engine.heads.journal.size() > 2 * limit
    engine.close()


def test_open_refuses_a_directory_with_a_legacy_heads_file(tmp_path):
    directory = str(tmp_path / "db")
    with ForkBase.open(directory) as engine:
        engine.put("k", {"a": "1"})
    with open(os.path.join(directory, "branches.json"), "w", encoding="utf-8") as handle:
        json.dump({"k": {"master": engine.head("k").base32()}}, handle)
    with pytest.raises(EngineError, match="branches.json"):
        ForkBase.open(directory)
    os.remove(os.path.join(directory, "branches.json"))
    with ForkBase.open(directory) as engine:  # the lock was not left held
        assert engine.get_value("k") == {b"a": b"1"}


def test_branch_errors_not_journaled(tmp_path):
    engine = ForkBase.open(str(tmp_path / "db"))
    engine.put("k", {"a": "1"})
    engine.branch("k", "b")
    before = len(engine.heads.journal)
    with pytest.raises(BranchExistsError):
        engine.branch("k", "b")
    with pytest.raises(UnknownBranchError):
        engine.delete_branch("k", "nope")
    assert len(engine.heads.journal) == before
    engine.close()
