"""Property-based tests (hypothesis) for the commit journal.

For *arbitrary* valid head-mutation sequences, the journal must be a
faithful serialization: replaying what was written reconstructs exactly
the model branch table, a journal checkpointed at any point replays to
the same table as the full one, and a tail cut at *any* byte offset of
the final record truncates that record and nothing else.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Tuple

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chunk import Uid
from repro.vcs import BranchTable, CommitJournal, replay_into
from repro.vcs.journal import _HEADER, checkpoint

KEYS = [f"k{i}" for i in range(6)]
BRANCHES = [f"b{i}" for i in range(6)]

Record = Dict[str, object]

#: One raw op draw: (kind, key idx, branch idx, uid byte).
raw_ops = st.lists(
    st.tuples(
        st.integers(0, 5), st.integers(0, 5), st.integers(0, 5), st.integers(1, 255)
    ),
    max_size=40,
)

_settings = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


def _uid(n: int) -> Uid:
    return Uid(bytes([n]) * 32)


def _holds_all(uid: Uid) -> bool:
    return True


def _materialize(ops: List[Tuple[int, int, int, int]]) -> Tuple[List[Record], BranchTable]:
    """Map raw draws to a *valid* op sequence plus the model it produces.

    Draws that would be invalid against the current model (creating an
    existing branch, renaming a missing key, …) are skipped — the engine
    never journals failed verbs either.
    """
    model = BranchTable()
    records: List[Record] = []
    for kind, a, b, v in ops:
        key, branch = KEYS[a], BRANCHES[b]
        other_key, other_branch = KEYS[(a + 1) % len(KEYS)], BRANCHES[(b + 1) % len(BRANCHES)]
        uid = _uid(v)
        record: Record
        if kind == 0:
            model.set_head(key, branch, uid)
            record = {"op": "set-head", "key": key, "branch": branch,
                      "head": uid.base32(), "prev": None}
        elif kind == 1:
            if model.has_branch(key, branch):
                continue
            model.set_head(key, branch, uid)
            record = {"op": "create-branch", "key": key, "branch": branch,
                      "head": uid.base32()}
        elif kind == 2:
            if not model.has_branch(key, branch) or model.has_branch(key, other_branch):
                continue
            model.rename(key, branch, other_branch)
            record = {"op": "rename-branch", "key": key, "old": branch,
                      "new": other_branch}
        elif kind == 3:
            if not model.has_branch(key, branch):
                continue
            model.delete(key, branch)
            record = {"op": "delete-branch", "key": key, "branch": branch}
        elif kind == 4:
            if key not in model.keys() or other_key in model.keys():
                continue
            model.rename_key(key, other_key)
            record = {"op": "rename-key", "old": key, "new": other_key}
        else:
            if key not in model.keys():
                continue
            model.drop_key(key)
            record = {"op": "drop-key", "key": key}
        records.append(record)
    return records, model


@given(ops=raw_ops)
@_settings
def test_journal_roundtrip_reconstructs_model(ops, tmp_path):
    records, model = _materialize(ops)
    path = str(tmp_path / "j.wal")
    if os.path.exists(path):
        os.remove(path)
    journal = CommitJournal(path, fsync="never")
    for record in records:
        journal.append(record)
    journal.close()

    reopened = CommitJournal(path)
    table = BranchTable()
    applied = replay_into(table, reopened.records, _holds_all)
    reopened.close()
    assert list(table.all_heads()) == list(model.all_heads())
    assert applied == len(records)


@given(ops=raw_ops, at=st.integers(0, 40))
@_settings
def test_replay_of_compacted_journal_matches_full_replay(ops, at, tmp_path):
    records, model = _materialize(ops)
    at = min(at, len(records))
    prefix = BranchTable()
    replay_into(prefix, records[:at], _holds_all)
    path = str(tmp_path / "compacted.wal")
    if os.path.exists(path):
        os.remove(path)
    # Checkpoint after ``at`` ops, then keep appending: what a commit
    # crossing ``journal_limit`` does to the file.
    journal = CommitJournal(path, fsync="never")
    for record in records[:at]:
        journal.append(record)
    journal.reset(checkpoint(prefix))
    for record in records[at:]:
        journal.append(record)
    journal.close()

    reopened = CommitJournal(path)
    assert len(reopened) == len(prefix) + len(records) - at
    compacted = BranchTable()
    replay_into(compacted, reopened.records, _holds_all)
    reopened.close()
    full = BranchTable()
    replay_into(full, records, _holds_all)
    assert list(compacted.all_heads()) == list(full.all_heads()) == list(model.all_heads())


@given(ops=raw_ops, cut_seed=st.integers(0, 2**31))
@_settings
def test_torn_tail_at_any_offset_drops_only_last_record(ops, cut_seed, tmp_path):
    records, _ = _materialize(ops)
    if not records:
        return
    path = str(tmp_path / "torn.wal")
    if os.path.exists(path):
        os.remove(path)
    journal = CommitJournal(path, fsync="never")
    for record in records:
        journal.append(record)
    journal.close()

    payload = json.dumps(records[-1], sort_keys=True, separators=(",", ":"))
    last_size = _HEADER.size + len(payload)
    full = os.path.getsize(path)
    # Cut anywhere strictly inside the final record (torn append).
    cut = full - last_size + 1 + cut_seed % (last_size - 1)
    with open(path, "r+b") as handle:
        handle.truncate(cut)

    reopened = CommitJournal(path)
    assert reopened.records == records[:-1]
    assert os.path.getsize(path) == full - last_size
    reopened.close()
