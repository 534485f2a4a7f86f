"""Crash-point torture: kill the engine at *every* durability boundary.

The workload below crosses every boundary kind the version layer marks —
journal appends and fsyncs, and the checkpoint rewrite (write, fsync and
rename of ``journal.wal``) at compaction and close.  A census run counts the
boundaries; then, for each boundary ``n``, a fresh engine runs the same
workload under ``CrashPlan(crash_at=n)``, dies there (with torn writes),
and is reopened.  Recovery must show either the state after the last
*acknowledged* operation or the state after the one in-flight operation
(which may have become durable before the ack) — never anything else —
and every surviving head must verify.

Honors ``FORKBASE_SEED`` like the chaos suite; the seed varies the
torn-write prefixes, not the boundary schedule.
"""

from __future__ import annotations

import os
import shutil
from typing import Dict, List, Optional, Tuple

import pytest

from repro.chunk import Uid
from repro.db.engine import ForkBase
from repro.errors import SimulatedCrash
from repro.faults import CrashPlan, crash_zone
from repro.vcs import CommitJournal
from tests.conftest import fault_seed

SEED = fault_seed(20260805)

#: Small enough to force several compactions mid-workload.
JOURNAL_LIMIT = 700

HeadMap = Dict[Tuple[str, str], Uid]


def _heads(engine: ForkBase) -> HeadMap:
    return {(key, branch): head for key, branch, head in engine.branch_table.all_heads()}


def _ops(engine: ForkBase) -> List:
    """The scripted workload: every journaled verb, plus enough volume
    to push the journal past its compaction limit more than once."""
    ops = [
        lambda: engine.put("doc", {"a": "1"}),
        lambda: engine.put("doc", {"a": "2", "pad": "x" * 48}),
        lambda: engine.branch("doc", "dev"),
        lambda: engine.put("doc", {"a": "3", "pad": "x" * 48}, branch="dev"),
        lambda: engine.merge("doc", "dev", "master"),  # fast-forward
        lambda: engine.rename_branch("doc", "dev", "stable"),
        lambda: engine.delete_branch("doc", "stable"),
        lambda: engine.put("blob", "payload " * 6),
        lambda: engine.rename("blob", "data"),
        lambda: engine.put("tmp", ["1", "2"]),
        lambda: engine.drop("tmp"),
    ]
    for i in range(8):
        ops.append(lambda i=i: engine.put("bulk", {"i": str(i)}))
    return ops


def _run_workload(directory: str, acked: List[HeadMap]) -> None:
    """Run the workload, appending a head-map snapshot to ``acked`` after
    every acknowledged operation.  On a simulated crash, append the
    engine's in-memory state last: the in-flight op may or may not have
    reached the disk, so recovery may legitimately land on either of the
    final two snapshots."""
    engine: Optional[ForkBase] = None
    try:
        # Pinned to the file backend: the census below asserts the exact
        # journal boundary kinds of the seed layout, so a
        # FORKBASE_BACKEND=pack environment must not redirect this suite
        # (the pack boundaries get the same treatment in
        # test_packstore_crash.py and test_pack_dropin.py).
        engine = ForkBase.open(
            directory, fsync="always", journal_limit=JOURNAL_LIMIT, backend="file"
        )
        acked.append(_heads(engine))
        for op in _ops(engine):
            op()
            acked.append(_heads(engine))
        engine.close()
    except SimulatedCrash:
        acked.append(_heads(engine) if engine is not None else {})
        if engine is not None:
            engine.abandon()
        raise


def _census(directory: str) -> List[str]:
    """Count the workload's boundaries; return their replay stamps."""
    with crash_zone(CrashPlan(seed=SEED)) as clock:
        _run_workload(directory, [])
    return [hit.stamp for hit in clock.trace]


def test_census_is_deterministic(tmp_path):
    first = _census(str(tmp_path / "a"))
    second = _census(str(tmp_path / "b"))
    assert first == second
    # The workload must actually cross every boundary kind we guard.
    with crash_zone(CrashPlan(seed=SEED)) as clock:
        _run_workload(str(tmp_path / "c"), [])
    kinds = {hit.kind for hit in clock.trace}
    assert kinds == {"journal-write", "journal-fsync", "journal-replace"}
    # Compaction still runs mid-workload: close's checkpoint plus at least two.
    assert sum(hit.kind == "journal-replace" for hit in clock.trace) >= 3


def test_torture_every_crash_point(tmp_path):
    total = len(_census(str(tmp_path / "census")))
    assert total > 40, "workload too small to be a torture test"

    for boundary in range(total):
        directory = str(tmp_path / f"crash{boundary}")
        acked: List[HeadMap] = []
        with pytest.raises(SimulatedCrash):
            with crash_zone(CrashPlan(crash_at=boundary, seed=SEED)):
                _run_workload(directory, acked)

        # acked[-1] is the engine's in-memory state at the crash (the
        # in-flight op, if it got far enough); acked[-2] the last state
        # actually acknowledged to the caller.
        allowed = [acked[-1]]
        if len(acked) > 1:
            allowed.append(acked[-2])

        recovered = ForkBase.open(directory)
        state = _heads(recovered)
        assert state in allowed, (
            f"boundary {boundary}: recovered {sorted(state)} is neither the "
            f"acknowledged state nor the in-flight one"
        )
        # Every surviving head resolves and passes tamper validation.
        for (key, branch) in state:
            assert recovered.verify(key, branch).ok, f"boundary {boundary}"
        recovered.close()

        # Replay idempotence: recovery reaches a fixed point — a second
        # (and third) open sees the identical head map.
        again = ForkBase.open(directory)
        assert _heads(again) == state, f"boundary {boundary}: replay not idempotent"
        again.close()
        once_more = ForkBase.open(directory)
        assert _heads(once_more) == state
        once_more.close()


def test_crash_during_recovery_is_survivable(tmp_path):
    # Kill *recovery itself* at each boundary it crosses: a crash loop
    # must never make things worse.  Recovery writes only when replay
    # dropped records, so stage a journal whose tail names a commit the
    # store does not hold (an unsynced chunk a power loss took), followed
    # by a record that would apply: recovery keeps the prefix before the
    # dangling head and rewrites the journal as its checkpoint.
    source = str(tmp_path / "source")
    engine = ForkBase.open(source)
    engine.put("k", {"a": "1"})
    engine.branch("k", "dev")
    state = _heads(engine)
    engine.close()
    journal = CommitJournal(os.path.join(source, "journal.wal"))
    journal.append({"op": "set-head", "key": "k", "branch": "master",
                    "head": Uid.of(b"lost to a power cut").base32()})
    journal.append({"op": "delete-branch", "key": "k", "branch": "dev"})
    journal.close()

    with crash_zone(CrashPlan(seed=SEED)) as clock:
        probe_dir = str(tmp_path / "probe")
        shutil.copytree(source, probe_dir)
        ForkBase.open(probe_dir).abandon()
    kinds = {hit.kind for hit in clock.trace}
    assert kinds == {"journal-write", "journal-fsync", "journal-replace"}

    for boundary in range(clock.count):
        directory = str(tmp_path / f"crash{boundary}")
        shutil.copytree(source, directory)
        with crash_zone(CrashPlan(crash_at=boundary, seed=SEED)):
            crashed = None
            try:
                crashed = ForkBase.open(directory)
            except SimulatedCrash:
                pass
            if crashed is not None:
                crashed.abandon()
        final = ForkBase.open(directory)
        assert _heads(final) == state, f"recovery crash at boundary {boundary}"
        final.close()
        rewritten = CommitJournal(os.path.join(directory, "journal.wal"))
        assert len(rewritten) == len(state)  # the checkpoint, nothing else
        rewritten.close()
