"""Crash torture: kill the engine at *every* write, fsync and rename.

The workload below crosses every durability step of both layouts: record
appends, batch and sync fsyncs, the index snapshot's write / fsync /
rename, journal appends and fsyncs, and the checkpoint rewrite of
``journal.wal`` at compaction and close.  A census run under an all-zero
:class:`FsFaultPlan` lists the boundaries; then, for each one the
``crash`` flavor lands on, a fresh engine runs the same workload under
``FsFaultPlan(fail_at=n, flavor="crash")``, dies there (a write lands a
torn prefix first), and is reopened.  Recovery must show either the
state after the last *acknowledged* operation or the state after the one
in-flight operation (which may have become durable before the ack) —
never anything else — and every surviving head must verify.

``test_fsfault_torture.py`` walks the same seam with the disk-error
flavors, where the process survives; this suite is the reopen's half.

Honors ``FORKBASE_SEED`` like the chaos suite; the seed varies the
torn-write prefixes, not the boundary schedule.
"""

from __future__ import annotations

import json
import os
import shutil
from typing import Dict, List, Optional, Tuple

import pytest

from repro.chunk import Uid
from repro.db.engine import ForkBase
from repro.errors import SimulatedCrash
from repro.faults import FsFaultPlan, fs_zone
from repro.faults.fs import TARGETED_FLAVORS
from repro.faults.kernel import Boundary
from repro.store import physical_store
from repro.vcs import CommitJournal
from tests.conftest import HeadMap, fault_seed, head_map, pin_clock

SEED = fault_seed(20260805)

#: Small enough to force several compactions mid-workload.
JOURNAL_LIMIT = 700

BACKENDS = ("file", "pack")


def _ops(engine: ForkBase) -> List:
    """The scripted workload: every journaled verb, plus enough volume
    to push the journal past its compaction limit more than once."""
    ops = [
        lambda: engine.put("doc", {"a": "1"}),
        lambda: engine.put("doc", {"a": "2", "pad": "x" * 48}),
        lambda: engine.branch("doc", "dev"),
        lambda: engine.put("doc", {"a": "3", "pad": "x" * 48}, branch="dev"),
        lambda: engine.put("doc", {"a": "2", "b": "1", "pad": "x" * 48}),
        lambda: engine.merge("doc", "dev", "master"),  # three-way
        lambda: engine.merge("doc", "master", "dev"),  # fast-forward
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


def _run_workload(directory: str, acked: List[HeadMap], backend: str) -> None:
    """Run the workload, appending a head-map snapshot to ``acked`` after
    every acknowledged operation.  On a simulated crash, append the
    engine's in-memory state last: the in-flight op may or may not have
    reached the disk, so recovery may legitimately land on either of the
    final two snapshots."""
    engine: Optional[ForkBase] = None
    try:
        engine = ForkBase.open(
            directory, fsync="always", journal_limit=JOURNAL_LIMIT, backend=backend
        )
        pin_clock(engine)
        acked.append(head_map(engine))
        for op in _ops(engine):
            op()
            acked.append(head_map(engine))
        engine.close()
    except SimulatedCrash:
        acked.append(head_map(engine) if engine is not None else {})
        if engine is not None:
            engine.abandon()
        raise


def _crashable(trace: List[Boundary]) -> List[Boundary]:
    """The census entries a crash can land on: writes, fsyncs, renames."""
    return [hit for hit in trace if "crash" in TARGETED_FLAVORS[hit.kind]]


def _census(directory: str, backend: str) -> List[Boundary]:
    """The workload's boundaries, crossed once with nothing armed."""
    with fs_zone(FsFaultPlan(seed=SEED)) as shim:
        _run_workload(directory, [], backend)
    return list(shim.trace)


def test_census_is_deterministic(tmp_path):
    for backend in BACKENDS:
        directory = str(tmp_path / f"{backend}-a")
        first = _census(directory, backend)
        second = _census(str(tmp_path / f"{backend}-b"), backend)
        assert [hit.stamp for hit in first] == [hit.stamp for hit in second], backend
        seen = {(hit.kind, hit.label) for hit in first}
        # The journal: appends, per-op fsyncs, and the checkpoint rewrite
        # (compaction mid-workload: close's checkpoint plus at least two).
        assert {("write", "set-head"), ("fsync", "journal.wal")} <= seen, backend
        assert {("write", "checkpoint"), ("fsync", "journal.wal.tmp")} <= seen, backend
        assert sum(hit.kind == "replace" and hit.label == "journal.wal" for hit in first) >= 3
        # The chunk store: one write per record, labelled by its uid; the
        # store fsync before each journal fsync point; and the index
        # snapshot's write, fsync and rename at close.
        assert ("fsync", "sync") in seen, backend
        index = "pack-index" if backend == "pack" else "index"
        assert {
            ("write", index),
            ("fsync", f"{index}.dat.tmp"),
            ("replace", f"{index}.dat"),
        } <= seen, backend
        engine = ForkBase.open(directory, backend=backend)
        stored = {uid.short() for uid in physical_store(engine.store).ids()}
        engine.close()
        assert stored and stored <= {label for kind, label in seen if kind == "write"}, backend


@pytest.mark.parametrize("backend", BACKENDS)
def test_torture_every_crash_point(tmp_path, backend):
    census = _crashable(_census(str(tmp_path / "census"), backend))
    assert len(census) > 80, "workload too small to be a torture test"

    for hit in census:
        boundary = hit.index
        directory = str(tmp_path / f"crash{boundary}")
        acked: List[HeadMap] = []
        with pytest.raises(SimulatedCrash) as excinfo:
            with fs_zone(FsFaultPlan(seed=SEED, fail_at=boundary, flavor="crash")):
                _run_workload(directory, acked, backend)
        assert excinfo.value.boundary == boundary

        # acked[-1] is the engine's in-memory state at the crash (the
        # in-flight op, if it got far enough); acked[-2] the last state
        # actually acknowledged to the caller.
        allowed = [acked[-1]]
        if len(acked) > 1:
            allowed.append(acked[-2])

        recovered = ForkBase.open(directory, backend=backend)
        state = head_map(recovered)
        context = f"boundary {boundary} ({hit.kind}/{hit.label}, {backend})"
        assert state in allowed, (
            f"{context}: recovered {sorted(state)} is neither the "
            f"acknowledged state nor the in-flight one"
        )
        # Every surviving head resolves and passes tamper validation.
        for (key, branch) in state:
            assert recovered.verify(key, branch).ok, context
        recovered.close()

        # Replay idempotence: recovery reaches a fixed point — a second
        # (and third) open sees the identical head map.
        again = ForkBase.open(directory, backend=backend)
        assert head_map(again) == state, f"{context}: replay not idempotent"
        again.close()
        once_more = ForkBase.open(directory, backend=backend)
        assert head_map(once_more) == state, context
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
    state = head_map(engine)
    engine.close()
    journal = CommitJournal(os.path.join(source, "journal.wal"))
    journal.append({"op": "set-head", "key": "k", "branch": "master",
                    "head": Uid.of(b"lost to a power cut").base32()})
    journal.append({"op": "delete-branch", "key": "k", "branch": "dev"})
    journal.close()

    with fs_zone(FsFaultPlan(seed=SEED)) as shim:
        probe_dir = str(tmp_path / "probe")
        shutil.copytree(source, probe_dir)
        ForkBase.open(probe_dir).abandon()
    census = _crashable(shim.trace)
    # Recovery's only durable step is the journal's checkpoint rewrite.
    assert {(hit.kind, hit.label) for hit in census} >= {
        ("write", "checkpoint"),
        ("fsync", "journal.wal.tmp"),
        ("replace", "journal.wal"),
    }

    for hit in census:
        boundary = hit.index
        directory = str(tmp_path / f"crash{boundary}")
        shutil.copytree(source, directory)
        with fs_zone(FsFaultPlan(seed=SEED, fail_at=boundary, flavor="crash")):
            crashed = None
            try:
                crashed = ForkBase.open(directory)
            except SimulatedCrash:
                pass
            if crashed is not None:
                crashed.abandon()
        final = ForkBase.open(directory)
        assert head_map(final) == state, f"recovery crash at boundary {boundary}"
        final.close()
        rewritten = CommitJournal(os.path.join(directory, "journal.wal"))
        assert len(rewritten) == len(state)  # the checkpoint, nothing else
        rewritten.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_cli_put_crash_at_every_boundary_ends_the_process(tmp_path, monkeypatch, backend):
    """``forkbase put`` killed at every write, fsync and rename it crosses
    (open, commit, checkpoint, close): the crash escapes ``main``, nothing
    is written after it, and the reopened directory serves every head
    verified, with the key holding either its old value or its new one."""
    from repro.api import cli

    source = str(tmp_path / "source")
    with ForkBase.open(source, backend=backend) as engine:
        engine.put("doc", {"a": "old"})
        engine.put("other", {"b": "kept"})
        heads = head_map(engine)
    new = {"a": "new", "pad": "x" * 48}
    argv = ["put", "doc", "--json", json.dumps(new)]
    values = [{b"a": b"old"}, {key.encode(): text.encode() for key, text in new.items()}]

    opened: List[ForkBase] = []
    real_open = ForkBase.open

    def recording_open(*args, **kwargs):
        opened.append(real_open(*args, **kwargs))
        return opened[-1]

    census_dir = str(tmp_path / "census")
    shutil.copytree(source, census_dir)
    with fs_zone(FsFaultPlan()) as shim:
        assert cli.main(["--data-dir", census_dir, *argv]) == 0
    crashable = _crashable(list(shim.trace))
    assert {hit.kind for hit in crashable} == {"write", "fsync", "replace"}

    for hit in crashable:
        directory = str(tmp_path / f"b{hit.index}")
        shutil.copytree(source, directory)
        context = f"{backend} boundary {hit.index} ({hit.kind} {hit.label})"
        with fs_zone(FsFaultPlan(fail_at=hit.index, flavor="crash")) as shim:
            with monkeypatch.context() as patch, pytest.raises(SimulatedCrash) as excinfo:
                patch.setattr(cli.ForkBase, "open", recording_open)
                cli.main(["--data-dir", directory, *argv])
        assert excinfo.value.boundary == hit.index, context
        # Dead: past the crash, the process crossed no write, fsync or rename.
        assert {b.kind for b in shim.trace[hit.index + 1 :]} <= {"read"}, context
        while opened:  # the OS closes a killed process's files
            opened.pop().abandon()
        with ForkBase.open(directory, backend=backend) as recovered:
            state = head_map(recovered)
            assert state.keys() == heads.keys(), context
            for key, branch in state:
                assert recovered.verify(key, branch).ok, context
            assert recovered.get_value("other") == {b"b": b"kept"}, context
            assert recovered.get_value("doc") in values, context
        shutil.rmtree(directory)


def _csv(changes: Dict[int, str], rows: int = 40) -> str:
    """A 40-row CSV keyed by ``id``; ``changes`` replaces or adds rows."""
    lines = {i: f"{i},item{i},{3 * i}" for i in range(1, rows + 1)}
    lines.update(changes)
    return "id,name,qty\n" + "".join(f"{lines[i]}\n" for i in sorted(lines))


def _values(engine: ForkBase) -> Dict[Tuple[str, str], object]:
    """Every head's value: what a reopened directory must serve."""
    return {(key, branch): engine.get_value(key, branch=branch) for key, branch in head_map(engine)}


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_cli_session_crash_at_every_boundary_keeps_what_it_acked(tmp_path, monkeypatch, backend):
    """``load-csv`` and a three-way ``merge`` (with a branch and two more
    loads between them) killed at every write, fsync and rename the
    session crosses, under ``fsync="always"``: the crash escapes ``main``,
    and the reopened directory serves every head verified, holding every
    command that returned 0 and, of the one that died, its old state or
    its new one."""
    from repro.api import cli

    for name, changes in (("base", {}), ("dev", {3: "3,item3,999", 41: "41,item41,1"}),
                          ("master", {7: "7,item7,777"})):
        (tmp_path / f"{name}.csv").write_text(_csv(changes), newline="")
    session = [
        ["load-csv", "t", str(tmp_path / "base.csv"), "--pk", "id"],
        ["branch", "t", "dev"],
        ["load-csv", "t", str(tmp_path / "dev.csv"), "--pk", "id", "--branch", "dev"],
        ["load-csv", "t", str(tmp_path / "master.csv"), "--pk", "id"],
        ["merge", "t", "dev", "--into", "master"],
    ]
    source = str(tmp_path / "source")
    ForkBase.open(source, backend=backend).close()

    opened: List[ForkBase] = []
    real_open = ForkBase.open

    def always_open(*args, **kwargs):
        opened.append(real_open(*args, fsync="always", **kwargs))
        return opened[-1]

    monkeypatch.setattr(cli.ForkBase, "open", always_open)

    # The census: each command's last boundary, and the values after it.
    census_dir = str(tmp_path / "census")
    shutil.copytree(source, census_dir)
    ends: List[int] = []
    with fs_zone(FsFaultPlan()) as shim:
        for argv in session:
            assert cli.main(["--data-dir", census_dir, *argv]) == 0
            ends.append(len(shim.trace))
    states = []
    replay = str(tmp_path / "replay")
    shutil.copytree(source, replay)
    for argv in [None, *session]:
        if argv is not None:
            assert cli.main(["--data-dir", replay, *argv]) == 0
        with real_open(replay) as engine:
            states.append(_values(engine))
    assert states[-1][("t", "master")] != states[-2][("t", "master")]  # the merge moved master
    crashable = _crashable(list(shim.trace))
    assert len(crashable) > 40

    for hit in crashable:
        directory = str(tmp_path / f"b{hit.index}")
        shutil.copytree(source, directory)
        dying = next(n for n, end in enumerate(ends) if hit.index < end)
        context = f"{backend} boundary {hit.index} ({hit.kind} {hit.label}) in {session[dying][0]}"
        with fs_zone(FsFaultPlan(fail_at=hit.index, flavor="crash")) as shim:
            for argv in session[:dying]:
                assert cli.main(["--data-dir", directory, *argv]) == 0, context
            with pytest.raises(SimulatedCrash) as excinfo:
                cli.main(["--data-dir", directory, *session[dying]])
        assert excinfo.value.boundary == hit.index, context
        assert {b.kind for b in shim.trace[hit.index + 1 :]} <= {"read"}, context
        while opened:  # the OS closes a killed process's files
            opened.pop().abandon()
        with real_open(directory, backend=backend) as recovered:
            for key, branch in head_map(recovered):
                assert recovered.verify(key, branch).ok, context
            assert _values(recovered) in states[dying : dying + 2], context
        shutil.rmtree(directory)
