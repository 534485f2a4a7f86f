"""Filesystem-fault injection: plan, shim, store/journal recovery, health.

The disk itself misbehaves, or the process dies on it (the ``crash``
flavor).  These are the unit-level checks; ``test_fsfault_torture.py``
walks every boundary × disk-error flavor, ``test_crash_torture.py``
every boundary a crash lands on, and ``test_property_fsfaults.py``
drives random schedules.
"""

from __future__ import annotations

import errno
import os

import pytest

from repro.chunk import Chunk, ChunkType
from repro.db.engine import (
    HEALTH_DEGRADED,
    HEALTH_FAILED,
    HEALTH_HEALTHY,
    ForkBase,
)
from repro.errors import (
    ChunkNotFoundError,
    DiskFaultError,
    DiskFullError,
    EngineLockedError,
    ReadOnlyError,
    SimulatedCrash,
    StoreError,
    TransientStoreError,
    map_os_error,
)
from repro.faults import FaultyOS, FsFaultPlan, fs_zone
from repro.faults.fs import TARGETED_FLAVORS
from repro.postree.node import LeafNode
from repro.store import NodeCacheStore
from repro.store.appendlog import AppendLog
from repro.store.durability import (
    active_injector,
    durable_replace,
    fsync_file,
    fsync_path,
    read_check,
    write_bytes,
)
from repro.store.filestore import FileStore
from repro.store.packstore import PackStore
from repro.vcs.journal import CommitJournal


def _chunk(tag: bytes) -> Chunk:
    return Chunk(ChunkType.BLOB, b"payload-" + tag)


# -- plan determinism ---------------------------------------------------------


def test_plan_decisions_replay_bit_identically():
    plan = FsFaultPlan(seed=7, enospc_rate=0.3, fsync_fail_rate=0.2, eio_read_rate=0.1)
    first = [
        plan.decide(syscall, "seg-000000.dat", attempt, index)
        for index, (syscall, attempt) in enumerate(
            (s, a) for s in ("write", "fsync", "read", "replace") for a in range(32)
        )
    ]
    second = [
        plan.decide(syscall, "seg-000000.dat", attempt, index)
        for index, (syscall, attempt) in enumerate(
            (s, a) for s in ("write", "fsync", "read", "replace") for a in range(32)
        )
    ]
    assert first == second
    assert any(fault is not None for fault in first)


def test_plan_seed_changes_schedule():
    a = FsFaultPlan(seed=1, enospc_rate=0.5)
    b = FsFaultPlan(seed=2, enospc_rate=0.5)
    draws_a = [a.draw("write", "x", n) for n in range(64)]
    draws_b = [b.draw("write", "x", n) for n in range(64)]
    assert draws_a != draws_b
    assert all(0.0 <= value < 1.0 for value in draws_a)


@pytest.mark.parametrize("bad", [{"enospc_rate": 1.5}, {"fail_at": 0, "flavor": "enspc"}])
def test_plan_rejects_out_of_range_rate_and_unknown_flavor(bad):
    # A typo'd flavor used to make decide() return None at every boundary:
    # a targeted torture leg passed vacuously, having injected nothing.
    with pytest.raises(ValueError):
        FsFaultPlan(**bad)


def test_plan_rejects_a_negative_fail_at():
    # No boundary index is negative, so such a plan used to run as a
    # census: a targeted leg that injected nothing and passed.
    with pytest.raises(ValueError):
        FsFaultPlan(fail_at=-1)


def test_targeted_plan_faults_exactly_one_boundary(tmp_path):
    path = tmp_path / "blob.dat"
    with fs_zone(FsFaultPlan(fail_at=1, flavor="enospc")) as shim:
        with open(path, "ab") as handle:
            write_bytes(handle, b"first")  # boundary 0: clean
            with pytest.raises(DiskFullError):
                write_bytes(handle, b"second")  # boundary 1: ENOSPC
            write_bytes(handle, b"third")  # boundary 2: clean again
    assert [hit.fault for hit in shim.trace] == [None, "enospc", None]
    assert len(shim.injected) == 1


def test_census_mode_counts_without_faulting(tmp_path):
    path = tmp_path / "blob.dat"
    with fs_zone(FsFaultPlan()) as shim:
        with open(path, "ab") as handle:
            write_bytes(handle, b"data")
        read_check(str(path))
    assert shim.count == 2
    assert shim.injected == []
    assert {hit.kind for hit in shim.trace} == {"write", "read"}


# -- shim semantics -----------------------------------------------------------


def test_short_write_materializes_strict_prefix(tmp_path):
    path = tmp_path / "blob.dat"
    data = b"0123456789" * 8
    with fs_zone(FsFaultPlan(fail_at=0, flavor="short")):
        with open(path, "ab") as handle:
            with pytest.raises(DiskFullError):
                write_bytes(handle, data)
    landed = path.read_bytes()
    assert len(landed) < len(data)
    assert data.startswith(landed)


def test_fsync_failure_drops_dirty_pages_and_gates_descriptor(tmp_path):
    path = tmp_path / "blob.dat"
    with open(path, "wb") as handle:
        handle.write(b"durable")
        handle.flush()
        os.fsync(handle.fileno())
    with fs_zone(FsFaultPlan(fail_at=1, flavor="fsync")) as shim:
        handle = open(path, "r+b")
        handle.seek(0, os.SEEK_END)
        injector = active_injector()
        injector.write(handle, b"-dirty")  # boundary 0, fixes the durable floor
        handle.flush()
        with pytest.raises(OSError) as excinfo:
            injector.fsync_handle(handle)  # boundary 1: EIO + page loss
        assert excinfo.value.errno == errno.EIO
        # fsyncgate: the unsynced bytes are gone from the file...
        assert path.read_bytes() == b"durable"
        assert shim.dropped_bytes == len(b"-dirty")
        # ...and a retry on the same descriptor falsely reports success.
        injector.fsync_handle(handle)
        assert shim.false_fsyncs == 1
        handle.close()


def test_read_probe_eio_classifies_as_disk_fault(tmp_path):
    path = tmp_path / "blob.dat"
    path.write_bytes(b"data")
    with fs_zone(FsFaultPlan(fail_at=0, flavor="eio")):
        with pytest.raises(DiskFaultError):
            read_check(str(path))
    read_check(str(path))  # clean outside the zone


def test_replace_fault_classifies_and_preserves_source(tmp_path):
    source = tmp_path / "new.tmp"
    destination = tmp_path / "index.dat"
    destination.write_bytes(b"old")
    source.write_bytes(b"new")
    # Boundary 0 is fsync_path(source); boundary 1 is the rename itself.
    with fs_zone(FsFaultPlan(fail_at=1, flavor="eio")):
        with pytest.raises(DiskFaultError):
            durable_replace(str(source), str(destination))
    assert destination.read_bytes() == b"old"


# -- the crash flavor ---------------------------------------------------------


def test_crash_at_a_write_lands_the_short_prefix_and_is_not_unwound(tmp_path):
    first, second = b"record-one|", b"0123456789" * 8
    short = tmp_path / "short.dat"
    with fs_zone(FsFaultPlan(seed=3, fail_at=0, flavor="short")):
        with open(short, "ab") as handle:
            with pytest.raises(DiskFullError):
                write_bytes(handle, second, "rec")
    prefix = short.read_bytes()
    assert len(prefix) < len(second) and second.startswith(prefix)

    path = str(tmp_path / "log.dat")
    log = AppendLog(path, 0)
    log.append(first)
    log.flush()
    with fs_zone(FsFaultPlan(seed=3, fail_at=0, flavor="crash")):
        with pytest.raises(SimulatedCrash):
            log.append(second, "rec")
    # A dead process truncates nothing: the torn prefix stays on disk,
    # and the log never acked it.
    with open(path, "rb") as handle:
        assert handle.read() == first + prefix
    assert log.size == len(first) and not log.poisoned
    log.abandon()


def test_crash_at_an_fsync_performs_none_and_keeps_the_marks(tmp_path, monkeypatch):
    path = tmp_path / "blob.dat"
    path.write_bytes(b"durable")
    fsyncs = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: (fsyncs.append(fd), real_fsync(fd)))
    with fs_zone(FsFaultPlan(fail_at=1, flavor="crash")) as shim:
        with open(path, "r+b") as handle:
            handle.seek(0, os.SEEK_END)
            write_bytes(handle, b"-dirty")  # boundary 0 fixes the durable floor
            marks = dict(shim._marks)
            with pytest.raises(SimulatedCrash) as excinfo:
                fsync_file(handle)  # boundary 1: the process dies first
            assert fsyncs == []
            assert shim._marks == marks
            assert shim.false_fsyncs == 0 and shim.dropped_bytes == 0
            # Not fsyncgate: the process is dead, so a later fsync on the
            # descriptor is no false success either — it raises the crash.
            with pytest.raises(SimulatedCrash) as again:
                fsync_file(handle)
            assert again.value is excinfo.value
            assert fsyncs == [] and shim.false_fsyncs == 0
    assert excinfo.value.syscall == "fsync"
    assert path.read_bytes() == b"durable-dirty"  # no page was dropped


def test_a_dead_process_writes_nothing_more(tmp_path):
    """After a crash every write, fsync and rename through the shim raises
    the same crash and lands nothing, so a ``finally: close()`` on the
    way out cannot persist what a killed process never would."""
    path = tmp_path / "seg.dat"
    with fs_zone(FsFaultPlan(fail_at=1, flavor="crash")) as shim:
        with open(path, "ab") as handle:
            write_bytes(handle, b"acked")
            with pytest.raises(SimulatedCrash) as excinfo:
                fsync_file(handle)
            crossed = len(shim.trace)
            with pytest.raises(SimulatedCrash) as write:
                write_bytes(handle, b"-after")
            handle.flush()
            assert path.read_bytes() == b"acked"
            with pytest.raises(SimulatedCrash) as fsync:
                fsync_file(handle)
        (tmp_path / "index.tmp").write_bytes(b"index")
        with pytest.raises(SimulatedCrash) as rename:
            durable_replace(str(tmp_path / "index.tmp"), str(tmp_path / "index.dat"))
        assert not (tmp_path / "index.dat").exists()
        read_check(str(path))  # reads change nothing on disk
        assert {write.value, fsync.value, rename.value} == {excinfo.value}
        assert [hit.kind for hit in shim.trace[crossed:]] == ["read"]
    assert not isinstance(excinfo.value, Exception)  # no `except Exception` catches it


@pytest.mark.parametrize("boundary", [0, 1])
def test_crash_at_a_replace_leaves_the_destination_untouched(tmp_path, boundary):
    source = tmp_path / "new.tmp"
    destination = tmp_path / "index.dat"
    destination.write_bytes(b"old")
    source.write_bytes(b"new")
    # Boundary 0 is fsync_path(source); boundary 1 is the rename itself.
    with fs_zone(FsFaultPlan(fail_at=boundary, flavor="crash")) as shim:
        with pytest.raises(SimulatedCrash):
            durable_replace(str(source), str(destination))
    assert destination.read_bytes() == b"old"
    assert source.read_bytes() == b"new"
    assert [hit.kind for hit in shim.trace] == ["fsync", "replace"][: boundary + 1]


def _seam_workload(root) -> None:
    """One of each syscall the shim sees: write, fsync, read, replace."""
    with open(root / "seg.dat", "ab") as handle:
        write_bytes(handle, b"record")
        fsync_file(handle, "seg")
    read_check(str(root / "seg.dat"))
    (root / "index.tmp").write_bytes(b"index")
    durable_replace(str(root / "index.tmp"), str(root / "index.dat"))


def test_simulated_crash_names_its_census_boundary(tmp_path):
    (tmp_path / "census").mkdir()
    with fs_zone(FsFaultPlan(seed=5)) as census:
        _seam_workload(tmp_path / "census")
    kinds = [hit.kind for hit in census.trace]
    assert kinds == ["write", "fsync", "read", "fsync", "replace", "fsync"]
    for hit in census.trace:
        root = tmp_path / f"b{hit.index}"
        root.mkdir()
        with fs_zone(FsFaultPlan(seed=5, fail_at=hit.index, flavor="crash")) as shim:
            if "crash" not in TARGETED_FLAVORS[hit.kind]:
                _seam_workload(root)  # a crash never lands on a read
                assert shim.injected == []
                continue
            with pytest.raises(SimulatedCrash) as excinfo:
                _seam_workload(root)
        crash = excinfo.value
        assert (crash.boundary, crash.syscall, crash.label) == (hit.index, hit.kind, hit.label)
        assert [(b.index, b.fault, b.stamp) for b in shim.injected] == [
            (hit.index, "crash", hit.stamp)
        ]


def test_map_os_error_taxonomy():
    full = map_os_error(OSError(errno.ENOSPC, "no space"), "write", "seg")
    assert isinstance(full, DiskFullError)
    assert isinstance(full, TransientStoreError)
    assert full.syscall == "write" and full.path == "seg"
    quota = map_os_error(OSError(errno.EDQUOT, "quota"), "write", "seg")
    assert isinstance(quota, DiskFullError)
    fault = map_os_error(OSError(errno.EIO, "io"), "fsync", "seg")
    assert isinstance(fault, DiskFaultError)
    assert not isinstance(fault, TransientStoreError)
    assert isinstance(fault, StoreError)


# -- satellite: fsync_path propagates directory-fsync failures ----------------


def test_fsync_path_propagates_directory_fsync_errors(tmp_path):
    directory = tmp_path / "store"
    directory.mkdir()
    if not hasattr(os, "O_DIRECTORY"):  # pragma: no cover - Windows
        pytest.skip("no O_DIRECTORY on this platform")
    with fs_zone(FsFaultPlan(fail_at=0, flavor="fsync")):
        with pytest.raises(DiskFaultError):
            fsync_path(str(directory))
    fsync_path(str(directory))  # clean outside the zone


# -- store recovery -----------------------------------------------------------


# The protocol itself (un-ack + bounded ENOSPC retry, fsyncgate recovery on
# a fresh descriptor) is pinned once on the primitive in test_appendlog.py;
# what stays here is each owner's half of a poison: un-acking its own
# bookkeeping (index prune, journal records).


@pytest.mark.parametrize("factory", [FileStore, PackStore], ids=["file", "pack"])
def test_unrecoverable_fsync_poisons_writer(tmp_path, factory):
    seeded = factory(str(tmp_path / "chunks"))
    seeded.put(_chunk(b"acked"))
    seeded.close()  # close() fsyncs: the acked chunk is now durable
    store = factory(str(tmp_path / "chunks"))
    chunks = [_chunk(bytes([n])) for n in range(3)]
    with fs_zone(FsFaultPlan(fsync_fail_rate=1.0)) as shim:
        with pytest.raises(DiskFaultError):
            store.put_many(chunks)
        assert store.poisoned
        # Un-acked in memory at once: pruned from the index.
        assert len(store) == 1 and store.has(_chunk(b"acked").uid)
        assert not any(store.has(chunk.uid) for chunk in chunks)
        # Poisoned writer refuses further appends...
        with pytest.raises(DiskFaultError):
            store.put(_chunk(b"late"))
        # ...and close() degrades to abandon() rather than pretending.
        store.close()
    assert shim.false_fsyncs == 0
    reopened = factory(str(tmp_path / "chunks"))
    assert reopened.has(_chunk(b"acked").uid)
    # The un-acked batch must not have been indexed as durable state.
    for chunk in chunks:
        assert not reopened.has(chunk.uid)
    reopened.close()


@pytest.mark.parametrize("populate", ["read", "write-through"])
@pytest.mark.parametrize("factory", [FileStore, PackStore], ids=["file", "pack"])
def test_unack_evicts_decoded_nodes(tmp_path, factory, populate):
    """A poison un-acks flushed-but-unsynced records; a node cache above
    must stop serving them, however the entry got there."""
    backing = factory(str(tmp_path / "chunks"))
    cache = NodeCacheStore(backing)
    leaf = LeafNode([(b"key", b"value")])
    if populate == "read":
        cache.put(leaf.to_chunk())
        assert isinstance(cache.get_node(leaf.uid), LeafNode)
    else:
        cache.put_nodes([(leaf.to_chunk(), leaf)])
    with fs_zone(FsFaultPlan(fsync_fail_rate=1.0)):
        with pytest.raises(DiskFaultError):
            cache.put_many([_chunk(b"a"), _chunk(b"b")])
    assert backing.poisoned and not backing.has(leaf.uid)
    with pytest.raises(ChunkNotFoundError):
        cache.get_node(leaf.uid)
    cache.close()


@pytest.mark.parametrize(
    "factory, label", [(FileStore, "index"), (PackStore, "pack-index")], ids=["file", "pack"]
)
def test_index_snapshot_goes_through_the_disk_seam(tmp_path, factory, label):
    chunks = [_chunk(bytes([n])) for n in range(3)]

    def run(directory):
        store = factory(directory)
        store.put_many(chunks[:2])  # snapshot 1
        store.put(chunks[2])
        return store

    with fs_zone(FsFaultPlan()) as census:
        run(str(tmp_path / "census")).close()  # snapshot 2
    snapshots = [hit.index for hit in census.trace if (hit.kind, hit.label) == ("write", label)]
    assert len(snapshots) == 2  # exactly one write hit per snapshot

    directory = str(tmp_path / "enospc")
    index = os.path.join(directory, label + ".dat")
    with fs_zone(FsFaultPlan(fail_at=snapshots[-1], flavor="enospc")):
        store = run(directory)
        with open(index, "rb") as handle:
            before = handle.read()
        with pytest.raises(DiskFullError):  # classified, not a raw OSError
            store.close()
        store.abandon()
    with open(index, "rb") as handle:
        assert handle.read() == before  # the old snapshot is untouched
    with factory(directory) as reopened:
        for chunk in chunks:  # every acked chunk, the un-snapshotted one included
            assert reopened.get(chunk.uid).data == chunk.data


# -- journal recovery ---------------------------------------------------------


def test_journal_poisons_after_unrecoverable_fsync(tmp_path):
    journal = CommitJournal(str(tmp_path / "journal.wal"), fsync="always")
    journal.append({"op": "set-head", "n": 1})
    with fs_zone(FsFaultPlan(fsync_fail_rate=1.0)) as shim:
        with pytest.raises(DiskFaultError):
            journal.append({"op": "set-head", "n": 2})
        assert journal.poisoned
        assert [record["n"] for record in journal.records] == [1]
        with pytest.raises(DiskFaultError):
            journal.append({"op": "set-head", "n": 3})
        journal.close()  # a poisoned journal closes without flushing
    assert shim.false_fsyncs == 0
    # The un-acked record was un-acked in memory too, and replay agrees.
    replayed = CommitJournal(str(tmp_path / "journal.wal"))
    assert [record["n"] for record in replayed.records] == [1]
    replayed.close()


# -- satellite: lock acquisition must not mask disk faults --------------------


def test_lock_contention_still_raises_engine_locked(tmp_path):
    first = ForkBase.open(str(tmp_path / "db"))
    try:
        with pytest.raises(EngineLockedError):
            ForkBase.open(str(tmp_path / "db"))
    finally:
        first.close()


def test_lock_disk_fault_is_not_reported_as_contention(tmp_path, monkeypatch):
    fcntl = pytest.importorskip("fcntl")

    def broken_flock(fd, op):
        raise OSError(errno.EIO, "injected: flock failed")

    monkeypatch.setattr(fcntl, "flock", broken_flock)
    with pytest.raises(DiskFaultError):
        ForkBase.open(str(tmp_path / "db"))


# -- engine health machine ----------------------------------------------------


def _open_engine(tmp_path, **kwargs):
    engine = ForkBase.open(str(tmp_path / "db"), fsync="always", **kwargs)
    return engine


def test_engine_health_starts_healthy(tmp_path):
    engine = _open_engine(tmp_path)
    report = engine.health()
    assert report.state == HEALTH_HEALTHY
    assert report.writable
    assert report.reason is None
    engine.close()


def test_disk_fault_degrades_to_read_only(tmp_path):
    engine = _open_engine(tmp_path)
    engine.put("doc", {"a": "1"})
    baseline = engine.get_value("doc")
    with fs_zone(FsFaultPlan(fsync_fail_rate=1.0)):
        with pytest.raises(DiskFaultError):
            engine.put("doc", {"a": "2"})
    report = engine.health()
    assert report.state == HEALTH_DEGRADED
    assert not report.writable
    assert report.reason
    # Reads, verification, and scrubbing still serve...
    assert engine.get_value("doc") == baseline
    assert engine.verify("doc").ok
    assert engine.scrub().healthy
    # ...while every mutating verb refuses with ReadOnlyError.
    with pytest.raises(ReadOnlyError) as excinfo:
        engine.put("doc", {"a": "3"})
    assert excinfo.value.state == HEALTH_DEGRADED
    with pytest.raises(ReadOnlyError):
        engine.branch("doc", "dev")
    with pytest.raises(ReadOnlyError):
        engine.drop("doc")
    with pytest.raises(ReadOnlyError):
        engine.collect_garbage()
    engine.close()  # degraded close abandons instead of checkpointing


def test_degraded_write_is_cleanly_unacked(tmp_path):
    engine = _open_engine(tmp_path)
    engine.put("doc", {"a": "1"})
    head_before = engine.head("doc")
    with fs_zone(FsFaultPlan(fsync_fail_rate=1.0)):
        with pytest.raises(DiskFaultError):
            engine.put("doc", {"a": "2"})
    # The failed put rolled the in-memory head back: un-acked means the
    # engine never claims the version existed.
    assert engine.head("doc") == head_before
    engine.close()


class _FullFrom(FsFaultPlan):
    """The disk fills at boundary ``fail_at``: that write and every later
    one hit ENOSPC, so an append's bounded retry runs out."""

    def decide(self, syscall, label, attempt, index):
        return "enospc" if syscall == "write" and index >= self.fail_at else None


def _heads_to_move(engine):
    """A ``doc`` whose ``ff`` can fast-forward ``master`` and whose
    ``side`` merges three ways into ``ff``, and an ``other`` key."""
    engine.put("doc", {"a": "1"})
    for branch in ("ff", "side"):
        engine.branch("doc", branch)
        engine.put("doc", {"a": "1", branch: "2"}, branch=branch)
    engine.put("other", {"x": "1"})


#: The eight ways a verb moves a head, and whether it writes chunks first.
HEAD_MOVES = {
    "put": (True, lambda engine: engine.put("doc", {"a": "9"})),
    "branch": (False, lambda engine: engine.branch("doc", "new")),
    "rename_branch": (False, lambda engine: engine.rename_branch("doc", "side", "new")),
    "delete_branch": (False, lambda engine: engine.delete_branch("doc", "side")),
    "rename": (False, lambda engine: engine.rename("other", "new")),
    "drop": (False, lambda engine: engine.drop("other")),
    "merge_fast_forward": (True, lambda engine: engine.merge("doc", "ff", "master")),
    "merge_three_way": (True, lambda engine: engine.merge("doc", "side", "ff")),
}


@pytest.mark.parametrize("verb", sorted(HEAD_MOVES))
def test_a_head_move_the_journal_cannot_take_is_cleanly_unacked(tmp_path, verb):
    # A verb that writes chunks first gets a full disk from its journal
    # write on (found by a census of a twin engine); the others get a
    # disk that takes no write at all.
    writes_chunks, move = HEAD_MOVES[verb]
    plan = FsFaultPlan(enospc_rate=1.0)
    if writes_chunks:
        twin = _open_engine(tmp_path / "census")
        _heads_to_move(twin)
        with fs_zone(FsFaultPlan()) as census:
            move(twin)
        twin.close()
        append = next(hit for hit in census.trace if (hit.kind, hit.label) == ("write", "set-head"))
        plan = _FullFrom(fail_at=append.index)
    engine = _open_engine(tmp_path)
    _heads_to_move(engine)
    heads = {key: engine.latest(key) for key in engine.keys()}
    with fs_zone(plan):
        with pytest.raises(DiskFullError):
            move(engine)
    assert engine.health().state == HEALTH_HEALTHY
    assert {key: engine.latest(key) for key in engine.keys()} == heads
    engine.close()
    with ForkBase.open(str(tmp_path / "db")) as reopened:
        assert {key: reopened.latest(key) for key in reopened.keys()} == heads


def test_reopen_recovers_from_degraded_state(tmp_path):
    engine = _open_engine(tmp_path)
    engine.put("doc", {"a": "1"})
    acked_head = engine.head("doc")
    with fs_zone(FsFaultPlan(fsync_fail_rate=1.0)):
        with pytest.raises(DiskFaultError):
            engine.put("doc", {"a": "2"})
    engine.close()
    recovered = ForkBase.open(str(tmp_path / "db"))
    assert recovered.health().state == HEALTH_HEALTHY
    assert recovered.head("doc") == acked_head
    assert recovered.verify("doc").ok
    # Writes work again on the fresh engine.
    recovered.put("doc", {"a": "3"})
    recovered.close()


def test_read_fault_while_degraded_fails_engine(tmp_path):
    # The file format probes the disk on every get; pack serves a segment
    # it has already mapped without touching the seam again.  Cacheless,
    # so the read after the put reaches the device rather than the node
    # the put remembered.
    engine = _open_engine(tmp_path, backend="file", node_cache=0)
    engine.put("doc", {"a": "1", "pad": "x" * 64})
    with fs_zone(FsFaultPlan(fsync_fail_rate=1.0)):
        with pytest.raises(DiskFaultError):
            engine.put("doc", {"a": "2"})
    assert engine.health().state == HEALTH_DEGRADED
    with fs_zone(FsFaultPlan(eio_read_rate=1.0)):
        with pytest.raises(DiskFaultError):
            engine.get_value("doc")
    assert engine.health().state == HEALTH_FAILED
    with pytest.raises(ReadOnlyError) as excinfo:
        engine.put("doc", {"a": "3"})
    assert excinfo.value.state == HEALTH_FAILED
    engine.close()


def test_enospc_leaves_engine_healthy(tmp_path):
    engine = _open_engine(tmp_path)
    engine.put("doc", {"a": "1"})
    with fs_zone(FsFaultPlan(fail_at=0, flavor="enospc")):
        engine.put("doc", {"a": "2"})  # absorbed by the bounded retry
    assert engine.health().state == HEALTH_HEALTHY
    assert engine.get_value("doc") == {b"a": b"2"}
    engine.close()


def test_targeted_flavors_cover_every_syscall():
    assert set(TARGETED_FLAVORS) == {"write", "fsync", "read", "replace"}
    shim = FaultyOS(FsFaultPlan())
    assert shim.count == 0
