"""Recovery under ``fsync="batch"`` never returns a dangling head.

``batch`` fsyncs the chunk store and the journal only at every 64th
journal append, so a power loss or a failed fsync may lose chunks whose
head records are already in ``journal.wal``.  The contract: recovery
gives a prefix of acknowledged history, and every recovered head
verifies.  Replay enforces it with one rule — stop at the first head
whose FNode the store does not hold — which is enough because a commit
appends its FNode after every chunk of its tree, and the store's log
recovers a CRC-valid prefix of what was appended.

The rule covers only heads made since the last checkpoint, and the
engine checkpoints before gc or scrub delete chunks, so a deletion never
passes for a crash: the heads after it survive, and a deleted
checkpoint head stays, dangling, for ``verify`` to report.
"""

from __future__ import annotations

import glob
import os
import random
import shutil
from typing import Dict, List

import pytest

from repro.chunk import Uid
from repro.db.engine import HEALTH_DEGRADED, HEALTH_HEALTHY, ForkBase
from repro.errors import DiskFaultError
from repro.faults import FsFaultPlan, fs_zone
from repro.store import FileStore, PackStore
from repro.store.appendlog import TAIL_LIMIT
from repro.store.base import physical_store
from repro.store.durability import DiskInjector, install_injector
from tests.conftest import HeadMap, head_map


def _assert_prefix_that_verifies(engine: ForkBase, history: List[HeadMap]) -> None:
    """The recovered table is one of the acked states, and every head in
    it passes tamper validation."""
    state = head_map(engine)
    assert state in history, f"recovered {sorted(state)} is not a prefix of acked history"
    for key, branch in state:
        assert engine.verify(key, branch).ok, (key, branch)


class FsyncedLengths(DiskInjector):
    """The no-fault shim, remembering each file's length at its last fsync."""

    def __init__(self) -> None:
        self.synced: Dict[str, int] = {}

    def fsync_handle(self, handle, label: str = "") -> None:
        super().fsync_handle(handle, label)
        self.synced[os.path.abspath(handle.name)] = os.fstat(handle.fileno()).st_size


def _lose_power(directory: str, synced: Dict[str, int]) -> None:
    """Cut every chunk file to its fsynced length; keep ``journal.wal`` as
    written (writeback does not order two files)."""
    for root, _dirs, files in os.walk(os.path.join(directory, "chunks")):
        for name in files:
            path = os.path.abspath(os.path.join(root, name))
            os.truncate(path, synced.get(path, 0))


@pytest.mark.parametrize("backend", ["file", "pack"])
def test_power_loss_after_default_puts_recovers_no_dangling_head(tmp_path, backend):
    directory = str(tmp_path / "db")
    recorder = FsyncedLengths()
    previous = install_injector(recorder)
    history: List[HeadMap] = []
    try:
        engine = ForkBase.open(directory, backend=backend)  # fsync="batch"
        history.append(head_map(engine))
        for i in range(20):
            engine.put(f"key-{i}", {"n": str(i)})
            history.append(head_map(engine))
        engine.abandon()
    finally:
        install_injector(previous)
    _lose_power(directory, recorder.synced)

    recovered = ForkBase.open(directory)
    assert recovered.health().state == HEALTH_HEALTHY
    _assert_prefix_that_verifies(recovered, history)
    state = head_map(recovered)
    recovered.close()
    # Recovery rewrote the journal: the dropped records are gone for good.
    again = ForkBase.open(directory)
    assert head_map(again) == state
    again.close()


@pytest.mark.parametrize("backend", ["file", "pack"])
def test_failed_store_fsync_recovers_no_dangling_head(tmp_path, backend):
    """300 KB blobs under a disk whose every fsync fails: the put that
    crosses ``AppendLog.TAIL_LIMIT`` forces a store sync, recovery of
    that fsync fails too, and the store un-acks its unsynced chunks
    while their head records stay in the journal."""
    directory = str(tmp_path / "db")
    with ForkBase.open(directory, backend=backend) as engine:
        engine.put("before", {"a": "1"})
    engine = ForkBase.open(directory, backend=backend)
    history = [head_map(engine)]
    rng = random.Random(1)
    blob = 300_000
    with fs_zone(FsFaultPlan(seed=1, fsync_fail_rate=1.0)):
        with pytest.raises(DiskFaultError):
            for i in range(2 * TAIL_LIMIT // blob):
                engine.put(f"blob-{i}", rng.randbytes(blob))
                history.append(head_map(engine))
    assert len(history) > 2  # some puts were acked before the fault
    assert engine.health().state == HEALTH_DEGRADED
    # The degraded engine re-derived its table with recovery's replay...
    _assert_prefix_that_verifies(engine, history)
    running = head_map(engine)
    assert ("before", "master") in running
    engine.close()

    # ...so it serves exactly what a reopen on a healthy disk recovers.
    recovered = ForkBase.open(directory)
    assert recovered.health().state == HEALTH_HEALTHY
    assert head_map(recovered) == running
    _assert_prefix_that_verifies(recovered, history)
    recovered.close()


@pytest.mark.parametrize("backend", ["file", "pack"])
def test_a_commit_appends_its_fnode_after_its_tree(tmp_path, backend):
    """Why a present FNode implies its whole tree: every chunk a commit
    writes lands in the store's log before the FNode that names them."""
    with ForkBase.open(str(tmp_path / "db"), backend=backend, node_cache=0) as engine:
        values = [
            {f"k{i:04d}": "v" * 40 for i in range(600)},
            [f"item-{i}" for i in range(900)],
            random.Random(2).randbytes(40_000),
        ]
        for n, value in enumerate(values):
            head = engine.put(f"value-{n}", value).uid
            index = physical_store(engine.store)._index
            assert index[head][:2] == max(location[:2] for location in index.values())


@pytest.mark.parametrize("backend", ["file", "pack"])
def test_any_cut_of_the_chunk_log_recovers_heads_that_verify(tmp_path, backend):
    """Cut the unsynced tail of the chunk log anywhere: a head survives
    exactly when its FNode does, and then its whole tree is there."""
    source = str(tmp_path / "source")
    with ForkBase.open(source, backend=backend) as engine:
        engine.put("base", {"a": "1"})
    engine = ForkBase.open(source, backend=backend)
    (segment,) = glob.glob(os.path.join(source, "chunks", "*", "*-*.dat"))
    synced = os.path.getsize(segment)
    history = [head_map(engine)]
    ends = []
    for n in range(3):
        engine.put("doc", {f"k{i:04d}": f"v{n}" * 20 for i in range(300)})
        history.append(head_map(engine))
        ends.append(os.path.getsize(segment))
    engine.abandon()
    step = max(1, (ends[-1] - synced) // 40)
    cuts = set(range(synced, ends[-1], step)) | set(ends) | {end - 1 for end in ends}
    recovered_docs = set()
    for cut in sorted(cuts):
        directory = str(tmp_path / f"cut{cut}")
        shutil.copytree(source, directory)
        os.truncate(os.path.join(directory, os.path.relpath(segment, source)), cut)
        recovered = ForkBase.open(directory, backend=backend)
        _assert_prefix_that_verifies(recovered, history)
        recovered_docs.add(head_map(recovered).get(("doc", "master")))
        recovered.close()
    assert recovered_docs == {None} | {state[("doc", "master")] for state in history[1:]}


def _rot(engine: ForkBase, uid: Uid) -> None:
    """Flip the last byte of ``uid``'s record in its segment file."""
    store = physical_store(engine.store)
    location = store._index[uid]
    end = location[1] + len(store._record_at(location))
    with open(store._segment_path(location[0]), "r+b") as handle:
        handle.seek(end - 1)
        byte = handle.read(1)
        handle.seek(end - 1)
        handle.write(bytes([byte[0] ^ 0xFF]))


def _land_index(engine: ForkBase) -> None:
    """Make the store's deletions durable, as the next batch put's or
    compaction's index snapshot would."""
    physical_store(engine.store)._save_index()


@pytest.mark.parametrize("compact", [False, True])
@pytest.mark.parametrize("backend", ["file", "pack"])
def test_gc_then_a_crash_keeps_every_later_head(tmp_path, backend, compact):
    """gc sweeps the FNode of a dropped key that the journal still names;
    the heads journaled after the sweep must survive a crash."""
    directory = str(tmp_path / "db")
    engine = ForkBase.open(directory, backend=backend)
    engine.put("base", {"a": "1"})
    swept = engine.put("k", {"k": "1"}).uid
    engine.drop("k")
    engine.collect_garbage(compact=compact)
    assert not engine.store.has(swept)
    if not compact:
        _land_index(engine)
    engine.put("j", {"j": "1"})
    expected = head_map(engine)
    engine.abandon()

    recovered = ForkBase.open(directory)
    assert head_map(recovered) == expected
    _assert_prefix_that_verifies(recovered, [expected])
    recovered.close()


@pytest.mark.parametrize("backend", ["file", "pack"])
def test_gc_then_a_degrading_fault_keeps_every_later_head(tmp_path, backend):
    directory = str(tmp_path / "db")
    engine = ForkBase.open(directory, backend=backend, fsync="always")
    engine.put("base", {"a": "1"})
    engine.put("k", {"k": "1"})
    engine.drop("k")
    engine.collect_garbage()
    engine.put("j", {"j": "1"})
    expected = head_map(engine)
    with fs_zone(FsFaultPlan(seed=1, fsync_fail_rate=1.0)):
        with pytest.raises(DiskFaultError):
            engine.put("x", {"x": "1"})
    assert engine.health().state == HEALTH_DEGRADED
    assert head_map(engine) == expected
    engine.close()

    recovered = ForkBase.open(directory)
    assert head_map(recovered) == expected
    _assert_prefix_that_verifies(recovered, [expected])
    recovered.close()


@pytest.mark.parametrize("backend", ["file", "pack"])
def test_a_deleted_checkpoint_head_dangles_and_the_rest_survive(tmp_path, backend):
    """A checkpoint is written after the store syncs, so a checkpoint
    head whose FNode is gone was deleted, not lost in a crash: it stays
    for ``verify`` to report, and no other head goes with it."""
    directory = str(tmp_path / "db")
    with ForkBase.open(directory, backend=backend) as engine:
        first = engine.put("a", {"a": "1"}).uid
        engine.put("b", {"b": "1"})
        expected = head_map(engine)
    store = {"file": FileStore, "pack": PackStore}[backend](os.path.join(directory, "chunks"))
    assert store.delete(first)
    store.close()

    recovered = ForkBase.open(directory)
    assert head_map(recovered) == expected
    assert not recovered.verify("a").ok
    assert recovered.verify("b").ok
    recovered.close()


@pytest.mark.parametrize("backend", ["file", "pack"])
def test_scrub_quarantining_a_head_keeps_every_later_head(tmp_path, backend):
    """Scrub deletes a rotten FNode the journal names: after a crash the
    head dangles, and the heads journaled after the scrub survive."""
    directory = str(tmp_path / "db")
    engine = ForkBase.open(directory, backend=backend, node_cache=0)
    engine.put("base", {"a": "1"})
    rotten = engine.put("k", {"k": "1"}).uid
    _rot(engine, rotten)
    assert engine.scrub().corrupt_uids == [rotten]
    _land_index(engine)
    engine.put("j", {"j": "1"})
    expected = head_map(engine)
    engine.abandon()

    recovered = ForkBase.open(directory)
    assert head_map(recovered) == expected
    assert not recovered.verify("k").ok
    assert recovered.verify("base").ok and recovered.verify("j").ok
    recovered.close()
