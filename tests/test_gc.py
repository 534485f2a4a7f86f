"""Tests for mark-and-sweep garbage collection (repro.store.gc)."""

import shutil

import pytest

from repro.api import cli
from repro.db import ForkBase
from repro.db.engine import HEALTH_HEALTHY
from repro.errors import SimulatedCrash, StoreError
from repro.faults import FsFaultPlan, fs_zone
from repro.faults.fs import TARGETED_FLAVORS
from repro.security import Verifier
from repro.store import physical_store
from repro.store.gc import collect_garbage, mark_live
from tests.conftest import head_map


@pytest.fixture
def engine_with_garbage():
    """An engine where old heads became unreachable via branch deletion."""
    engine = ForkBase(clock=lambda: 0.0)
    engine.put("keep", {f"k{i:03d}": "v" for i in range(500)})
    engine.put("doomed", {f"d{i:03d}": "x" * 50 for i in range(500)})
    engine.branch("doomed", "side")
    engine.put("doomed", {f"d{i:03d}": "y" * 50 for i in range(500)}, branch="side")
    # Drop every reference to the 'doomed' object's versions.
    engine.delete_branch("doomed", "side")
    engine.delete_branch("doomed", "master")
    return engine


class TestMarkLive:
    def test_marks_value_tree_and_history(self, engine):
        engine.put("k", {"a": "1"})
        engine.put("k", {"a": "2"})
        live = mark_live(engine.store, [engine.head("k")])
        # Head FNode + parent FNode + two value roots at minimum.
        assert len(live) >= 4
        assert engine.head("k") in live

    def test_empty_roots(self, engine):
        engine.put("k", "v")
        assert mark_live(engine.store, []) == set()


class TestCollect:
    def test_dry_run_measures_without_sweeping(self, engine_with_garbage):
        engine = engine_with_garbage
        before = len(engine.store)
        report = collect_garbage(engine, dry_run=True)
        assert report.swept_chunks > 0
        assert report.reclaim_fraction > 0
        assert len(engine.store) == before

    def test_sweep_removes_only_garbage(self, engine_with_garbage):
        engine = engine_with_garbage
        report = collect_garbage(engine)
        assert report.swept_chunks > 0
        # Live data still fully readable and verifiable.
        assert engine.get_value("keep")[b"k000"] == b"v"
        assert Verifier(engine.store).verify_version(engine.head("keep")).ok

    def test_sweep_is_idempotent(self, engine_with_garbage):
        engine = engine_with_garbage
        collect_garbage(engine)
        second = collect_garbage(engine)
        assert second.swept_chunks == 0

    def test_nothing_swept_when_all_live(self, engine):
        engine.put("k", {"a": "1"})
        report = collect_garbage(engine)
        assert report.swept_chunks == 0
        assert report.live_chunks == len(engine.store)

    def test_shared_pages_survive_partial_deletion(self, engine):
        """Pages shared between a deleted branch and a live one stay."""
        engine.put("k", {f"r{i:04d}": "data" for i in range(2000)})
        engine.branch("k", "dying")
        engine.put(
            "k",
            {**{f"r{i:04d}": "data" for i in range(2000)}, "extra": "1"},
            branch="dying",
        )
        engine.delete_branch("k", "dying")
        collect_garbage(engine)
        assert engine.get_value("k")[b"r0000"] == b"data"
        assert Verifier(engine.store).verify_version(engine.head("k")).ok

    def test_extra_roots_pin_chunks(self, engine_with_garbage):
        engine = engine_with_garbage
        # Recover one doomed head uid first (before sweeping).
        all_uids = set(engine.store.ids())
        report_dry = collect_garbage(engine, dry_run=True)
        from repro.chunk import ChunkType

        doomed_fnodes = [
            uid
            for uid in all_uids
            if engine.store.get(uid).type == ChunkType.FNODE
            and uid not in mark_live(
                engine.store,
                [h for _, _, h in engine.heads.table.all_heads()],
            )
        ]
        pinned = doomed_fnodes[0]
        report = collect_garbage(engine, extra_roots=[pinned])
        assert engine.store.has(pinned)
        assert report.swept_chunks < report_dry.swept_chunks


def _durable_engine_with_garbage(directory, backend):
    engine = ForkBase.open(directory, backend=backend)
    engine.put("keep", {f"k{i:03d}": "v" for i in range(500)})
    engine.put("doomed", {f"d{i:03d}": "x" * 50 for i in range(500)})
    engine.delete_branch("doomed", "master")
    return engine


class TestCompaction:
    def test_compact_copies_only_live(self, tmp_path):
        for backend in ("file", "pack"):
            directory = str(tmp_path / backend)
            with _durable_engine_with_garbage(directory, backend) as engine:
                report = collect_garbage(engine, compact=True)
                assert report.swept_chunks > 0
                assert len(engine.store) == report.live_chunks
                keep = engine.head("keep")
            # The compacted layout alone serves the live data after reopen.
            with ForkBase.open(directory) as reopened:
                assert set(reopened.store.ids()) == mark_live(reopened.store, [keep])
                assert reopened.get_value("keep")[b"k000"] == b"v"
                assert Verifier(reopened.store).verify_version(keep).ok

    def test_compact_to_file_store(self, tmp_path):
        # The default file layout sweeps and compacts in place, as pack does.
        directory = str(tmp_path / "db")
        with _durable_engine_with_garbage(directory, "file") as engine:
            segments = physical_store(engine.store)
            before = segments.disk_size()
            report = collect_garbage(engine, compact=True)
            assert report.compacted_bytes == before - segments.disk_size() > 0
            assert (tmp_path / "db" / "chunks" / "segments").is_dir()
            assert not (tmp_path / "db" / "chunks.compact").exists()
            assert Verifier(engine.store).verify_version(engine.head("keep")).ok


def _populate(directory, backend="auto"):
    """Twenty puts over four keys plus one dropped object (gc's garbage);
    returns the heads and values every later reopen must still serve."""
    with ForkBase.open(directory, backend=backend) as engine:
        for n in range(20):
            engine.put(f"k{n % 4}", {"n": str(n), "pad": "x" * 40})
        engine.put("dead", {"gone": "y" * 40})
        engine.delete_branch("dead", "master")
        values = {key: engine.get_value(key) for key in engine.keys()}
        heads = head_map(engine)
    return heads, values


def _assert_recovers(directory, heads, values, context):
    with ForkBase.open(directory) as recovered:
        assert recovered.health().state == HEALTH_HEALTHY, context
        assert head_map(recovered) == heads, context
        for key, branch in heads:
            assert recovered.verify(key, branch).ok, context
            assert recovered.get_value(key, branch=branch) == values[key], context


class TestGcUnderDiskFaults:
    """``forkbase gc`` on a default directory, faulted at each disk boundary.

    Census first (an all-zero plan lists every write / fsync / read /
    replace boundary the command crosses), then one run per boundary
    with exactly that boundary faulted.  Whatever the command reports,
    the directory must reopen healthy with every head verifying and
    reading back: gc may fail, but it may not lose a live chunk.
    """

    @pytest.fixture(scope="class")
    def populated(self, tmp_path_factory):
        directory = str(tmp_path_factory.mktemp("gc-faults") / "db")
        return (directory, *_populate(directory))

    def _gc(self, source, directory, plan):
        shutil.copytree(source, directory)
        with fs_zone(plan) as shim:
            try:
                cli.main(["--data-dir", directory, "gc"])
            except StoreError:
                pass  # faults in open() and close() escape main's handler
        return shim

    def test_every_boundary_keeps_every_head(self, populated, tmp_path):
        source, heads, values = populated
        census = list(self._gc(source, str(tmp_path / "census"), FsFaultPlan()).trace)
        assert {hit.kind for hit in census} == {"write", "fsync", "read", "replace"}
        for hit in census:
            # Disk errors only: a crash has no survivor whose gc to check.
            flavors = [flavor for flavor in TARGETED_FLAVORS[hit.kind] if flavor != "crash"]
            flavor = flavors[hit.index % len(flavors)]
            directory = str(tmp_path / f"b{hit.index}")
            shim = self._gc(source, directory, FsFaultPlan(fail_at=hit.index, flavor=flavor))
            context = f"boundary {hit.index} ({hit.kind}/{flavor} {hit.label})"
            assert shim.false_fsyncs == 0, context
            _assert_recovers(directory, heads, values, context)
            shutil.rmtree(directory)

    @pytest.mark.parametrize("backend", ["file", "pack"])
    def test_a_crash_at_every_boundary_ends_the_process(self, tmp_path, monkeypatch, backend):
        """A crash anywhere in ``forkbase gc`` — open, sweep, compaction,
        checkpoint or close — escapes ``main`` instead of becoming exit
        code 1, and ``main`` abandons the engine instead of closing it, so
        nothing more is persisted.  What the dead process left reopens with
        every head verifying."""
        source = str(tmp_path / "source")
        heads, values = _populate(source, backend)
        census = self._gc(source, str(tmp_path / "census"), FsFaultPlan()).trace
        crashable = [hit for hit in census if "crash" in TARGETED_FLAVORS[hit.kind]]
        assert {hit.kind for hit in crashable} == {"write", "fsync", "replace"}
        opened = []
        real_open = ForkBase.open

        def recording_open(*args, **kwargs):
            opened.append(real_open(*args, **kwargs))
            return opened[-1]

        for hit in crashable:
            directory = str(tmp_path / f"b{hit.index}")
            shutil.copytree(source, directory)
            context = f"{backend} boundary {hit.index} ({hit.kind} {hit.label})"
            with fs_zone(FsFaultPlan(fail_at=hit.index, flavor="crash")) as shim:
                with monkeypatch.context() as patch, pytest.raises(SimulatedCrash) as excinfo:
                    patch.setattr(cli.ForkBase, "open", recording_open)
                    cli.main(["--data-dir", directory, "gc"])
            assert excinfo.value.boundary == hit.index, context
            # Dead: past the crash, the process crossed no write, fsync or rename.
            assert {b.kind for b in shim.trace[hit.index + 1 :]} <= {"read"}, context
            # The OS closes a killed process's files.
            while opened:
                opened.pop().abandon()
            _assert_recovers(directory, heads, values, context)
            shutil.rmtree(directory)
