"""Crash torture for the segment stores' append and index boundaries.

Mirrors ``test_crash_torture`` one layer down, on both record formats: a
census run under an all-zero :class:`FsFaultPlan` lists every boundary a
store workload crosses — record appends, batch and compaction fsyncs,
and the index snapshot's write / fsync / rename — then the workload is
re-run once per write, fsync and rename under
``FsFaultPlan(fail_at=n, flavor="crash")``, which tears a write.
Recovery must serve every chunk whose batch was acknowledged,
bit-identical, and never serve wrong bytes for anything.  The rest of
the file pins pack-specific recovery by hand.

Honors ``FORKBASE_SEED`` like the chaos suite.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional, Set

import pytest

from repro.chunk import Chunk, ChunkType
from repro.errors import ChunkCorruptionError, SimulatedCrash
from repro.faults import FsFaultPlan, fs_zone
from repro.faults.fs import TARGETED_FLAVORS
from repro.faults.kernel import Boundary
from repro.store import FileStore, PackStore
from repro.store.segments import SegmentStore
from tests.conftest import fault_seed

SEED = fault_seed(20260808)

#: Fixed corpus shared by every run: 4 acknowledged batches of 9.
CHUNKS = [
    Chunk(ChunkType.BLOB, (b"torture-%03d-" % i) * (3 + i % 5)) for i in range(36)
]
BATCHES = [CHUNKS[i : i + 9] for i in range(0, 36, 9)]

LAYOUTS: Dict[str, Callable[[str], SegmentStore]] = {
    "file": lambda directory: FileStore(directory, segment_limit=2048),
    "pack": lambda directory: PackStore(directory, segment_limit=2048, compression="zlib"),
}


def _run_workload(directory: str, acked: Set[int], gone: Set[int], layout: str) -> None:
    """Batched puts, deletes, a segment compaction, more puts, close.

    ``acked`` collects the index of every chunk whose ``put_many`` batch
    returned (minus those deleted since) — the set recovery is REQUIRED
    to serve; ``gone`` the chunks whose delete a returned compaction
    made durable — the set it must NOT serve.
    """
    store: Optional[SegmentStore] = None
    try:
        store = LAYOUTS[layout](directory)
        for number, batch in enumerate(BATCHES[:3]):
            store.put_many(batch)
            acked.update(CHUNKS.index(chunk) for chunk in batch)
        # Deletes become durable at the compaction's index snapshot; until
        # compact_segments returns, a crash may resurrect them or not.
        store.delete(CHUNKS[1].uid)
        store.delete(CHUNKS[10].uid)
        acked.difference_update((1, 10))
        store.compact_segments()
        gone.update((1, 10))
        store.put_many(BATCHES[3])
        acked.update(CHUNKS.index(chunk) for chunk in BATCHES[3])
        store.close()
    except SimulatedCrash:
        if store is not None:
            store.abandon()
        raise


def _census(directory: str, layout: str) -> List[Boundary]:
    with fs_zone(FsFaultPlan(seed=SEED)) as shim:
        _run_workload(directory, set(), set(), layout)
    return list(shim.trace)


def test_census_is_deterministic(tmp_path):
    for layout in LAYOUTS:
        first = _census(str(tmp_path / f"{layout}-a"), layout)
        second = _census(str(tmp_path / f"{layout}-b"), layout)
        assert [hit.stamp for hit in first] == [hit.stamp for hit in second], layout
        index = "pack-index" if layout == "pack" else "index"
        seen = {(hit.kind, hit.label) for hit in first}
        # Every record append, labelled by its uid ...
        writes = {label for kind, label in seen if kind == "write"}
        assert {chunk.uid.short() for chunk in CHUNKS} <= writes, layout
        # ... the batch and compaction fsyncs, and each index snapshot step.
        assert {("fsync", "batch:9"), ("fsync", "compact-prep")} <= seen, layout
        assert {
            ("write", index),
            ("fsync", f"{index}.dat.tmp"),
            ("replace", f"{index}.dat"),
        } <= seen, layout


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_torture_every_crash_point(tmp_path, layout):
    census = [
        hit
        for hit in _census(str(tmp_path / "census"), layout)
        if "crash" in TARGETED_FLAVORS[hit.kind]
    ]
    assert len(census) > 60, "workload too small to be a torture test"

    for hit in census:
        boundary = hit.index
        directory = str(tmp_path / f"crash{boundary}")
        acked: Set[int] = set()
        gone: Set[int] = set()
        with pytest.raises(SimulatedCrash):
            with fs_zone(FsFaultPlan(seed=SEED, fail_at=boundary, flavor="crash")):
                _run_workload(directory, acked, gone, layout)

        store = LAYOUTS[layout](directory)
        # Required: everything acknowledged before the crash, bit-identical.
        for i in acked:
            got = store.get(CHUNKS[i].uid)
            assert got.data == CHUNKS[i].data, f"boundary {boundary}: chunk {i}"
            assert got.is_valid()
        # Forbidden: a chunk whose delete a returned compaction made durable.
        assert not [i for i in gone if store.has(CHUNKS[i].uid)], f"boundary {boundary}"
        # Forbidden: wrong bytes for ANY surviving record (in-flight
        # records may be present or absent, but never corrupt).
        for uid in store.ids():
            assert store.get(uid).is_valid(), f"boundary {boundary}"
        survivors = sorted(uid.digest for uid in store.ids())
        store.close()

        # Recovery idempotence: a second open sees the identical store.
        again = LAYOUTS[layout](directory)
        assert sorted(uid.digest for uid in again.ids()) == survivors
        again.close()


def test_durable_delete_survives_crash(tmp_path):
    """Once an index snapshot covers a delete, no crash resurrects it."""
    directory = str(tmp_path / "ps")
    with PackStore(directory) as store:
        store.put_many(CHUNKS[:9])
        store.delete(CHUNKS[0].uid)
        store.put_many(CHUNKS[9:18])  # batch snapshot makes the delete durable
    with PackStore(directory) as store:
        assert not store.has(CHUNKS[0].uid)
        for chunk in CHUNKS[1:18]:
            assert store.get(chunk.uid).data == chunk.data


def test_torn_tail_is_truncated_on_reopen(tmp_path):
    directory = str(tmp_path / "ps")
    with PackStore(directory) as store:
        store.put_many(CHUNKS[:5])
    segment = os.path.join(directory, "packs", "pack-000000.dat")
    os.remove(os.path.join(directory, "pack-index.dat"))
    intact = os.path.getsize(segment)
    with open(segment, "ab") as handle:
        handle.write(b"\x01\x00\x00")  # a torn frame
    with PackStore(directory) as store:
        for chunk in CHUNKS[:5]:
            assert store.get(chunk.uid).data == chunk.data
    assert os.path.getsize(segment) == intact  # tail physically removed


@pytest.mark.parametrize("index_survives", [True, False])
def test_append_after_torn_tail_recovery(tmp_path, index_survives):
    """Fresh appends after torn-tail truncation land at true EOF.

    Regression: the writer used to be opened (O_APPEND) before recovery
    ran, so truncating the tail left its position stale and the first
    post-recovery put was indexed at the wrong offset.  Covers both
    recovery paths: scan-from-watermark (index survives the crash) and
    full rebuild (index missing).
    """
    directory = str(tmp_path / "ps")
    with PackStore(directory) as store:
        store.put_many(CHUNKS[:5])
    segment = os.path.join(directory, "packs", "pack-000000.dat")
    if not index_survives:
        os.remove(os.path.join(directory, "pack-index.dat"))
    with open(segment, "ab") as handle:
        handle.write(b"\x01\x00\x00")  # torn frame from a crashed append
    with PackStore(directory) as store:
        store.put_many(CHUNKS[5:10])
        for chunk in CHUNKS[:10]:
            assert store.get(chunk.uid).data == chunk.data
    with PackStore(directory) as again:
        for chunk in CHUNKS[:10]:
            assert again.get(chunk.uid).data == chunk.data


def test_interior_rot_raises_on_rebuild(tmp_path):
    directory = str(tmp_path / "ps")
    with PackStore(directory) as store:
        store.put_many(CHUNKS[:5])
        offset = store._index[CHUNKS[2].uid][1]
    segment = os.path.join(directory, "packs", "pack-000000.dat")
    os.remove(os.path.join(directory, "pack-index.dat"))
    with open(segment, "r+b") as handle:
        handle.seek(offset + 50)
        byte = handle.read(1)
        handle.seek(offset + 50)
        handle.write(bytes([byte[0] ^ 0xFF]))
    with pytest.raises(ChunkCorruptionError):
        PackStore(directory)


def test_compaction_crash_leftovers_are_cleaned(tmp_path):
    """A compaction that died after its index snapshot but before the old
    segments were unlinked: reopen must finish the unlink, not resurrect
    dead records from the stale segments."""
    directory = str(tmp_path / "ps")
    store = PackStore(directory, segment_limit=1024)
    store.put_many(CHUNKS[:18])
    store.delete(CHUNKS[0].uid)
    old_segments = [
        os.path.join(directory, "packs", name)
        for name in sorted(os.listdir(os.path.join(directory, "packs")))
    ]
    saved = {path: open(path, "rb").read() for path in old_segments}
    store.compact_segments()
    store.close()
    # Resurrect the pre-compaction segment files (crash before unlink).
    for path, blob in saved.items():
        with open(path, "wb") as handle:
            handle.write(blob)
    with PackStore(directory) as reopened:
        assert not reopened.has(CHUNKS[0].uid)
        for chunk in CHUNKS[1:18]:
            assert reopened.get(chunk.uid).data == chunk.data
    for path in saved:
        assert not os.path.exists(path), "stale segment not cleaned"
