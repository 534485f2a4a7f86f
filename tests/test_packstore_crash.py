"""Crash-point torture for the pack store's append and index boundaries.

Mirrors ``test_crash_torture`` one layer down: a census run counts every
durability boundary a pack workload crosses — record appends
(``pack-write``), batch fsyncs (``pack-fsync``), and the three index
snapshot steps (``packindex-write`` / ``-fsync`` / ``-replace``) — then
the workload is re-run once per boundary under ``CrashPlan(crash_at=n)``
with torn writes.  Recovery must serve every chunk whose batch was
acknowledged, bit-identical, and never serve wrong bytes for anything.

Honors ``FORKBASE_SEED`` like the chaos suite.
"""

from __future__ import annotations

import os
from typing import List, Optional, Set

import pytest

from repro.chunk import Chunk, ChunkType
from repro.errors import ChunkCorruptionError, SimulatedCrash
from repro.faults import CrashPlan, crash_zone
from repro.store import PackStore
from tests.conftest import fault_seed

SEED = fault_seed(20260808)

#: Fixed corpus shared by every run: 4 acknowledged batches of 9.
CHUNKS = [
    Chunk(ChunkType.BLOB, (b"torture-%03d-" % i) * (3 + i % 5)) for i in range(36)
]
BATCHES = [CHUNKS[i : i + 9] for i in range(0, 36, 9)]


def _run_workload(directory: str, acked: Set[int]) -> None:
    """Batched puts, deletes, a segment compaction, more puts, close.

    ``acked`` collects the index of every chunk whose ``put_many`` batch
    returned (minus those whose delete was later made durable) — the set
    recovery is REQUIRED to serve.
    """
    store: Optional[PackStore] = None
    try:
        store = PackStore(directory, segment_limit=2048, compression="zlib")
        for number, batch in enumerate(BATCHES[:3]):
            store.put_many(batch)
            acked.update(CHUNKS.index(chunk) for chunk in batch)
        # Deletes becomes durable at the compaction's index snapshot;
        # until then a crash may legitimately resurrect them.
        store.delete(CHUNKS[1].uid)
        store.delete(CHUNKS[10].uid)
        store.compact_segments()
        acked.discard(1)
        acked.discard(10)
        store.put_many(BATCHES[3])
        acked.update(CHUNKS.index(chunk) for chunk in BATCHES[3])
        store.close()
    except SimulatedCrash:
        if store is not None:
            store.abandon()
        raise


def _census(directory: str) -> List[str]:
    with crash_zone(CrashPlan(seed=SEED)) as clock:
        _run_workload(directory, set())
    return [hit.stamp for hit in clock.trace]


def test_census_is_deterministic(tmp_path):
    first = _census(str(tmp_path / "a"))
    second = _census(str(tmp_path / "b"))
    assert first == second
    with crash_zone(CrashPlan(seed=SEED)) as clock:
        _run_workload(str(tmp_path / "c"), set())
    kinds = {hit.kind for hit in clock.trace}
    assert kinds == {
        "pack-write",
        "pack-fsync",
        "packindex-write",
        "packindex-fsync",
        "packindex-replace",
    }


def test_torture_every_crash_point(tmp_path):
    total = len(_census(str(tmp_path / "census")))
    assert total > 60, "workload too small to be a torture test"

    for boundary in range(total):
        directory = str(tmp_path / f"crash{boundary}")
        acked: Set[int] = set()
        with pytest.raises(SimulatedCrash):
            with crash_zone(CrashPlan(crash_at=boundary, seed=SEED)):
                _run_workload(directory, acked)

        store = PackStore(directory)
        # Required: everything acknowledged before the crash, bit-identical.
        for i in acked:
            got = store.get(CHUNKS[i].uid)
            assert got.data == CHUNKS[i].data, f"boundary {boundary}: chunk {i}"
            assert got.is_valid()
        # Forbidden: wrong bytes for ANY surviving record (in-flight
        # records may be present or absent, but never corrupt).
        for uid in store.ids():
            assert store.get(uid).is_valid(), f"boundary {boundary}"
        survivors = sorted(uid.digest for uid in store.ids())
        store.close()

        # Recovery idempotence: a second open sees the identical store.
        again = PackStore(directory)
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
