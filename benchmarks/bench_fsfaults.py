"""Disk-fault economics — degraded reads, fsync recovery, reopen cost.

Quantifies what the fs-fault machinery (ISSUE 7) costs when nothing is
wrong and what recovery costs when something is:

- ``degraded_read``   — get throughput on a healthy engine vs one demoted
  to DEGRADED_READ_ONLY by a write-path disk fault: the health check is a
  branch, so the two should be within noise of each other.
- ``fsync_rewrite``   — batched put throughput clean vs with one injected
  fsync failure (fresh-descriptor truncate + tail rewrite): the price of
  never retrying a failed fsync on the same descriptor.
- ``fault_reopen``    — recovery open (journal replay) of a directory a
  degraded engine abandoned mid-workload.

Results go to the pytest-benchmark table, ``benchmarks/out/`` and the
machine-readable ``BENCH_robustness.json`` at the repo root.

Knobs (for CI smoke runs): ``BENCH_FSFAULT_DOCS`` (default 200),
``BENCH_FSFAULT_CHUNKS`` (default 400).
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile

import pytest

from benchmarks.conftest import report, table
from repro.chunk import Chunk, ChunkType
from repro.db.engine import HEALTH_DEGRADED, ForkBase
from repro.errors import DiskFaultError
from repro.faults import FsFaultPlan, fs_zone
from repro.store.filestore import FileStore

DOCS = int(os.environ.get("BENCH_FSFAULT_DOCS", "200"))
CHUNKS = int(os.environ.get("BENCH_FSFAULT_CHUNKS", "400"))

JSON_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_robustness.json")


def _record(section: str, entry: dict, sub: str | None = None) -> None:
    """Merge one measurement into BENCH_robustness.json (read-modify-write)."""
    data = {}
    if os.path.exists(JSON_PATH):
        with open(JSON_PATH, encoding="utf-8") as fh:
            data = json.load(fh)
    data.setdefault("config", {}).update(
        {"fsfault_docs": DOCS, "fsfault_chunks": CHUNKS}
    )
    if sub is None:
        data[section] = entry
    else:
        bucket = data.setdefault(section, {})
        bucket[sub] = entry
        if "healthy" in bucket and "degraded" in bucket:
            bucket["overhead"] = round(
                bucket["degraded"]["seconds"] / bucket["healthy"]["seconds"], 3
            )
        if "clean" in bucket and "one_fsync_fault" in bucket:
            bucket["overhead"] = round(
                bucket["one_fsync_fault"]["seconds"] / bucket["clean"]["seconds"], 3
            )
    with open(JSON_PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    rows = []
    for name, value in sorted(data.items()):
        if name == "config":
            continue
        flat = value.items() if "seconds" not in value else [("", value)]
        for key, row in flat:
            if isinstance(row, dict):
                rate = row.get("mb_per_s") or row.get("per_s") or ""
                rows.append((name, key, row["seconds"], rate))
    report("bench_fsfaults", table(("metric", "variant", "seconds", "rate"), rows))


def _bench(benchmark, fn, setup=None):
    if setup is None:
        benchmark.pedantic(fn, rounds=3, iterations=1, warmup_rounds=1)
    else:
        benchmark.pedantic(fn, setup=setup, rounds=3, iterations=1)
    return benchmark.stats.stats.min


def _chunks(count: int):
    return [
        Chunk(ChunkType.BLOB, b"payload-%06d-" % n + b"x" * 128) for n in range(count)
    ]


@pytest.fixture()
def workdir():
    directory = tempfile.mkdtemp(prefix="bench-fsfault-")
    yield directory
    shutil.rmtree(directory, ignore_errors=True)


def _populated_engine(directory: str) -> ForkBase:
    # fsync="always": every put crosses a journal-fsync boundary, so the
    # injected fsync failure in _degrade is guaranteed to fire.  Cacheless,
    # so every timed read crosses the device seam the health check guards.
    engine = ForkBase.open(directory, backend="file", fsync="always", node_cache=0)
    for n in range(DOCS):
        engine.put(f"doc-{n % 20}", {"n": str(n), "pad": "x" * 64})
    return engine


def _degrade(engine: ForkBase) -> None:
    with fs_zone(FsFaultPlan(fsync_fail_rate=1.0)):
        try:
            engine.put("doomed", {"x": "y"})
        except DiskFaultError:
            pass
    assert engine.health().state == HEALTH_DEGRADED


def _read_all(engine: ForkBase) -> int:
    total = 0
    for n in range(20):
        total += len(engine.get_value(f"doc-{n}"))
    return total


@pytest.mark.parametrize("state", ["healthy", "degraded"])
def test_degraded_read_overhead(benchmark, workdir, state):
    engine = _populated_engine(workdir)
    if state == "degraded":
        _degrade(engine)
    seconds = _bench(benchmark, lambda: _read_all(engine))
    engine.abandon()
    _record(
        "degraded_read",
        {"seconds": round(seconds, 6), "per_s": round(20 / seconds, 1)},
        sub=state,
    )


@pytest.mark.parametrize("variant", ["clean", "one_fsync_fault"])
def test_fsync_recovery_rewrite_cost(benchmark, workdir, variant):
    chunks = _chunks(CHUNKS)

    def setup():
        directory = tempfile.mkdtemp(prefix="bench-fsync-", dir=workdir)
        return (FileStore(os.path.join(directory, "chunks")),), {}

    def clean(store):
        store.put_many(chunks)
        store.close()

    def faulted(store):
        # The batch fsync (boundary == CHUNKS) fails once: the store must
        # reopen a fresh descriptor, truncate, and rewrite the tail.
        with fs_zone(FsFaultPlan(fail_at=len(chunks), flavor="fsync")) as shim:
            store.put_many(chunks)
            assert shim.dropped_bytes > 0 and shim.false_fsyncs == 0
        store.close()

    fn = clean if variant == "clean" else faulted
    seconds = _bench(benchmark, fn, setup=setup)
    _record(
        "fsync_rewrite",
        {"seconds": round(seconds, 6), "per_s": round(CHUNKS / seconds, 1)},
        sub=variant,
    )


def test_reopen_after_fault(benchmark, workdir):
    engine = _populated_engine(workdir)
    _degrade(engine)
    engine.close()  # degraded close abandons: recovery is the next open

    def reopen():
        recovered = ForkBase.open(workdir)
        count = len(recovered.keys())
        recovered.abandon()  # leave the directory untouched between rounds
        return count

    seconds = _bench(benchmark, reopen)
    _record(
        "fault_reopen",
        {"seconds": round(seconds, 6), "replayed_ops": DOCS + 1},
    )
