"""Disk-fault torture: fault *every* filesystem boundary, every flavor.

The same census-then-target recipe as ``test_crash_torture.py``, with
every flavor but ``crash``, so the process survives: a census run under
an all-zero :class:`FsFaultPlan` enumerates every write / fsync / read /
replace boundary the workload crosses, then each boundary is re-run with
a targeted fault.  The
invariant is the robustness contract of ISSUE 7:

- **acked ⇒ durable after recovery** — every operation that returned
  normally is visible after reopen;
- **not-acked ⇒ cleanly absent** — a faulted operation either never
  happened or (when the fault hit *after* its journal ack, e.g. during
  compaction) is fully present; never half-applied;
- a failed fsync is never retried on the same descriptor
  (``shim.false_fsyncs == 0`` across the whole sweep);
- a degraded engine serves reads and refuses writes with
  :class:`~repro.errors.ReadOnlyError`; reopen restores full health.

Honors ``FORKBASE_SEED``; set ``FORKBASE_FSFAULT_FULL=1`` to
cross every boundary with *every* eligible flavor instead of the
deterministic rotation (slower, same coverage over time).
"""

from __future__ import annotations

import os
from typing import List, Optional, Tuple

import pytest

from repro.db.engine import HEALTH_DEGRADED, HEALTH_HEALTHY, ForkBase
from repro.errors import DiskFaultError, DiskFullError, ReadOnlyError
from repro.faults import FsFaultPlan, fs_zone
from repro.faults.fs import TARGETED_FLAVORS
from repro.faults.kernel import Boundary
from tests.conftest import HeadMap, fault_seed, head_map, pin_clock

SEED = fault_seed(20260805)
FULL = os.environ.get("FORKBASE_FSFAULT_FULL") == "1"

#: Small enough that the workload triggers journal compaction (checkpoint
#: write + fsync + rename of ``journal.wal``) at least once.
JOURNAL_LIMIT = 600

BACKENDS = ("file", "pack")


def _ops(engine: ForkBase) -> List:
    """Every journaled verb, with enough volume for one compaction."""
    return [
        lambda: engine.put("doc", {"a": "1"}),
        lambda: engine.put("doc", {"a": "2", "pad": "x" * 48}),
        lambda: engine.branch("doc", "dev"),
        lambda: engine.put("doc", {"a": "3", "pad": "y" * 48}, branch="dev"),
        lambda: engine.put("doc", {"a": "2", "b": "1", "pad": "x" * 48}),
        lambda: engine.merge("doc", "dev", "master"),  # three-way
        lambda: engine.merge("doc", "master", "dev"),  # fast-forward
        lambda: engine.rename_branch("doc", "dev", "stable"),
        lambda: engine.delete_branch("doc", "stable"),
        lambda: engine.put("blob", "payload " * 6),
        lambda: engine.rename("blob", "data"),
        lambda: engine.put("bulk", {"i": "0", "pad": "z" * 64}),
        lambda: engine.put("bulk", {"i": "1", "pad": "z" * 64}),
        lambda: engine.put("bulk", {"i": "2", "pad": "z" * 64}),
        lambda: engine.drop("bulk"),
    ]


def _run_workload(
    directory: str, acked: List[HeadMap], backend: str
) -> Tuple[str, Optional[ForkBase]]:
    """Run the workload; snapshot heads after every acknowledged op.

    Returns ``(status, engine)`` with status ``"completed"`` (clean
    close), ``"faulted"`` (a classified disk error surfaced mid-workload
    or at close; ``acked[-1]`` is then the engine's in-memory state, the
    in-flight op may or may not be on disk), or ``"open-failed"``.
    """
    try:
        # Cacheless: every node read crosses the device seam, so the census
        # counts every read boundary the workload can fault.
        engine = ForkBase.open(
            directory,
            fsync="always",
            journal_limit=JOURNAL_LIMIT,
            backend=backend,
            node_cache=0,
        )
    except (DiskFullError, DiskFaultError):
        return "open-failed", None
    pin_clock(engine)
    acked.append(head_map(engine))
    try:
        for op in _ops(engine):
            op()
            acked.append(head_map(engine))
        engine.close()
        return "completed", engine
    except (DiskFullError, DiskFaultError):
        acked.append(head_map(engine))
        return "faulted", engine


def _census(directory: str, backend: str) -> List[Boundary]:
    with fs_zone(FsFaultPlan(seed=SEED)) as shim:
        status, _ = _run_workload(directory, [], backend)
    assert status == "completed"
    return list(shim.trace)


@pytest.mark.parametrize("backend", BACKENDS)
def test_census_is_deterministic(tmp_path, backend):
    first = _census(str(tmp_path / "a"), backend)
    second = _census(str(tmp_path / "b"), backend)
    assert [hit.stamp for hit in first] == [hit.stamp for hit in second]
    # The workload must cross every syscall kind the shim can fault.
    assert {hit.kind for hit in first} == {"write", "fsync", "read", "replace"}


def _flavors_for(hit: Boundary) -> Tuple[str, ...]:
    # A crash kills the process, so it has no survivor to check here: the
    # reopen after one is test_crash_torture.py's invariant.
    flavors = tuple(flavor for flavor in TARGETED_FLAVORS[hit.kind] if flavor != "crash")
    if FULL or len(flavors) == 1:
        return flavors
    # Deterministic rotation: each boundary gets one flavor, every flavor
    # lands on many boundaries — full cross product via FORKBASE_FSFAULT_FULL.
    return (flavors[hit.index % len(flavors)],)


@pytest.mark.parametrize("backend", BACKENDS)
def test_torture_every_fs_boundary(tmp_path, backend):
    census = _census(str(tmp_path / "census"), backend)
    assert len(census) > 60, "workload too small to be a torture test"

    for hit in census:
        for flavor in _flavors_for(hit):
            directory = str(tmp_path / f"b{hit.index}-{flavor}")
            acked: List[HeadMap] = []
            with fs_zone(
                FsFaultPlan(seed=SEED, fail_at=hit.index, flavor=flavor)
            ) as shim:
                status, engine = _run_workload(directory, acked, backend)
                context = f"boundary {hit.index} ({hit.kind}/{flavor}, {backend})"
                # The library must never fsync a descriptor whose previous
                # fsync failed: the kernel would falsely report success.
                assert shim.false_fsyncs == 0, context
                if status == "faulted":
                    assert engine is not None
                    if engine.health().state == HEALTH_DEGRADED:
                        # Degraded mode: reads serve, writes refuse.  (A
                        # fault *during close* degrades after the store is
                        # already shut; reads are only owed before that.)
                        state = head_map(engine)
                        store_open = not getattr(engine.store, "_closed", False)
                        if ("doc", "master") in state and store_open:
                            assert engine.get("doc") is not None, context
                        with pytest.raises(ReadOnlyError):
                            engine.put("doc", {"a": "rejected"})
                    engine.abandon()

            # Recovery happens on a healthy disk (outside the zone).
            allowed = [acked[-1]] if acked else [{}]
            if len(acked) > 1:
                allowed.append(acked[-2])
            recovered = ForkBase.open(directory)
            state = head_map(recovered)
            assert recovered.health().state == HEALTH_HEALTHY, context
            if status == "completed":
                # Nothing faulted after the last ack: recovery is exact.
                assert state == acked[-1], context
            else:
                assert state in allowed, (
                    f"{context}: recovered {sorted(state)} is neither the "
                    f"acknowledged state nor the in-flight one"
                )
            for (key, branch) in state:
                assert recovered.verify(key, branch).ok, context
            # A recovered engine is fully writable again.
            recovered.put("probe", {"ok": "1"})
            recovered.close()

            # Recovery reaches a fixed point: reopening changes nothing.
            again = ForkBase.open(directory)
            assert ("probe", "master") in head_map(again), context
            again.close()
