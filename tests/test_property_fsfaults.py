"""Property-based fs-fault schedules: replay identity + acked ⇒ durable.

Hypothesis drives random :class:`FsFaultPlan` rate schedules over a
small engine workload and checks the two properties that make the fault
dimension usable:

1. **bit-identical replay** — the same seeded plan over the same
   workload produces the same boundary trace (stamps), the same ack
   history, the same final health, in a *different* directory;
2. **acked ⇒ durable** — whatever subset of the workload was
   acknowledged before the first surfaced fault is exactly what a
   recovery open reconstructs (modulo the one in-flight operation), and
   every surviving head passes tamper verification.

And across every schedule: a failed fsync is never retried on the same
descriptor (``false_fsyncs == 0``).
"""

from __future__ import annotations

import shutil
import tempfile
from typing import List, Optional

from hypothesis import example, given, settings, strategies as st

from repro.db.engine import HEALTH_HEALTHY, ForkBase
from repro.errors import DiskFaultError, DiskFullError
from repro.faults import FsFaultPlan, fs_zone
from tests.conftest import HeadMap, head_map, pin_clock


_rates = st.floats(min_value=0.0, max_value=0.15, allow_nan=False)

_plans = st.builds(
    FsFaultPlan,
    seed=st.integers(min_value=0, max_value=2**31),
    enospc_rate=_rates,
    short_write_rate=_rates,
    eio_read_rate=st.floats(min_value=0.0, max_value=0.05, allow_nan=False),
    fsync_fail_rate=_rates,
)


def _workload(engine: ForkBase) -> List:
    return [
        lambda: engine.put("doc", {"a": "1"}),
        lambda: engine.put("doc", {"a": "2", "pad": "x" * 32}),
        lambda: engine.branch("doc", "dev"),
        lambda: engine.put("doc", {"a": "3"}, branch="dev"),
        lambda: engine.put("blob", "payload " * 4),
    ]


def _run(directory: str, plan: FsFaultPlan):
    """One seeded run: returns (stamps, acked, status, false_fsyncs)."""
    acked: List[HeadMap] = []
    status = "completed"
    with fs_zone(plan) as shim:
        engine: Optional[ForkBase] = None
        try:
            engine = ForkBase.open(directory, fsync="always", backend="file")
            pin_clock(engine)
            acked.append(head_map(engine))
            for op in _workload(engine):
                op()
                acked.append(head_map(engine))
            engine.close()
        except (DiskFullError, DiskFaultError):
            if engine is not None:
                acked.append(head_map(engine))
                status = engine.health().state
                engine.abandon()
            else:
                status = "open-failed"
        stamps = [hit.stamp for hit in shim.trace]
        false_fsyncs = shim.false_fsyncs
    return stamps, acked, status, false_fsyncs


# The pinned example is what --hypothesis-seed=27 found while chunks were
# flushed, not fsynced, before the head over them was journaled: a failed
# fsync that recovery could not repair then un-acked chunks under a
# durable head, and the recovered head failed verification.
@settings(max_examples=15, deadline=None)
@example(plan=FsFaultPlan(seed=557, short_write_rate=0.125, fsync_fail_rate=0.125))
@given(plan=_plans)
def test_random_schedules_replay_and_recover(plan):
    first_dir = tempfile.mkdtemp(prefix="fsprop-a-")
    second_dir = tempfile.mkdtemp(prefix="fsprop-b-")
    try:
        first = _run(first_dir, plan)
        second = _run(second_dir, plan)

        # Property 1: the schedule replays bit-identically elsewhere.
        assert first == second

        stamps, acked, status, false_fsyncs = first
        # Never retry a failed fsync on the same descriptor.
        assert false_fsyncs == 0

        # Property 2: recovery (on a healthy disk) lands on the last
        # acknowledged state or the one in-flight op — never elsewhere.
        allowed = [acked[-1]] if acked else [{}]
        if len(acked) > 1:
            allowed.append(acked[-2])
        recovered = ForkBase.open(first_dir)
        assert recovered.health().state == HEALTH_HEALTHY
        state = head_map(recovered)
        if status == "completed":
            assert state == acked[-1]
        else:
            assert state in allowed
        for (key, branch) in state:
            assert recovered.verify(key, branch).ok
        recovered.put("probe", {"ok": "1"})
        recovered.close()
    finally:
        shutil.rmtree(first_dir, ignore_errors=True)
        shutil.rmtree(second_dir, ignore_errors=True)
