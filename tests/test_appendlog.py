"""The durable-append protocol, tested once on the primitive itself.

:class:`~repro.store.appendlog.AppendLog` is what the commit journal,
FileStore and PackStore all write through, so the protocol — un-ack on a
failed write, bounded ENOSPC retry, fsyncgate recovery on a fresh
descriptor, poisoning, torn-tail truncation at open — is pinned here
under :class:`FsFaultPlan` (its ``crash`` flavor included), not once
per owner.
The owner-specific halves (index prune, ``_records`` drop) stay in ``test_fsfaults.py``; the every-boundary sweeps stay in
the torture suites.
"""

from __future__ import annotations

import os
import struct
import tempfile
from typing import List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DiskFaultError, DiskFullError, SimulatedCrash
from repro.faults import FsFaultPlan, fs_zone
from repro.store import appendlog
from repro.store.appendlog import AppendLog
from repro.vcs.journal import BATCH_INTERVAL, CommitJournal

_LEN = struct.Struct(">I")


def _record(n: int, size: int = 24) -> bytes:
    """A length-prefixed record: the simplest framing a scan can validate."""
    payload = bytes([n % 251]) * size
    return _LEN.pack(len(payload)) + payload


def _scan(path: str) -> Tuple[List[bytes], int]:
    """(whole records, last valid record boundary) — the owner's half."""
    with open(path, "rb") as handle:
        data = handle.read()
    records, offset = [], 0
    while offset + _LEN.size <= len(data):
        (length,) = _LEN.unpack_from(data, offset)
        end = offset + _LEN.size + length
        if end > len(data):
            break
        records.append(data[offset:end])
        offset = end
    return records, offset


@pytest.fixture
def path(tmp_path) -> str:
    return str(tmp_path / "log.dat")


# -- append: un-ack and retry -------------------------------------------------


def test_append_returns_offsets_and_tracks_size(path):
    log = AppendLog(path, 0)
    assert log.append(_record(1)) == 0
    assert log.append(_record(2)) == len(_record(1))
    assert log.size == len(_record(1)) + len(_record(2))
    assert log.durable_size == 0  # nothing fsynced yet
    log.close()
    assert _scan(path) == ([_record(1), _record(2)], log.size)
    assert log.durable_size == log.size


def test_short_write_unwinds_to_the_record_boundary(path):
    log = AppendLog(path, 0)
    log.append(_record(1))
    log.flush()
    boundary = log.size
    with fs_zone(FsFaultPlan(short_write_rate=1.0)) as shim:
        with pytest.raises(DiskFullError):
            log.append(_record(2, size=200))  # every bounded retry tears
    assert len(shim.injected) == 3  # attempts=3, then the error surfaces
    assert not log.poisoned
    assert log.size == boundary
    assert os.path.getsize(path) == boundary  # the torn prefix is gone
    assert log.append(_record(3)) == boundary  # and the next append lands there
    log.close()
    assert _scan(path)[0] == [_record(1), _record(3)]


@pytest.mark.parametrize("flavor", ["enospc", "short"])
def test_transient_enospc_is_absorbed_by_the_bounded_retry(path, flavor):
    log = AppendLog(path, 0)
    log.append(_record(1))
    with fs_zone(FsFaultPlan(fail_at=0, flavor=flavor)) as shim:
        offset = log.append(_record(2))
    assert [hit.fault for hit in shim.trace] == [flavor, None]
    assert offset == len(_record(1))
    assert not log.poisoned
    log.close()
    assert _scan(path)[0] == [_record(1), _record(2)]


# -- sync: fsyncgate recovery -------------------------------------------------


def test_failed_fsync_recovers_on_a_fresh_descriptor(path):
    log = AppendLog(path, 0)
    log.append(_record(1))
    log.sync()
    with fs_zone(FsFaultPlan(fail_at=2, flavor="fsync")) as shim:
        log.append(_record(2))  # boundary 0
        log.append(_record(3))  # boundary 1
        log.sync("batch")  # boundary 2: EIO, the dirty pages are dropped
        assert shim.dropped_bytes == len(_record(2)) + len(_record(3))
        assert shim.false_fsyncs == 0  # the tainted fd was never fsynced again
        assert [hit.label for hit in shim.trace][-1] == "fsync-recovery"
        assert not log.poisoned
        assert log.durable_size == log.size
        # The fresh descriptor keeps appending at the right offset.
        assert log.append(_record(4)) == 3 * len(_record(1))
        log.close()
    assert _scan(path)[0] == [_record(n) for n in (1, 2, 3, 4)]


def test_two_failed_recoveries_poison_and_name_what_to_unack(path):
    unacked: List[int] = []
    log = AppendLog(path, 0, on_unack=lambda dead: unacked.append(dead.durable_size))
    log.append(_record(1))
    log.sync()
    floor = log.size
    with fs_zone(FsFaultPlan(fsync_fail_rate=1.0)) as shim:
        log.append(_record(2))
        log.append(_record(3))
        with pytest.raises(DiskFaultError):
            log.sync()
        assert shim.false_fsyncs == 0
        fsyncs = [hit.label for hit in shim.trace if hit.kind == "fsync"]
        assert fsyncs == ["log.dat", "fsync-recovery", "fsync-recovery"]
    assert log.poisoned
    # durable_size names exactly what to un-ack: everything at or past it.
    assert log.durable_size == floor == log.size
    assert unacked == [floor]
    with pytest.raises(DiskFaultError):
        log.append(_record(4))
    with pytest.raises(DiskFaultError):
        log.check()
    log.flush()  # a released log has nothing to flush; reads keep working
    log.close()  # and closes without pretending anything became durable
    assert unacked == [floor]


def test_a_log_that_never_fsyncs_keeps_no_tail(path):
    log = AppendLog(path, 0, rewritable=False)
    for n in range(64):
        log.append(_record(n, size=1024))
    assert log._tail == [] and log._tail_bytes == 0
    # With nothing to rewrite from, a failed explicit sync cannot claim
    # recovery: it poisons at once and un-acks back to the open floor.
    with fs_zone(FsFaultPlan(fsync_fail_rate=1.0)) as shim:
        with pytest.raises(DiskFaultError):
            log.sync()
        assert [hit.label for hit in shim.trace] == ["log.dat"]  # no rewrite tried
    assert log.poisoned and log.size == log.durable_size == 0


def test_rewrite_buffer_is_bounded_by_a_forced_durable_point(path, monkeypatch):
    monkeypatch.setattr(appendlog, "TAIL_LIMIT", 4 * len(_record(0)))
    log = AppendLog(path, 0)
    with fs_zone(FsFaultPlan()) as shim:
        for n in range(12):
            log.append(_record(n))
    fsyncs = [hit.label for hit in shim.trace if hit.kind == "fsync"]
    assert fsyncs == ["tail-limit", "tail-limit"]
    assert log.durable_size == 10 * len(_record(0))
    assert log._tail_bytes == 2 * len(_record(0))
    log.close()


# -- open after recovery ------------------------------------------------------


def test_open_truncates_the_torn_tail_before_appending(path):
    log = AppendLog(path, 0)
    log.append(_record(1))
    log.abandon()
    with open(path, "ab") as handle:
        handle.write(_record(2)[:-5])  # died mid-append
    records, boundary = _scan(path)
    assert records == [_record(1)] and boundary < os.path.getsize(path)
    log = AppendLog(path, boundary)
    assert os.path.getsize(path) == boundary
    assert log.append(_record(3)) == boundary
    log.abandon()  # crash again: still no clean close
    assert _scan(path) == ([_record(1), _record(3)], boundary + len(_record(3)))


@settings(max_examples=60, deadline=None)
@given(count=st.integers(min_value=0, max_value=6), data=st.data())
def test_torn_tail_at_any_byte_offset_reopens_to_the_last_whole_record(count, data):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "log.dat")
        log = AppendLog(path, 0)
        written = [_record(n, size=8 + 5 * n) for n in range(count)]
        for blob in written:
            log.append(blob)
        log.close()
        cut = data.draw(st.integers(min_value=0, max_value=log.size))
        os.truncate(path, cut)
        survivors, boundary = _scan(path)
        assert survivors == written[: len(survivors)]
        reopened = AppendLog(path, boundary)
        assert os.path.getsize(path) == boundary <= cut
        assert reopened.append(_record(99)) == boundary
        reopened.abandon()
        assert _scan(path)[0] == survivors + [_record(99)]


# -- crashes ------------------------------------------------------------------


def test_crash_mid_append_leaves_a_tear_the_next_open_drops(path):
    log = AppendLog(path, 0)
    log.append(_record(1))
    log.flush()
    with fs_zone(FsFaultPlan(fail_at=0, seed=3, flavor="crash")):
        with pytest.raises(SimulatedCrash):
            log.append(_record(2, size=64))
    log.abandon()
    records, boundary = _scan(path)
    assert records == [_record(1)]
    assert os.path.getsize(path) > boundary  # the torn prefix is really there
    AppendLog(path, boundary).abandon()
    assert os.path.getsize(path) == boundary


def test_abandon_releases_without_syncing_and_poisons(path):
    log = AppendLog(path, 0)
    log.append(_record(1))
    with fs_zone(FsFaultPlan()) as shim:
        log.abandon()
    assert shim.count == 0  # no fsync, no write: a SIGKILL, not a close
    assert log.poisoned
    with pytest.raises(DiskFaultError):
        log.sync()
    assert _scan(path)[0] == [_record(1)]  # flushed by the OS-level close


# -- the journal's rewrite buffer (owner policy → primitive) ------------------


def test_journal_under_never_policy_retains_no_rewrite_buffer(tmp_path):
    journal = CommitJournal(str(tmp_path / "journal.wal"), fsync="never")
    for seq in range(1, 201):
        journal.append({"op": "set-head", "n": seq, "pad": "x" * 256})
    assert journal._log._tail_bytes == 0
    journal.close()
    batched = CommitJournal(str(tmp_path / "batched.wal"), fsync="batch")
    for seq in range(1, 161):
        batched.append({"op": "set-head", "n": seq})
    assert len(batched._log._tail) == 160 % BATCH_INTERVAL  # cleared at every policy fsync
    batched.close()
