"""Crash → reopen → append → crash again, with no index snapshot in between.

The regression behind the shared :class:`~repro.store.appendlog.AppendLog`:
an owner that reopens over a torn tail must truncate it *before* it opens
its writer, or the records it acks next land behind the garbage — and the
next index-less reopen stops scanning at the garbage, losing every acked
record after it (and, for FileStore, indexing whatever the garbage happens
to frame).  One script, all three owners of the durable-append protocol.
"""

from __future__ import annotations

import os
import struct

import pytest

from repro.chunk import Chunk, ChunkType
from repro.store.filestore import FileStore
from repro.store.packstore import PackStore
from repro.vcs.journal import CommitJournal


def _chunk(tag: bytes) -> Chunk:
    return Chunk(ChunkType.BLOB, b"payload-" + tag)


class _StoreOwner:
    """A chunk store driven through put / abandon / reopen."""

    def __init__(self, factory, segment: str, torn: bytes, tmp_path) -> None:
        self._factory = factory
        self._dir = str(tmp_path / "chunks")
        self.log_path = os.path.join(self._dir, segment)
        self.torn = torn
        self._live = None

    def open(self) -> None:
        self._live = self._factory(self._dir)

    def ack(self, n: int) -> None:
        assert self._live.put(_chunk(bytes([n])))

    def crash(self) -> None:
        self._live.abandon()

    def acked(self, n: int) -> bool:
        return self._live.has(_chunk(bytes([n])).uid)

    def count(self) -> int:
        return len(self._live)


class _JournalOwner:
    """The commit journal driven through append / abandon / reopen."""

    #: A whole record header promising 64 payload bytes, then 13 of them.
    torn = struct.pack(">II", 64, 0xDEADBEEF) + b'{"op":"set-he'

    def __init__(self, tmp_path) -> None:
        self.log_path = str(tmp_path / "journal.wal")
        self._live = None

    def open(self) -> None:
        self._live = CommitJournal(self.log_path)

    def ack(self, n: int) -> None:
        self._live.append({"op": "set-head", "n": n})

    def crash(self) -> None:
        self._live.abandon()

    def acked(self, n: int) -> bool:
        return any(record["n"] == n for record in self._live.records)

    def count(self) -> int:
        return len(self._live)


@pytest.fixture(params=["file", "pack", "journal"])
def owner(request, tmp_path):
    if request.param == "file":
        # [tag][len=64] then 7 of the 64 payload bytes.
        torn = struct.pack(">BI", int(ChunkType.BLOB), 64) + b"partial"
        return _StoreOwner(
            FileStore, os.path.join("segments", "seg-000000.dat"), torn, tmp_path
        )
    if request.param == "pack":
        # 20 bytes of a 46-byte pack frame.
        torn = struct.pack(">BBII", int(ChunkType.BLOB), 0, 64, 64) + b"\xab" * 10
        return _StoreOwner(
            PackStore, os.path.join("packs", "pack-000000.dat"), torn, tmp_path
        )
    return _JournalOwner(tmp_path)


def test_acked_appends_after_a_torn_tail_survive_a_second_crash(owner):
    owner.open()
    owner.ack(1)
    owner.crash()
    with open(owner.log_path, "ab") as handle:
        handle.write(owner.torn)  # the process died mid-append

    owner.open()  # recovery must drop the torn tail before appending
    assert owner.acked(1)
    owner.ack(2)
    owner.ack(3)
    owner.crash()  # again: no index snapshot, no clean close

    owner.open()
    assert [owner.acked(n) for n in (1, 2, 3)] == [True, True, True]
    assert owner.count() == 3  # every acked record, nothing extra indexed
    owner.crash()
