"""Commit durability cost — fsync policy latency and journal replay rate.

Measures what the write-ahead commit journal charges for crash
consistency:

- ``commit_latency``   — acknowledged put throughput on a durable engine
  under each journal fsync policy (``always`` / ``batch`` / ``never``):
  the price of surviving power loss vs only surviving process death.
- ``journal_replay``   — recovery speed: opening a journal holding many
  commit records and replaying it onto a fresh branch table (commits/s).
  This bounds how fast a crashed engine comes back.

Results go to the pytest-benchmark table, ``benchmarks/out/`` and the
machine-readable ``BENCH_durability.json`` at the repo root.

Knobs (for CI smoke runs): ``BENCH_DURABILITY_COMMITS`` (default 150),
``BENCH_DURABILITY_REPLAY`` (default 10000).
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile

import pytest

from benchmarks.conftest import report, table
from repro.chunk import Uid
from repro.db.engine import ForkBase
from repro.vcs import BranchTable, CommitJournal, replay_into

COMMITS = int(os.environ.get("BENCH_DURABILITY_COMMITS", "150"))
REPLAY_COMMITS = int(os.environ.get("BENCH_DURABILITY_REPLAY", "10000"))

JSON_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_durability.json")


def _record(section: str, entry: dict, sub: str | None = None) -> None:
    """Merge one measurement into BENCH_durability.json (read-modify-write)."""
    data = {}
    if os.path.exists(JSON_PATH):
        with open(JSON_PATH, encoding="utf-8") as fh:
            data = json.load(fh)
    data.setdefault("config", {}).update(
        {"commits": COMMITS, "replay_commits": REPLAY_COMMITS}
    )
    if sub is None:
        data[section] = entry
    else:
        bucket = data.setdefault(section, {})
        bucket[sub] = entry
        if "always" in bucket and "never" in bucket:
            bucket["fsync_overhead"] = round(
                bucket["always"]["seconds"] / bucket["never"]["seconds"], 3
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
                rate = row.get("commits_per_s") or ""
                rows.append((name, key, row["seconds"], rate))
    report("bench_commit_durability", table(("metric", "variant", "seconds", "rate"), rows))


def _bench(benchmark, fn, setup=None):
    """Run through pytest-benchmark and return the best observed time."""
    if setup is None:
        benchmark.pedantic(fn, rounds=3, iterations=1, warmup_rounds=1)
    else:
        benchmark.pedantic(fn, setup=setup, rounds=3, iterations=1)
    return benchmark.stats.stats.min


@pytest.mark.parametrize("policy", ["always", "batch", "never"])
def test_commit_latency_per_fsync_policy(benchmark, tmp_path_factory, policy):
    scratch = tmp_path_factory.mktemp(f"durability-{policy}")
    counter = [0]

    def setup():
        counter[0] += 1
        directory = str(scratch / f"db{counter[0]}")
        return (ForkBase.open(directory, fsync=policy),), {}

    def commit_burst(engine):
        for i in range(COMMITS):
            engine.put("k", {"i": str(i), "pad": "x" * 64})
        engine.close()

    seconds = _bench(benchmark, commit_burst, setup=setup)
    _record(
        "commit_latency",
        {
            "seconds": round(seconds, 6),
            "commits_per_s": round(COMMITS / seconds, 1),
            "ms_per_commit": round(seconds / COMMITS * 1e3, 4),
        },
        sub=policy,
    )


def test_journal_replay_throughput(benchmark):
    scratch = tempfile.mkdtemp(prefix="bench-replay-")
    path = os.path.join(scratch, "journal.wal")
    journal = CommitJournal(path, fsync="never")
    for i in range(REPLAY_COMMITS):
        uid = Uid(i.to_bytes(4, "big") * 8)
        journal.append(
            {"op": "set-head", "key": f"k{i % 64}",
             "branch": "master", "head": uid.base32(), "prev": None}
        )
    journal.close()

    def recover():
        reopened = CommitJournal(path)
        table_ = BranchTable()
        applied = replay_into(table_, reopened.records, lambda uid: True)
        reopened.close()
        assert applied == REPLAY_COMMITS
        return table_

    seconds = _bench(benchmark, recover)
    shutil.rmtree(scratch, ignore_errors=True)
    _record(
        "journal_replay",
        {
            "seconds": round(seconds, 6),
            "commits_per_s": round(REPLAY_COMMITS / seconds, 1),
            "records": REPLAY_COMMITS,
        },
    )
