"""The option census: every settable value of the engine's audited
constructors, pinned by name.

EXPERIMENTS.md ("What each engine option earns") records, per keyword,
who sets it, what notices when it is hard-wired, and whether it stays.
A keyword added to one of these constructors fails this file until the
pin below and a row of that table name it in the same change; a keyword
removed fails it until the pin forgets it (its row stays, with the
verdict that removed it).
"""

import dataclasses
import inspect
import pathlib

from repro.cluster import (
    BreakerBoard,
    CircuitBreaker,
    ClusterClient,
    ClusterStore,
    HashRing,
    LatencyStats,
    LatencyTracker,
    StorageNode,
)
from repro.db import ForkBase
from repro.faults import FaultPlan, FaultyStore
from repro.store.nodecache import NodeCacheStore
from repro.vcs.journal import CommitJournal

#: Constructor (as the table names it) -> its settable values, in order.
CENSUS = {
    "ClusterStore": (
        "node_count",
        "replication",
        "write_quorum",
        "verify_writes",
        "retry",
        "node_store_factory",
        "transport",
        "deadline_budget",
        "audit_rate",
    ),
    "ClusterClient": ("cluster", "origin", "deadline_budget"),
    "BreakerBoard": ("now",),
    "CircuitBreaker": ("now",),
    "LatencyTracker": (),
    "LatencyStats": (),
    "StorageNode": ("name", "store"),
    "FaultPlan": (
        "seed",
        "corrupt_read_rate",
        "drop_put_rate",
        "torn_put_rate",
        "transient_error_rate",
    ),
    "FaultyStore": ("backing", "plan", "name"),
    "HashRing": ("nodes",),
    "ForkBase": ("store", "author", "clock"),
    "ForkBase.open": (
        "directory",
        "author",
        "fsync",
        "journal_limit",
        "backend",
        "node_cache",
    ),
    "NodeCacheStore": ("backing", "capacity"),
    "CommitJournal": ("path", "fsync"),
}

CONSTRUCTORS = {
    "ClusterStore": ClusterStore,
    "ClusterClient": ClusterClient,
    "BreakerBoard": BreakerBoard,
    "CircuitBreaker": CircuitBreaker,
    "LatencyTracker": LatencyTracker,
    "LatencyStats": LatencyStats,
    "StorageNode": StorageNode,
    "FaultyStore": FaultyStore,
    "HashRing": HashRing,
    "ForkBase": ForkBase,
    "ForkBase.open": ForkBase.open,
    "NodeCacheStore": NodeCacheStore,
    "CommitJournal": CommitJournal,
}

TABLE_HEADING = "## What each engine option earns"


def _settable(name):
    if name == "FaultPlan":
        return tuple(field.name for field in dataclasses.fields(FaultPlan))
    return tuple(inspect.signature(CONSTRUCTORS[name]).parameters)


def _option_table():
    root = pathlib.Path(__file__).resolve().parent.parent
    text = (root / "EXPERIMENTS.md").read_text(encoding="utf-8")
    section = text[text.index(TABLE_HEADING) + len(TABLE_HEADING):]
    return section[: section.index("\n## ")]


def test_every_settable_value_is_pinned():
    assert {name: _settable(name) for name in [*CONSTRUCTORS, "FaultPlan"]} == CENSUS


def test_every_pinned_keyword_has_a_row_in_the_option_table():
    table = _option_table()
    missing = [
        f"{name}.{keyword}"
        for name, keywords in CENSUS.items()
        for keyword in keywords
        if f"| `{name}.{keyword}`" not in table
    ]
    assert missing == []
