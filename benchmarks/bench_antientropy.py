"""Anti-entropy vs full-sweep repair — the O(divergence) claim, measured.

A 4-node cluster holds ``BENCH_AE_CHUNKS`` chunks (replication 2).  One
node loses a fraction of its replicas (1% and 10% divergence scenarios);
we then measure two ways of putting them back:

- ``full_sweep``   — the pre-Merkle recipe for the same guarantee:
  ``full_sweep_repair()`` (walk every uid, check every placement replica,
  copy what's missing) followed by a ``scrub()`` pass (re-hash every
  copy, quarantine and re-copy rot).  O(N·R) regardless of how little
  diverged.
- ``anti_entropy`` — Merkle reconciliation (``anti_entropy_pass``):
  every copy is verified once while building each node's index, then each
  node pair compares digest trees bucketed by ring arc and descends only
  into differing subtrees, shipping exactly the missing chunks.  This row
  is a *first* pass: placement and all sixteen trees are built from
  nothing.
- ``anti_entropy_warm`` — the same pass on a cluster that already ran one
  (the steady state of a repair cadence): the kept digest state is
  reconciled against the fresh indexes, so what is left is the
  verification floor both strategies share.

Both paths end with every copy verified and every divergence repaired;
the difference is how the divergence is *found*.  The JSON records the
transferred-chunk counter next to the sweep's examined count so the
O(divergence) claim is checkable, not vibes.

Results go to the pytest-benchmark table, ``benchmarks/out/`` and the
machine-readable ``BENCH_antientropy.json`` at the repo root.

Knobs (for CI smoke runs): ``BENCH_AE_CHUNKS`` (default 10000),
``BENCH_AE_VALUE_SIZE`` (default 256).
"""

from __future__ import annotations

import json
import os
import random

import pytest

from benchmarks.conftest import report, table
from repro.chunk import Chunk, ChunkType
from repro.cluster import ClusterStore

CHUNKS = int(os.environ.get("BENCH_AE_CHUNKS", "10000"))
VALUE_SIZE = int(os.environ.get("BENCH_AE_VALUE_SIZE", "256"))
DIVERGENCES = (0.01, 0.10)

JSON_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_antientropy.json")


def _record(section: str, sub: str, entry: dict) -> None:
    """Merge one measurement into BENCH_antientropy.json (read-modify-write)."""
    data = {}
    if os.path.exists(JSON_PATH):
        with open(JSON_PATH, encoding="utf-8") as fh:
            data = json.load(fh)
    data.setdefault("config", {}).update(
        {"chunks": CHUNKS, "value_size": VALUE_SIZE, "nodes": 4, "replication": 2}
    )
    bucket = data.setdefault(section, {})
    bucket[sub] = entry
    for strategy, ratio in (("anti_entropy", "speedup"), ("anti_entropy_warm", "speedup_warm")):
        if "full_sweep" in bucket and strategy in bucket:
            bucket[ratio] = round(
                bucket["full_sweep"]["seconds"] / bucket[strategy]["seconds"], 2
            )
    with open(JSON_PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    rows = []
    for name, value in sorted(data.items()):
        if name == "config":
            continue
        for key, row in sorted(value.items()):
            if isinstance(row, dict):
                rows.append(
                    (name, key, row["seconds"], row.get("transferred", ""),
                     row.get("examined", ""))
                )
    report(
        "bench_antientropy",
        table(("scenario", "strategy", "seconds", "transferred", "examined"), rows),
    )


def _payloads():
    rng = random.Random(4242)
    return [
        Chunk(ChunkType.BLOB, bytes(rng.randrange(256) for _ in range(VALUE_SIZE)))
        for _ in range(CHUNKS)
    ]


@pytest.fixture(scope="module")
def payloads():
    return _payloads()


def _bench(benchmark, fn, setup):
    """Run through pytest-benchmark and return the best observed time."""
    benchmark.pedantic(fn, setup=setup, rounds=3, iterations=1)
    return benchmark.stats.stats.min


def _diverged_cluster(payloads, fraction: float, warm: bool = False):
    """A converged cluster, then one node drops ``fraction`` of its copies.

    Returns ``(cluster, dropped)`` — the actual divergence depends on how
    many copies ring placement put on the victim, so the count travels
    with the cluster instead of being re-derived from assumptions.
    ``warm`` runs one anti-entropy pass before the drop, as a cluster on
    a repair cadence would have.
    """
    cluster = ClusterStore(node_count=4, replication=2)
    cluster.put_many(payloads)
    if warm:
        cluster.anti_entropy_pass()
    victim = cluster.nodes["node-01"]
    held = sorted(victim.store.ids())
    dropped = held[: max(1, int(len(held) * fraction))]
    for uid in dropped:
        victim.store.delete(uid)
    return cluster, len(dropped)


def _ids(fraction: float) -> str:
    return f"{int(fraction * 100)}pct"


@pytest.mark.parametrize("fraction", DIVERGENCES, ids=_ids)
def test_full_sweep_repair(benchmark, payloads, fraction):
    def setup():
        cluster, dropped = _diverged_cluster(payloads, fraction)
        outcome["dropped"] = dropped
        return (cluster,), {}

    outcome = {}

    def sweep(cluster):
        # The pre-Merkle recipe for "everything verified and replicated":
        # a placement sweep for missing copies plus a scrub for rot.
        outcome["copies"] = cluster.full_sweep_repair()
        outcome["examined"] = cluster.sweep_examined
        outcome["verified"] = cluster.scrub().scanned

    seconds = _bench(benchmark, sweep, setup=setup)
    assert outcome["copies"] == outcome["dropped"]
    assert outcome["examined"] == CHUNKS  # the sweep always walks everything
    _record(
        _ids(fraction),
        "full_sweep",
        {
            "seconds": round(seconds, 6),
            "transferred": outcome["copies"],
            "examined": outcome["examined"],
            "verified": outcome["verified"],
            "per_s": round(CHUNKS / seconds, 1),
        },
    )


@pytest.mark.parametrize("warm", (False, True), ids=("first", "warm"))
@pytest.mark.parametrize("fraction", DIVERGENCES, ids=_ids)
def test_anti_entropy_repair(benchmark, payloads, fraction, warm):
    def setup():
        cluster, dropped = _diverged_cluster(payloads, fraction, warm)
        outcome["dropped"] = dropped
        return (cluster,), {}

    outcome = {}

    def reconcile(cluster):
        outcome["report"] = cluster.anti_entropy_pass()

    seconds = _bench(benchmark, reconcile, setup=setup)
    rep = outcome["report"]
    assert rep.chunks_transferred == outcome["dropped"]
    # The acceptance claim: transfers strictly below the sweep's count.
    assert rep.chunks_transferred < CHUNKS
    assert rep.chunks_examined < CHUNKS
    _record(
        _ids(fraction),
        "anti_entropy_warm" if warm else "anti_entropy",
        {
            "seconds": round(seconds, 6),
            "transferred": rep.chunks_transferred,
            "examined": rep.chunks_examined,
            "verified": rep.copies_verified,
            "tree_nodes_compared": rep.tree_nodes_compared,
            "buckets_differing": rep.buckets_differing,
            "per_s": round(CHUNKS / seconds, 1),
        },
    )
