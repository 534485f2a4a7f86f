"""Ablation B — chunking parameters of the POS-Tree pattern rule.

Sweeps the expected node size 2^q (the paper's q) and the rolling-hash
window k, measuring for each configuration:

  - realized average leaf size and tree depth;
  - dedup effectiveness on a 10-version edit chain (physical bytes vs
    logical bytes offered).

Expected shape: small nodes dedup better but deepen the tree and
multiply per-edit page writes; large nodes amortize metadata but dirty
more bytes per edit.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import report, table
from repro.postree.config import TreeConfig
from repro.postree.tree import PosTree
from repro.rolling.chunker import ChunkerConfig
from repro.store import InMemoryStore
from repro.table.schema import Schema
from repro.workloads import generate_rows, make_edit_script

SCHEMA = Schema.of(
    ["id", "vendor", "product", "region", "quantity", "price", "note"], "id"
)


def _states(versions=10, rows=3000):
    out = []
    current = generate_rows(rows, seed=3)
    out.append(current)
    for step in range(versions - 1):
        script = make_edit_script(current, updates=8, inserts=1, deletes=1, seed=step)
        current = script.apply(current)
        out.append(current)
    return out


def _encode(rows):
    return {row["id"].encode(): SCHEMA.encode_row(row) for row in rows}


def _measure(config: TreeConfig, states):
    store = InMemoryStore()
    depth = 0
    leaf_count = 0
    for state in states:
        tree = PosTree.from_pairs(store, _encode(state).items(), config)
        depth = tree.height()
        leaf_count = tree.node_count_by_level()[0]
    stats = store.stats
    return {
        "physical": stats.physical_bytes,
        "logical": stats.logical_bytes,
        "ratio": stats.dedup_ratio,
        "depth": depth,
        "leaves": leaf_count,
    }


@pytest.mark.parametrize("target", [256, 1024, 4096])
def test_chunk_size_build_latency(benchmark, target):
    """Bulk-build latency per target node size."""
    config = TreeConfig().scaled(leaf_target=target)
    state = _encode(_states(versions=1)[0])
    store = InMemoryStore()
    tree = benchmark(PosTree.from_pairs, store, state.items(), config)
    assert len(tree) == len(state)


def test_chunking_report(benchmark):
    # Report/correctness test: the no-op benchmark call keeps it
    # running under `pytest --benchmark-only`.
    benchmark(lambda: None)
    states = _states()
    logical_one = sum(len(k) + len(v) for k, v in _encode(states[0]).items())

    size_rows = []
    for target in (256, 512, 1024, 2048, 4096, 8192):
        config = TreeConfig().scaled(leaf_target=target)
        result = _measure(config, states)
        size_rows.append(
            (
                target,
                result["depth"],
                result["leaves"],
                f"{result['physical'] / 1024:.0f} KB",
                f"{result['ratio']:.2f}x",
            )
        )

    window_rows = []
    for window in (8, 16, 32, 64):
        config = TreeConfig(
            leaf=ChunkerConfig(window=window, pattern_bits=10, min_size=64,
                               max_size=16384),
            index=ChunkerConfig(window=window, pattern_bits=9, min_size=64,
                                max_size=8192, min_entries=2),
        )
        result = _measure(config, states)
        window_rows.append(
            (window, result["depth"], f"{result['physical'] / 1024:.0f} KB",
             f"{result['ratio']:.2f}x")
        )

    lines = ["sweep: expected node size 2^q (10-version chain, 3000 rows)", ""]
    lines.extend(
        table(["target B", "depth", "leaves", "physical", "dedup ratio"], size_rows)
    )
    lines.append("")
    lines.append("sweep: rolling window k")
    lines.extend(table(["window", "depth", "physical", "dedup"], window_rows))
    lines.append("")
    lines.append(
        f"one version is {logical_one / 1024:.0f} KB logical; 10 versions "
        f"offered ⇒ a perfect dedup ratio would approach ~10x"
    )
    report("ablation_chunking", lines)

    # Shape assertions.
    ratios = [float(row[4][:-1]) for row in size_rows]
    assert ratios[0] > ratios[-1]  # smaller nodes dedup better
    depths = [row[1] for row in size_rows]
    assert depths[0] >= depths[-1]  # and build deeper trees
