"""Fig. 3 — three-way merge reuses disjointly modified sub-trees.

The figure shows the merged tree assembled from A's and B's sub-trees,
with only the nodes covering both edit regions recalculated.  We measure
exactly that: merge two branches with disjoint edits and count how many
of the merged tree's pages were reused from the inputs versus newly
calculated, plus merge latency against an element-wise baseline that
rebuilds the merged record set from scratch.

Expected shape: reused ≫ calculated (only the spliced paths are new),
and the POS-Tree merge beats the full rebuild by a growing factor as N
grows.  The scattered case spreads ∆B evenly over the key space — 25 edit
regions instead of one — where "only the nodes covering the edit regions"
must still hold: the work is per region, not per key span.
"""

from __future__ import annotations


from benchmarks.conftest import report, table
from repro.postree import PosTree, three_way_merge
from repro.store import InMemoryStore

N = 30_000
EDITS = 25


def _setup(n=N, edits=EDITS, scattered=False):
    store = InMemoryStore()
    pairs = {b"key%08d" % i: b"value-%d" % i for i in range(n)}
    base = PosTree.from_pairs(store, pairs.items())
    keys = sorted(pairs)
    side_a = base.update(puts={k: b"A" for k in keys[100 : 100 + edits]})
    b_keys = keys[n // (2 * edits) :: n // edits] if scattered else keys[-100 - edits : -100]
    side_b = base.update(puts={k: b"B" for k in b_keys})
    return store, base, side_a, side_b


def _page_accounting(base, side_a, side_b, result):
    """(merged pages, reused from the inputs, newly calculated)."""
    merged_pages = base.with_root(result.root).page_uids()
    input_pages = side_a.page_uids() | side_b.page_uids() | base.page_uids()
    return len(merged_pages), len(merged_pages & input_pages), len(merged_pages - input_pages)


def test_fig3_merge_latency(benchmark):
    """POS-Tree three-way merge (diff phase + splice apply)."""
    _, base, side_a, side_b = _setup()
    result = benchmark(three_way_merge, base, side_a, side_b)
    assert not result.conflicts


def test_fig3_elementwise_merge_latency(benchmark):
    """Baseline: materialize all three states, merge dicts, rebuild."""
    store, base, side_a, side_b = _setup()

    def elementwise():
        state_base = dict(base.items())
        state_a = dict(side_a.items())
        state_b = dict(side_b.items())
        merged = dict(state_a)
        for key, value in state_b.items():
            if state_base.get(key) != value:
                merged[key] = value
        return PosTree.from_pairs(store, merged.items())

    tree = benchmark(elementwise)
    assert len(tree) == N


def test_fig3_report(benchmark):
    """Regenerate the reused-vs-calculated accounting of the figure."""
    # Report/correctness test: the no-op benchmark call keeps it
    # running under `pytest --benchmark-only`.
    benchmark(lambda: None)
    rows = []
    for n in (5_000, 30_000, 120_000):
        store, base, side_a, side_b = _setup(n=n)
        result = three_way_merge(base, side_a, side_b)
        pages, reused, calculated = _page_accounting(base, side_a, side_b, result)
        rows.append(
            (
                n,
                pages,
                reused,
                calculated,
                f"{100 * reused / pages:.1f}%",
                result.stats.subtrees_pruned,
            )
        )
    lines = table(
        ["N", "merged pages", "reused", "calculated", "reuse rate", "diff prunes"],
        rows,
    )
    lines.append("")
    lines.append(
        "shape (Fig. 3): the merged tree is assembled almost entirely from "
        "existing sub-trees; only the root paths covering the two edit "
        "regions are recalculated, independent of N."
    )
    report("fig3_merge_reuse", lines)

    for row in rows:
        assert row[3] <= 12  # calculated pages stay ~constant
    assert rows[-1][2] > rows[0][2]  # reuse grows with N


def test_fig3_scattered_delta_b(benchmark):
    """∆B = 25 keys spread evenly over N: one edit region per key."""
    store, base, side_a, side_b = _setup(scattered=True)
    # The first merge materializes the new chunks; the timed repeats dedup.
    result = three_way_merge(base, side_a, side_b)
    benchmark(three_way_merge, base, side_a, side_b)
    pages, reused, calculated = _page_accounting(base, side_a, side_b, result)
    stats = result.stats
    lines = table(
        ["N", "∆B keys", "merged pages", "reused", "calculated", "diff nodes loaded",
         "chunks created", "chunks deduped"],
        [(N, EDITS, pages, reused, calculated, stats.nodes_loaded,
          stats.chunks_created, stats.chunks_deduped)],
    )
    lines.append("")
    lines.append(
        "shape (Fig. 3, scattered): each of ∆B's edit regions costs its own "
        "root path; nothing between two regions is re-chunked or re-written."
    )
    report("fig3_merge_reuse_scattered", lines)

    assert not result.conflicts
    # Writes attempted, not just the novel ones: side B's own nodes are
    # already in the store, so a span-wide re-chunk would hide in dedup.
    assert stats.chunks_created + stats.chunks_deduped <= EDITS * (base.height() + 2)
    reference = side_a.update(puts={k: b"B" for k, v in side_b.items() if v == b"B"})
    assert result.root == reference.root


def test_fig3_merge_equals_elementwise_result(benchmark):
    """Both strategies must produce byte-identical merged trees."""
    # Report/correctness test: the no-op benchmark call keeps it
    # running under `pytest --benchmark-only`.
    benchmark(lambda: None)
    store, base, side_a, side_b = _setup(n=5_000)
    result = three_way_merge(base, side_a, side_b)
    state = dict(base.items())
    state.update({k: v for k, v in side_a.items() if base.get(k) != v})
    state.update({k: v for k, v in side_b.items() if base.get(k) != v})
    reference = PosTree.from_pairs(store, state.items())
    assert result.root == reference.root
