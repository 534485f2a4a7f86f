"""Tests for vectorized entry-stream chunking (repro.rolling.fast).

Two oracles, both exact:

- span equivalence: :func:`fast_entry_spans` / :class:`VectorEntryChunker`
  must group entries bit-identically to the streaming
  :class:`EntryChunker`, for every config and batch split;
- end-to-end structural invariance (SIRI Property 1): a tree bulk-built
  or spliced through the vectorized path has the same root uid as one
  produced by the pure reference path.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.postree import PosTree
from repro.rolling.chunker import ChunkerConfig, EntryChunker, chunk_entries
from repro.rolling.fast import VectorEntryChunker, fast_entry_spans
from tests.conftest import pure_chunker

_settings = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

CFG = ChunkerConfig(pattern_bits=5, min_size=16, max_size=512)

CONFIGS = [
    CFG,
    # index-style: min_entries gate active
    ChunkerConfig(pattern_bits=5, min_size=16, max_size=512, min_entries=2),
    ChunkerConfig(pattern_bits=4, min_size=16, max_size=256, min_entries=4),
    # degenerate: min_size as small as the window allows
    ChunkerConfig(window=4, pattern_bits=2, min_size=1, max_size=64),
    # degenerate: max-size clamp fires constantly
    ChunkerConfig(pattern_bits=14, min_size=16, max_size=48, min_entries=2),
    # odd window exercises the single-byte table of the pair scheme
    ChunkerConfig(window=7, pattern_bits=6, min_size=16, max_size=1024),
]

entries_strategy = st.lists(st.binary(max_size=120), max_size=80)


@given(entries=entries_strategy)
@_settings
def test_spans_match_reference(entries):
    for config in CONFIGS:
        assert fast_entry_spans(entries, config) == chunk_entries(entries, config)


@given(entries=entries_strategy, preceding=st.binary(max_size=48))
@_settings
def test_spans_match_reference_with_seeded_window(entries, preceding):
    for config in CONFIGS:
        assert fast_entry_spans(entries, config, preceding=preceding) == chunk_entries(
            entries, config, preceding=preceding
        )


def test_single_entry_larger_than_max_size():
    config = ChunkerConfig(pattern_bits=10, min_size=16, max_size=64)
    rng = random.Random(5)
    entries = [bytes(rng.randrange(256) for _ in range(500))]
    assert fast_entry_spans(entries, config) == chunk_entries(entries, config)
    # ...and surrounded by small entries, under a min-entries gate
    config = ChunkerConfig(pattern_bits=10, min_size=16, max_size=64, min_entries=2)
    entries = [b"tiny", entries[0], b"tiny2", entries[0], b"t"]
    assert fast_entry_spans(entries, config) == chunk_entries(entries, config)


@given(
    entries=entries_strategy,
    splits=st.lists(st.integers(min_value=0, max_value=80), max_size=6),
    preceding=st.binary(max_size=32),
)
@_settings
def test_batch_split_invariance(entries, splits, preceding):
    """push_many over arbitrary batch splits ≡ EntryChunker.push per entry."""
    for config in CONFIGS[:3]:
        reference = EntryChunker(config)
        reference.seed(preceding)
        expected = [i for i, entry in enumerate(entries) if reference.push(entry)]

        vector = VectorEntryChunker(config)
        vector.seed(preceding)
        cuts = sorted({min(s, len(entries)) for s in splits} | {0, len(entries)})
        got = []
        for lo, hi in zip(cuts, cuts[1:]):
            got.extend(lo + b for b in vector.push_many(entries[lo:hi]))
        assert got == expected


def _compositions(total, parts=(1, 2, 3)):
    """Every way to cut ``total`` entries into consecutive batches of 1-3."""
    if total == 0:
        yield []
    for part in parts:
        if part <= total:
            for rest in _compositions(total - part, parts):
                yield [part] + rest


@pytest.mark.parametrize(
    "config",
    [
        # a pattern in nearly every entry: pending latches at once and the
        # min-entries gate decides every boundary
        ChunkerConfig(window=4, pattern_bits=1, min_size=4, max_size=4096, min_entries=3),
        ChunkerConfig(window=4, pattern_bits=2, min_size=4, max_size=4096, min_entries=4),
        # no pattern to speak of: the max-size clamp latches it instead
        ChunkerConfig(pattern_bits=14, min_size=16, max_size=40, min_entries=3),
    ],
    ids=["q1-min3", "q2-min4", "clamp-min3"],
)
def test_tiny_batches_with_pending_latched_across_every_split(config):
    """The replay's small-input corner: batches of 1-3 entries, cut at every
    index, with a pattern seen before ``min_entries`` entries joined the
    node carried (``pending``) from one batch into the next."""
    rng = random.Random(29)
    entries = [rng.randbytes(rng.randrange(12, 30)) for _ in range(9)]
    reference = EntryChunker(config)
    expected = [i for i, entry in enumerate(entries) if reference.push(entry)]
    assert expected, "config must close nodes inside the stream"
    latched = 0
    for batches in _compositions(len(entries)):
        vector = VectorEntryChunker(config)
        got, lo = [], 0
        for size in batches:
            got.extend(lo + b for b in vector.push_many(entries[lo : lo + size]))
            lo += size
            latched += vector._pending and lo < len(entries)
        assert got == expected, batches
    assert latched, "no split ever carried a latched pattern: the test is vacuous"


def _random_pairs(rng, count, value_size):
    return {
        b"key-%08d" % rng.randrange(10 * count): bytes(
            rng.randrange(256) for _ in range(rng.randrange(value_size))
        )
        for _ in range(count)
    }


def test_bulk_build_root_matches_pure(store):
    rng = random.Random(17)
    pairs = _random_pairs(rng, 3000, 80)
    fast_root = PosTree.from_pairs(store, pairs.items()).root
    with pure_chunker():
        pure_root = PosTree.from_pairs(store, pairs.items()).root
    assert fast_root == pure_root


def test_edit_splice_root_matches_pure_and_rebuild(store):
    rng = random.Random(23)
    pairs = _random_pairs(rng, 2500, 60)
    tree = PosTree.from_pairs(store, pairs.items())

    keys = sorted(pairs)
    puts = _random_pairs(rng, 200, 60)
    puts.update({k: b"overwritten-" + k for k in rng.sample(keys, 150)})
    deletes = set(rng.sample(keys, 120))

    edited = tree.update(puts=puts, deletes=deletes)
    with pure_chunker():
        pure_edited = tree.update(puts=puts, deletes=deletes)

    expected = dict(pairs)
    for key in deletes:
        expected.pop(key, None)
    expected.update(puts)
    rebuilt = PosTree.from_pairs(store, expected.items())

    assert edited.root == pure_edited.root
    assert edited.root == rebuilt.root
