"""Tests for content-defined chunking (repro.rolling.chunker)."""

import random

import pytest

from repro.rolling.chunker import (
    ChunkerConfig,
    EntryChunker,
    chunk_bytes,
    chunk_entries,
    iter_chunk_spans,
)


def _random_bytes(n, seed=0):
    rng = random.Random(seed)
    return bytes(rng.randrange(256) for _ in range(n))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChunkerConfig(window=0)
        with pytest.raises(ValueError):
            ChunkerConfig(pattern_bits=0)
        with pytest.raises(ValueError):
            ChunkerConfig(min_size=0)
        with pytest.raises(ValueError):
            ChunkerConfig(min_size=100, max_size=50)
        with pytest.raises(ValueError):
            ChunkerConfig(pattern_bits=40, hash_bits=31)

    def test_with_target_sets_q(self):
        config = ChunkerConfig().with_target(4096)
        assert config.pattern_bits == 12
        assert config.min_size == 1024
        assert config.max_size == 32768


class TestChunkBytes:
    CFG = ChunkerConfig(pattern_bits=7, min_size=16, max_size=2048)

    def test_reassembly(self):
        data = _random_bytes(50_000)
        parts = chunk_bytes(data, self.CFG)
        assert b"".join(parts) == data

    def test_determinism(self):
        data = _random_bytes(20_000, seed=1)
        assert chunk_bytes(data, self.CFG) == chunk_bytes(data, self.CFG)

    def test_empty_input(self):
        assert chunk_bytes(b"", self.CFG) == []

    def test_expected_chunk_size(self):
        data = _random_bytes(200_000, seed=2)
        parts = chunk_bytes(data, self.CFG)
        average = len(data) / len(parts)
        # q=7 → ~128B expected (min clamp pushes it slightly up).
        assert 64 < average < 512

    def test_min_size_respected(self):
        data = _random_bytes(50_000, seed=3)
        parts = chunk_bytes(data, self.CFG)
        assert all(len(part) >= 16 for part in parts[:-1])

    def test_max_size_respected(self):
        data = b"\x00" * 100_000  # degenerate constant input
        parts = chunk_bytes(data, self.CFG)
        assert all(len(part) <= 2048 for part in parts)

    def test_edit_locality(self):
        """A one-byte edit must dirty only a local neighbourhood."""
        data = _random_bytes(100_000, seed=4)
        edited = data[:50_000] + b"\xff" + data[50_001:]
        before = set(chunk_bytes(data, self.CFG))
        after = set(chunk_bytes(edited, self.CFG))
        shared = len(before & after)
        assert shared >= len(before) - 4

    def test_insertion_resynchronizes(self):
        """Insertions shift offsets but CDC boundaries resync."""
        data = _random_bytes(100_000, seed=5)
        edited = data[:50_000] + b"INSERTED-BYTES" + data[50_000:]
        before = set(chunk_bytes(data, self.CFG))
        after = set(chunk_bytes(edited, self.CFG))
        assert len(before & after) >= len(before) - 4

    def test_preceding_seed_changes_only_early_boundaries(self):
        data = _random_bytes(30_000, seed=6)
        plain = list(iter_chunk_spans(data, self.CFG))
        seeded = list(iter_chunk_spans(data, self.CFG, preceding=b"prefix-noise"))
        # Boundaries must converge once past the window influence.
        assert plain[-1] == seeded[-1]


class TestEntryChunker:
    CFG = ChunkerConfig(pattern_bits=6, min_size=16, max_size=1024)

    def _entries(self, n, seed=0):
        rng = random.Random(seed)
        return [
            f"key{i:05d}={'v' * rng.randint(1, 30)}".encode() for i in range(n)
        ]

    def test_spans_partition_entries(self):
        entries = self._entries(3000)
        spans = chunk_entries(entries, self.CFG)
        assert spans[0][0] == 0
        assert spans[-1][1] == len(entries)
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert end == start

    def test_determinism(self):
        entries = self._entries(1000, seed=1)
        assert chunk_entries(entries, self.CFG) == chunk_entries(entries, self.CFG)

    def test_no_entry_split_across_nodes(self):
        """Spans are whole-entry by construction; sizes follow content."""
        entries = [b"x" * 700 for _ in range(10)]  # entries close to max
        spans = chunk_entries(entries, self.CFG)
        total = sum(end - start for start, end in spans)
        assert total == len(entries)

    def test_empty(self):
        assert chunk_entries([], self.CFG) == []

    def test_single_giant_entry(self):
        spans = chunk_entries([b"z" * 10_000], self.CFG)
        assert spans == [(0, 1)]

    def test_push_protocol(self):
        chunker = EntryChunker(self.CFG)
        entries = self._entries(500, seed=2)
        boundaries = [i for i, e in enumerate(entries) if chunker.push(e)]
        spans = chunk_entries(entries, self.CFG)
        closed = [end - 1 for _, end in spans[:-1]]
        # The last span may or may not end on a pattern: compare prefix.
        assert boundaries[: len(closed)] == closed

    def test_seeding_matches_midstream_state(self):
        """Chunking a suffix with a seeded window must agree with the
        full-stream boundaries — the property the tree editor relies on."""
        entries = self._entries(2000, seed=3)
        full_spans = chunk_entries(entries, self.CFG)
        # Restart at the third span boundary.
        restart = full_spans[2][1] if len(full_spans) > 3 else 0
        preceding = b"".join(entries[:restart])
        suffix_spans = chunk_entries(entries[restart:], self.CFG, preceding=preceding)
        expected = [
            (s - restart, e - restart) for s, e in full_spans if s >= restart
        ]
        assert suffix_spans == expected

