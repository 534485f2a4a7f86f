"""Tests for the vectorized chunker (repro.rolling.fast).

The one property that matters: bit-identical spans to the reference
streaming chunker, under every configuration and input shape.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.rolling.chunker import ChunkerConfig, iter_chunk_spans
from repro.rolling.fast import fast_chunk_bytes, fast_chunk_spans

CFG = ChunkerConfig(pattern_bits=7, min_size=16, max_size=2048)

_settings = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestEquivalence:
    @given(data=st.binary(max_size=6000))
    @_settings
    def test_matches_reference(self, data):
        assert fast_chunk_spans(data, CFG) == list(iter_chunk_spans(data, CFG))

    @given(data=st.binary(max_size=3000), preceding=st.binary(max_size=64))
    @_settings
    def test_matches_reference_with_seed(self, data, preceding):
        assert fast_chunk_spans(data, CFG, preceding=preceding) == list(
            iter_chunk_spans(data, CFG, preceding=preceding)
        )

    @pytest.mark.parametrize("pattern_bits,min_size,max_size", [
        (4, 8, 64), (7, 16, 2048), (12, 1024, 65536),
    ])
    def test_matches_across_configs(self, pattern_bits, min_size, max_size):
        config = ChunkerConfig(
            pattern_bits=pattern_bits, min_size=min_size, max_size=max_size
        )
        rng = random.Random(3)
        data = bytes(rng.randrange(256) for _ in range(40_000))
        assert fast_chunk_spans(data, config) == list(
            iter_chunk_spans(data, config)
        )

    def test_degenerate_constant_input(self):
        data = b"\x00" * 30_000
        assert fast_chunk_spans(data, CFG) == list(iter_chunk_spans(data, CFG))

    def test_empty(self):
        assert fast_chunk_spans(b"", CFG) == []

    def test_fast_chunk_bytes_reassembles(self):
        data = random.Random(20).randbytes(20_000)
        assert b"".join(fast_chunk_bytes(data, CFG)) == data


class TestBlobIntegration:
    def test_blob_tree_uses_identical_spans(self, store):
        """BlobTree built through the fast path equals a tree built from
        reference spans (content addressing proves span equality)."""
        from repro.chunk import Chunk, ChunkType
        from repro.postree.listtree import BlobTree

        data = random.Random(150).randbytes(150_000)
        blob = BlobTree.from_bytes(store, data)
        reference_chunks = [
            Chunk(ChunkType.BLOB, data[s:e]).uid
            for s, e in iter_chunk_spans(data)
        ]
        leaf_uids = [chunk.uid for chunk in blob.iter_chunks()]
        assert leaf_uids == reference_chunks

    def test_speedup_exists(self):
        """Not a strict benchmark, but the fast path must not be slower."""
        import time

        data = random.Random(1).randbytes(1_000_000)
        start = time.perf_counter()
        list(iter_chunk_spans(data))
        pure = time.perf_counter() - start
        start = time.perf_counter()
        fast_chunk_spans(data)
        fast = time.perf_counter() - start
        assert fast < pure
