"""Tests for the vectorized window-hash kernel (repro.rolling.fast).

The kernel computes the full ``hash_bits``-wide cyclic-polynomial hash
at every position by doubling the window along its binary expansion.
Two oracles:

- per position, the values equal :class:`CyclicPolynomialHash` stepped
  byte by byte (all bits, not just the ones the pattern rule reads);
- the chunkers built on it cut exactly where the pure reference cuts,
  for windows that exercise every doubling/add-one path, hash widths on
  both sides of the 32-bit and 64-bit lane limits, seeded tails shorter
  than the window, and streams straddling the kernel's block size.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.rolling import fast
from repro.rolling.chunker import ChunkerConfig, chunk_entries, iter_chunk_spans
from repro.rolling.fast import fast_chunk_spans, fast_entry_spans
from repro.rolling.hashes import CyclicPolynomialHash
from tests.conftest import reference_pattern_candidates

WINDOWS = [1, 2, 3, 4, 7, 16, 17, 31, 32, 48]
PATTERN_BITS = 5

_settings = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _config(window, hash_bits, **overrides):
    fields = dict(
        window=window,
        pattern_bits=min(PATTERN_BITS, hash_bits),
        hash_bits=hash_bits,
        min_size=8,
        max_size=256,
    )
    fields.update(overrides)
    return ChunkerConfig(**fields)


def _stepped(data, config, tail):
    """Reference per-position hashes: the paper's recurrence, byte by byte."""
    hasher = CyclicPolynomialHash(config.window, config.hash_bits, config.seed)
    window = config.window
    tail = tail[-window:]
    hasher.feed(tail)
    history = bytes(window - len(tail)) + tail + data
    return [hasher.update(byte, history[i]) for i, byte in enumerate(data)]


def _kernel(data, config, tail):
    values = []
    for start, block in fast._window_hashes(data, config, tail):
        assert start == len(values)
        values.extend(block.tolist())
    return values


@pytest.mark.parametrize("hash_bits", [PATTERN_BITS, 31, 32, 33, 64])
@pytest.mark.parametrize("window", WINDOWS)
def test_kernel_matches_stepped_hash(window, hash_bits):
    config = _config(window, hash_bits)
    rng = random.Random(window * 100 + hash_bits)
    for length in (1, window - 1, window, window + 1, 700):
        if length < 1:
            continue
        data = rng.randbytes(length)
        tail = rng.randbytes(rng.randrange(window + 1))
        assert _kernel(data, config, tail) == _stepped(data, config, tail)


@pytest.mark.parametrize("window,hash_bits", [(16, 31), (17, 64), (48, 33), (1, 32)])
def test_kernel_matches_across_block_edges(window, hash_bits):
    config = _config(window, hash_bits)
    rng = random.Random(window)
    block = fast._BLOCK
    for length in (block - 1, block, block + 1, 2 * block + window):
        data = rng.randbytes(length)
        tail = rng.randbytes(window // 2)
        assert _kernel(data, config, tail) == _stepped(data, config, tail)


configs = st.builds(
    _config,
    window=st.sampled_from(WINDOWS),
    hash_bits=st.sampled_from([PATTERN_BITS, 31, 32, 33, 64]),
)


@given(config=configs, data=st.binary(min_size=1, max_size=3000), tail=st.binary(max_size=48))
@_settings
def test_byte_spans_match_reference(config, data, tail):
    # ``tail`` is often shorter than the window: the rest is zero pre-fill.
    assert fast_chunk_spans(data, config, tail) == list(
        iter_chunk_spans(data, config, tail)
    )


@given(config=configs, data=st.binary(min_size=1, max_size=3000), tail=st.binary(max_size=48))
@_settings
def test_pattern_candidates_match_stepped_hash(config, data, tail):
    """The raw hits the splice editor compares before and after a patch,
    and the oracle ``pure_chunker()`` swaps in for them."""
    tail = tail[-config.window :]  # the kernel's contract: at most a window
    mask = (1 << config.pattern_bits) - 1
    expected = [at for at, value in enumerate(_stepped(data, config, tail)) if value & mask == 0]
    assert fast.pattern_candidates(data, config, tail).tolist() == expected
    assert reference_pattern_candidates(data, config, tail).tolist() == expected


@given(
    config=configs,
    entries=st.lists(st.binary(min_size=1, max_size=40), max_size=120),
    tail=st.binary(max_size=48),
    min_entries=st.sampled_from([1, 2, 4]),
)
@_settings
def test_entry_spans_match_reference(config, entries, tail, min_entries):
    config = _config(config.window, config.hash_bits, min_entries=min_entries)
    assert fast_entry_spans(entries, config, tail) == chunk_entries(
        entries, config, tail
    )


@pytest.mark.parametrize("window,hash_bits", [(16, 31), (7, 33), (48, 64)])
@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_streams_straddling_the_block_size(window, hash_bits, delta):
    config = _config(window, hash_bits, min_size=64, max_size=4096, pattern_bits=8)
    rng = random.Random(delta + 7)
    length = fast._BLOCK + delta
    data = rng.randbytes(length)
    tail = rng.randbytes(window)
    assert fast_chunk_spans(data, config, tail) == list(
        iter_chunk_spans(data, config, tail)
    )
    cuts = sorted(rng.sample(range(1, length), length // 50))
    entries = [data[a:b] for a, b in zip([0] + cuts, cuts + [length])]
    assert fast_entry_spans(entries, config, tail) == chunk_entries(
        entries, config, tail
    )
