"""Tests for the rolling hashes (repro.rolling.hashes)."""

import pytest

from repro.rolling.hashes import (
    CyclicPolynomialHash,
    direct_cyclic_hash,
    gamma_table,
)


class TestGammaTable:
    def test_deterministic(self):
        assert gamma_table(31) == gamma_table(31)

    def test_seed_changes_table(self):
        assert gamma_table(31) != gamma_table(31, seed=b"other")

    def test_values_within_bits(self):
        for value in gamma_table(12):
            assert 0 <= value < 2**12

    def test_256_entries(self):
        assert len(gamma_table(31)) == 256

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            gamma_table(0)
        with pytest.raises(ValueError):
            gamma_table(65)


class TestCyclicPolynomial:
    def test_recurrence_matches_direct_definition(self):
        """The O(1) slide must equal hashing the window from scratch."""
        for window in (4, 8, 16):
            hasher = CyclicPolynomialHash(window=window, bits=31)
            data = bytes((i * 37 + 11) % 256 for i in range(200))
            hasher.feed(data)
            assert hasher.value == direct_cyclic_hash(data[-window:], bits=31)

    def test_value_depends_only_on_window(self):
        """Bytes older than the window must not influence the value."""
        h1 = CyclicPolynomialHash(window=8)
        h2 = CyclicPolynomialHash(window=8)
        h1.feed(b"AAAAAAAA" + b"same-window-tail")
        h2.feed(b"BBBBBBBB" + b"same-window-tail")
        assert h1.value == h2.value

    def test_reset_restores_initial_state(self):
        hasher = CyclicPolynomialHash(window=8)
        initial = hasher.value
        hasher.feed(b"something")
        hasher.reset()
        assert hasher.value == initial

    def test_partial_window_consistent_with_zero_prefill(self):
        """Feeding < window bytes equals hashing zeros + those bytes."""
        hasher = CyclicPolynomialHash(window=8)
        hasher.feed(b"abc")
        expected = direct_cyclic_hash(b"\x00" * 5 + b"abc", bits=31)
        assert hasher.value == expected

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            CyclicPolynomialHash(window=0)

    def test_values_stay_within_bits(self):
        hasher = CyclicPolynomialHash(window=16, bits=20)
        for byte in bytes(range(256)) * 4:
            hasher.update(byte, 0)
            assert 0 <= hasher.value < 2**20

    def test_distribution_roughly_uniform(self):
        """Low bits should hit zero at ≈ the designed rate."""
        import random

        rng = random.Random(5)
        data = bytes(rng.randrange(256) for _ in range(200_000))
        hasher = CyclicPolynomialHash(window=16, bits=31)
        hits = 0
        backlog = bytearray(16)
        idx = 0
        for byte in data:
            out = backlog[idx]
            backlog[idx] = byte
            idx = (idx + 1) % 16
            if hasher.update(byte, out) & 0xFF == 0:
                hits += 1
        expected = len(data) / 256
        assert 0.7 * expected < hits < 1.3 * expected
