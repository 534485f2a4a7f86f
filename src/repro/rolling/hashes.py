"""Rolling hash functions.

The paper (§II-A) specifies the cyclic polynomial hash

    Φ(b1…bk) = δ(Φ(b0…bk−1)) ⊕ δ^k(Γ(b0)) ⊕ δ^0(Γ(bk))

where Γ maps a byte to an integer in [0, 2^q), δ rotates its input left by
one bit within q bits, and ⊕ is XOR.  Each step drops the oldest byte of the
window and admits the newest.  :class:`CyclicPolynomialHash` implements this
recurrence verbatim and is the only rolling hash the engine has.

The hash is deterministic across runs and platforms: the Γ table is
derived from SHA-256 of a fixed seed, never from :mod:`random` global state.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Sequence, Tuple


@lru_cache(maxsize=None)
def gamma_table(bits: int, seed: bytes = b"forkbase-gamma") -> Tuple[int, ...]:
    """Deterministic Γ: byte → pseudo-random integer in [0, 2**bits).

    The table is expanded from SHA-256 in counter mode so two processes
    always agree on it — a prerequisite for structural invariance across
    independently built stores.  Memoized per ``(bits, seed)``: every
    hash/chunker construction used to re-run the expansion (once per tree
    level per build), now it is computed once per process.
    """
    if not 1 <= bits <= 64:
        raise ValueError(f"bits must be in [1, 64], got {bits}")
    mask = (1 << bits) - 1
    table = []
    counter = 0
    while len(table) < 256:
        block = hashlib.sha256(seed + counter.to_bytes(4, "big")).digest()
        for offset in range(0, len(block) - 7, 8):
            if len(table) == 256:
                break
            value = int.from_bytes(block[offset : offset + 8], "big") & mask
            table.append(value)
        counter += 1
    return tuple(table)


@lru_cache(maxsize=None)
def rotated_gamma_table(
    bits: int, rotation: int, seed: bytes = b"forkbase-gamma"
) -> Tuple[int, ...]:
    """Pre-rotated Γ: byte → δ^rotation(Γ(byte)), memoized.

    ``rotation = window`` gives the outgoing-byte table of the recurrence.
    """
    mask = (1 << bits) - 1
    count = rotation % bits
    base = gamma_table(bits, seed)
    if count == 0:
        return base
    return tuple(
        ((value << count) | (value >> (bits - count))) & mask for value in base
    )


@lru_cache(maxsize=None)
def zero_window_value(
    bits: int, window: int, seed: bytes = b"forkbase-gamma"
) -> int:
    """Hash of a window conceptually pre-filled with ``window`` zero bytes."""
    mask = (1 << bits) - 1
    table = gamma_table(bits, seed)
    value = 0
    for index in range(window):
        count = index % bits
        rotated = (
            table[0]
            if count == 0
            else ((table[0] << count) | (table[0] >> (bits - count))) & mask
        )
        value ^= rotated
    return value


def cyclic_step(
    value: int,
    incoming: int,
    outgoing: int,
    table: Sequence[int],
    out_rot: Sequence[int],
    mask: int,
    top_shift: int,
) -> int:
    """One step of the paper's recurrence: δ(Φ) ⊕ δ^k(Γ(out)) ⊕ Γ(in).

    This is the canonical form of the cyclic-polynomial update.  The hot
    loops in :mod:`repro.rolling.chunker` (byte-stream and entry-stream
    scanning) restate this same recurrence, and the vectorized kernel in
    :mod:`repro.rolling.fast` computes the window sum it maintains
    directly; their agreement is asserted by the equivalence tests
    (tests/test_chunker.py, tests/test_fast_chunker.py,
    tests/test_fast_entry_chunker.py, tests/test_rolling_hashes.py,
    tests/test_rolling_kernel.py).
    """
    value = ((value << 1) | (value >> top_shift)) & mask
    return value ^ out_rot[outgoing] ^ table[incoming]


class CyclicPolynomialHash:
    """The paper's cyclic polynomial (buzhash) rolling hash.

    State is a ``bits``-wide integer; δ is a 1-bit left rotation within
    ``bits`` bits ("shifts its input by 1 bit to the left, and then pushes
    the q-th bit back to the lowest position").
    """

    __slots__ = ("window", "bits", "value", "_mask", "_table", "_out_rot", "_zero_init")

    def __init__(self, window: int = 16, bits: int = 31, seed: bytes = b"forkbase-gamma") -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.bits = bits
        self._mask = (1 << bits) - 1
        self._table = gamma_table(bits, seed)
        # Pre-rotate Γ by k for the outgoing byte: δ^k(Γ(b)).
        self._out_rot = rotated_gamma_table(bits, window, seed)
        # The window is conceptually pre-filled with k zero bytes, so that
        # callers may pass outgoing=0 while the window is still filling.
        self._zero_init = zero_window_value(bits, window, seed)
        self.value = self._zero_init

    def reset(self) -> None:
        """Forget all fed bytes."""
        self.value = self._zero_init

    def update(self, incoming: int, outgoing: int) -> int:
        """Slide the window: admit ``incoming``, retire ``outgoing``.

        Returns the new hash value.  ``outgoing`` must be the byte that
        entered the window exactly ``self.window`` updates ago (0 while the
        window is still filling).
        """
        value = cyclic_step(
            self.value,
            incoming,
            outgoing,
            self._table,
            self._out_rot,
            self._mask,
            self.bits - 1,
        )
        self.value = value
        return value

    def feed(self, data: bytes) -> int:
        """Convenience: slide over ``data`` byte-by-byte, return final value."""
        backlog = bytearray()
        for byte in data:
            outgoing = backlog[-self.window] if len(backlog) >= self.window else 0
            self.update(byte, outgoing)
            backlog.append(byte)
        return self.value


def direct_cyclic_hash(
    data: Sequence[int], bits: int = 31, seed: bytes = b"forkbase-gamma"
) -> int:
    """Non-rolling reference: hash an entire window from scratch.

    Used by tests to verify the O(1) recurrence agrees with the definition
    Φ(b1…bk) = δ^{k-1}(Γ(b1)) ⊕ δ^{k-2}(Γ(b2)) ⊕ … ⊕ Γ(bk).
    """
    table = gamma_table(bits, seed)
    mask = (1 << bits) - 1

    def rotl(value: int, count: int) -> int:
        count %= bits
        if count == 0:
            return value
        return ((value << count) | (value >> (bits - count))) & mask

    result = 0
    k = len(data)
    for index, byte in enumerate(data):
        result ^= rotl(table[byte], k - 1 - index)
    return result
