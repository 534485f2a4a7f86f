"""Content-defined chunkers for byte streams and entry streams.

Two flavours, both driven by the same pattern rule ``Φ mod 2^q == 0``:

- :func:`chunk_bytes` slices a raw byte sequence (used for blob leaves);
  a chunk ends exactly at the byte where the pattern fires.
- :class:`EntryChunker` groups a sequence of *entries* (serialized records
  or index entries) into nodes; per the paper, "if a pattern occurs in the
  middle of an entry, the page boundary is extended to cover the whole
  entry, so that no entries are stored across multiple pages."

Both keep the rolling window continuous across boundaries and support
seeding the window with preceding bytes, which lets the POS-Tree editor
re-chunk from the middle of a level and detect boundary resynchronization.

The engine chunks with the vectorized equivalents in
:mod:`repro.rolling.fast`; these streaming chunkers are the reference the
tests hold them to, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, List, Sequence, Tuple

from repro.rolling.hashes import CyclicPolynomialHash


@dataclass(frozen=True)
class ChunkerConfig:
    """Parameters of the content-defined slicing.

    ``pattern_bits`` is the paper's *q*: a boundary fires with probability
    2^-q per byte, giving an expected chunk size of 2^q bytes (before
    min/max clamping).  ``window`` is the paper's *k*.
    """

    window: int = 16
    pattern_bits: int = 12
    min_size: int = 256
    max_size: int = 65536
    hash_bits: int = 31
    seed: bytes = b"forkbase-gamma"
    #: Minimum entries per node for entry-stream chunking.  Index levels
    #: MUST use >= 2: with small pattern_bits a pattern can fire inside
    #: almost every entry, producing single-entry nodes at every level and
    #: a tree that never converges to a root.  >= 2 guarantees each index
    #: level at least halves.  Ignored by byte-stream chunking.
    min_entries: int = 1

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.pattern_bits < 1:
            raise ValueError("pattern_bits must be >= 1")
        if self.min_size < 1:
            raise ValueError("min_size must be >= 1")
        if self.max_size < self.min_size:
            raise ValueError("max_size must be >= min_size")
        if self.hash_bits < self.pattern_bits:
            raise ValueError("hash_bits must be >= pattern_bits")
        if self.min_entries < 1:
            raise ValueError("min_entries must be >= 1")

    def with_target(self, target_size: int) -> "ChunkerConfig":
        """Derive a config whose expected chunk size is ``target_size``.

        Sets q = log2(target), min = target/4, max = 8*target — the ratios
        used throughout the benchmarks' parameter sweeps.
        """
        if target_size < 4:
            raise ValueError("target_size too small")
        bits = max(1, target_size.bit_length() - 1)
        return replace(
            self,
            pattern_bits=bits,
            min_size=max(1, target_size // 4),
            max_size=target_size * 8,
        )


#: Default slicing for blob payloads (expected 4 KiB chunks).
BLOB_CONFIG = ChunkerConfig(pattern_bits=12, min_size=1024, max_size=65536)

#: Default slicing for POS-Tree entry streams (expected ~1 KiB nodes, so
#: index fan-out stays healthy for small synthetic datasets too).
ENTRY_CONFIG = ChunkerConfig(pattern_bits=10, min_size=64, max_size=16384)


def iter_chunk_spans(
    data: bytes,
    config: ChunkerConfig = BLOB_CONFIG,
    preceding: bytes = b"",
) -> Iterator[Tuple[int, int]]:
    """Yield ``(start, end)`` spans slicing ``data`` into chunks.

    ``preceding`` primes the rolling window with the bytes immediately
    before ``data`` (the stream is assumed to start at a chunk boundary).
    """
    if not data:
        return
    hasher = CyclicPolynomialHash(config.window, config.hash_bits, config.seed)
    backlog = bytearray(config.window)
    seed_tail = preceding[-config.window :]
    if seed_tail:
        hasher.feed(seed_tail)
        backlog[-len(seed_tail) :] = seed_tail
    _, _, _, hits = _scan_cyclic(
        data,
        backlog,
        0,
        hasher.value,
        0,
        hasher._table,
        hasher._out_rot,
        hasher._mask,
        hasher.bits - 1,
        (1 << config.pattern_bits) - 1,
        config.min_size,
        config.max_size,
        reset_since_on_hit=True,
    )
    start = 0
    for pos in hits:
        yield (start, pos + 1)
        start = pos + 1
    if start < len(data):
        yield (start, len(data))


def _scan_cyclic(
    data: bytes,
    backlog: bytearray,
    idx: int,
    value: int,
    since: int,
    table: Sequence[int],
    out_rot: Sequence[int],
    mask: int,
    top_shift: int,
    pattern_mask: int,
    min_size: int,
    max_size: int,
    reset_since_on_hit: bool,
) -> Tuple[int, int, int, List[int]]:
    """The single home of the cyclic hot loop (recurrence: δ(Φ) ⊕
    δ^k(Γ(out)) ⊕ Γ(in), i.e. :func:`repro.rolling.hashes.cyclic_step`,
    inlined here because a per-byte call is the cost being paid for).

    Scans ``data`` continuing from ``(backlog, idx, value, since)``,
    mutating ``backlog`` in place, and returns the advanced
    ``(idx, value, since, hits)`` where ``hits`` are the 0-based positions
    of bytes satisfying the min/max-gated pattern rule.  With
    ``reset_since_on_hit`` the size counter restarts after each hit (byte
    chunking: a hit *is* a boundary); without it, only the first hit is
    recorded and ``since`` keeps running (entry chunking: the boundary is
    extended to the entry end by the caller).

    Both modes, the scalar :meth:`CyclicPolynomialHash.update`, and the
    vectorized doubling kernel in :mod:`repro.rolling.fast` must agree —
    asserted by tests/test_chunker.py, tests/test_fast_chunker.py,
    tests/test_fast_entry_chunker.py and tests/test_rolling_kernel.py.
    """
    window = len(backlog)
    hits: List[int] = []
    checking = True
    for pos, byte in enumerate(data):
        outgoing = backlog[idx]
        backlog[idx] = byte
        idx += 1
        if idx == window:
            idx = 0
        value = ((value << 1) | (value >> top_shift)) & mask
        value ^= out_rot[outgoing]
        value ^= table[byte]
        since += 1
        if checking and since >= min_size and (
            value & pattern_mask == 0 or since >= max_size
        ):
            hits.append(pos)
            if reset_since_on_hit:
                since = 0
            else:
                checking = False  # first hit latches; hash state continues
    return idx, value, since, hits


def chunk_bytes(
    data: bytes,
    config: ChunkerConfig = BLOB_CONFIG,
    preceding: bytes = b"",
) -> List[bytes]:
    """Slice ``data`` into content-defined chunks (materialized)."""
    return [data[s:e] for s, e in iter_chunk_spans(data, config, preceding)]


class EntryChunker:
    """Groups entries into nodes, extending patterns to entry boundaries.

    Usage::

        chunker = EntryChunker(config)
        for entry in entries:
            if chunker.push(entry):
                ...  # a node ends after this entry

    The final (possibly pattern-less) node is whatever was pushed since the
    last boundary; callers flush it themselves.
    """

    __slots__ = (
        "_config",
        "_table",
        "_out_rot",
        "_mask",
        "_top_shift",
        "_window",
        "_backlog",
        "_idx",
        "_value",
        "_since",
        "_pattern_mask",
        "_min_size",
        "_max_size",
        "_min_entries",
        "_entry_count",
        "_pending",
    )

    def __init__(self, config: ChunkerConfig = ENTRY_CONFIG) -> None:
        self._config = config
        self._window = config.window
        self._backlog = bytearray(self._window)
        self._idx = 0
        self._since = 0
        self._pattern_mask = (1 << config.pattern_bits) - 1
        self._min_size = config.min_size
        self._max_size = config.max_size
        self._min_entries = config.min_entries
        self._entry_count = 0
        self._pending = False
        hasher = CyclicPolynomialHash(config.window, config.hash_bits, config.seed)
        self._table = hasher._table
        self._out_rot = hasher._out_rot
        self._mask = hasher._mask
        self._top_shift = hasher.bits - 1
        self._value = hasher.value

    @property
    def config(self) -> ChunkerConfig:
        """The slicing parameters in force."""
        return self._config

    def seed(self, preceding: bytes) -> None:
        """Prime the window with the bytes preceding the restart point."""
        tail = preceding[-self._window :]
        for byte in tail:
            self._slide(byte)
        self._since = 0
        self._entry_count = 0
        self._pending = False

    def _slide(self, byte: int) -> None:
        backlog = self._backlog
        idx = self._idx
        outgoing = backlog[idx]
        backlog[idx] = byte
        idx += 1
        self._idx = 0 if idx == self._window else idx
        value = self._value
        value = ((value << 1) | (value >> self._top_shift)) & self._mask
        value ^= self._out_rot[outgoing]
        self._value = value ^ self._table[byte]

    def push(self, entry: bytes) -> bool:
        """Consume one entry; return True if a node boundary closes here.

        A pattern detected before ``min_entries`` entries have joined the
        node stays *pending*; the node closes at the first entry end where
        both conditions hold.  This keeps every non-final node at least
        ``min_entries`` long, which is what guarantees index levels shrink.
        """
        self._idx, self._value, self._since, hits = _scan_cyclic(
            entry,
            self._backlog,
            self._idx,
            self._value,
            self._since,
            self._table,
            self._out_rot,
            self._mask,
            self._top_shift,
            self._pattern_mask,
            self._min_size,
            self._max_size,
            reset_since_on_hit=False,
        )
        self._entry_count += 1
        if hits:
            self._pending = True
        if self._pending and self._entry_count >= self._min_entries:
            self._since = 0
            self._entry_count = 0
            self._pending = False
            return True
        return False

    def push_many(self, encoded: Sequence[bytes]) -> List[int]:
        """Push a batch of encoded entries; return boundary indices.

        The returned indices ``i`` mean "a node ends after ``encoded[i]``"
        — exactly the entries for which :meth:`push` would have returned
        True.  :class:`repro.rolling.fast.VectorEntryChunker` implements
        the same contract vectorized.
        """
        return [index for index, entry in enumerate(encoded) if self.push(entry)]


def chunk_entries(
    entries: Sequence[bytes],
    config: ChunkerConfig = ENTRY_CONFIG,
    preceding: bytes = b"",
) -> List[Tuple[int, int]]:
    """Group ``entries`` into node spans ``(start_index, end_index)``."""
    spans: List[Tuple[int, int]] = []
    chunker = EntryChunker(config)
    if preceding:
        chunker.seed(preceding)
    start = 0
    for index, entry in enumerate(entries):
        if chunker.push(entry):
            spans.append((start, index + 1))
            start = index + 1
    if start < len(entries):
        spans.append((start, len(entries)))
    return spans
