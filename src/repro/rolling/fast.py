"""Vectorized content-defined chunking (optional numpy fast path).

Pure-Python byte loops cap ingestion at a few MB/s; this module computes
the cyclic-polynomial hash for *every* position of a buffer with k
vectorized passes (one per window offset):

    value[i] = ⊕_{j=0..k-1} δ^j( Γ(data[i-j]) )

then replays the min/max-size state machine only over the sparse pattern
candidates.  Two consumers:

- :func:`fast_chunk_spans` slices raw bytes (blob leaves) — spans are
  **bit-identical** to :func:`repro.rolling.chunker.iter_chunk_spans`;
- :class:`VectorEntryChunker` / :func:`fast_entry_spans` group *entries*
  into POS-Tree nodes, replaying the min-size / max-size / min-entries /
  pattern-pending state machine at entry granularity (the paper's
  "boundary extended to cover the whole entry" rule) — boundaries are
  **bit-identical** to :class:`repro.rolling.chunker.EntryChunker`.

Both equivalences are asserted by tests (tests/test_fast_chunker.py,
tests/test_fast_entry_chunker.py); structural invariance makes them
mechanically checkable end-to-end: a tree bulk-built either way has the
same root uid.

If numpy is unavailable, everything degrades to the pure reference
implementation.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from functools import lru_cache
from itertools import accumulate
from typing import Any, Iterator, List, Sequence, Tuple, Union

from repro.rolling.chunker import (
    BLOB_CONFIG,
    ChunkerConfig,
    ENTRY_CONFIG,
    EntryChunker,
    chunk_entries,
    iter_chunk_spans,
)
from repro.rolling.hashes import rotated_gamma_table

try:  # pragma: no cover - exercised implicitly by which path runs
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: Test/benchmark hook: force the pure reference path even with numpy.
_FORCE_PURE = False


def numpy_available() -> bool:
    """True when the vectorized path can run."""
    return _np is not None and not _FORCE_PURE


@contextmanager
def forced_pure() -> Iterator[None]:
    """Context manager forcing the pure reference path.

    Used by the equivalence tests and the throughput benchmark to measure
    the interpreted implementation on machines where numpy is installed.
    """
    global _FORCE_PURE
    previous = _FORCE_PURE
    _FORCE_PURE = True
    try:
        yield
    finally:
        _FORCE_PURE = previous


@lru_cache(maxsize=None)
def _gamma_array(bits: int, seed: bytes) -> Any:
    """Γ as a numpy lookup table, in the narrowest sufficient dtype."""
    dtype = _np.uint32 if bits <= 32 else _np.uint64
    return _np.array(rotated_gamma_table(bits, 0, seed), dtype=dtype)


@lru_cache(maxsize=None)
def _low_pair_tables(bits: int, window: int, seed: bytes) -> Tuple[Tuple[Any, ...], Any]:
    """Byte-pair gather tables for the low 16 bits of the position hashes.

    XOR is bitwise-independent, and the pattern rule only ever inspects the
    low ``pattern_bits`` bits of Φ, so the candidate scan can work on a
    16-bit truncation of the hash.  Two adjacent window offsets are folded
    into one 65536-entry table:

        PT_m[new << 8 | old] = low16(δ^{2m}(Γ(new)) ⊕ δ^{2m+1}(Γ(old)))

    halving both the gathers and the memory traffic versus one 256-entry
    gather (or shift pass) per offset.  Odd windows keep one single-byte
    table for the final offset.  Each table is 128 KB — L2-resident.
    """

    def low16(rotation: int) -> Any:
        table = _np.array(rotated_gamma_table(bits, rotation, seed), dtype=_np.uint64)
        return (table & _np.uint64(0xFFFF)).astype(_np.uint16)

    pair_tables = []
    for m in range(window // 2):
        new16 = low16(2 * m)
        old16 = low16(2 * m + 1)
        pair_tables.append((new16[:, None] ^ old16[None, :]).reshape(65536))
    single = low16(window - 1) if window % 2 else None
    return tuple(pair_tables), single


#: Positions hashed per block: index slices (8 B/position) and gather
#: outputs stay cache-resident, roughly halving wall time versus one
#: full-buffer pass per table (measured on 26.8 MB streams).
_LOW16_BLOCK = 1 << 17


def _position_low16(data: bytes, config: ChunkerConfig, tail: bytes) -> Any:
    """Low 16 bits of the window hash ending at every position of ``data``.

    Same contract as :func:`_position_hashes` but truncated to the low 16
    bits, which is all the pattern rule needs when ``pattern_bits <= 16``.
    Adjacent bytes are fused into 16-bit pair indices (two strided byte
    copies into a little-endian uint16 view — no integer math), so each
    pair table covers two window offsets in one gather; gathers run on
    ``intp`` indices (``np.take``'s fast path, converted per cache-sized
    block) so the index widening never touches DRAM-scale arrays.
    """
    window = config.window
    prefix = b"\x00" * (window - len(tail)) + tail
    buffer = _np.frombuffer(prefix + data, dtype=_np.uint8)
    n = len(data)
    pair_tables, single = _low_pair_tables(config.hash_bits, window, config.seed)
    count_pairs = len(pair_tables)
    if count_pairs:
        # pair16[t] = buffer[t+1] << 8 | buffer[t]: the pair *ending* at
        # buffer position p is pair16[p - 1].
        pair16 = _np.empty(len(buffer) - 1, dtype=_np.uint16)
        as_bytes = pair16.view(_np.uint8)
        if _np.little_endian:
            as_bytes[0::2] = buffer[:-1]
            as_bytes[1::2] = buffer[1:]
        else:  # pragma: no cover - big-endian hosts
            as_bytes[1::2] = buffer[:-1]
            as_bytes[0::2] = buffer[1:]
    values = _np.empty(n, dtype=_np.uint16)
    block = _LOW16_BLOCK
    seg = _np.empty(block + window, dtype=_np.intp)
    scratch = _np.empty(block, dtype=_np.uint16)
    for block_start in range(0, n, block):
        block_end = min(block_start + block, n)
        cnt = block_end - block_start
        acc = values[block_start:block_end]
        first = True
        if count_pairs:
            # Gather m covers offsets 2m/2m+1 via the pair ending at buffer
            # position window + i - 2m; widen the union of the slices once.
            lo = window - 2 * (count_pairs - 1) - 1 + block_start
            hi = window - 1 + block_start + cnt
            idx = seg[: hi - lo]
            _np.copyto(idx, pair16[lo:hi], casting="unsafe")
            base = hi - lo - cnt  # start of gather m=0 within idx
            for m, table in enumerate(pair_tables):
                part = idx[base - 2 * m : base - 2 * m + cnt]
                if first:
                    table.take(part, out=acc, mode="clip")
                    first = False
                else:
                    table.take(part, out=scratch[:cnt], mode="clip")
                    _np.bitwise_xor(acc, scratch[:cnt], out=acc)
        if single is not None:
            # Odd window: the last offset (window - 1) reads buffer[i + 1].
            idx = seg[:cnt]
            _np.copyto(idx, buffer[1 + block_start : 1 + block_end], casting="unsafe")
            if first:
                single.take(idx, out=acc, mode="clip")
            else:
                single.take(idx, out=scratch[:cnt], mode="clip")
                _np.bitwise_xor(acc, scratch[:cnt], out=acc)
    return values


def _position_hashes(data: bytes, config: ChunkerConfig, tail: bytes) -> Any:
    """Hash value of the window ending at every position of ``data``.

    ``tail`` is the byte stream immediately preceding ``data`` (at most
    ``window`` bytes); the conceptual zero pre-fill of the rolling window
    pads it on the left, matching the streaming chunkers' start state.

    One gather maps every byte through Γ; each of the k window offsets
    then contributes δ^offset of its slice via two shifts and a mask —
    value[i] = ⊕_j δ^j(Γ(buffer[window + i - j])) — which is ~4× faster
    than one 256-entry gather per offset.
    """
    window = config.window
    bits = config.hash_bits
    prefix = b"\x00" * (window - len(tail)) + tail
    buffer = _np.frombuffer(prefix + data, dtype=_np.uint8)
    n = len(data)
    table = _gamma_array(bits, config.seed)
    dtype = table.dtype
    mask = dtype.type((1 << bits) - 1)
    gamma = _np.take(table, buffer)
    values = _np.zeros(n, dtype=dtype)
    scratch = _np.empty(n, dtype=dtype)
    for offset in range(window):
        segment = gamma[window - offset : window - offset + n]
        rotation = offset % bits
        if rotation == 0:
            _np.bitwise_xor(values, segment, out=values)
            continue
        _np.left_shift(segment, dtype.type(rotation), out=scratch)
        _np.bitwise_and(scratch, mask, out=scratch)
        _np.bitwise_xor(values, scratch, out=values)
        _np.right_shift(segment, dtype.type(bits - rotation), out=scratch)
        _np.bitwise_xor(values, scratch, out=values)
    return values


def _pattern_candidates(data: bytes, config: ChunkerConfig, tail: bytes) -> Any:
    """Sorted positions of ``data`` where the raw pattern rule fires."""
    if config.pattern_bits <= 16:
        values = _position_low16(data, config, tail)
    else:
        values = _position_hashes(data, config, tail)
    pattern_mask = values.dtype.type((1 << config.pattern_bits) - 1)
    return _np.nonzero((values & pattern_mask) == 0)[0]


def fast_chunk_spans(
    data: bytes,
    config: ChunkerConfig = BLOB_CONFIG,
    preceding: bytes = b"",
) -> List[Tuple[int, int]]:
    """Spans identical to ``list(iter_chunk_spans(data, config, preceding))``.

    Numpy-less environments fall back to the reference path.
    """
    if not numpy_available() or not data:
        return list(iter_chunk_spans(data, config, preceding))

    window = config.window
    tail = preceding[-window:] if preceding else b""
    candidates = _pattern_candidates(data, config, tail)
    n = len(data)

    # Replay the min/max state machine over candidates + forced boundaries.
    spans: List[Tuple[int, int]] = []
    min_size = config.min_size
    max_size = config.max_size
    start = 0
    total_candidates = len(candidates)
    while start < n:
        # Next pattern at or after start + min_size - 1 (0-based position
        # of the byte that completes min_size bytes).
        earliest = start + min_size - 1
        cand_index = int(_np.searchsorted(candidates, earliest)) if total_candidates else 0
        if cand_index < total_candidates:
            position = int(candidates[cand_index])
        else:
            position = n  # no more patterns
        forced = start + max_size - 1
        boundary = min(position, forced)
        end = boundary + 1
        if end >= n:
            spans.append((start, n))
            break
        spans.append((start, end))
        start = end
    return spans


def fast_chunk_bytes(
    data: bytes,
    config: ChunkerConfig = BLOB_CONFIG,
    preceding: bytes = b"",
) -> List[bytes]:
    """Materialized fast-path chunks."""
    return [data[s:e] for s, e in fast_chunk_spans(data, config, preceding)]


class VectorEntryChunker:
    """Vectorized drop-in for :class:`EntryChunker` (cyclic hash + numpy).

    Same contract: entries are fed in stream order, a True/boundary means
    "the current node ends after this entry".  Internally each batch is
    concatenated, hashed with the k-pass scheme, and the state machine is
    replayed over the sparse candidate set with O(nodes · log candidates)
    work instead of O(bytes) interpreted steps.

    Carried state between batches:

    - the last ``window`` bytes of the stream (hash continuity — the
      rolling window never resets across node boundaries);
    - ``since`` (bytes since the last node boundary);
    - ``entry_count`` / ``pending`` (the min-entries gate: a pattern seen
      before ``min_entries`` entries joined the node stays pending until
      both conditions hold at an entry end).
    """

    __slots__ = ("_config", "_tail", "_since", "_entry_count", "_pending")

    def __init__(self, config: ChunkerConfig = ENTRY_CONFIG) -> None:
        self._config = config
        self._tail = b""
        self._since = 0
        self._entry_count = 0
        self._pending = False

    @property
    def config(self) -> ChunkerConfig:
        """The slicing parameters in force."""
        return self._config

    def seed(self, preceding: bytes) -> None:
        """Prime the window with the bytes preceding the restart point."""
        self._tail = preceding[-self._config.window :]
        self._since = 0
        self._entry_count = 0
        self._pending = False

    def push(self, entry: bytes) -> bool:
        """Consume one entry; True if a node boundary closes here."""
        return bool(self.push_many((entry,)))

    def push_many(self, encoded: Sequence[bytes]) -> List[int]:
        """Consume a batch of encoded entries; return boundary indices.

        Bit-identical to calling :meth:`EntryChunker.push` per entry and
        collecting the indices that returned True — including across
        arbitrary batch splits (asserted by the property tests).
        """
        total = len(encoded)
        if total == 0:
            return []
        config = self._config
        data = b"".join(encoded)
        stream_len = len(data)

        # numpy does the hash pass only; the replay below runs on plain
        # lists (``bisect`` on a list beats ``np.searchsorted`` + ``int()``
        # per node at every batch size, most at the editor's ~10 entries).
        candidates: List[int] = []
        if stream_len:
            candidates = _pattern_candidates(data, config, self._tail).tolist()
            self._tail = (self._tail + data)[-config.window :]
        total_candidates = len(candidates)
        ends = list(accumulate(map(len, encoded)))

        min_size = config.min_size
        max_size = config.max_size
        min_entries = config.min_entries
        entry_count = self._entry_count
        pending = self._pending
        # Local byte coordinate where the current node began (≤ 0 when the
        # node started in an earlier batch: `since` bytes already fed).
        node_start = -self._since

        boundaries: List[int] = []
        index = 0
        while index < total:
            if pending:
                # Pattern already latched: the node closes at the entry
                # where the count reaches min_entries.
                close = index + max(0, min_entries - entry_count - 1)
                if close >= total:
                    entry_count += total - index
                    break
                boundaries.append(close)
                node_start = ends[close]
                entry_count = 0
                pending = False
                index = close + 1
                continue
            entry_start = ends[index - 1] if index else 0
            # First position satisfying the pattern rule with the min-size
            # gate (since ≥ min_size ⇔ position ≥ node_start + min_size - 1),
            # restricted to the unprocessed entries.
            threshold = max(node_start + min_size - 1, entry_start)
            cand_index = bisect_left(candidates, threshold)
            pattern_pos = candidates[cand_index] if cand_index < total_candidates else stream_len
            # First position where the max-size clamp forces a hit.  While
            # not pending, since < max_size holds at every entry end (a
            # byte reaching max_size latches pending), so forced ≥ entry_start.
            forced_pos = node_start + max_size - 1
            hit_pos = min(pattern_pos, forced_pos)
            if hit_pos >= stream_len:
                entry_count += total - index
                break
            # The paper's extension rule: the hit belongs to the entry
            # containing that byte, and the boundary moves to its end —
            # or later, if the min-entries gate is still unsatisfied.
            hit_entry = bisect_right(ends, hit_pos)
            close = max(hit_entry, index + min_entries - entry_count - 1)
            if close >= total:
                entry_count += total - index
                pending = True
                break
            boundaries.append(close)
            node_start = ends[close]
            entry_count = 0
            pending = False
            index = close + 1

        self._since = stream_len - node_start
        self._entry_count = entry_count
        self._pending = pending
        return boundaries


#: Either chunker implementation, as returned by :func:`make_entry_chunker`.
AnyEntryChunker = Union[EntryChunker, VectorEntryChunker]


def make_entry_chunker(config: ChunkerConfig = ENTRY_CONFIG) -> AnyEntryChunker:
    """Best available entry chunker for ``config``.

    Returns the vectorized implementation when numpy is present; the pure
    streaming reference otherwise.  Both honour the same
    ``seed``/``push``/``push_many`` contract, so call sites need not care
    which they got.
    """
    if numpy_available():
        return VectorEntryChunker(config)
    return EntryChunker(config)


def fast_entry_spans(
    entries: Sequence[bytes],
    config: ChunkerConfig = ENTRY_CONFIG,
    preceding: bytes = b"",
) -> List[Tuple[int, int]]:
    """Node spans identical to ``chunk_entries(entries, config, preceding)``.

    ``entries`` are the per-entry serializations (the byte stream the
    pattern rule scans); the returned ``(start, end)`` pairs index into
    ``entries``.  Falls back to the pure reference when the fast path
    cannot run.
    """
    if not numpy_available():
        return chunk_entries(entries, config, preceding)
    chunker = VectorEntryChunker(config)
    if preceding:
        chunker.seed(preceding)
    spans: List[Tuple[int, int]] = []
    start = 0
    for boundary in chunker.push_many(entries):
        spans.append((start, boundary + 1))
        start = boundary + 1
    if start < len(entries):
        spans.append((start, len(entries)))
    return spans
