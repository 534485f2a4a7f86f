"""Vectorized content-defined chunking (numpy).

Pure-Python byte loops cap ingestion at a few MB/s; this module computes
the cyclic-polynomial hash for *every* position of a buffer,

    value[i] = ⊕_{j=0..k-1} δ^j( Γ(data[i-j]) ),

with one kernel (:func:`_window_hashes`) that builds the k-byte window
from two-byte windows by doubling, in O(log k) vectorized passes, then
replays the min/max-size state machine only over the sparse pattern
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

This module is the engine's one chunker.  The streaming reference in
:mod:`repro.rolling.chunker` is the oracle the tests compare it against.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import accumulate
from typing import Any, Iterator, List, Sequence, Tuple

import numpy as _np

from repro.rolling.chunker import BLOB_CONFIG, ENTRY_CONFIG, ChunkerConfig
from repro.rolling.hashes import gamma_table


@lru_cache(maxsize=None)
def _lookup_tables(bits: int, seed: bytes) -> Tuple[Any, Any, int]:
    """Γ and the pair-fused table, as uint64 arrays, plus the latter's width.

    The pair table is the window hash of every two-byte window,
    indexed by ``old | new << 8`` (a little-endian uint16 read of the
    two bytes): ``Γ(new) ⊕ δ(Γ(old))``, kept unfolded (see
    :func:`_delta`).  It does not depend on the window length, so one
    512 KB table per ``(bits, seed)`` serves every config.
    """
    gamma = _np.array(gamma_table(bits, seed), dtype=_np.uint64)
    old = _np.empty_like(gamma)
    width = _delta(gamma, bits, 1, bits, old)
    pairs = (gamma[:, None] ^ old[None, :]).reshape(65536)
    gamma.setflags(write=False)  # shared by every caller: cached
    pairs.setflags(write=False)
    return gamma, pairs, width


def _delta(values: Any, width: int, count: int, bits: int, out: Any) -> int:
    """Write δ^count of ``width``-bit lanes to ``out``; return its width.

    A lane wider than ``bits`` stands for the XOR of its ``bits``-wide
    digits: rotation within ``bits`` bits is multiplication by x^count
    modulo x^bits − 1, so a plain left shift is exact as long as nothing
    leaves the 64-bit lane, and :func:`_fold` reduces once at the end.
    Only a shift that would overflow folds ``values`` (in place, which
    keeps what they stand for) and rotates for real: ``hash_bits`` > 32
    or long windows.
    """
    count %= bits
    if width + count <= 64:
        _np.left_shift(values, count, out=out)
        return width + count
    _fold(values, width, bits)
    high = values << count
    high &= (1 << bits) - 1
    _np.right_shift(values, bits - count, out=out)
    out |= high
    return bits


def _fold(values: Any, width: int, bits: int) -> None:
    """Reduce ``width``-bit lanes in place to the ``bits``-bit hashes."""
    while width > bits:
        high = values >> bits
        values &= (1 << bits) - 1
        values ^= high
        width = max(bits, width - bits)


#: Positions hashed per block.  A block's live arrays (index, lanes and
#: scratch, 8 B/position each: 768 KB) stay in L2 from the gather through
#: the doublings; smaller blocks pay numpy's per-call overhead more often
#: (EXPERIMENTS.md, "One rolling-hash kernel").
_BLOCK = 1 << 15


def _window_hashes(
    data: bytes, config: ChunkerConfig, tail: bytes
) -> Iterator[Tuple[int, Any]]:
    """Full-width Φ of the window ending at every position of ``data``.

    Yields ``(start, values)`` per block, ``values[j]`` being the hash
    after feeding ``data[start + j]`` (a fresh uint64 array the caller
    may keep or overwrite).  ``tail`` is the byte stream immediately
    preceding ``data`` (at most ``window`` bytes); the conceptual zero
    pre-fill pads it on the left, matching the streaming chunkers'
    start state.

    Φ of a window is an XOR of per-offset rotations,
    Φ_k(i) = ⊕_{j<k} δ^j(Γ(b[i−j])), so windows compose:
    Φ_{a+b}(i) = Φ_b(i) ⊕ δ^b(Φ_a(i−b)).  The kernel walks the binary
    expansion of k from the top: one gather of the pair table gives Φ_2,
    each further digit doubles (Φ_2c from Φ_c) and a set digit adds one
    byte (one Γ gather).  At k = 16 that is one gather and three
    doublings per position instead of one pass per window offset.
    """
    window = config.window
    bits = config.hash_bits
    gamma, pairs, pair_width = _lookup_tables(bits, config.seed)
    digits = bin(window)[3:]
    head = bytes(window - len(tail)) + tail
    n = len(data)
    scratch = _np.empty(min(n, _BLOCK) + window, dtype=_np.uint64)
    for start in range(0, n, _BLOCK):
        end = min(start + _BLOCK, n)
        # The block also reads the window - 1 bytes before it.
        size = end - start + window - 1
        if start + 1 >= window:
            region, offset = data, start + 1 - window
        else:
            region, offset = (head + data[:end])[start + 1 :], 0
        if digits:
            index = _np.ndarray((size - 1,), "<u2", region, offset, (1,))
            values = pairs.take(index.astype(_np.intp), mode="clip")
            width, span = pair_width, 2
        else:
            index = _np.frombuffer(region, _np.uint8, size, offset)
            values = gamma.take(index, mode="clip")
            width, span = bits, 1
        for position, digit in enumerate(digits):
            if position:  # Φ_2c(i) = Φ_c(i) ⊕ δ^c(Φ_c(i − c))
                shifted = scratch[: len(values) - span]
                shifted_width = _delta(values[:-span], width, span, bits, shifted)
                values = values[span:]
                values ^= shifted
                width = max(width, shifted_width)
                span *= 2
            if digit == "1":  # Φ_c+1(i) = Γ(b[i]) ⊕ δ(Φ_c(i − 1))
                shifted = scratch[: len(values) - 1]
                width = _delta(values[:-1], width, 1, bits, shifted)
                values = values[1:]
                incoming = _np.frombuffer(region, _np.uint8, size - span, offset + span)
                gamma.take(incoming, out=values, mode="clip")
                values ^= shifted
                span += 1
        _fold(values, width, bits)
        yield start, values


def _pattern_candidates(data: bytes, config: ChunkerConfig, tail: bytes) -> Any:
    """Sorted positions of ``data`` where the raw pattern rule fires."""
    pattern_mask = (1 << config.pattern_bits) - 1
    found: List[Any] = []
    for start, values in _window_hashes(data, config, tail):
        values &= pattern_mask
        found.append((values == 0).nonzero()[0] + start)
    return found[0] if len(found) == 1 else _np.concatenate(found)


def fast_chunk_spans(
    data: bytes,
    config: ChunkerConfig = BLOB_CONFIG,
    preceding: bytes = b"",
) -> List[Tuple[int, int]]:
    """Spans identical to ``list(iter_chunk_spans(data, config, preceding))``."""
    if not data:
        return []

    tail = preceding[-config.window :] if preceding else b""
    candidates = _pattern_candidates(data, config, tail).tolist()
    n = len(data)

    # Replay the min/max state machine over candidates + forced
    # boundaries, on a plain list (as ``push_many`` does).
    spans: List[Tuple[int, int]] = []
    min_size = config.min_size
    max_size = config.max_size
    start = 0
    total_candidates = len(candidates)
    while start < n:
        # Next pattern at or after start + min_size - 1 (0-based position
        # of the byte that completes min_size bytes).
        cand_index = bisect_left(candidates, start + min_size - 1)
        position = candidates[cand_index] if cand_index < total_candidates else n
        end = min(position, start + max_size - 1) + 1
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
    concatenated, hashed by :func:`_window_hashes`, and the state machine is
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
            if stream_len >= config.window:
                self._tail = data[-config.window :]
            else:
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


def fast_entry_spans(
    entries: Sequence[bytes],
    config: ChunkerConfig = ENTRY_CONFIG,
    preceding: bytes = b"",
) -> List[Tuple[int, int]]:
    """Node spans identical to ``chunk_entries(entries, config, preceding)``.

    ``entries`` are the per-entry serializations (the byte stream the
    pattern rule scans); the returned ``(start, end)`` pairs index into
    ``entries``.
    """
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
