"""Content-defined slicing (paper §II-A).

POS-Tree node boundaries are "patterns detected from the contained entries":
a rolling hash :math:`\\Phi` is computed over a sliding k-byte window and a
boundary occurs wherever :math:`\\Phi \\bmod 2^q = 0`.  This package provides

- :class:`~repro.rolling.hashes.CyclicPolynomialHash` — the exact
  recurrence from the paper (buzhash), the one rolling hash there is,
- :mod:`~repro.rolling.chunker` — byte-stream and entry-stream chunkers
  with min/max-size clamps (entry streams extend a mid-entry pattern to
  the entry boundary, as the paper specifies): the streaming reference,
- :mod:`~repro.rolling.fast` — the numpy chunkers the engine runs, which
  cut exactly where the reference does.
"""

from repro.rolling.chunker import (
    ChunkerConfig,
    EntryChunker,
    chunk_bytes,
    chunk_entries,
    iter_chunk_spans,
)
from repro.rolling.fast import (
    VectorEntryChunker,
    fast_chunk_spans,
    fast_entry_spans,
)
from repro.rolling.hashes import CyclicPolynomialHash

__all__ = [
    "ChunkerConfig",
    "EntryChunker",
    "chunk_bytes",
    "chunk_entries",
    "iter_chunk_spans",
    "VectorEntryChunker",
    "fast_chunk_spans",
    "fast_entry_spans",
    "CyclicPolynomialHash",
]
