"""Shared fixtures for the test suite."""

from __future__ import annotations

import itertools
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy
import pytest
from hypothesis import settings

import repro.postree.builder as builder
import repro.postree.edit as edit
import repro.postree.listtree as listtree
from repro.chunk import Uid
from repro.db.engine import ForkBase
from repro.errors import TransientStoreError
from repro.faults.retry import DeadlineLike, RetryPolicy
from repro.rolling.chunker import (
    BLOB_CONFIG,
    ChunkerConfig,
    EntryChunker,
    chunk_entries,
    iter_chunk_spans,
)
from repro.rolling.hashes import CyclicPolynomialHash
from repro.store import InMemoryStore


#: Tier-1 draws the same hypothesis examples on every run and machine (a
#: hash of each test seeds its draws), so a red run is a real regression,
#: not an unlucky draw.  ``--hypothesis-profile=explore`` draws fresh
#: examples instead; pass ``--hypothesis-seed=<n>`` to replay one run.  A
#: failure it finds becomes an ``@example`` on the test it broke.
settings.register_profile("tier1", derandomize=True)
settings.register_profile("explore", derandomize=False, print_blob=True)
settings.load_profile("tier1")


def fault_seed(default: int) -> int:
    """The seed every fault suite runs under: ``FORKBASE_SEED``, else the
    suite's own ``default`` (so an unset environment replays exactly the
    schedules it always has)."""
    return int(os.environ.get("FORKBASE_SEED", default))


def pin_clock(engine: ForkBase) -> None:
    """Commit timestamps feed version hashing; a counter replays exactly,
    so a fault suite's census (uid labels included) is the same each run."""
    counter = itertools.count(1)
    engine._clock = lambda: float(next(counter))


#: Every branch head of an engine, as :func:`head_map` returns it.
HeadMap = Dict[Tuple[str, str], Uid]


def head_map(engine: ForkBase) -> HeadMap:
    """``{(key, branch): head}`` for every branch head of ``engine``."""
    return {(key, branch): head for key, branch, head in engine.heads.table.all_heads()}


#: Attempts of the policy :func:`check_k_failures` drives.
RETRY_ATTEMPTS = 4


def check_k_failures(
    failures: int,
    deadline: Optional[DeadlineLike] = None,
    on_attempt: Callable[[], object] = lambda: None,
) -> None:
    """Call, through a jittered policy of :data:`RETRY_ATTEMPTS` attempts, a
    callable whose first ``failures`` calls raise distinct transient errors,
    and check what the call is pinned to: the calls made, the exact sleeps
    (the schedule's first delays, one per retry), ``retries``, no deadline
    stop, and once the attempts run out, the last error re-raised as is."""
    slept: List[float] = []
    policy = RetryPolicy(
        attempts=RETRY_ATTEMPTS, base_delay=0.01, jitter=0.5, seed=11, sleep=slept.append
    )
    calls: List[int] = []
    errors = [TransientStoreError(f"flap {n}") for n in range(failures)]

    def fn() -> str:
        on_attempt()
        calls.append(1)
        if len(calls) <= failures:
            raise errors[len(calls) - 1]
        return "ok"

    retried = min(failures, RETRY_ATTEMPTS - 1)
    if failures < RETRY_ATTEMPTS:
        assert policy.call(fn, deadline=deadline) == "ok"
    else:
        with pytest.raises(TransientStoreError) as excinfo:
            policy.call(fn, deadline=deadline)
        assert excinfo.value is errors[-1]
    assert len(calls) == retried + 1
    assert slept == list(policy.delays())[:retried]
    assert policy.retries == retried and policy.deadline_stops == 0


def _reference_chunk_spans(
    data: bytes, config: ChunkerConfig = BLOB_CONFIG, preceding: bytes = b""
) -> List[Tuple[int, int]]:
    return list(iter_chunk_spans(data, config, preceding))


def reference_pattern_candidates(data: bytes, config: ChunkerConfig, tail: bytes) -> Any:
    """The positions of ``data`` where the streaming hash fires the raw
    pattern rule, ``tail`` before it (zero pre-filled, as the chunkers)."""
    window = config.window
    hasher = CyclicPolynomialHash(window, config.hash_bits, config.seed)
    stream = bytes(window) + tail[-window:] + data
    skip = len(stream) - len(data)
    mask = (1 << config.pattern_bits) - 1
    hits = [
        at - skip
        for at in range(window, len(stream))
        if hasher.update(stream[at], stream[at - window]) & mask == 0 and at >= skip
    ]
    return numpy.array(hits, dtype=numpy.intp)


@contextmanager
def pure_chunker() -> Iterator[None]:
    """Run the engine on the streaming reference chunkers.

    The engine slices with the numpy chunkers of ``repro.rolling.fast``
    only; inside this block its four call sites (the bulk builder, the
    positional trees, the splice editor and its in-place patch) get the
    oracle of ``repro.rolling.chunker`` and ``repro.rolling.hashes``
    instead, so a test can hold a root built either way to the same value.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(builder, "fast_entry_spans", chunk_entries)
        patch.setattr(listtree, "fast_entry_spans", chunk_entries)
        patch.setattr(listtree, "fast_chunk_spans", _reference_chunk_spans)
        patch.setattr(edit, "VectorEntryChunker", EntryChunker)
        patch.setattr(edit, "pattern_candidates", reference_pattern_candidates)
        yield


@pytest.fixture
def store() -> InMemoryStore:
    """A fresh in-memory chunk store."""
    return InMemoryStore()


@pytest.fixture
def engine() -> ForkBase:
    """A fresh engine with a deterministic clock."""
    return ForkBase(author="tester", clock=lambda: 1234.5)


@pytest.fixture
def sample_pairs() -> dict:
    """A mid-sized sorted record set (multi-level tree)."""
    return {
        f"key{i:05d}".encode(): f"value-{i}-{'x' * (i % 17)}".encode()
        for i in range(2000)
    }


@pytest.fixture
def small_pairs() -> dict:
    """A record set that fits in one or two leaves."""
    return {f"k{i:03d}".encode(): b"v%d" % i for i in range(40)}


@pytest.fixture(scope="session")
def fbcheck_live_report():
    """One ``--stale-allow`` fbcheck scan of the live tree, shared by
    ``test_fbcheck.py`` and ``test_fbcheck_flow.py`` (a full scan takes
    seconds; two tests read it)."""
    from fbcheck import check_paths

    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(Path(__file__).resolve().parents[1])
        return check_paths(["src", "tests", "benchmarks", "examples"], stale_allow=True)
