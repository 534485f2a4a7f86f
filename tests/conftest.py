"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.db.engine import ForkBase
from repro.store import InMemoryStore


def fault_seed(default: int) -> int:
    """The seed every fault suite runs under: ``FORKBASE_SEED``, else the
    suite's own ``default`` (so an unset environment replays exactly the
    schedules it always has)."""
    return int(os.environ.get("FORKBASE_SEED", default))


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
