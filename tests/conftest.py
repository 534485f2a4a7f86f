"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

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
