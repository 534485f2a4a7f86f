"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import warnings

import pytest

from repro.db.engine import ForkBase
from repro.store import InMemoryStore

#: Deprecated per-plane spellings of ``FORKBASE_SEED``, honoured this round.
_OLD_SEED_NAMES = (
    "FORKBASE_FAULT_SEED",
    "FORKBASE_FSFAULT_SEED",
    "FORKBASE_GRAYFAULT_SEED",
    "FORKBASE_BYZ_SEED",
)


def fault_seed(default: int) -> int:
    """The seed every fault suite runs under: ``FORKBASE_SEED``, else the
    first deprecated name that is set (with a warning: each now reaches
    every plane's suites, not one), else the suite's own ``default`` (so
    an unset environment replays exactly the schedules it always has)."""
    for name in ("FORKBASE_SEED",) + _OLD_SEED_NAMES:
        if name in os.environ:
            if name in _OLD_SEED_NAMES:
                warnings.warn(
                    f"{name} is deprecated and now seeds every fault suite; set FORKBASE_SEED",
                    DeprecationWarning,
                    stacklevel=2,
                )
            return int(os.environ[name])
    return default


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
