"""Cross-commit golden for every seeded fault decision.

``test_cluster_replay_golden.py`` freezes what a whole cluster run
observes; it pins no crash or filesystem decision, and a compensating
pair of changes inside one plane could slip past it.  This file freezes
the decisions themselves, plane by plane: draws, mutation offsets, tear
lengths, derived seeds, schedules and census stamps, each section as a
short hash *generated on the parent commit* (8f99462) — before the
planes were rewritten over ``repro.faults.kernel``.  The ``crash``
sections were regenerated when process death became the disk plane's
``crash`` flavor: they pin where a targeted crash dies, the torn prefix
it lands, and the census around it.

A moved hash means a replay somewhere no longer reproduces.  To see what
moved, run ``decisions(seed)`` on both checkouts and diff the dicts.  To
regenerate after a *deliberate* change (reason in CHANGES.md):
``PYTHONPATH=src python tests/test_fault_kernel_golden.py``.
"""

import dataclasses
import hashlib
import json
import pathlib
import tempfile

import pytest

from repro.chunk import Chunk, ChunkType, Uid
from repro.cluster.antientropy import _audit_draw
from repro.errors import DiskFullError, SimulatedCrash, StoreError
from repro.faults import (
    ByzantinePlan,
    ByzantineStore,
    FaultPlan,
    FaultyStore,
    FsFaultPlan,
    NetworkPlan,
    RetryPolicy,
    fs_zone,
)
from repro.security import TamperingStore
from repro.store import InMemoryStore
from repro.store.base import ChunkStore
from repro.store.durability import durable_replace, fsync_file, read_check, write_bytes

SEEDS = (1, 42)
NODES = ["node-00", "node-01", "node-02", "node-03"]
UIDS = [Uid.of(b"golden-uid-%d" % n) for n in range(3)]
DATA = bytes(range(256)) * 3
ATTEMPTS = (0, 1, 7)

#: ``seed<seed>-<section>`` -> first 16 hex digits of SHA-256 over the
#: section's canonical JSON, generated by running this file on 8f99462
#: (the two ``crash`` sections: regenerated for the disk plane's flavor).
GOLDEN = {
    "seed1-store": "87ce709404a74212",
    "seed1-crash": "d62bb5289f8dc87e",
    "seed1-fs": "41aa0577363638a2",
    "seed1-network": "2fb31838422f92a4",
    "seed1-byzantine": "1f1934214938dca1",
    "seed1-defense": "8b8781182d34da0a",
    "seed42-store": "9475ede59b1e1f21",
    "seed42-crash": "e08b8bb342f7332b",
    "seed42-fs": "d01dffa849c12ac8",
    "seed42-network": "6963f9edd491172a",
    "seed42-byzantine": "30d7dfe4ce1aa51a",
    "seed42-defense": "cec56e2822768bcd",
}


def _store_plane(seed: int) -> dict:
    plan = FaultPlan(
        seed=seed,
        corrupt_read_rate=0.5,
        drop_put_rate=0.5,
        torn_put_rate=0.5,
        transient_error_rate=0.5,
    )
    cells = [(uid, attempt) for uid in UIDS for attempt in ATTEMPTS]
    return {
        "draw": [plan.draw(kind, uid, a) for kind in ("corrupt-read", "x") for uid, a in cells],
        "decide": [
            (
                plan.corrupt_read(uid, a),
                plan.drop_put(uid, a),
                plan.torn_put(uid, a),
                plan.transient_error("get", uid, a),
                plan.transient_error("put", uid, a),
            )
            for uid, a in cells
        ],
        "mutate": [plan.mutate(DATA, uid, a).hex() for uid, a in cells]
        + [plan.mutate(b"", UIDS[0], 0).hex()],
        "tear": [len(plan.tear(DATA, uid, a)) for uid, a in cells]
        + [len(plan.tear(b"x", UIDS[0], 0))],
        "scoped": [plan.scoped(name).seed for name in NODES]
        + [plan.scoped("a").scoped("b").seed],
        "rng": [plan.rng(label).random() for label in ("flaps", "workload")],
        "flaps": plan.flap_schedule(NODES, 6, 200) + plan.flap_schedule(NODES, 3, 50, (2, 4)),
    }


def _fs_census(plan: FsFaultPlan, root: pathlib.Path) -> dict:
    """A short write/fsync/replace/read workload under ``plan``."""
    root.mkdir()
    segment, temp, index = root / "seg-000000.dat", root / "index.tmp", root / "index.dat"
    errors = []

    def attempt(step, *args):
        try:
            step(*args)
        except StoreError as error:
            errors.append(type(error).__name__)

    with fs_zone(plan) as shim:
        with open(segment, "ab") as handle:
            attempt(write_bytes, handle, DATA)
            attempt(write_bytes, handle, DATA[:100])
            attempt(write_bytes, handle, DATA[:50], "relabelled")
            attempt(fsync_file, handle)
        temp.write_bytes(b"index")
        attempt(durable_replace, str(temp), str(index))
        attempt(read_check, str(segment))
        attempt(read_check, str(segment), "probe")
    return {
        # (index, syscall kind, label, fault, stamp)
        "trace": [dataclasses.astuple(hit) for hit in shim.trace],
        "injected": [hit.index for hit in shim.injected],
        "errors": errors,
        "landed": segment.stat().st_size,
        "dropped": shim.dropped_bytes,
    }


def _crash_census(plan: FsFaultPlan, root: pathlib.Path) -> dict:
    """A short write/fsync/replace/read workload under a crash plan."""
    root.mkdir()
    segment, temp, index = root / "seg-000000.dat", root / "index.tmp", root / "index.dat"
    crashed = None
    with fs_zone(plan) as shim:
        try:
            with open(segment, "ab") as handle:
                write_bytes(handle, DATA, "journal.wal")
                fsync_file(handle, "journal.wal")
                write_bytes(handle, DATA[:100])
                write_bytes(handle, b"x")
                fsync_file(handle)
            temp.write_bytes(b"index")
            durable_replace(str(temp), str(index))
            read_check(str(segment))
        except SimulatedCrash as crash:
            crashed = (crash.boundary, crash.syscall, crash.label)
    return {
        "trace": [dataclasses.astuple(hit) for hit in shim.trace],
        "crashed": crashed,
        "landed": segment.stat().st_size,
        "replaced": index.exists(),
    }


def _crash_plane(seed: int) -> dict:
    with tempfile.TemporaryDirectory() as scratch:
        root = pathlib.Path(scratch)
        return {
            "torn": [
                _crash_census(FsFaultPlan(seed=seed, fail_at=at, flavor="crash"), root / str(at))
                for at in range(9)
            ],
        }


def _short_write_lengths(plan: FsFaultPlan, root: pathlib.Path) -> list:
    """Prefix lengths of consecutive short writes to one label.

    Pins the existing quirk that the prefix length is drawn from
    ``attempt + 1`` (the shim reads the counter after advancing it).
    """
    root.mkdir()
    path = root / "seg.dat"
    lengths = []
    with fs_zone(plan):
        for _ in range(4):
            before = path.stat().st_size if path.exists() else 0
            with open(path, "ab") as handle:
                try:
                    write_bytes(handle, DATA)
                except DiskFullError:
                    pass
            lengths.append(path.stat().st_size - before)
    return lengths


def _fs_plane(seed: int) -> dict:
    rated = FsFaultPlan(
        seed=seed,
        enospc_rate=0.3,
        short_write_rate=0.3,
        eio_read_rate=0.5,
        fsync_fail_rate=0.5,
    )
    cells = [
        (syscall, label, attempt)
        for syscall in ("write", "fsync", "read", "replace")
        for label in ("seg-000000.dat", "<dir>")
        for attempt in ATTEMPTS
    ]
    targeted = ((0, "short"), (1, "enospc"), (3, "fsync"), (5, "eio"), (6, "eio"))
    with tempfile.TemporaryDirectory() as scratch:
        root = pathlib.Path(scratch)
        return {
            "draw": [rated.draw(*cell) for cell in cells],
            "decide": [rated.decide(*cell, index) for index, cell in enumerate(cells)],
            "census": _fs_census(FsFaultPlan(seed=seed), root / "census"),
            "rated": _fs_census(rated, root / "rated"),
            "targeted": [
                _fs_census(FsFaultPlan(seed=seed, fail_at=at, flavor=flavor), root / f"{at}{flavor}")
                for at, flavor in targeted
            ],
            "short": _short_write_lengths(
                FsFaultPlan(seed=seed, short_write_rate=1.0), root / "short"
            ),
        }


def _network_plane(seed: int) -> dict:
    plan = NetworkPlan(seed=seed, drop_rate=0.5, delay_rate=0.5, dup_rate=0.5)
    cells = [
        (src, dst, op, uid, attempt)
        for src, dst in (("client", "node-00"), ("node-01", "node-02"))
        for op in ("put", "get")
        for uid in UIDS[:2]
        for attempt in ATTEMPTS
    ]
    return {
        "draw": [plan.draw(fault, *cell) for fault in ("drop", "x") for cell in cells],
        "decide": [
            (plan.drop(*cell), plan.delay(*cell), plan.duplicate(*cell)) for cell in cells
        ],
        "delay_for": [plan.delay_for(*cell) for cell in cells],
        "service": [plan.service_ticks(*cell, factor) for cell in cells for factor in (1, 3, 48)],
        "scoped": [plan.scoped(name).seed for name in NODES],
        "rng": [plan.rng(label).random() for label in ("partitions", "slowness", "x")],
        "partitions": [
            (at, None if groups is None else [sorted(side) for side in groups])
            for at, groups in plan.partition_schedule(NODES + ["client"], 8, 300)
        ],
        "slow": plan.slow_schedule(NODES, 8, 300),
    }


def _byzantine_plane(seed: int) -> dict:
    plan = ByzantinePlan(
        seed=seed,
        flip_rate=0.5,
        substitute_rate=0.5,
        withhold_rate=0.5,
        fake_ack_rate=0.5,
        conceal_rate=0.5,
        hint_corrupt_rate=0.5,
    )
    cells = [
        (node, op, uid, attempt)
        for node in NODES[:2]
        for op in ("get", "has")
        for uid in UIDS[:2]
        for attempt in ATTEMPTS
    ]
    return {
        "draw": [plan.draw(node, "flip", op, uid, a) for node, op, uid, a in cells],
        "decide": [
            (plan.flip(*cell), plan.substitute(*cell), plan.withhold(*cell), plan.fake_ack(*cell))
            for cell in cells
        ],
        "conceal": [plan.conceal(node, uid) for node in NODES for uid in UIDS],
        "hint": [plan.corrupt_hint(node, uid, a) for node in NODES[:2] for uid in UIDS for a in (0, 1)],
        "mutate": [plan.mutate(node, op, DATA, uid, a).hex() for node, op, uid, a in cells[:6]]
        + [plan.mutate("node-00", "hint", b"", UIDS[0], 0).hex()],
        "pick": [
            plan.pick(node, "donor", "get", uid, 0, n)
            for node in NODES[:2]
            for uid in UIDS
            for n in (1, 7, 1000)
        ],
    }


def _defense_plane(seed: int) -> dict:
    policy = RetryPolicy(attempts=7, jitter=0.5, seed=seed)
    return {
        "delays": list(policy.delays()),
        "default": list(RetryPolicy(seed=seed).delays()),
        "audit": [_audit_draw(seed, node, uid) for node in NODES[:2] for uid in UIDS],
    }


PLANES = {
    "store": _store_plane,
    "crash": _crash_plane,
    "fs": _fs_plane,
    "network": _network_plane,
    "byzantine": _byzantine_plane,
    "defense": _defense_plane,
}


def decisions(seed: int) -> dict:
    """Every frozen decision for one seed, plane by plane."""
    return {name: plane(seed) for name, plane in PLANES.items()}


def short_hashes(seed: int) -> dict:
    return {
        f"seed{seed}-{name}": hashlib.sha256(
            json.dumps(value, sort_keys=True).encode("utf-8")
        ).hexdigest()[:16]
        for name, value in decisions(seed).items()
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_decisions_match_parent_commit(seed):
    got = short_hashes(seed)
    assert got == {name: GOLDEN[name] for name in got}


def test_golden_covers_every_plane():
    assert set(GOLDEN) == {f"seed{seed}-{name}" for seed in SEEDS for name in PLANES}


# -- a batch cannot bypass a lie ----------------------------------------------

BATCH = [Chunk(ChunkType.BLOB, b"batch-%d" % n) for n in range(12)]


@pytest.mark.parametrize("lying", [FaultyStore, ByzantineStore, TamperingStore])
def test_lying_stores_keep_the_per_chunk_insert_loop(lying):
    assert lying._insert_many is ChunkStore._insert_many


def test_put_many_draws_once_per_chunk():
    rot = FaultyStore(InMemoryStore(), FaultPlan(seed=3, drop_put_rate=1.0))
    assert rot.put_many(BATCH) == len(BATCH)
    assert rot.injected_dropped_puts == len(BATCH) and len(rot.backing) == 0

    liar = ByzantineStore(InMemoryStore(), ByzantinePlan(seed=3, fake_ack_rate=1.0), node="n")
    assert liar.put_many(BATCH) == len(BATCH)
    assert liar.writes_faked == len(BATCH) and len(liar.backing) == 0

    scripted = TamperingStore(InMemoryStore())
    assert scripted.put_many(BATCH) == len(BATCH)
    assert len(scripted.backing) == len(BATCH)


# -- one place hashes a fault decision ----------------------------------------


def test_one_module_under_faults_imports_hashlib():
    import repro.faults

    package = pathlib.Path(repro.faults.__file__).parent
    importers = sorted(
        path.name for path in package.glob("*.py") if "import hashlib" in path.read_text()
    )
    assert importers == ["kernel.py"]


if __name__ == "__main__":
    print(json.dumps({k: v for seed in SEEDS for k, v in short_hashes(seed).items()}, indent=4))
