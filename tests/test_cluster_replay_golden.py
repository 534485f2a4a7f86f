"""Cross-commit replay golden for ``ClusterStore``.

The seeded torture suites compare run-vs-run inside one checkout, so a
refactor that reorders sends, retries, breaker records or audits — but
does so deterministically — sails through all of them.  This file freezes
one fingerprint per scenario as a short hash *generated on the parent
commit*: a scenario's hash moves exactly when the message order or any
observable counter moves.

Every scenario drives one cluster through the whole fault matrix at once:
5 nodes, RF 3, quorum 2; a ``NetworkPlan`` with drops, delays and
duplicates; a ``FaultyStore`` under every node; one ``ByzantinePlan``
node; a second ``client()`` origin with its own deadline budget; a
heartbeat round from the acting origin every sixth op; a slow node, a
partition + heal, a kill + revive; then ``repair()``, ``scrub()``,
``readmit()`` and ``anti_entropy_pass()``.  The fingerprint is the whole
``health_report()`` plus ``durability_check()``, every maintenance
report, every raised error class by op index, and the transport clock.

To regenerate (after a *deliberate* behaviour change, with the reason in
CHANGES.md): ``PYTHONPATH=src python tests/test_cluster_replay_golden.py``
prints the dict to paste into ``GOLDEN``.
"""

import dataclasses
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.chunk import Chunk, ChunkType
from repro.cluster import ClusterStore
from repro.errors import ForkBaseError
from repro.faults import (
    ByzantinePlan,
    ByzantineStore,
    FaultPlan,
    FaultyStore,
    NetworkPlan,
    PartitionedTransport,
    RetryPolicy,
    make_byzantine,
)
from repro.store import InMemoryStore

OPS = 90

#: ``plain`` and ``hedged`` are one scenario under two names: hedged reads
#: are the read walk's only mode, so the default cluster is the hedged one.
#: ``hedged`` keeps its parent literal unchanged; ``plain`` is pinned to the
#: same literal, so the two agree by construction.
CONFIGS = {
    "plain": {},
    "hedged": {},
    "deadline60": {"deadline_budget": 60},
    "deadline30": {"deadline_budget": 30},
}

SEEDS = (1, 42)

#: scenario -> first 16 hex digits of SHA-256 over the canonical JSON
#: fingerprint.  Re-pinned when hedged reads became the read walk's only
#: mode and the breaker threshold a constant (5): each literal is the
#: parent commit's fingerprint of the same scenario run with
#: ``hedge_reads=True, breaker_threshold=5``.
GOLDEN = {
    "seed1-plain": "eecc5c7e222c74ba",
    "seed1-hedged": "eecc5c7e222c74ba",
    "seed1-deadline60": "e8ea62d1904a18a6",
    "seed1-deadline30": "1db17c3937a09df7",
    "seed42-plain": "371a418573b5bf3e",
    "seed42-hedged": "371a418573b5bf3e",
    "seed42-deadline60": "aa6c11b0b7997469",
    "seed42-deadline30": "4b2f024e0727bb45",
}


def _chunk(seed: int, n: int) -> Chunk:
    return Chunk(ChunkType.BLOB, (b"golden-%d-%d-" % (seed, n)) * 5)


def fingerprint(seed: int, config: dict) -> dict:
    """Run one scenario; return everything observable about it."""
    transport = PartitionedTransport(
        NetworkPlan(seed=seed, drop_rate=0.06, delay_rate=0.05, dup_rate=0.05)
    )
    disk = FaultPlan(
        seed=seed,
        corrupt_read_rate=0.04,
        drop_put_rate=0.03,
        torn_put_rate=0.03,
        transient_error_rate=0.05,
    )
    cluster = ClusterStore(
        node_count=5,
        replication=3,
        write_quorum=2,
        transport=transport,
        retry=RetryPolicy.instant(attempts=3),
        node_store_factory=lambda name: FaultyStore(InMemoryStore(), disk, name=name),
        audit_rate=0.5,
        **config,
    )
    make_byzantine(
        cluster.nodes["node-03"],
        ByzantinePlan(
            seed=seed,
            flip_rate=0.3,
            withhold_rate=0.1,
            fake_ack_rate=0.2,
            forge_index=True,
        ),
    )
    second = cluster.client("client-b", deadline_budget=45)
    events = {
        15: lambda: transport.slow("node-01", 48),
        30: lambda: transport.partition(
            ["client", "node-00", "node-01", "node-02"],
            ["client-b", "node-03", "node-04"],
        ),
        45: transport.heal,
        55: lambda: cluster.kill_node("node-02"),
        70: lambda: cluster.revive_node("node-02"),
        80: lambda: transport.recover("node-01"),
    }
    errors = []
    written = []
    for op in range(OPS):
        if op in events:
            events[op]()
        actor = second if op % 3 == 2 else cluster
        if op % 6 == 0:
            actor.tick()  # one heartbeat round from the acting origin
        chunk = _chunk(seed, op)
        written.append(chunk)
        try:
            actor.put(chunk)
        except ForkBaseError as error:
            errors.append((op, "put", type(error).__name__))
        probe = written[(op * 7) % len(written)]
        try:
            got = actor.get_maybe(probe.uid)
            assert got is None or got.data == probe.data  # never wrong bytes
        except ForkBaseError as error:
            errors.append((op, "get", type(error).__name__))
        if op % 10 == 9:
            try:
                actor.has(probe.uid)
            except ForkBaseError as error:
                errors.append((op, "has", type(error).__name__))
    # Maintenance plane, every entry point once: Merkle repair, freshly
    # dropped copies, scrub (one more pass when it drops rot),
    # re-admission of whoever got quarantined, and a closing pass.
    shipped = cluster.repair()
    repair_report = dataclasses.asdict(cluster.last_sync_report)
    for chunk in written[::9]:
        cluster.replica_nodes(chunk.uid)[0].drop(chunk.uid)
    scrubbed = dataclasses.asdict(cluster.scrub())
    del scrubbed["seconds"]  # wall clock
    readmitted = []
    for name in sorted(cluster.nodes):
        if cluster.accountability.is_quarantined(name):
            ByzantineStore.remove(cluster.nodes[name])
            readmitted.append((name, cluster.readmit(name)))
    report = cluster.anti_entropy_pass()
    health = cluster.health_report()
    # Re-hashing every copy draws from each node's disk plane, so it runs
    # after every counter above has been read.
    health["durability"] = cluster.durability_check()
    # Every verb above is a chunk verb, and chunk verbs bypass the
    # coordinator's decoded-node cache: it must end exactly as it began.
    assert health.pop("node_cache") == {
        "hits": 0, "lookups": 0, "size": 0, "capacity": 4096, "evictions": 0, "leaves": 0
    }
    return {
        "health": health,
        "repair": (shipped, repair_report),
        "scrub": scrubbed,
        "readmitted": readmitted,
        "sync": dataclasses.asdict(report),
        "errors": errors,
        "clock": transport.clock,
    }


def short_hash(seed: int, config: dict) -> str:
    canonical = json.dumps(fingerprint(seed, config), sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


SCENARIOS = [
    (f"seed{seed}-{name}", seed, config)
    for seed in SEEDS
    for name, config in CONFIGS.items()
]


@pytest.mark.parametrize(
    "name,seed,config", SCENARIOS, ids=[scenario[0] for scenario in SCENARIOS]
)
def test_replay_matches_parent_commit(name, seed, config):
    assert short_hash(seed, config) == GOLDEN[name]


def test_golden_covers_every_scenario():
    assert sorted(GOLDEN) == sorted(scenario[0] for scenario in SCENARIOS)


#: Prints this file's and the fault-kernel golden's hashes as one JSON dict.
_ALL_GOLDENS = """
import json
from tests import test_cluster_replay_golden as replay, test_fault_kernel_golden as kernel
hashes = {name: replay.short_hash(seed, config) for name, seed, config in replay.SCENARIOS}
for seed in kernel.SEEDS:
    hashes.update(kernel.short_hashes(seed))
print(json.dumps(hashes, sort_keys=True))
"""


def test_goldens_do_not_depend_on_the_hash_seed():
    """Iteration order of a set or dict of ``str``/``bytes`` is salted per
    process by ``PYTHONHASHSEED``; no golden may depend on it.  Two
    interpreters with different salts compute both goldens' hashes and
    must print the same bytes, equal to the frozen ones."""
    from tests.test_fault_kernel_golden import GOLDEN as KERNEL_GOLDEN

    root = pathlib.Path(__file__).resolve().parent.parent
    children = []
    for salt in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=salt)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), str(root), env.get("PYTHONPATH")) if p
        )
        children.append(
            subprocess.Popen(
                [sys.executable, "-c", _ALL_GOLDENS],
                cwd=root,
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
        )
    outputs = []
    for child in children:
        out, err = child.communicate()
        assert child.returncode == 0, err
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0]) == {**GOLDEN, **KERNEL_GOLDEN}


if __name__ == "__main__":
    print("GOLDEN = {")
    for name, seed, config in SCENARIOS:
        print(f'    "{name}": "{short_hash(seed, config)}",')
    print("}")
