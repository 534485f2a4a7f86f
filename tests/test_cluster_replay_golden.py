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
partition + heal, a kill + revive; then ``repair()``,
``full_sweep_repair()``, ``scrub()``, ``readmit()`` and
``anti_entropy_pass()``.  The fingerprint is the whole
``health_report()``, every maintenance report, every raised error class
by op index, and the transport clock.

To regenerate (after a *deliberate* behaviour change, with the reason in
CHANGES.md): ``PYTHONPATH=src python tests/test_cluster_replay_golden.py``
prints the dict to paste into ``GOLDEN``.
"""

import dataclasses
import hashlib
import json

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

CONFIGS = {
    "plain": {},
    "hedged": {"hedge_reads": True},
    "deadline60": {"deadline_budget": 60},
    "hedged-deadline30-breaker3": {
        "hedge_reads": True,
        "deadline_budget": 30,
        "breaker_threshold": 3,
    },
}

SEEDS = (1, 42)

#: scenario -> first 16 hex digits of SHA-256 over the canonical JSON
#: fingerprint, generated by running this scenario on commit e5f72e1 with
#: ``audit_seed=seed`` passed there (the seed a cluster takes from its
#: transport plan).
GOLDEN = {
    "seed1-plain": "59e903366a161554",
    "seed1-hedged": "241653e3becfc67d",
    "seed1-deadline60": "abe57e8da5b93355",
    "seed1-hedged-deadline30-breaker3": "25ab21d09e255e6f",
    "seed42-plain": "31a36dd8f810e9d7",
    "seed42-hedged": "7639e680e94b5d4e",
    "seed42-deadline60": "0e9b0a1808504c06",
    "seed42-hedged-deadline30-breaker3": "ce7c440b45b48500",
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
    # Maintenance plane, every entry point once: Merkle repair, the
    # full-sweep baseline over freshly dropped copies, scrub, re-admission
    # of whoever got quarantined, and a closing anti-entropy pass.
    shipped = cluster.repair()
    repair_report = dataclasses.asdict(cluster.last_sync_report)
    for chunk in written[::9]:
        cluster.replica_nodes(chunk.uid)[0].drop(chunk.uid)
    swept = cluster.full_sweep_repair()
    scrubbed = dataclasses.asdict(cluster.scrub())
    del scrubbed["seconds"]  # wall clock
    readmitted = []
    for name in sorted(cluster.nodes):
        if cluster.accountability.is_quarantined(name):
            ByzantineStore.remove(cluster.nodes[name])
            readmitted.append((name, cluster.readmit(name)))
    report = cluster.anti_entropy_pass()
    health = cluster.health_report()
    # Every verb above is a chunk verb, and chunk verbs bypass the
    # coordinator's decoded-node cache: it must end exactly as it began.
    assert health.pop("node_cache") == {
        "hits": 0, "lookups": 0, "size": 0, "capacity": 4096, "evictions": 0, "leaves": 0
    }
    return {
        "health": health,
        "repair": (shipped, repair_report),
        "sweep": (swept, cluster.sweep_examined),
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


if __name__ == "__main__":
    print("GOLDEN = {")
    for name, seed, config in SCENARIOS:
        print(f'    "{name}": "{short_hash(seed, config)}",')
    print("}")
