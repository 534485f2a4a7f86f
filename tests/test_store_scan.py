"""Differential test: a store's one-scan self-check equals per-copy reads.

``ChunkStore.verify_holdings`` is what every anti-entropy index build,
``durability_check`` and ``readmit`` spend their time in.  The default
is one ``get_maybe`` plus one ``is_valid`` per listed copy; the
in-memory node store overrides it with one SHA-256 per copy over a
snapshot of its dict.  Every store kind a cluster node can run on is
built twice from the same drawn script — chunks, rot planted in place,
torn and dropped puts, scripted tampering, seeded faults and lies — and
one twin is scanned by the per-copy reference below, the other by the
primitive.  The valid/suspect split, every layer's ``StoreStats`` delta,
and the fault wrappers' per-uid attempt counters and injection counters
must be equal.
"""

from dataclasses import dataclass
from typing import Dict, List, Tuple

from hypothesis import example, given, settings, strategies as st

from repro.chunk import Chunk, ChunkType, Uid
from repro.errors import ChunkCorruptionError, ForkBaseError, StoreError
from repro.faults import ByzantinePlan, ByzantineStore, FaultPlan, FaultyStore, TamperingStore
from repro.faults.store import InterposedStore
from repro.store.base import ChunkStore, WrapperStore
from repro.store.memory import InMemoryStore

KINDS = (
    "plain",
    "verifying",
    "fetch-subclass",
    "torn-into-plain",
    "faulty",
    "tampering",
    "byzantine",
)


class FetchCountingStore(InMemoryStore):
    """A node store that reads through its own ``_fetch``."""

    def __init__(self) -> None:
        super().__init__()
        self.fetches = 0

    def _fetch(self, uid: Uid):
        self.fetches += 1
        return super()._fetch(uid)


def per_copy(store: ChunkStore) -> Tuple[set, List[Uid]]:
    """The reference: one read and one re-hash per listed copy."""
    valid, suspects = set(), []
    for uid in store.ids():
        try:
            chunk = store.get_maybe(uid)
        except (StoreError, ChunkCorruptionError):
            chunk = None
        if chunk is not None and chunk.is_valid():
            valid.add(uid)
        else:
            suspects.append(uid)
    return valid, suspects


@dataclass(frozen=True)
class Script:
    """Everything one twin is built from."""

    kind: str
    sizes: Tuple[int, ...]
    types: Tuple[int, ...]
    seed: int
    rot: Tuple[int, ...]
    tamper: Tuple[Tuple[str, int, int], ...]
    rate: float


def _chunks(script: Script) -> List[Chunk]:
    return [
        Chunk(ChunkType(kind), (b"scan-%d-%d-" % (script.seed, n)) * (size // 10 + 1))
        for n, (size, kind) in enumerate(zip(script.sizes, script.types))
    ]


def _plant_rot(physical: InMemoryStore, script: Script) -> None:
    """Rewrite drawn copies in place: wrong bytes, wrong tag, or empty."""
    held = sorted(physical.ids())
    for n in script.rot:
        if not held:
            return
        uid = held[n % len(held)]
        original = physical._chunks[uid]
        variant = n % 3
        if variant == 0:
            rotten = Chunk(original.type, b"ROT" + original.data, uid=uid)
        elif variant == 1:
            other = ChunkType.META if original.type != ChunkType.META else ChunkType.BLOB
            rotten = Chunk(other, original.data, uid=uid)
        else:
            rotten = Chunk(original.type, b"", uid=uid)
        physical._chunks[uid] = rotten


def build(script: Script) -> ChunkStore:
    """The store to scan, over the dict store the script filled."""
    chunks = _chunks(script)
    if script.kind == "verifying":
        physical = InMemoryStore(verify_reads=True)
    elif script.kind == "fetch-subclass":
        physical = FetchCountingStore()
    else:
        physical = InMemoryStore()
    store: ChunkStore = physical
    if script.kind == "torn-into-plain":
        # Torn and dropped puts land in the dict store, which is scanned
        # bare: the override meets copies a faulty writer left behind.
        writer = FaultyStore(
            physical,
            FaultPlan(seed=script.seed, torn_put_rate=script.rate, drop_put_rate=script.rate / 2),
        )
        for chunk in chunks:
            writer.put(chunk)
    elif script.kind == "faulty":
        store = FaultyStore(
            physical,
            FaultPlan(
                seed=script.seed,
                corrupt_read_rate=script.rate,
                transient_error_rate=script.rate / 2,
                torn_put_rate=script.rate / 3,
                drop_put_rate=script.rate / 4,
            ),
            name="node-00",
        )
        for chunk in chunks:
            try:
                store.put(chunk)
            except StoreError:
                pass  # a transient put failure: the chunk is simply not held
    elif script.kind == "byzantine":
        for chunk in chunks:
            physical.put(chunk)
        store = ByzantineStore(
            physical,
            ByzantinePlan(
                seed=script.seed,
                flip_rate=script.rate,
                substitute_rate=script.rate / 2,
                withhold_rate=script.rate / 3,
            ),
            node="node-00",
        )
    else:
        for chunk in chunks:
            physical.put(chunk)
    _plant_rot(physical, script)
    if script.kind == "tampering":
        tampering = TamperingStore(physical)
        held = sorted(physical.ids())
        for action, first, second in script.tamper:
            if not held:
                break
            uid = held[first % len(held)]
            if action == "flip":
                tampering.flip_byte(uid, second)
            elif action == "substitute":
                tampering.substitute(uid, held[second % len(held)])
            else:
                tampering.drop_chunk(uid)
        store = tampering
    return store


def _layers(store: ChunkStore) -> List[ChunkStore]:
    layers = [store]
    while isinstance(store, WrapperStore):
        store = store.backing
        layers.append(store)
    return layers


def _counters(store: ChunkStore) -> Dict[str, object]:
    """Per-layer numeric counters, plus each fault wrapper's attempts."""
    seen: Dict[str, object] = {}
    for depth, layer in enumerate(_layers(store)):
        for name, value in vars(layer).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                seen[f"{depth}.{name}"] = value
        if isinstance(layer, InterposedStore):
            seen[f"{depth}.attempts"] = dict(layer._attempt.__self__._next)
    return seen


def _scan(store: ChunkStore, scan) -> Tuple[object, list, Dict[str, object]]:
    """``(outcome, per-layer stats deltas, counters after)`` of one scan."""
    layers = _layers(store)
    before = [layer.stats.snapshot() for layer in layers]
    try:
        valid, suspects = scan(store)
        outcome: object = (frozenset(valid), tuple(suspects))
    except ForkBaseError as error:  # whatever one raises, the other must too
        outcome = type(error).__name__
    deltas = [layer.stats.delta(earlier) for layer, earlier in zip(layers, before)]
    return outcome, deltas, _counters(store)


scripts = st.builds(
    Script,
    kind=st.sampled_from(KINDS),
    sizes=st.lists(st.integers(0, 1500), max_size=30).map(tuple),
    types=st.lists(st.sampled_from([int(kind) for kind in ChunkType]), min_size=30, max_size=30).map(tuple),
    seed=st.integers(0, 2**16),
    rot=st.lists(st.integers(0, 1000), max_size=6).map(tuple),
    tamper=st.lists(
        st.tuples(st.sampled_from(["flip", "substitute", "drop"]), st.integers(0, 1000), st.integers(0, 1000)),
        max_size=6,
    ).map(tuple),
    rate=st.sampled_from([0.0, 0.3, 1.0]),
)


@settings(max_examples=200, deadline=None)
@given(script=scripts)
@example(script=Script("plain", (), (1,) * 30, 0, (), (), 0.0))  # an empty store
@example(script=Script("verifying", (100, 900, 400), (1,) * 30, 3, (0, 1), (), 0.0))
def test_scan_equals_per_copy_reads(script):
    reference_store = build(script)
    scanned_store = build(script)
    assert _counters(reference_store) == _counters(scanned_store)
    reference = _scan(reference_store, per_copy)
    scanned = _scan(scanned_store, lambda store: store.verify_holdings())
    assert scanned == reference


def test_override_reads_nothing_per_copy_but_counts_every_read():
    """The dict store hashes its holdings without a ``get_maybe`` each,
    yet its counters read as if it had served every copy once."""
    script = Script("plain", (100, 900, 0, 1400), (1, 2, 3, 9) + (1,) * 26, 7, (1,), (), 0.0)
    store = build(script)
    calls = []
    store.get_maybe = lambda uid: calls.append(uid)  # the override must not call it
    valid, suspects = store.verify_holdings()
    assert calls == []
    assert len(valid) == 3 and len(suspects) == 1
    assert store.stats.gets == 4
    assert store.stats.served_bytes == sum(chunk.size() for chunk in store._chunks.values())


def test_verifying_store_counts_a_rewritten_copy_as_suspect():
    """A verifying store's read raises on rot; the scan must file the
    copy as a suspect for ``diagnose_copy`` and keep going, not abort."""
    script = Script("verifying", (100, 900, 400), (1,) * 30, 5, (2,), (), 0.0)
    store = build(script)
    rotten = sorted(store.ids())[2]
    valid, suspects = store.verify_holdings()
    assert suspects == [rotten]
    assert valid == set(store.ids()) - {rotten}
