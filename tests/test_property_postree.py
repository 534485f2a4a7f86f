"""Property-based tests (hypothesis) for POS-Tree invariants.

These are the strongest guarantees in the suite: for *arbitrary* record
sets and edit orders, the tree must be structurally invariant, agree with
a dict model, and keep its internal invariants.
"""

from typing import Dict, List, Tuple

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.postree import PosTree, diff_trees
from repro.postree.config import TreeConfig
from repro.rolling.chunker import ChunkerConfig
from repro.store import InMemoryStore

# Small nodes so tiny hypothesis cases still exercise multi-level trees.
SMALL_CONFIG = TreeConfig(
    leaf=ChunkerConfig(pattern_bits=5, min_size=16, max_size=512),
    index=ChunkerConfig(pattern_bits=4, min_size=16, max_size=512, min_entries=2),
)

keys = st.binary(min_size=1, max_size=24)
values = st.binary(min_size=0, max_size=40)
records = st.dictionaries(keys, values, max_size=120)

_settings = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(mapping=records)
@_settings
def test_read_model_matches_dict(mapping: Dict[bytes, bytes]):
    """The tree is observationally a sorted dict."""
    store = InMemoryStore()
    tree = PosTree.from_pairs(store, mapping.items(), SMALL_CONFIG)
    assert len(tree) == len(mapping)
    assert list(tree.items()) == sorted(mapping.items())
    for key in list(mapping)[:10]:
        assert tree.get(key) == mapping[key]
    tree.check_structure()


@given(mapping=records, seed=st.integers(0, 2**16))
@_settings
def test_structural_invariance_over_edit_orders(mapping, seed):
    """Any batching/order of inserts yields the bulk-built tree."""
    import random

    store = InMemoryStore()
    reference = PosTree.from_pairs(store, mapping.items(), SMALL_CONFIG)
    rng = random.Random(seed)
    items = list(mapping.items())
    rng.shuffle(items)
    tree = PosTree.empty(store, SMALL_CONFIG)
    while items:
        batch = items[: rng.randint(1, 7)]
        items = items[len(batch) :]
        tree = tree.update(puts=dict(batch))
    assert tree.root == reference.root
    assert tree.page_uids() == reference.page_uids()


@given(
    mapping=records,
    edits=st.lists(
        st.tuples(keys, st.one_of(st.none(), values)), max_size=30
    ),
)
@_settings
def test_edits_match_dict_model(mapping, edits: List[Tuple[bytes, object]]):
    """Applying (put | delete) sequences agrees with a dict model and with
    a from-scratch bulk build (invariance again, through deletions too)."""
    store = InMemoryStore()
    tree = PosTree.from_pairs(store, mapping.items(), SMALL_CONFIG)
    model = dict(mapping)
    puts = {}
    deletes = set()
    for key, value in edits:
        if value is None:
            deletes.add(key)
            puts.pop(key, None)
            model.pop(key, None)
        else:
            puts[key] = value
            deletes.discard(key)
            model[key] = value
    tree = tree.update(puts=puts, deletes=deletes)
    assert list(tree.items()) == sorted(model.items())
    reference = PosTree.from_pairs(store, model.items(), SMALL_CONFIG)
    assert tree.root == reference.root
    tree.check_structure()


@given(mapping=records, edits=st.dictionaries(keys, values, max_size=20))
@_settings
def test_diff_is_exact(mapping, edits):
    """diff(A, B) recovers exactly the applied edits."""
    store = InMemoryStore()
    tree_a = PosTree.from_pairs(store, mapping.items(), SMALL_CONFIG)
    tree_b = tree_a.update(puts=edits)
    diff = diff_trees(tree_a, tree_b)
    expected_added = {k: v for k, v in edits.items() if k not in mapping}
    expected_changed = {
        k: (mapping[k], v) for k, v in edits.items() if k in mapping and mapping[k] != v
    }
    assert diff.added == expected_added
    assert diff.changed == expected_changed
    assert diff.removed == {}


@given(mapping=records, edits=st.dictionaries(keys, values, min_size=1, max_size=15))
@_settings
def test_diff_edits_rebuild_target(mapping, edits):
    """Applying as_edits() of diff(A,B) onto A reproduces B exactly."""
    store = InMemoryStore()
    tree_a = PosTree.from_pairs(store, mapping.items(), SMALL_CONFIG)
    tree_b = tree_a.update(puts=edits, deletes=list(mapping)[:3])
    puts, deletes = diff_trees(tree_a, tree_b).as_edits()
    assert tree_a.update(puts=puts, deletes=deletes).root == tree_b.root


@given(
    base=records,
    edits_a=st.dictionaries(keys, values, max_size=10),
    edits_b=st.dictionaries(keys, values, max_size=10),
)
@_settings
def test_merge_of_agreeing_sides(base, edits_a, edits_b):
    """Merging sides whose overlapping edits agree equals applying both."""
    from repro.postree import three_way_merge

    # Force agreement on overlapping keys.
    for key in set(edits_a) & set(edits_b):
        edits_b[key] = edits_a[key]
    store = InMemoryStore()
    tree_base = PosTree.from_pairs(store, base.items(), SMALL_CONFIG)
    side_a = tree_base.update(puts=edits_a)
    side_b = tree_base.update(puts=edits_b)
    result = three_way_merge(tree_base, side_a, side_b)
    combined = dict(base)
    combined.update(edits_a)
    combined.update(edits_b)
    reference = PosTree.from_pairs(store, combined.items(), SMALL_CONFIG)
    assert result.root == reference.root


# -- multi-region batches on trees deep enough to have far-apart regions ------

#: Both caps bite: ``max_size`` forces most leaf boundaries and index nodes
#: hold ``min_entries`` entries or hit ``max_size`` just after.
CAPPED_CONFIG = TreeConfig(
    leaf=ChunkerConfig(pattern_bits=7, min_size=16, max_size=96),
    index=ChunkerConfig(pattern_bits=6, min_size=16, max_size=128, min_entries=3),
)


class RecordingStore(InMemoryStore):
    """Remembers every uid offered to ``put`` while ``written`` is a set."""

    def __init__(self) -> None:
        super().__init__()
        self.written = None

    def put(self, chunk):
        if self.written is not None:
            self.written.add(chunk.uid)
        return super().put(chunk)


def _big_tree(size: int, config: TreeConfig):
    mapping = {
        b"k%06d" % (3 * i): (b"%x" % (i * 2654435761 % 2**32)) * (1 + i % 3)
        for i in range(size)
    }
    store = RecordingStore()
    return store, PosTree.from_pairs(store, mapping.items(), config), mapping


def _update_and_check(store, tree, mapping, puts, deletes):
    """Apply one batch; the result must be the bulk-built tree of the edited
    record set, and every chunk written must belong to it (none stranded)."""
    store.written = set()
    edited = tree.update(puts=puts, deletes=deletes)
    written, store.written = store.written, None
    expected = {k: v for k, v in mapping.items() if k not in deletes}
    expected.update(puts)
    reference = PosTree.from_pairs(store, expected.items(), tree.config)
    assert edited.root == reference.root
    pages = edited.page_uids()
    assert pages == reference.page_uids()
    edited.check_structure()
    assert written <= pages
    return edited, expected


def _keys_under_level1(tree: PosTree, key: bytes) -> List[bytes]:
    """Every key below the level-1 node on the path to ``key``."""
    node = tree.root_node()
    while node.level > 1:
        node = tree.node(node.entries[node.child_for(key)].child)
    return [e[0] for child in node.entries for e in tree.node(child.child).entries]


_EDIT_KINDS = (
    "update", "insert", "delete", "delete-absent", "delete-leaf",
    "delete-level1", "delete-rest", "delete-all", "below-min", "past-max",
)


def _batch(tree: PosTree, keys: List[bytes], picks):
    """Turn (quantile, kind) picks into one ``update`` batch."""
    puts: Dict[bytes, bytes] = {}
    deletes = set()
    for quantile, kind in picks:
        index = int(quantile * (len(keys) - 1))
        key = keys[index]
        if kind == "update":
            puts[key] = b"updated"
        elif kind == "insert":
            puts[key + b"+"] = b"inserted"
        elif kind == "delete":
            deletes.add(key)
        elif kind == "delete-absent":
            deletes.add(key + b"-")  # an edit point that changes nothing
        elif kind == "delete-leaf":  # a region with zero replacements
            deletes.update(gone for gone, _ in next(tree.leaves(key)).entries)
        elif kind == "delete-level1":
            deletes.update(_keys_under_level1(tree, key))
        elif kind == "delete-rest":  # shrinks the tree, often its height
            deletes.update(keys[index + 1 :])
        elif kind == "delete-all":
            deletes.update(keys)
        elif kind == "below-min":
            puts[b"a" + key] = b"low"
        else:
            puts[b"z" + key] = b"high"
    return puts, deletes - set(puts)


@given(
    size=st.integers(600, 3000),
    config=st.sampled_from([SMALL_CONFIG, CAPPED_CONFIG]),
    picks=st.lists(
        st.tuples(st.floats(0, 1), st.sampled_from(_EDIT_KINDS)), min_size=2, max_size=16
    ),
)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_scattered_batches_match_bulk_and_strand_nothing(size, config, picks):
    """Edits in far-apart regions — emptied leaves and level-1 nodes, no-op
    edit points, both ends of the key space, height changes — splice to the
    bulk-built tree, twice in a row (the second batch edits an edited tree)."""
    store, tree, mapping = _big_tree(size, config)
    assert tree.height() >= 3
    for _ in range(2):
        puts, deletes = _batch(tree, sorted(mapping), picks)
        tree, mapping = _update_and_check(store, tree, mapping, puts, deletes)
        if len(mapping) < 2 or tree.height() < 2:
            break


def test_two_regions_under_one_parent_and_under_one_grandparent():
    """Regions that stay apart at level 0 share a level-1 node (the second
    is reached without leaving the parent), or only a level-2 node (apart at
    levels 0 and 1, coalescing above)."""
    store, tree, mapping = _big_tree(2000, SMALL_CONFIG)
    keys = sorted(mapping)
    firsts = [leaf.entries[0][0] for leaf in tree.leaves()]
    for anchor in (firsts[40], firsts[700], firsts[-9]):
        under = _keys_under_level1(tree, anchor)
        same_parent = {under[0]: b"left", under[-1]: b"right"}
        assert next(tree.leaves(under[0])).uid != next(tree.leaves(under[-1])).uid
        _update_and_check(store, tree, mapping, same_parent, set())
        beyond = keys[keys.index(under[-1]) + 1]  # first key of the next level-1 node
        _update_and_check(store, tree, mapping, {under[0]: b"left", beyond: b"right"}, set())


def test_keeping_only_the_first_leaf_yields_a_leaf_root():
    """All regions end with the level: the one surviving node *is* the root,
    at whatever level it survives (a single-entry index root is not bulk)."""
    for config in (SMALL_CONFIG, CAPPED_CONFIG):
        store, tree, mapping = _big_tree(1500, config)
        keep = {key for key, _ in next(tree.leaves()).entries}
        edited, _ = _update_and_check(store, tree, mapping, {}, set(mapping) - keep)
        assert edited.height() == 0
        # ... and one level up: only the first level-1 node's records survive.
        keep = set(_keys_under_level1(tree, min(mapping)))
        edited, _ = _update_and_check(store, tree, mapping, {}, set(mapping) - keep)
        assert edited.height() == 1


def test_delete_everything_and_regrow():
    store, tree, mapping = _big_tree(800, CAPPED_CONFIG)
    emptied, remaining = _update_and_check(store, tree, mapping, {}, set(mapping))
    assert remaining == {} and emptied.root == PosTree.empty(store, CAPPED_CONFIG).root
    # Replace every record in one batch: deletes everywhere, puts past the end.
    replacement = {b"z" + k: v for k, v in mapping.items()}
    _update_and_check(store, tree, mapping, replacement, set(mapping))
