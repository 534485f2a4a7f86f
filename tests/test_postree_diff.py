"""Tests for the pruned tree diff (repro.postree.diff)."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.postree import PosTree, diff_trees, three_way_merge
from repro.postree.config import TreeConfig
from repro.postree.diff import diff_keys
from repro.postree.merge import resolve_theirs
from repro.rolling.chunker import ChunkerConfig
from repro.store import InMemoryStore


def _dict_diff(a: dict, b: dict):
    added = {k: v for k, v in b.items() if k not in a}
    removed = {k: v for k, v in a.items() if k not in b}
    changed = {k: (a[k], b[k]) for k in a.keys() & b.keys() if a[k] != b[k]}
    return added, removed, changed


class TestCorrectness:
    def test_identical_trees(self, store, sample_pairs):
        tree = PosTree.from_pairs(store, sample_pairs.items())
        diff = diff_trees(tree, tree)
        assert diff.is_empty()
        assert diff.nodes_loaded == 0  # pruned at the root

    def test_single_change(self, store, sample_pairs):
        tree_a = PosTree.from_pairs(store, sample_pairs.items())
        tree_b = tree_a.put(b"key00500", b"changed")
        diff = diff_trees(tree_a, tree_b)
        assert diff.changed == {b"key00500": (sample_pairs[b"key00500"], b"changed")}
        assert not diff.added and not diff.removed
        assert diff.edit_count == 1

    def test_add_and_remove(self, store, small_pairs):
        tree_a = PosTree.from_pairs(store, small_pairs.items())
        tree_b = tree_a.update(puts={b"zzz": b"new"}, deletes=[b"k010"])
        diff = diff_trees(tree_a, tree_b)
        assert diff.added == {b"zzz": b"new"}
        assert diff.removed == {b"k010": small_pairs[b"k010"]}

    def test_direction_matters(self, store, small_pairs):
        tree_a = PosTree.from_pairs(store, small_pairs.items())
        tree_b = tree_a.put(b"zzz", b"new")
        forward = diff_trees(tree_a, tree_b)
        backward = diff_trees(tree_b, tree_a)
        assert forward.added == {b"zzz": b"new"}
        assert backward.removed == {b"zzz": b"new"}

    def test_diff_vs_empty(self, store, small_pairs):
        tree = PosTree.from_pairs(store, small_pairs.items())
        empty = PosTree.empty(store)
        assert len(diff_trees(empty, tree).added) == len(small_pairs)
        assert len(diff_trees(tree, empty).removed) == len(small_pairs)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_against_dict_oracle(self, store, sample_pairs, seed):
        rng = random.Random(seed)
        tree_a = PosTree.from_pairs(store, sample_pairs.items())
        keys = rng.sample(sorted(sample_pairs), 30)
        puts = {k: b"edit-%d" % i for i, k in enumerate(keys[:15])}
        puts[b"fresh-%d" % seed] = b"added"
        deletes = keys[15:]
        tree_b = tree_a.update(puts=puts, deletes=deletes)
        state_b = dict(sample_pairs)
        state_b.update(puts)
        for key in deletes:
            state_b.pop(key, None)
        diff = diff_trees(tree_a, tree_b)
        added, removed, changed = _dict_diff(sample_pairs, state_b)
        assert diff.added == added
        assert diff.removed == removed
        assert diff.changed == changed

    def test_as_edits_round_trips(self, store, sample_pairs):
        tree_a = PosTree.from_pairs(store, sample_pairs.items())
        tree_b = tree_a.update(
            puts={b"key00010": b"x", b"new": b"y"}, deletes=[b"key00020"]
        )
        puts, deletes = diff_trees(tree_a, tree_b).as_edits()
        rebuilt = tree_a.update(puts=puts, deletes=deletes)
        assert rebuilt.root == tree_b.root

    def test_diff_keys_sorted(self, store, small_pairs):
        tree_a = PosTree.from_pairs(store, small_pairs.items())
        tree_b = tree_a.update(puts={b"zz": b"1", b"aa": b"2"})
        assert diff_keys(tree_a, tree_b) == [b"aa", b"zz"]


class TestPruning:
    def test_point_diff_loads_logarithmic(self, store):
        pairs = {b"n%06d" % i: b"val-%d" % i for i in range(30_000)}
        tree_a = PosTree.from_pairs(store, pairs.items())
        tree_b = tree_a.put(b"n015000", b"poke")
        diff = diff_trees(tree_a, tree_b)
        total_nodes = sum(tree_a.node_count_by_level().values())
        assert diff.edit_count == 1
        assert diff.nodes_loaded < total_nodes / 10
        assert diff.subtrees_pruned > 0

    def test_load_count_scales_with_d_not_n(self, store):
        pairs = {b"m%06d" % i: b"v" for i in range(20_000)}
        tree = PosTree.from_pairs(store, pairs.items())
        keys = sorted(pairs)
        small = tree.update(puts={keys[5000]: b"a"})
        large = tree.update(puts={keys[i]: b"b" for i in range(0, 20_000, 400)})
        loads_small = diff_trees(tree, small).nodes_loaded
        loads_large = diff_trees(tree, large).nodes_loaded
        assert loads_small < loads_large

    def test_disjoint_subtree_edits_prune_middle(self, store):
        pairs = {b"p%05d" % i: b"v" for i in range(10_000)}
        tree = PosTree.from_pairs(store, pairs.items())
        keys = sorted(pairs)
        edited = tree.update(puts={keys[10]: b"x", keys[-10]: b"y"})
        diff = diff_trees(tree, edited)
        assert diff.edit_count == 2
        # The untouched middle must be pruned, not enumerated.
        assert diff.nodes_loaded < 60


class TestPinnedCounts:
    """``subtrees_pruned`` / ``nodes_loaded`` on fixed cases, both ways.

    The values are those of the record-at-a-time walk the leaf-pair loop
    replaced: a faster walk must prune and load exactly what it did.
    """

    @pytest.fixture(scope="class")
    def tree(self):
        pairs = {b"n%06d" % i: b"val-%d" % i for i in range(30_000)}
        return PosTree.from_pairs(InMemoryStore(), pairs.items())

    @staticmethod
    def _counts(tree_a, tree_b):
        forward = diff_trees(tree_a, tree_b)
        backward = diff_trees(tree_b, tree_a)
        return (
            (forward.subtrees_pruned, forward.nodes_loaded),
            (backward.subtrees_pruned, backward.nodes_loaded),
        )

    def test_point_edit(self, tree):
        edited = tree.put(b"n015000", b"poke")
        assert self._counts(tree, edited) == ((46, 11), (46, 11))

    def test_scattered_batch(self, tree):
        keys = [b"n%06d" % i for i in range(30_000)]
        edited = tree.update(
            puts={keys[i]: b"b" for i in range(0, 30_000, 997)},
            deletes=[keys[i] for i in range(500, 30_000, 3001)],
        )
        diff = diff_trees(tree, edited)
        assert (len(diff.changed), len(diff.removed), len(diff.added)) == (31, 10, 0)
        assert self._counts(tree, edited) == ((406, 143), (406, 143))

    def test_different_heights(self, tree):
        small = tree.update(deletes=[b"n%06d" % i for i in range(2000, 30_000)])
        assert small.height() < tree.height()
        assert len(diff_trees(tree, small).removed) == 28_000
        assert self._counts(tree, small) == ((13, 495), (13, 495))


# Small nodes so a few hundred records span many leaves and three levels.
_SMALL_CONFIG = TreeConfig(
    leaf=ChunkerConfig(pattern_bits=5, min_size=16, max_size=512),
    index=ChunkerConfig(pattern_bits=4, min_size=16, max_size=512, min_entries=2),
)

# One run of edits: (kind, where in the base it starts, how many records).
_runs = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "change"]),
        st.floats(0.0, 1.0),
        st.integers(1, 40),
    ),
    max_size=6,
)


def _edited(base: dict, runs, tag: bytes) -> dict:
    """``base`` with ``runs`` applied.  Base keys are even numbers, so an
    insert run lands between them and shifts every later leaf boundary."""
    keys = sorted(base)
    model = dict(base)
    for kind, where, length in runs:
        start = int(where * len(keys)) if keys else 0
        if kind == "insert":
            first = int(keys[start][1:]) + 1 if start < len(keys) else 2 * len(keys) + 1
            for offset in range(length):
                model[b"k%06d" % (first + 2 * offset)] = tag + b"%d" % offset
        else:
            for key in keys[start : start + length]:
                if kind == "delete":
                    model.pop(key, None)
                else:
                    model[key] = tag + key
    return model


@given(size=st.integers(0, 400), runs_a=_runs, runs_b=_runs)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_leaf_pair_walk_matches_dict_oracle(size, runs_a, runs_b):
    """Multi-leaf edits whose runs shift leaf boundaries: the diff equals
    a dict oracle in both directions, and the three-way merge of two such
    edits equals the dict model of applying B's edits onto A."""
    store = InMemoryStore()
    base = {b"k%06d" % (2 * i): b"base-%d" % i for i in range(size)}
    model_a = _edited(base, runs_a, b"a")
    model_b = _edited(base, runs_b, b"b")
    tree = PosTree.from_pairs(store, base.items(), _SMALL_CONFIG)
    tree_a = PosTree.from_pairs(store, model_a.items(), _SMALL_CONFIG)
    tree_b = PosTree.from_pairs(store, model_b.items(), _SMALL_CONFIG)

    for old, new, tree_old, tree_new in (
        (model_a, model_b, tree_a, tree_b),
        (model_b, model_a, tree_b, tree_a),
        (base, model_a, tree, tree_a),
    ):
        diff = diff_trees(tree_old, tree_new)
        assert (diff.added, diff.removed, diff.changed) == _dict_diff(old, new)

    merged = three_way_merge(tree, tree_a, tree_b, resolver=resolve_theirs)
    expected = dict(model_a)
    added, removed, changed = _dict_diff(base, model_b)
    expected.update(added)
    expected.update((key, new) for key, (_, new) in changed.items())
    for key in removed:
        expected.pop(key, None)
    assert merged.root == PosTree.from_pairs(store, expected.items(), _SMALL_CONFIG).root
