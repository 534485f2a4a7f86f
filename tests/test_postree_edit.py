"""Tests for incremental POS-Tree editing (repro.postree.edit).

The central oracle: the splice editor must produce a root byte-identical
to bulk-building the edited record set from scratch (SIRI Property 1).
"""

import hashlib
import random

import pytest

from repro.db import ForkBase
from repro.postree import PosTree, builder, diff_trees, edit, node, three_way_merge
from repro.postree.node import IndexNode, LeafNode, load_node
from repro.store import InMemoryStore, physical_store
from repro.types import FMap

#: Backend gets the 2nd..20th commit of TestWorkBound's commit loop cost an
#: engine *without* a node cache (measured on the commit before the node
#: I/O seam; the same on the memory, file and pack backends).
CACHELESS_COMMIT_LOOP_GETS = 550

#: gets + puts the one-span splice this editor replaced spent on
#: TestWorkBound's dense batch (measured on that commit; chunking is
#: deterministic, so the count is exact).
ONE_SPAN_DENSE_ACCESSES = 7064


def _reference(store, mapping):
    return PosTree.from_pairs(store, mapping.items())


class TestPointEdits:
    def test_update_existing_key(self, store, sample_pairs):
        tree = _reference(store, sample_pairs)
        edited = tree.put(b"key00100", b"NEW")
        assert edited.get(b"key00100") == b"NEW"
        assert tree.get(b"key00100") == sample_pairs[b"key00100"]  # immutability
        expected = {**sample_pairs, b"key00100": b"NEW"}
        assert edited.root == _reference(store, expected).root

    def test_insert_middle(self, store, sample_pairs):
        tree = _reference(store, sample_pairs)
        edited = tree.put(b"key01000x", b"mid")  # between key01000 and key01001
        expected = {**sample_pairs, b"key01000x": b"mid"}
        assert edited.get(b"key01000x") == b"mid"
        assert edited.root == _reference(store, expected).root

    def test_insert_before_first(self, store, sample_pairs):
        tree = _reference(store, sample_pairs)
        edited = tree.put(b"aaa", b"first")
        expected = {**sample_pairs, b"aaa": b"first"}
        assert edited.root == _reference(store, expected).root
        assert next(edited.keys()) == b"aaa"

    def test_append_after_last(self, store, sample_pairs):
        tree = _reference(store, sample_pairs)
        edited = tree.put(b"zzz", b"last")
        expected = {**sample_pairs, b"zzz": b"last"}
        assert edited.root == _reference(store, expected).root

    def test_delete_first_middle_last(self, store, sample_pairs):
        tree = _reference(store, sample_pairs)
        keys = sorted(sample_pairs)
        for key in (keys[0], keys[len(keys) // 2], keys[-1]):
            edited = tree.delete(key)
            expected = {k: v for k, v in sample_pairs.items() if k != key}
            assert edited.root == _reference(store, expected).root

    def test_delete_missing_is_identity(self, store, sample_pairs):
        tree = _reference(store, sample_pairs)
        assert tree.delete(b"not-there").root == tree.root

    def test_overwrite_same_value_is_identity(self, store, sample_pairs):
        tree = _reference(store, sample_pairs)
        key = sorted(sample_pairs)[7]
        assert tree.put(key, sample_pairs[key]).root == tree.root

    def test_empty_batch_is_identity(self, store, sample_pairs):
        tree = _reference(store, sample_pairs)
        assert tree.update().root == tree.root


class TestBatchEdits:
    def test_random_batches_match_bulk(self, store, sample_pairs):
        rng = random.Random(99)
        current = dict(sample_pairs)
        tree = _reference(store, current)
        for round_ in range(8):
            keys = rng.sample(sorted(current), 6)
            puts = {k: b"round-%d" % round_ for k in keys[:4]}
            puts[b"inserted-%03d" % round_] = b"fresh"
            deletes = keys[4:]
            tree = tree.update(puts=puts, deletes=deletes)
            current.update(puts)
            for key in deletes:
                current.pop(key, None)
            assert tree.root == _reference(store, current).root, f"round {round_}"
            tree.check_structure()

    def test_large_clustered_batch(self, store, sample_pairs):
        tree = _reference(store, sample_pairs)
        keys = sorted(sample_pairs)[300:500]
        puts = {k: b"bulkedit" for k in keys}
        edited = tree.update(puts=puts)
        expected = {**sample_pairs, **puts}
        assert edited.root == _reference(store, expected).root

    def test_delete_contiguous_range(self, store, sample_pairs):
        tree = _reference(store, sample_pairs)
        doomed = sorted(sample_pairs)[800:900]
        edited = tree.update(deletes=doomed)
        expected = {k: v for k, v in sample_pairs.items() if k not in set(doomed)}
        assert edited.root == _reference(store, expected).root
        assert len(edited) == len(sample_pairs) - 100

    def test_put_and_delete_same_key_put_wins(self, store, small_pairs):
        tree = _reference(store, small_pairs)
        edited = tree.update(puts={b"k005": b"kept"}, deletes=[b"k005"])
        assert edited.get(b"k005") == b"kept"

    def test_grow_from_empty(self, store, sample_pairs):
        tree = PosTree.empty(store)
        items = sorted(sample_pairs.items())
        for start in range(0, len(items), 250):
            tree = tree.update(puts=dict(items[start : start + 250]))
        assert tree.root == _reference(store, sample_pairs).root

    def test_shrink_to_empty(self, store, small_pairs):
        tree = _reference(store, small_pairs)
        tree = tree.update(deletes=list(small_pairs))
        assert len(tree) == 0
        assert tree.root == PosTree.empty(store).root

    def test_replace_everything(self, store, sample_pairs):
        tree = _reference(store, sample_pairs)
        replacement = {b"x%04d" % i: b"y" for i in range(500)}
        tree = tree.update(puts=replacement, deletes=list(sample_pairs))
        assert tree.root == _reference(store, replacement).root

    def test_non_bytes_rejected(self, store, small_pairs):
        tree = _reference(store, small_pairs)
        with pytest.raises(TypeError):
            tree.update(puts={"str-key": b"v"})  # type: ignore[dict-item]
        with pytest.raises(TypeError):
            tree.update(puts={b"k": "str-value"})  # type: ignore[dict-item]


class TestEditEfficiency:
    def test_point_edit_dirties_few_pages(self, store, sample_pairs):
        tree = _reference(store, sample_pairs)
        edited = tree.put(sorted(sample_pairs)[1000], b"dirty")
        new_pages = edited.page_uids() - tree.page_uids()
        # One leaf + its root path (+ occasional boundary neighbour).
        assert len(new_pages) <= tree.height() + 3

    def test_point_edit_chunk_writes_bounded(self, store, sample_pairs):
        tree = _reference(store, sample_pairs)
        before = store.stats.snapshot()
        tree.put(sorted(sample_pairs)[1500], b"x")
        delta = store.stats.delta(before)
        assert delta.puts_new <= tree.height() + 3

    def test_height_grows_and_shrinks(self, store):
        tree = PosTree.empty(store)
        assert tree.height() == 0
        big = {b"g%05d" % i: b"v" * 20 for i in range(3000)}
        tree = tree.update(puts=big)
        assert tree.height() >= 1
        tree = tree.update(deletes=list(big)[:-5])
        assert len(tree) == 5
        survivors = {k: v for k, v in big.items() if tree.get(k) is not None}
        reference = PosTree.from_pairs(store, survivors.items())
        assert tree.root == reference.root
        assert tree.height() == reference.height() == 0


def _accesses(store, action):
    """Store ``gets`` + ``puts`` (new or deduplicated) spent by ``action``."""
    before = store.stats.snapshot()
    action()
    spent = store.stats.delta(before)
    return spent.gets + spent.puts_new + spent.puts_dup


class TestWorkBound:
    """Counted, not timed: a batch costs what its edit regions cost, not the
    key span between them.  A 50,000-record map of 100-byte values: keys
    ``key-%012d``, edited at five far-apart keys or at every tenth key."""

    @pytest.fixture(scope="class")
    def big(self):
        store = InMemoryStore()
        pairs = [
            (key, (hashlib.sha256(key).digest() * 4)[:100])
            for key in (b"key-%012d" % i for i in range(50_000))
        ]
        return store, PosTree.from_pairs(store, pairs, presorted=True), [k for k, _ in pairs]

    @pytest.fixture(scope="class")
    def scattered(self, big):
        """Five far-apart puts, and what they cost applied one by one."""
        store, tree, keys = big
        puts = {keys[len(keys) * tenth // 10]: b"edited" for tenth in (1, 3, 5, 7, 9)}
        singly = sum(
            _accesses(store, lambda: tree.put(key, value)) for key, value in puts.items()
        )
        return puts, singly

    def test_scattered_batch_costs_its_regions(self, big, scattered):
        store, tree, _ = big
        puts, singly = scattered
        assert _accesses(store, lambda: tree.update(puts=puts)) <= 2 * singly

    def test_merge_of_scattered_side_costs_its_regions(self, big, scattered):
        store, tree, keys = big
        puts, singly = scattered
        ours, theirs = tree.put(keys[5], b"ours"), tree.update(puts=puts)
        diffs = _accesses(store, lambda: diff_trees(tree, ours)) + _accesses(
            store, lambda: diff_trees(tree, theirs)
        )
        merged = []
        spent = _accesses(store, lambda: merged.append(three_way_merge(tree, ours, theirs)))
        assert spent <= 2 * singly + diffs
        assert merged[0].root == ours.update(puts=puts).root

    def test_dense_batch_costs_no_more_than_one_span(self, big):
        """Every 10th key touches nearly every leaf: skipping the few
        untouched ones must not cost more than walking through them did."""
        store, tree, keys = big
        puts = {key: b"edited-" + key for key in keys[::10]}
        # What the one-span splice this editor replaced spent on this batch.
        assert _accesses(store, lambda: tree.update(puts=puts)) <= ONE_SPAN_DENSE_ACCESSES


    # -- a warm commit: the interpreter's share, counted -----------------------

    COMMITS = 20

    def _commit_loop(self, db, big, written=None, counted=lambda: None):
        """Load the map, warm it, then ``get -> set(one key) -> put`` 20 times.

        Returns the backend stats spent by the 2nd..20th commit; ``written``
        collects the chunks those commits offered to the store (through
        the node seam, ``put_nodes``), and ``counted`` is called once,
        after the first commit, to start any other counters.
        """
        _, tree, keys = big
        db._clock = lambda: 0.0  # identical FNode uids across engines
        db.put("m", FMap.from_dict(db.store, dict(tree.items())))
        db.get_value("m")
        backing = physical_store(db.store)
        for commit in range(self.COMMITS):
            if commit == 1:
                counted()
                before = backing.stats.snapshot()
                if written is not None:
                    # At the top of the stack: a cache wrapper answers a
                    # dedup hit itself, and a re-emitted node is one.
                    put_nodes = db.store.put_nodes

                    def offered(pairs):
                        pairs = list(pairs)
                        written.extend(chunk for chunk, _ in pairs)
                        return put_nodes(pairs)

                    db.store.put_nodes = offered
            key = keys[commit * 7919 % len(keys)]
            db.put("m", db.get("m").set(key, b"edited-%d" % commit))
        return backing.stats.delta(before)

    def test_warm_commit_decodes_and_reads_nothing_and_encodes_once(
        self, big, tmp_path, monkeypatch
    ):
        counts = {"decoded": 0, "encoded": 0}

        def start_counting():
            for cls in (LeafNode, IndexNode):
                original = cls.from_chunk.__func__

                def from_chunk(klass, chunk, original=original):
                    counts["decoded"] += 1
                    return original(klass, chunk)

                monkeypatch.setattr(cls, "from_chunk", classmethod(from_chunk))
            for name in ("encode_leaf_entry", "encode_index_entry"):
                def one(entry, original=getattr(node, name)):
                    counts["encoded"] += 1
                    return original(entry)

                for module in (node, edit):
                    monkeypatch.setattr(module, name, one, raising=False)
            for name in ("encode_leaf_entries", "encode_index_entries"):
                def many(entries, original=getattr(node, name)):
                    counts["encoded"] += len(entries)
                    return original(entries)

                # Module globals (the editor's runs, the leaf builder) and the
                # function the node classes' ``encode_entries`` forward to.
                for module in (edit, builder, node):
                    monkeypatch.setattr(module, name, many, raising=False)

        warm = ForkBase.open(str(tmp_path / "warm"), backend="pack", node_cache=16384)
        written = []
        spent = self._commit_loop(warm, big, written, start_counting)
        monkeypatch.undo()
        assert spent.gets == 0 and spent.misses == 0
        assert counts["decoded"] == 0
        emitted = sum(
            len(load_node(chunk).entries) for chunk in written if chunk.type.name != "FNODE"
        )
        assert 0 < counts["encoded"] <= emitted
        warm.close()

        # ...and the cache changes nothing about what gets written.
        plain = ForkBase(InMemoryStore())
        plainly_written = []
        self._commit_loop(plain, big, plainly_written)
        assert {chunk.uid for chunk in written} == {chunk.uid for chunk in plainly_written}

    @pytest.mark.parametrize("backend", ["memory", "pack"])
    def test_seam_costs_a_cacheless_engine_no_reads(self, big, tmp_path, backend):
        if backend == "memory":
            db = ForkBase(InMemoryStore())
        else:
            db = ForkBase.open(str(tmp_path / "db"), backend=backend, node_cache=0)
        assert self._commit_loop(db, big).gets == CACHELESS_COMMIT_LOOP_GETS
        db.close()
