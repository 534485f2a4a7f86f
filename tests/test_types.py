"""Tests for the typed object layer (repro.types)."""

import random

import pytest

from repro.errors import TypeMismatchError
from repro.types import (
    FBlob,
    FBool,
    FList,
    FMap,
    FNumber,
    FSet,
    FString,
    load_object,
    type_for_python,
)
from repro.types.convert import unwrap, wrap


class TestPrimitives:
    def test_string_round_trip(self, store):
        obj = FString(store, "héllo wörld")
        assert FString.load(store, obj.root).value == "héllo wörld"

    def test_int_round_trip(self, store):
        obj = FNumber(store, -123456789)
        loaded = FNumber.load(store, obj.root)
        assert loaded.value == -123456789
        assert isinstance(loaded.value, int)

    def test_float_round_trip(self, store):
        obj = FNumber(store, 2.71828)
        loaded = FNumber.load(store, obj.root)
        assert loaded.value == 2.71828
        assert isinstance(loaded.value, float)

    def test_int_and_float_distinct(self, store):
        assert FNumber(store, 1).root != FNumber(store, 1.0).root

    def test_bool_round_trip(self, store):
        assert FBool.load(store, FBool(store, True).root).value is True
        assert FBool.load(store, FBool(store, False).root).value is False

    def test_bool_rejected_by_number(self, store):
        with pytest.raises(TypeError):
            FNumber(store, True)

    def test_equal_values_share_chunks(self, store):
        assert FString(store, "same").root == FString(store, "same").root
        assert store.stats.puts_dup >= 1


class TestFMap:
    def test_dict_protocol(self, store):
        fmap = FMap.from_dict(store, {b"a": b"1", b"b": b"2"})
        assert fmap[b"a"] == b"1"
        assert fmap.get(b"c") is None
        assert fmap.get(b"c", b"dflt") == b"dflt"
        assert b"b" in fmap
        assert len(fmap) == 2
        with pytest.raises(KeyError):
            fmap[b"missing"]

    def test_functional_updates(self, store):
        fmap = FMap.empty(store)
        fmap2 = fmap.set(b"k", b"v")
        assert len(fmap) == 0 and len(fmap2) == 1
        fmap3 = fmap2.remove(b"k")
        assert len(fmap3) == 0

    def test_scan_window(self, store):
        fmap = FMap.from_dict(store, {b"k%02d" % i: b"v" for i in range(50)})
        window = list(fmap.scan(b"k10", b"k15"))
        assert [k for k, _ in window] == [b"k10", b"k11", b"k12", b"k13", b"k14"]

    def test_diff_and_merge(self, store):
        base = FMap.from_dict(store, {b"a": b"1", b"b": b"2", b"c": b"3"})
        side_a = base.set(b"a", b"A")
        side_b = base.set(b"c", b"C")
        diff = side_a.diff(side_b)
        assert set(diff.changed) == {b"a", b"c"}
        merged, result = side_a.merge(base, side_b)
        assert merged.to_dict() == {b"a": b"A", b"b": b"2", b"c": b"C"}
        assert not result.conflicts

    def test_load_by_root(self, store):
        fmap = FMap.from_dict(store, {b"x": b"y"})
        assert FMap.load(store, fmap.root).to_dict() == {b"x": b"y"}

    def test_equality_by_content(self, store):
        a = FMap.from_dict(store, {b"k": b"v"})
        b = FMap.empty(store).set(b"k", b"v")
        assert a == b

    def test_from_dict_is_from_pairs_over_shuffled_items(self, store):
        rng = random.Random(7)
        items = [(rng.randbytes(rng.randrange(1, 9)), rng.randbytes(20)) for _ in range(3000)]
        rng.shuffle(items)
        mapping = dict(items)
        assert FMap.from_dict(store, mapping).root == FMap.from_pairs(store, items).root
        assert FMap.from_dict(store, {}).root == FMap.empty(store).root


class TestFSet:
    def test_membership(self, store):
        fset = FSet.from_iterable(store, [b"x", b"y", b"x"])
        assert len(fset) == 2
        assert b"x" in fset and b"z" not in fset

    def test_add_discard(self, store):
        fset = FSet.empty(store).add(b"m")
        assert b"m" in fset
        assert b"m" not in fset.discard(b"m")

    def test_iteration_sorted(self, store):
        fset = FSet.from_iterable(store, [b"c", b"a", b"b"])
        assert list(fset) == [b"a", b"b", b"c"]

    def test_symmetric_difference(self, store):
        s1 = FSet.from_iterable(store, [b"a", b"b", b"c"])
        s2 = FSet.from_iterable(store, [b"b", b"c", b"d"])
        only_1, only_2 = s1.symmetric_difference_keys(s2)
        assert only_1 == {b"a"} and only_2 == {b"d"}

    def test_batch_update(self, store):
        fset = FSet.from_iterable(store, [b"a", b"b"])
        fset = fset.update(add=[b"c", b"d"], remove=[b"a"])
        assert fset.to_set() == {b"b", b"c", b"d"}


class TestFList:
    def test_sequence_protocol(self, store):
        flist = FList.from_items(store, [b"one", b"two", b"three"])
        assert len(flist) == 3
        assert flist[1] == b"two"
        assert list(flist) == [b"one", b"two", b"three"]

    def test_edits(self, store):
        flist = FList.from_items(store, [b"a", b"b", b"c"])
        assert flist.append(b"d").to_list() == [b"a", b"b", b"c", b"d"]
        assert flist.insert(1, b"x").to_list() == [b"a", b"x", b"b", b"c"]
        assert flist.delete(0).to_list() == [b"b", b"c"]
        assert flist.set(2, b"C").to_list() == [b"a", b"b", b"C"]
        assert flist.splice(0, 2, [b"z"]).to_list() == [b"z", b"c"]

    def test_slice(self, store):
        flist = FList.from_items(store, [b"i%d" % i for i in range(20)])
        assert flist.slice(5, 8) == [b"i5", b"i6", b"i7"]


class TestFBlob:
    def test_round_trip(self, store):
        data = random.Random(30).randbytes(30_000)
        blob = FBlob.from_bytes(store, data)
        assert blob.read() == data
        assert blob.size() == len(data)
        assert blob.read_at(100, 50) == data[100:150]

    def test_splice_and_append(self, store):
        blob = FBlob.from_bytes(store, b"hello world")
        assert blob.splice(0, 5, b"howdy").read() == b"howdy world"
        assert blob.append(b"!").read() == b"hello world!"


class TestConversion:
    @pytest.mark.parametrize(
        "value,expected_type",
        [
            ("text", "string"),
            (42, "number"),
            (3.5, "number"),
            (True, "bool"),
            (b"bytes", "blob"),
            ({"k": "v"}, "map"),
            ({"member"}, "set"),
            (["a", "b"], "list"),
        ],
    )
    def test_wrap_type_selection(self, store, value, expected_type):
        assert wrap(store, value).TYPE_NAME == expected_type
        assert type_for_python(value) == expected_type

    @pytest.mark.parametrize(
        "value",
        ["text", 42, 3.5, True, b"bytes"],
    )
    def test_wrap_unwrap_identity_scalars(self, store, value):
        assert unwrap(wrap(store, value)) == value

    def test_wrap_unwrap_containers(self, store):
        assert unwrap(wrap(store, {"k": "v"})) == {b"k": b"v"}
        assert unwrap(wrap(store, {"m"})) == {b"m"}
        assert unwrap(wrap(store, ["a", "b"])) == [b"a", b"b"]

    def test_wrap_passthrough_fobject(self, store):
        obj = FString(store, "x")
        assert wrap(store, obj) is obj

    def test_wrap_rejects_unknown(self, store):
        with pytest.raises(TypeMismatchError):
            wrap(store, object())

    def test_load_object_registry(self, store):
        fmap = FMap.from_dict(store, {b"a": b"b"})
        loaded = load_object(store, "map", fmap.root)
        assert isinstance(loaded, FMap)
        with pytest.raises(TypeMismatchError):
            load_object(store, "nope", fmap.root)

    def test_mixed_key_types_rejected(self, store):
        with pytest.raises(TypeMismatchError):
            wrap(store, {1: "v"})

    def test_set_of_mixed_str_and_bytes_members(self, store):
        """``wrap`` used to sort the raw members before encoding them:
        ``TypeError: '<' not supported between 'bytes' and 'str'``."""
        mixed = wrap(store, {"a", b"b", "c"})
        assert unwrap(mixed) == {b"a", b"b", b"c"}
        assert mixed.root == wrap(store, {b"a", "b", b"c"}).root
        assert unwrap(wrap(store, {"k": "x", b"l": b"y"})) == {b"k": b"x", b"l": b"y"}

    def test_set_member_of_another_type_rejected(self, store):
        with pytest.raises(TypeMismatchError):
            wrap(store, {"a", 1})
        with pytest.raises(TypeMismatchError):
            wrap(store, frozenset({b"a", 2.5}))
