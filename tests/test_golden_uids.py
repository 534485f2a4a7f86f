"""Frozen uid vectors: what every value type hashes to, commit after commit.

Fixed inputs per type — map, set, list and blob each empty, single-leaf
and multi-level, and every primitive — are stored through
``types.convert.wrap`` and committed as an :class:`FNode` with fixed key,
author, message, timestamp and bases.  The value-root uid and the FNode uid
must equal the hex literals below on the memory, file and pack stores,
built by the engine's numpy chunkers and again under ``pure_chunker()``
(the streaming reference swapped in at every engine call site).

The literals were *generated on commit 19f73bf (PR 23)*, before the map,
list and blob trees were put behind one node seam, and this file is
identical on both sides of that change.  A moved literal means a chunk
boundary, a node encoding or the FNode layout moved: a format change.
Regenerating is therefore a reviewed act (ROADMAP items 2 and 7), with the
reason in CHANGES.md: ``PYTHONPATH=src python tests/test_golden_uids.py``.
"""

import hashlib
import json
import tempfile

import pytest

from repro.chunk import Uid
from repro.store import FileStore, InMemoryStore, PackStore
from repro.types.convert import wrap
from repro.vcs.fnode import FNode
from repro.vcs.graph import VersionGraph


def _fill(tag: bytes, index: int, size: int) -> bytes:
    """Deterministic incompressible filler."""
    out = b""
    counter = 0
    while len(out) < size:
        out += hashlib.sha256(b"%s:%d:%d" % (tag, index, counter)).digest()
        counter += 1
    return out[:size]


def _text(size: int) -> bytes:
    """Deterministic compressible filler (the blob workloads' kind of data)."""
    words = [b"fork", b"base", b"immutable", b"tamper", b"evident", b"branch", b"merge"]
    out = bytearray()
    index = 0
    while len(out) < size:
        out += words[(index * index + 3 * index) % len(words)] + b" %d\n" % index
        index += 1
    return bytes(out[:size])


def _map(count: int, tag: bytes = b"m") -> dict:
    return {b"key-%06d" % i: _fill(tag, i, 8 + (i * 7) % 90) for i in range(count)}


def _members(count: int) -> set:
    return {b"member-%06d-" % i + _fill(b"s", i, i % 23) for i in range(count)}


def _items(count: int) -> list:
    # Repeats and empty items included: a list is positional, not a set.
    return [b"dup" if i % 10 == 0 else _fill(b"l", i, (i * 5) % 61) for i in range(count)]


#: name -> the plain Python value ``wrap`` is given.
INPUTS = {
    # maps: empty / one leaf / two levels / four levels / varints over one byte
    "map/empty": lambda: {},
    "map/one-entry": lambda: {b"k": b"v"},
    "map/single-leaf": lambda: _map(6),
    "map/two-level": lambda: _map(300),
    "map/multi-level": lambda: _map(12_000),
    "map/str-elements": lambda: {"name-%03d" % i: "värde-%d" % i for i in range(50)},
    "map/long-values": lambda: {_fill(b"K", i, 150): _fill(b"V", i, 700) for i in range(40)},
    "map/empty-values": lambda: {b"only-key-%04d" % i: b"" for i in range(500)},
    # sets
    "set/empty": lambda: set(),
    "set/one-member": lambda: {b"alone"},
    "set/single-leaf": lambda: _members(5),
    "set/multi-level": lambda: _members(9_000),
    "set/frozen-str": lambda: frozenset("tag-%d" % i for i in range(200)),
    # lists
    "list/empty": lambda: [],
    "list/one-item": lambda: [b"item"],
    "list/single-leaf": lambda: _items(12),
    "list/small-tree": lambda: _items(150),
    "list/multi-level": lambda: _items(20_000),
    "list/tuple-str": lambda: tuple("row %d" % i for i in range(80)),
    "list/large-items": lambda: [_fill(b"big", i, 3_000 + 400 * i) for i in range(12)],
    # blobs
    "blob/empty": lambda: b"",
    "blob/one-byte": lambda: b"\x00",
    "blob/single-chunk": lambda: _text(900),
    "blob/two-level": lambda: _text(40_000),
    "blob/multi-level": lambda: _text(700_000),
    "blob/incompressible": lambda: _fill(b"blob", 0, 120_000),
    "blob/zeros-max-size": lambda: bytes(200_000),
    # primitives
    "string/empty": lambda: "",
    "string/ascii": lambda: "ForkBase",
    "string/unicode": lambda: "分叉 — ƒørk 🍴",
    "number/zero": lambda: 0,
    "number/negative": lambda: -123_456_789,
    "number/big": lambda: 2**70 + 1,
    "number/float": lambda: -1.5,
    "number/float-zero": lambda: 0.0,
    "number/inf": lambda: float("inf"),
    "bool/true": lambda: True,
    "bool/false": lambda: False,
}

STORES = {
    "memory": lambda directory: InMemoryStore(),
    "file": lambda directory: FileStore(directory),
    "pack": lambda directory: PackStore(directory),
}

BASES = (Uid(hashlib.sha256(b"golden-base-0").digest()), Uid(hashlib.sha256(b"golden-base-1").digest()))


def vector(store, name):
    """(value-root hex, FNode uid hex) of one input on ``store``."""
    obj = wrap(store, INPUTS[name]())
    fnode = FNode(
        key="golden/" + name,
        type_name=obj.TYPE_NAME,
        value_root=obj.root,
        bases=BASES,
        author="golden-author",
        message="golden vector: " + name,
        timestamp=1_577_836_800.25,
    )
    uid = VersionGraph(store).commit(fnode)
    assert store.get(uid).uid == uid and store.get(obj.root).uid == obj.root
    return obj.root.hex(), uid.hex()


#: name -> (value-root uid, FNode uid), generated by running this file on 19f73bf.
GOLDEN = {
    "map/empty": (
        "99be5efb88ca2013bd8e4eb035fd42d5245468fe9afa70d8ba9c1c419a48c4e8",
        "62744ead65eedccb94eba7b708a746f62d2cadb19ab162354d8bf45efdebe77e",
    ),
    "map/one-entry": (
        "190bc1630d7096717e1fa79954ca9f765119b2f489f26ec28cd9207b19df6349",
        "204c4d86f3edf2da28f5b46d57646762d7a5c10d4e0166fe3dc702a3def67a93",
    ),
    "map/single-leaf": (
        "c69d8e79760de1e3f2997d7ff3b28273e18adb9418e32b406e7e4dc1fdf6d9e4",
        "fe410f582fe16d41ec968cf127d26041f6e7316f1589b2dc9a4c0406d7302794",
    ),
    "map/two-level": (
        "afc7526d6afceabd93340d53270dc614baaea04ef7397e572f5f1817c68afe78",
        "57ec6bba840d381b0154a5052c675da650e3933669dc1d0a33123f408c9fcc45",
    ),
    "map/multi-level": (
        "3ce4a1a5b69ff708973eae9e5191cea715450d85cbe65f7c57bc6b3f5174b6f2",
        "94e7bd9e2c24d83203c7cd77e12c0e7ae4fe5feafa1ec60a03864e4862331b98",
    ),
    "map/str-elements": (
        "396cfe3beb9bffc0b89e0a2e5b5962470a73be861a67cde9552d03b6e863d6e6",
        "f918c273f0ef3764bed394d91ca0a1fb14aef1a38fb941ad6d5554df64f6ec74",
    ),
    "map/long-values": (
        "4f9d695267ff4492d978a5019120feec1046c5de820fa1fe17d74ce7605a1449",
        "1149b8e5b7973e484a41d86e1c08be35bafe44f21bcbc5c1c23b6d2f214c6ab3",
    ),
    "map/empty-values": (
        "aa7ed1ac4f09dcacfaca6d35b2735c72e49f9966d8d15375754a624aea13dd30",
        "6b2ab997d1b33c9df2abb17b008d12d3d7ac06371c1d0ec441ff43270009e298",
    ),
    "set/empty": (
        "99be5efb88ca2013bd8e4eb035fd42d5245468fe9afa70d8ba9c1c419a48c4e8",
        "feb1f14116521f64a0449b6b663a209673bb52de9f28affc9dcb241a8d8b8b92",
    ),
    "set/one-member": (
        "b8e6fee1dd0de5f56d88bd54090507d36ad78816ed55d6f78fb3941361a84c05",
        "53dff20abcd4fe938beddcfa1b90156ad2074513ca98f5fff5de5bc59d27d16f",
    ),
    "set/single-leaf": (
        "057d5fb4e29bfa6eb0589956afd92bd6fa5db98aaf972e49e9357493ea1c05ca",
        "6bca474269d52f7c27ed3851ef17723a08a637c07bc207b88322c71d58bf5014",
    ),
    "set/multi-level": (
        "207517ebe890892375e92becbad09445bd5a6185cddf972d671092c31c66f5dc",
        "9342f5ec330f2191e6bc198b6859f9b77d802ea3e755ca183ee57439be5b8ac9",
    ),
    "set/frozen-str": (
        "6e3fc5608b8f46b4175063f8d88b174c814ca6e138f5066949254e8f287d40c5",
        "2bee38c57b8047128f389068e8568cd6c3287dfe1b40ae76ad6d1c8ecc0c08ca",
    ),
    "list/empty": (
        "c0ba8a33ac67f44abff5984dfbb6f56c46b880ac2b86e1f23e7fa9c402c53ae7",
        "e78c83669772efa4fcf24040f72017b07b97bad7bfe03bf14ec0430ba0667985",
    ),
    "list/one-item": (
        "cce2ac8c8d4e1dd58ad94b25061a7153ecd233f46c80f1e1167bf1503cb42abb",
        "042e9a03e29fc3422122820b81a35fdbe0a75bf9364719c667880cabad9529eb",
    ),
    "list/single-leaf": (
        "f8975a3e3d3c7779d3182a9ea3cb6ab95e13c57fa66a31ec9f5b27d74f0a4478",
        "e68cc1d72462a02e20101a7d505dc67efb4fb694bcf11d51158dab7a18d737c4",
    ),
    "list/small-tree": (
        "477b15883439a8200ea4acb5612ed2a4946257b80b59d8fca61be69e76a5ab1a",
        "0e428646cca160a7b57b6e8c2582469861e6694b1d97bfe17e897cb173836922",
    ),
    "list/multi-level": (
        "7320e601843263a44d468a5056f97489e63b957d51e08442387ae34dee7f798a",
        "7b92d70d0c720c9332c68843c2c9e43faca1d1b16dca3cea271e70ef3b127777",
    ),
    "list/tuple-str": (
        "cb183e3acc61454dcae553c5f349c61386cee2dc8593b6d80f5111981599aba0",
        "35224dd8fb4476f9c845f16c18d2f0cb853ff7adef90a8318e0f902eee4683dc",
    ),
    "list/large-items": (
        "0ecc16a2b7bfaf7ba74fd5d97fb8fe3465b1e5a5ae39d271e0381214049b8fa4",
        "eea37a421caa42ca1fa47bd05ccd0f95a7b365b0dceced8f39f2a5a20db9348e",
    ),
    "blob/empty": (
        "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
        "6866d1b583c99ff69b88ed7fd6cf6bf3aa18c789b9c314c37507fc7bcc53f619",
    ),
    "blob/one-byte": (
        "47dc540c94ceb704a23875c11273e16bb0b8a87aed84de911f2133568115f254",
        "e38a4b64be5314cab7277ad7a08d7aea1f6411d9bb699cb295d6333f69d15ba4",
    ),
    "blob/single-chunk": (
        "f9455a68a447eb28fe285e7dfa33f3e1467ddef36a3e8ea46dc01cf8584fb295",
        "4e13ea5f089591161111e8b72b376109e23cc45b3817044032748949d8b6841f",
    ),
    "blob/two-level": (
        "21cf08b1ff22a666bb826106520ad1428a2403e193037e946da60317d5d586ae",
        "766fe79f633a9ac6a48b18ce313dd1622d67be599aef239933c9d7af0e74ed44",
    ),
    "blob/multi-level": (
        "5277d7cb0e5bad91c49cb36d2efaea6c8acefba5a215b2330c5fac5aef7b4359",
        "77baf4e3b9e119db3309a0baf92feec87a277c340880c552500ea18304932187",
    ),
    "blob/incompressible": (
        "bd53a443c40fdcf45f8aedf8a3dfb959d15d1d4fe4433697e263b429e70c74c2",
        "e1e3f75c67a37e5e7781209be3a71f45236662c80031ae6722bf740b8d3a6141",
    ),
    "blob/zeros-max-size": (
        "44a34db551b9cc370268d7741567895ee3e86ccefccbe9e5a69e692fcc8888bf",
        "6257a03721669791ae1ba9d74474839dbe297c3b7bbb1b4e1b21737f1e03db24",
    ),
    "string/empty": (
        "5f03650ec3578a2e318a11cc2bc83d4af2529893529822eb90e678c64c523efd",
        "6c25bca479a515d1ef222cf138be81b0bacfe3a0cfd2722510f0bf8fe3437fc5",
    ),
    "string/ascii": (
        "d44f51317439ccc74ce3f9038eace5346badedba4696260dde2d1de0d49f75b3",
        "9f89de709563a379ac42d275a85d090808e1a41fff1c39168000c10bf2fb672d",
    ),
    "string/unicode": (
        "5fa4987a433cc3f7236cc27147ea87269d3de076e92ca4f4b361ebaa951bdbbf",
        "f4be7dd9901afdc58daf8400921e508f1fdae87983f2f43bf0a3398ff9bfa625",
    ),
    "number/zero": (
        "29d57d1098b1c71cb1d08431cd85943661d4f0ed9e63d8900127437ffbdea4f9",
        "5855cb6a247db20e4c0e148b36df1048b21d34dc379a487e1f26cf48af5a8e30",
    ),
    "number/negative": (
        "46480f7102b732c910cce1bcbebc79be2977ad9b3551783ef11c404a8a25fb4f",
        "8c1e974d0ba9ebd8f5332c7434d837aaeb6441a27c4746d4d1844ae5853f54c1",
    ),
    "number/big": (
        "00aff41d5a2ad5906024eab94bed1d2f26d8c8b3d3996f695125a3ce6710f096",
        "6ed49b75e9495ca7416defbe92b099e0ae1e61c06d40b162968a9d31efe55c2b",
    ),
    "number/float": (
        "d32526d77cf137337bf394cb80a36ccb03c87a5eaf287c604e23754279557e5a",
        "b70db5a268e7415c98fa20535a2703c464d301a966e3d05d87e45e805cd4051f",
    ),
    "number/float-zero": (
        "3d132188ca675e06fafdeb1d6aa5c1d005d91e5e957195c4343f4d71729f0213",
        "9118334fbacf84a848f5bfcb469c5554ebd0f26a128819b1113be743a780a80b",
    ),
    "number/inf": (
        "d240e1a0b810f08378bca26c7a21affb9ecd1db417571d7116fdb2aadfe27c44",
        "e5ea40c1630aeddd03584530c003cdc6e27135f5bcf52c0b421213d05fc79c69",
    ),
    "bool/true": (
        "2823a2d9ac185e41f7fee0ffd695c46ace00ccae3f45e6880264ef3531786d9b",
        "dc0c308c0ab5c96ba1a87b7cf7e356278c3d823c118043363ff83549cf7a70fa",
    ),
    "bool/false": (
        "7eec188a1213ab47ce61e127dafb5b3bcc646886d5390fd74c7dcc8169a9feb8",
        "c8972246b9b6babf5a9976a6edb82da717ec93c5f2c8fe7d76662d1035a22c3c",
    ),
}


def test_every_input_has_a_vector():
    assert sorted(GOLDEN) == sorted(INPUTS)


@pytest.mark.parametrize("pure", [False, True], ids=["numpy", "forced-pure"])
@pytest.mark.parametrize("layout", sorted(STORES))
def test_golden_uids(layout, pure):
    # Imported here: the regeneration run (``__main__``) has no ``tests`` package.
    from tests.conftest import pure_chunker

    with tempfile.TemporaryDirectory() as directory:
        store = STORES[layout](directory)
        try:
            if pure:
                with pure_chunker():
                    got = {name: vector(store, name) for name in INPUTS}
            else:
                got = {name: vector(store, name) for name in INPUTS}
        finally:
            store.close()
    moved = {name: got[name] for name in INPUTS if got[name] != GOLDEN.get(name)}
    assert not moved, f"uids moved on {layout}: {sorted(moved)}"


if __name__ == "__main__":
    vectors = {name: vector(InMemoryStore(), name) for name in INPUTS}
    print(json.dumps({name: list(pair) for name, pair in vectors.items()}, indent=4))
