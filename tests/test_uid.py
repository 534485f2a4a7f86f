"""Tests for content addresses (repro.chunk.uid)."""

import pytest

from repro.chunk import NULL_UID, Uid


class TestConstruction:
    def test_requires_32_bytes(self):
        with pytest.raises(ValueError):
            Uid(b"short")

    def test_requires_bytes(self):
        with pytest.raises(TypeError):
            Uid("f" * 64)  # type: ignore[arg-type]

    def test_rejects_31_bytes(self):
        with pytest.raises(ValueError):
            Uid(b"x" * 31)

    def test_rejects_an_int(self):
        # ``bytes(5)`` would be five zero bytes: an int is not a digest.
        with pytest.raises(TypeError):
            Uid(5)  # type: ignore[arg-type]

    def test_of_hashes_sha256(self):
        import hashlib

        assert Uid.of(b"abc").digest == hashlib.sha256(b"abc").digest()

    def test_accepts_bytearray(self):
        raw = bytearray(range(32))
        assert Uid(raw).digest == bytes(range(32))


class TestRenderings:
    def test_hex_round_trip(self):
        uid = Uid.of(b"payload")
        assert Uid.from_hex(uid.hex()) == uid

    def test_base32_round_trip(self):
        uid = Uid.of(b"payload")
        assert Uid.from_base32(uid.base32()) == uid

    def test_base32_is_rfc4648_uppercase(self):
        text = Uid.of(b"x").base32()
        assert text == text.upper()
        assert "=" not in text
        assert len(text) == 52

    def test_base32_accepts_lowercase(self):
        uid = Uid.of(b"y")
        assert Uid.from_base32(uid.base32().lower()) == uid

    def test_parse_dispatches_on_length(self):
        uid = Uid.of(b"z")
        assert Uid.parse(uid.hex()) == uid
        assert Uid.parse(uid.base32()) == uid

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            Uid.parse("not-a-uid")

    def test_short_is_prefix(self):
        uid = Uid.of(b"w")
        assert uid.base32().startswith(uid.short())
        assert len(uid.short(6)) == 6


class TestBytesContract:
    """A uid is its digest: hashing, comparison and sorting are ``bytes``'
    own C slots, never Python methods (the node cache probes uids on
    every level of every descent)."""

    @pytest.mark.parametrize(
        "slot", ["__hash__", "__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__"]
    )
    def test_slot_is_inherited_from_bytes(self, slot):
        assert getattr(Uid, slot) is getattr(bytes, slot)

    def test_is_a_slotted_bytes(self):
        uid = Uid.of(b"slot")
        assert isinstance(uid, bytes) and Uid.__slots__ == ()
        assert not hasattr(uid, "__dict__")
        assert uid == bytes(uid) == uid.digest and type(uid.digest) is bytes

    def test_every_rendering_names_the_uid(self):
        uid = Uid.of(b"render")
        text = f"Uid({uid.short()}…)"
        assert str(uid) == repr(uid) == f"{uid}" == text

    def test_hex_is_the_digest_hex(self):
        uid = Uid.of(b"hex")
        assert uid.hex() == uid.digest.hex() and len(uid.hex()) == 64

    def test_sorted_matches_digest_order(self):
        uids = [Uid.of(b"%d" % i) for i in range(200)]
        assert [u.digest for u in sorted(uids)] == sorted(u.digest for u in uids)
        assert min(uids).digest == min(u.digest for u in uids)

    def test_null_uid_is_32_zero_bytes(self):
        assert NULL_UID == bytes(32) and type(NULL_UID) is Uid

    def test_hot_constructor_builds_an_equal_uid(self):
        raw = bytes(range(32))
        fast = bytes.__new__(Uid, raw)
        assert type(fast) is Uid and fast == Uid(raw) and hash(fast) == hash(Uid(raw))


class TestSemantics:
    def test_equality_and_hash(self):
        a = Uid.of(b"same")
        b = Uid.of(b"same")
        c = Uid.of(b"other")
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_ordering_is_lexicographic(self):
        uids = sorted([Uid.of(bytes([i])) for i in range(20)])
        digests = [u.digest for u in uids]
        assert digests == sorted(digests)

    def test_usable_as_dict_key(self):
        table = {Uid.of(b"k"): 1}
        assert table[Uid.of(b"k")] == 1

    def test_bytes_conversion(self):
        uid = Uid.of(b"q")
        assert bytes(uid) == uid.digest

    def test_null_uid_is_all_zero(self):
        assert NULL_UID.digest == b"\x00" * 32
