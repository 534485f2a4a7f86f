"""``wrap`` stores a dict or a set the way the per-element path does.

An all-``str`` dict or set is encoded and sorted in one C-level pass; any
other value (bytes, mixed keys that may collide, a wrong element type)
takes the per-element path.  Whichever path runs, the root, the winning
value on a collision and the error raised must be the ones the
per-element path gives — spelled out here as the reference, with and
without a head (``onto``) to edit.
"""

from __future__ import annotations

from typing import Any, Dict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import TypeMismatchError
from repro.store import InMemoryStore
from repro.types import FMap, FSet
from repro.types import convert
from repro.types.convert import wrap

#: Text the C path must encode exactly as ``str.encode("utf-8")`` does,
#: non-ASCII included, plus a few strings that collide with the bytes
#: below once encoded.
text = st.one_of(st.text(max_size=6), st.sampled_from(["a", "é", "key", "ключ", "🙂"]))
raw = st.one_of(st.binary(max_size=6), st.sampled_from([b"a", "é".encode(), b"key"]))
#: Strings UTF-8 cannot encode (the same ``UnicodeEncodeError`` either way).
lone_surrogate = st.sampled_from(["\ud800", "x\udfff", "\udc80y"])
wrong_type = st.one_of(st.integers(-3, 3), st.just(bytearray(b"a")))
#: Hashable elements only (dict keys, set members); ``bytearray`` is not.
hashable_wrong = st.integers(-3, 3)


def _reference_bytes(element: Any) -> bytes:
    if isinstance(element, bytes):
        return element
    if isinstance(element, str):
        return element.encode("utf-8")
    raise TypeMismatchError(
        f"map/set/list elements must be str or bytes, got {type(element).__name__}"
    )


def _reference_pairs(value: Dict[Any, Any]) -> Dict[bytes, bytes]:
    pairs: Dict[bytes, bytes] = {}
    for key, item in value.items():
        # Key before value, as a dict display encodes them; last inserted wins.
        encoded = _reference_bytes(key)
        pairs[encoded] = _reference_bytes(item)
    return pairs


def _same_outcome(build_expected, build_actual) -> None:
    """Both builds give one root, or both raise one error (type and text)."""
    try:
        expected = build_expected()
    except (TypeMismatchError, UnicodeEncodeError) as exc:
        with pytest.raises(type(exc)) as raised:
            build_actual()
        assert type(raised.value) is type(exc) and str(raised.value) == str(exc)
        return
    assert build_actual().root == expected


dicts = st.one_of(
    st.dictionaries(text, text, max_size=40),
    st.dictionaries(raw, raw, max_size=40),
    st.dictionaries(st.one_of(text, raw), st.one_of(text, raw), max_size=40),
    st.dictionaries(
        st.one_of(text, raw, lone_surrogate, hashable_wrong),
        st.one_of(text, raw, lone_surrogate, wrong_type),
        max_size=12,
    ),
)
sets = st.one_of(
    st.frozensets(text, max_size=40),
    st.sets(text, max_size=40),
    st.sets(raw, max_size=40),
    st.sets(st.one_of(text, raw), max_size=40),
    st.sets(st.one_of(text, raw, lone_surrogate, hashable_wrong), max_size=12),
)
heads = st.one_of(st.none(), st.dictionaries(raw, raw, max_size=40))


@given(value=dicts, head=heads)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_dict_wrap_is_the_per_element_build(value, head):
    store = InMemoryStore()
    onto = None if head is None else FMap.from_dict(store, head)
    _same_outcome(
        lambda: FMap.from_dict(store, _reference_pairs(value)).root,
        lambda: wrap(store, value, onto=onto),
    )


@given(value=sets, head=heads)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_set_wrap_is_the_per_element_build(value, head):
    store = InMemoryStore()
    onto = None if head is None else FSet.from_iterable(store, head)
    _same_outcome(
        lambda: FSet.from_iterable(store, [_reference_bytes(m) for m in value]).root,
        lambda: wrap(store, value, onto=onto),
    )


def test_colliding_keys_keep_the_last_inserted():
    store = InMemoryStore()
    assert FMap.load(store, wrap(store, {"a": "first", b"a": b"last"}).root).to_dict() == {
        b"a": b"last"
    }
    assert FMap.load(store, wrap(store, {b"a": b"first", "a": "last"}).root).to_dict() == {
        b"a": b"last"
    }


def test_all_str_values_skip_the_per_element_path(monkeypatch):
    calls = []

    def counted(element):
        calls.append(element)
        return _reference_bytes(element)

    monkeypatch.setattr(convert, "_as_bytes", counted)
    store = InMemoryStore()
    value = {f"k{i:04d}": f"v{i}" for i in range(500)}
    head = FMap.from_dict(store, {b"k0001": b"old"})
    assert wrap(store, value, onto=head).root == FMap.from_dict(
        store, _reference_pairs(value)
    ).root
    wrap(store, set(value), onto=FSet.empty(store))
    assert calls == []
    # One bytes key sends the whole dict down the per-element path.
    wrap(store, {**value, b"raw": "v"})
    assert len(calls) == 2 * (len(value) + 1)
