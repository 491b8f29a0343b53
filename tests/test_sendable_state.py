"""Durable state survives its encodings: the WAL and checkpoint round-trips.

Write-ahead-log records and checkpoint files persist bags through the pair
codec (:mod:`repro.bag.codec`) and fall back to ``pickle`` for the values
the codec refuses.  The contract is that either round-trip preserves
**equality and hash stability** (the recovering process re-hashes with its
own seed, so cached hashes must never be persisted), including deeply
nested values and store snapshots — and
that the one class of value for which pickling genuinely breaks equality
(``NaN``, whose hash is id-based) is *rejected* by the codec rather than
silently diverging.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bag.bag import Bag
from repro.bag.codec import (
    UnsendableValueError,
    decode_bag,
    decode_pairs,
    decode_value,
    encode_bag,
    encode_pairs,
    encode_value,
    is_sendable,
)
from repro.ivm import Update
from repro.labels import Label
from repro.storage import RelationStore

# Deeply nested, hashable, sendable values: scalars closed under tupling.
scalars = st.one_of(
    st.integers(-100, 100),
    st.text(alphabet="abcxyz", max_size=4),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False, allow_infinity=True, width=32),
)
values = st.recursive(scalars, lambda inner: st.tuples(inner, inner), max_leaves=8)
multiplicities = st.integers(min_value=-4, max_value=4).filter(bool)
bags = st.dictionaries(values, multiplicities, max_size=8).map(Bag.from_mapping)


def _round_trip(value):
    return pickle.loads(pickle.dumps(value))


# --------------------------------------------------------------------------- #
# Bags and store snapshots
# --------------------------------------------------------------------------- #
@settings(max_examples=60)
@given(bags)
def test_bag_pickle_preserves_equality_and_hash(bag):
    copy = _round_trip(bag)
    assert copy == bag
    assert hash(copy) == hash(bag)
    assert copy.cardinality() == bag.cardinality()


@settings(max_examples=40)
@given(bags, bags)
def test_incrementally_hashed_bag_pickles_to_an_equal_hash(base, delta):
    """A ``⊎`` result whose hash was carried from its base's — not computed
    from its pairs — unpickles (hash dropped, recomputed) to the same hash."""
    hash(base), hash(delta)
    derived = base.union(delta)
    copy = _round_trip(derived)
    assert copy == derived
    assert hash(copy) == hash(derived)


def test_frozen_builder_snapshot_pickles_with_deep_nesting():
    deep = Bag([((("a", (1, (2, (3,)))), "b"), 2), ("leaf", 1)])
    store = RelationStore("R", deep)
    copy = _round_trip(store.bag)
    assert copy == deep
    assert hash(copy) == hash(deep)


@settings(max_examples=40)
@given(bags, bags)
def test_update_pickle_preserves_equality(relations_bag, deep_bag):
    label = Label("u.0", ("k",))
    update = Update(
        relations={"R": relations_bag},
        deep={"R__D": {label: deep_bag}},
    )
    copy = _round_trip(update)
    assert copy == update
    assert copy.relations["R"] == relations_bag
    (copy_label,) = copy.deep["R__D"]
    assert copy_label == label and hash(copy_label) == hash(label)


def test_nan_is_exactly_why_the_codec_exists():
    """Pickle silently breaks NaN-keyed bags (id-based hash), so the pair
    codec must reject NaN loudly: the WAL and checkpoint writers then know
    the bag takes the pickle fallback."""
    nan_bag = Bag([float("nan")])
    copy = _round_trip(nan_bag)
    # The round-tripped NaN is a new object with a new id-based hash: the
    # copy is *not* equal to the original.
    assert copy != nan_bag
    with pytest.raises(UnsendableValueError):
        encode_bag(nan_bag)
    assert not is_sendable(float("nan"))


# --------------------------------------------------------------------------- #
# The compact binary codec for bag pairs
# --------------------------------------------------------------------------- #
@settings(max_examples=60)
@given(values)
def test_codec_value_round_trip(value):
    assert decode_value(encode_value(value)) == value


@settings(max_examples=60)
@given(bags)
def test_codec_pairs_round_trip(bag):
    pairs = sorted(bag.items(), key=repr)
    assert sorted(decode_pairs(encode_pairs(pairs)), key=repr) == pairs
    assert decode_bag(encode_bag(bag)) == bag


def test_codec_round_trips_labels():
    label = Label("x.1", ("k", 1))
    copy = decode_value(encode_value(label))
    assert copy == label and hash(copy) == hash(label)


def test_codec_rejects_nan_pairs():
    with pytest.raises(UnsendableValueError):
        encode_pairs([(float("nan"), 1)])


def test_codec_rejects_unknown_types():
    class Opaque:
        pass

    with pytest.raises(UnsendableValueError):
        encode_value(Opaque())
    assert not is_sendable(Opaque())
