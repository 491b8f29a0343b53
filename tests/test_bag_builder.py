"""Transient builders and copy-on-write stores against full-copy union chains.

The contract under test: every :class:`~repro.bag.builder.BagBuilder`
application must be observationally identical to the immutable
``Bag.union`` chain it replaces — including negative multiplicities,
cancellation to the empty bag, interleaved freezes (copy-on-write must never
mutate an escaped snapshot), NaN join keys poisoning persistent indexes
exactly as before, and whole maintained views across all four strategies.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bag import (
    Bag,
    BagBuilder,
    EMPTY_BAG,
    intern_key,
    key_interner_stats,
)
from repro.dictionaries import MaterializedDict
from repro.labels import Label
from repro.nrc.evaluator import Environment, evaluate_bag
from repro.storage import DictionaryStore, RelationStore, StorageManager
from repro.workloads import (
    generate_movies,
    genre_selfjoin_query,
    movie_update_stream,
    movies_engine,
)

elements = st.one_of(st.integers(-5, 5), st.text(alphabet="abc", max_size=2))
multiplicities = st.integers(min_value=-4, max_value=4)
pair_lists = st.lists(st.tuples(elements, multiplicities), max_size=10)
bags = st.dictionaries(elements, multiplicities, max_size=6).map(Bag.from_mapping)


# --------------------------------------------------------------------------- #
# Builder ≡ immutable union chains
# --------------------------------------------------------------------------- #
class TestBuilderEquivalence:
    @given(bags, st.lists(bags, max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_apply_bag_chain_equals_union_chain(self, initial, deltas):
        builder = BagBuilder.from_bag(initial)
        immutable = initial
        for delta in deltas:
            builder.apply_bag(delta)
            immutable = immutable.union(delta)
        assert builder.freeze() == immutable

    @given(st.lists(pair_lists, max_size=5))
    @settings(max_examples=80, deadline=None)
    def test_apply_pairs_equals_from_pairs(self, batches):
        builder = BagBuilder()
        flattened = []
        for batch in batches:
            builder.apply_pairs(batch)
            flattened.extend(batch)
        assert builder.freeze() == Bag.from_pairs(flattened)

    @given(bags, st.lists(bags, min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_interleaved_freezes_are_never_mutated(self, initial, deltas):
        """Copy-on-write: a snapshot taken mid-stream must keep its value."""
        builder = BagBuilder.from_bag(initial)
        snapshots = []
        expected = [initial]
        running = initial
        for delta in deltas:
            snapshots.append(builder.freeze())
            builder.apply_bag(delta)
            running = running.union(delta)
            expected.append(running)
        snapshots.append(builder.freeze())
        for snapshot, value in zip(snapshots, expected):
            assert snapshot == value

    @given(bags)
    @settings(max_examples=40, deadline=None)
    def test_cancellation_to_empty(self, bag):
        builder = BagBuilder.from_bag(bag)
        builder.apply_bag(bag.negate())
        assert builder.is_empty()
        assert builder.freeze() == EMPTY_BAG

    def test_freeze_identity_is_stable_until_mutation(self):
        builder = BagBuilder.from_bag(Bag(["a"]))
        first = builder.freeze()
        assert builder.freeze() is first
        builder.add("b")
        second = builder.freeze()
        assert second is not first
        assert first == Bag(["a"])
        assert second == Bag(["a", "b"])

    def test_dropped_snapshot_allows_in_place_mutation(self):
        builder = BagBuilder()
        builder.apply_pairs([("a", 1)])
        before = builder.freezes
        builder.freeze()  # result dropped immediately
        data_id = id(builder._data)
        builder.add("b")
        assert id(builder._data) == data_id  # no copy happened
        assert builder.freezes == before + 1

    def test_empty_bag_constant_is_protected(self):
        builder = BagBuilder.from_bag(EMPTY_BAG)
        builder.add("x")
        assert EMPTY_BAG.is_empty()
        assert builder.freeze() == Bag(["x"])

    def test_scale_and_add_validation(self):
        builder = BagBuilder()
        builder.apply_bag(Bag(["a", "a"]), scale=-2)
        assert builder.freeze() == Bag.from_mapping({"a": -4})
        with pytest.raises(TypeError):
            builder.add("a", multiplicity="2")
        with pytest.raises(TypeError):
            builder.apply_bag({"a": 1})
        with pytest.raises(TypeError):
            builder.apply_bag(Bag(["a"]), scale=2.0)

    def test_live_iterator_over_snapshot_survives_mutation(self):
        """An iterator keeps only the snapshot's *dict* alive, not the Bag;
        copy-on-write must detect that and not mutate under it."""
        builder = BagBuilder.from_bag(Bag(["a", "b", "c"]))
        iterator = builder.freeze().elements()
        first = next(iterator)
        builder.apply_pairs([("d", 1)])
        remaining = list(iterator)  # must not raise or see 'd'
        assert sorted([first] + remaining) == ["a", "b", "c"]
        assert builder.freeze() == Bag(["a", "b", "c", "d"])


# --------------------------------------------------------------------------- #
# The full-copy reference: one immutable union per applied delta
# --------------------------------------------------------------------------- #
class TestFullCopyHatch:
    @given(bags, st.lists(bags, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_full_copy_leg_is_equivalent(self, initial, deltas):
        transient = BagBuilder.from_bag(initial)
        full = BagBuilder.from_bag(initial)
        for delta in deltas:
            transient.apply_bag(delta)
            full = BagBuilder.from_bag(full.freeze().union(delta))
        assert transient.freeze() == full.freeze()


# --------------------------------------------------------------------------- #
# Copy-on-write relation stores: versions, snapshots, index freshness
# --------------------------------------------------------------------------- #
class TestRelationStoreCOW:
    def test_version_bumps_and_lazy_freeze_counting(self):
        store = RelationStore("R", Bag([("a", 1)]))
        assert store.version == 0
        store.apply_delta(Bag([("b", 2)]))
        store.apply_delta(Bag([("c", 3)]))
        assert store.version == 2
        assert store.snapshot_freezes == 0  # nobody asked for a snapshot yet
        assert store.bag == Bag([("a", 1), ("b", 2), ("c", 3)])
        assert store.snapshot_freezes == 1
        report = store.describe()
        assert report["version"] == 2
        assert report["snapshot_freezes"] == 1

    def test_escaped_snapshot_survives_later_deltas(self):
        store = RelationStore("R", Bag([("a", 1)]))
        held = store.bag
        store.apply_delta(Bag([("b", 2)]))
        assert held == Bag([("a", 1)])  # copy-on-write protected it
        assert store.bag == Bag([("a", 1), ("b", 2)])

    def test_empty_delta_is_a_noop(self):
        store = RelationStore("R", Bag([("a", 1)]))
        snapshot = store.bag
        store.apply_delta(EMPTY_BAG)
        assert store.version == 0
        assert store.bag is snapshot

    def test_provider_requires_current_version_and_snapshot(self):
        manager = StorageManager()
        manager.ensure("R", Bag([("a", 1)]))
        index = manager.ensure_index("R", ((1,),))
        provider = manager.provider()
        snapshot = manager.bag("R")
        assert provider.probe("R", ((1,),), snapshot) is index
        # After a delta the old snapshot no longer corresponds.
        manager.apply_delta("R", Bag([("b", 2)]))
        assert provider.probe("R", ((1,),), snapshot) is None
        # The new snapshot does, and the index was maintained from the delta.
        fresh = manager.bag("R")
        assert provider.probe("R", ((1,),), fresh) is index
        assert index.version == manager.get("R").version
        assert dict(index.get((2,))) == {("b", 2): 1}

    def test_stale_index_version_is_not_served(self):
        manager = StorageManager()
        manager.ensure("R", Bag([("a", 1)]))
        index = manager.ensure_index("R", ((1,),))
        provider = manager.provider()
        snapshot = manager.bag("R")
        index.version -= 1  # simulate an index that missed a maintenance pass
        assert provider.probe("R", ((1,),), snapshot) is None

    def test_nan_delta_poisons_index_exactly_as_before(self):
        store = RelationStore("R", Bag([("a", 1.0)]))
        index = store.ensure_index(((1,),))
        assert not index.poisoned
        store.apply_delta(Bag([("bad", math.nan)]))
        assert index.poisoned
        # The bag itself is maintained regardless.
        assert store.bag.multiplicity(("bad", math.nan)) == 1
        # Deleting the offender and vacuuming restores the index.
        store.apply_delta(Bag.from_pairs([(("bad", math.nan), -1)]))
        assert store.vacuum() == 1
        assert not index.poisoned
        assert index.version == store.version


# --------------------------------------------------------------------------- #
# Dictionary store: in-place pointwise merges with COW views
# --------------------------------------------------------------------------- #
class TestDictionaryStoreCOW:
    def test_pointwise_merge_and_support(self):
        store = DictionaryStore()
        ell, kay = Label("D", ("l",)), Label("D", ("k",))
        store.set("R__D", MaterializedDict({ell: Bag(["a"])}))
        store.apply_delta("R__D", MaterializedDict({ell: Bag(["b"]), kay: Bag(["c"])}))
        merged = store.get("R__D")
        assert merged.lookup(ell) == Bag(["a", "b"])
        assert merged.lookup(kay) == Bag(["c"])
        # A label whose bag cancels to empty stays in the support.
        store.apply_delta("R__D", MaterializedDict({kay: Bag(["c"]).negate()}))
        assert store.get("R__D").defines(kay)
        assert store.get("R__D").lookup(kay) == EMPTY_BAG

    def test_escaped_view_survives_later_merges(self):
        store = DictionaryStore()
        ell = Label("D", ("l",))
        store.set("R__D", MaterializedDict({ell: Bag(["a"])}))
        held = store.get("R__D")
        store.apply_delta("R__D", MaterializedDict({ell: Bag(["b"])}))
        assert held.lookup(ell) == Bag(["a"])
        assert store.get("R__D").lookup(ell) == Bag(["a", "b"])

    def test_live_iterator_over_view_survives_merges(self):
        store = DictionaryStore()
        ell, kay = Label("D", ("l",)), Label("D", ("k",))
        store.set("R__D", MaterializedDict({ell: Bag(["a"]), kay: Bag(["b"])}))
        iterator = iter(store.get("R__D").items())
        first_label, _ = next(iterator)
        store.apply_delta("R__D", MaterializedDict({Label("D", ("m",)): Bag(["c"])}))
        seen = {first_label} | {label for label, _ in iterator}  # must not raise
        assert seen == {ell, kay}


# --------------------------------------------------------------------------- #
# Key interning
# --------------------------------------------------------------------------- #
class TestKeyInterning:
    def test_interning_is_semantically_invisible_and_canonical(self):
        first = intern_key(("Drama", 7))
        second = intern_key(("Drama", 7))
        assert first == ("Drama", 7)
        assert second is first
        stats = key_interner_stats()
        assert stats["hits"] >= 1 and stats["misses"] >= 1

    def test_label_hash_is_cached_and_stable(self):
        label = Label("D", ("g1", Label("E", ())))
        assert hash(label) == hash(Label("D", ("g1", Label("E", ()))))
        assert label == Label("D", ("g1", Label("E", ())))
        assert label != Label("D", ("g2",))


# --------------------------------------------------------------------------- #
# Builder ≡ full-copy across whole maintained views (all four strategies)
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("strategy", ["naive", "classic", "recursive", "nested"])
@given(seed=st.integers(min_value=0, max_value=50))
@settings(max_examples=8, deadline=None)
def test_builder_equals_full_copy_across_strategies(strategy, seed):
    movies = generate_movies(30, seed=seed)
    engine = movies_engine(movies, expected_update_size=2)
    view = engine.view("v", genre_selfjoin_query(), strategy=strategy)
    full_relation = movies
    for update in movie_update_stream(
        4, 2, existing=movies, deletion_ratio=0.4, seed=seed + 1
    ):
        engine.apply(update)
        full_relation = full_relation.union(update.relations["M"])
    assert engine.relation("M") == full_relation
    assert view.result() == evaluate_bag(
        genre_selfjoin_query(), Environment(relations={"M": full_relation})
    )
