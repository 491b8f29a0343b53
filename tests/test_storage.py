"""The storage layer: persistent join indexes, stores, and the facade surface.

The core property is differential: a view maintained through **persistent
indexes** must produce bit-identical contents to the same view maintained
with **per-evaluation rebuilds** (``forced_no_index``) and to the strict
**interpreter** (``forced_interpretation``), across every strategy, including
negative multiplicities, NaN/unhashable join keys, and deep updates.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bag.bag import Bag, EMPTY_BAG
from repro.ivm import Update
from repro.ivm.database import Database, ShreddedDelta
from repro.nrc import ast
from repro.nrc.compile import (
    IndexRequirement,
    compile_expr,
    forced_interpretation,
)
from repro.nrc.evaluator import Environment, evaluate_bag
from repro.nrc.types import BASE, bag_of, tuple_of
from repro.shredding.shred_database import input_dict_name
from repro.storage import (
    HashIndex,
    RelationStore,
    StorageManager,
    forced_no_index,
    persistent_indexes_enabled,
)
from repro.workloads import (
    FEATURED_SCHEMA,
    MOVIE_SCHEMA,
    bag_of_bags_engine,
    featured_join_query,
    featured_update_stream,
    generate_movies,
    genre_selfjoin_query,
    movie_update_stream,
    movies_engine,
    nested_update_stream,
)

STRATEGIES = ("naive", "classic", "recursive", "nested")

# --------------------------------------------------------------------------- #
# HashIndex unit behavior
# --------------------------------------------------------------------------- #
class TestHashIndex:
    def test_apply_matches_fresh_rebuild(self):
        base = Bag([("a", 1, "x"), ("b", 1, "y"), ("c", 2, "z")])
        index = HashIndex(((1,),), base)
        delta = Bag.from_pairs([(("d", 2, "w"), 2), (("a", 1, "x"), -1)])
        index.apply(delta)
        fresh = HashIndex(((1,),), base.union(delta))
        assert {k: dict(b) for k, b in index._buckets.items()} == {
            k: dict(b) for k, b in fresh._buckets.items()
        }

    def test_cancellation_drops_entries_and_buckets(self):
        base = Bag([("a", 1)])
        index = HashIndex(((1,),), base)
        index.apply(Bag.from_pairs([(("a", 1), -1)]))
        assert len(index) == 0
        assert index.entry_count() == 0

    def test_nan_key_poisons(self):
        index = HashIndex(((1,),), Bag([("a", 1)]))
        index.apply(Bag([("b", float("nan"))]))
        assert index.poisoned
        assert index.get((1,)) is None

    def test_non_base_key_poisons(self):
        index = HashIndex(((1,),))
        index.apply(Bag([("a", ("compound", "key"))]))
        assert index.poisoned

    def test_projection_failure_poisons(self):
        index = HashIndex(((5,),))
        index.apply(Bag([("too", "short")]))
        assert index.poisoned

    def test_rebuild_clears_poison(self):
        index = HashIndex(((1,),), Bag([("a", float("nan"))]))
        assert index.poisoned
        index.rebuild(Bag([("a", 1)]))
        assert not index.poisoned
        assert dict(index.get((1,))) == {("a", 1): 1}

    def test_probe_shape_matches_compiled_build(self):
        index = HashIndex(((0,), (1,)), Bag.from_pairs([(("k", 2), 3)]))
        bucket = index.get(("k", 2))
        assert list(bucket) == [(("k", 2), 3)]
        assert index.hits == 1
        assert index.get(("missing", 0)) is None

    @given(
        st.lists(
            st.tuples(
                st.tuples(st.text("ab", max_size=2), st.integers(0, 3)),
                st.integers(-3, 3),
            ),
            max_size=20,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_incremental_equals_rebuild_property(self, pairs):
        """Folding deltas one at a time equals one rebuild of the final bag."""
        index = HashIndex(((1,),), EMPTY_BAG)
        total = EMPTY_BAG
        for element, multiplicity in pairs:
            delta = Bag.from_pairs([(element, multiplicity)])
            index.apply(delta)
            total = total.union(delta)
        fresh = HashIndex(((1,),), total)
        assert {k: dict(b) for k, b in index._buckets.items()} == {
            k: dict(b) for k, b in fresh._buckets.items()
        }


# --------------------------------------------------------------------------- #
# Stores
# --------------------------------------------------------------------------- #
class TestRelationStore:
    def test_apply_delta_updates_bag_and_indexes(self):
        store = RelationStore("R", Bag([("a", 1)]))
        index = store.ensure_index(((1,),))
        store.apply_delta(Bag([("b", 1)]))
        assert store.bag.multiplicity(("b", 1)) == 1
        assert dict(index.get((1,))) == {("a", 1): 1, ("b", 1): 1}
        assert index.deltas_applied == 1

    def test_replace_rebuilds_indexes(self):
        store = RelationStore("R", Bag([("a", 1)]))
        index = store.ensure_index(((1,),))
        before = index.rebuilds
        store.replace(Bag([("z", 9)]))
        assert index.rebuilds == before + 1
        assert dict(index.get((9,))) == {("z", 9): 1}

    def test_apply_delta_and_replace_keep_index_versions_fresh(self):
        store = RelationStore("R", Bag([("a", 1)]))
        index = store.ensure_index(((1,),))
        store.apply_delta(Bag([("b", 1)]))
        assert index.version == store.version
        store.replace(Bag([("z", 9)]))
        assert index.version == store.version
        assert dict(index.get((9,))) == {("z", 9): 1}

    def test_negative_multiplicities(self):
        store = RelationStore("R", EMPTY_BAG)
        store.apply_delta(Bag.from_pairs([(("a", 1), -2), (("b", 2), 1)]))
        assert store.bag.multiplicity(("a", 1)) == -2
        assert store.bag.has_negative()
        assert store.bag.cardinality() == 3

    def test_unchanged_store_hands_out_one_snapshot(self):
        store = RelationStore("R", Bag([("a", 1)]))
        snapshot = store.bag
        assert store.bag is snapshot
        assert store.current_snapshot() is snapshot
        store.apply_delta(Bag([("b", 1)]))
        assert store.current_snapshot() is None
        assert snapshot == Bag([("a", 1)])
        assert store.bag == Bag([("a", 1), ("b", 1)])

    def test_provider_declines_stale_snapshots(self):
        manager = StorageManager()
        manager.ensure("R", Bag([("a", 1)]))
        index = manager.ensure_index("R", ((1,),))
        provider = manager.provider()
        assert provider.probe("R", ((1,),), manager.bag("R")) is index
        stale = manager.bag("R")
        manager.apply_delta("R", Bag([("b", 2)]))
        assert provider.probe("R", ((1,),), stale) is None
        assert provider.probe("R", ((1,),), manager.bag("R")) is index

    def test_deleting_write_heals_a_poisoned_index(self):
        """While the bad row is present a deletion's heal re-poisons the
        index; the write that deletes the bad row heals it, and the healed
        index serves probes again."""
        nan = float("nan")
        database = Database()
        database.register("R", bag_of(tuple_of(BASE, BASE)), Bag([("a", 1.0), ("b", 2.0)]))
        (requirement,) = database.register_index_requirements(
            [IndexRequirement("R", ((1,),))]
        )

        def described():
            (entry,) = database.describe_indexes([requirement])
            return entry

        def apply(pairs):
            database.apply_update(Update(relations={"R": Bag.from_pairs(pairs)}))

        apply([(("n", nan), 1)])
        assert described()["poisoned"]
        before = described()["rebuilds"]
        # Bad key still present: the deleting write's heal re-poisons.
        apply([(("a", 1.0), -1)])
        assert described()["poisoned"]
        apply([(("n", nan), -1)])
        assert not described()["poisoned"]
        # Two rebuilds: the heal that failed and the one that stuck.
        assert described()["rebuilds"] == before + 2
        environment = database.environment()
        index = environment.indexes.probe("R", ((1,),), environment.relations["R"])
        assert index is not None and dict(index.get((2.0,))) == {("b", 2.0): 1}

    def test_manager_provider_identity_check(self):
        manager = StorageManager()
        manager.ensure("R", Bag([("a", 1)]))
        index = manager.ensure_index("R", ((1,),))
        provider = manager.provider()
        assert provider.probe("R", ((1,),), manager.bag("R")) is index
        # A different (even equal-valued) bag must not be served.
        assert provider.probe("R", ((1,),), Bag([("a", 1)])) is None
        assert provider.probe("missing", ((1,),), manager.bag("R")) is None

    def test_no_index_escape_hatch(self):
        manager = StorageManager()
        manager.ensure("R", Bag([("a", 1)]))
        with forced_no_index():
            assert not persistent_indexes_enabled()
            assert manager.ensure_index("R", ((1,),)) is None
        assert persistent_indexes_enabled()

    def test_no_index_hatch_also_gates_probing(self):
        """The hatch is dynamic: indexes registered *before* it is set are
        not served while it is active (no leak-in on shared engines)."""
        manager = StorageManager()
        manager.ensure("R", Bag([("a", 1)]))
        index = manager.ensure_index("R", ((1,),))
        provider = manager.provider()
        with forced_no_index():
            assert provider.probe("R", ((1,),), manager.bag("R")) is None
        assert provider.probe("R", ((1,),), manager.bag("R")) is index


# --------------------------------------------------------------------------- #
# Differential maintenance: indexed vs rebuild vs interpreter
# --------------------------------------------------------------------------- #
def _maintain(strategy, query, base, stream, schema=MOVIE_SCHEMA):
    engine = movies_engine(base)
    view = engine.view("v", query, strategy=strategy)
    engine.apply_stream(stream)
    return view


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_selfjoin_three_modes_agree(strategy):
    base = generate_movies(50, seed=5)
    stream = movie_update_stream(4, 3, existing=base, deletion_ratio=0.4, seed=9)
    with forced_interpretation(False), forced_no_index(False):
        indexed = _maintain(strategy, genre_selfjoin_query(), base, stream)
    with forced_interpretation(False), forced_no_index(True):
        rebuilt = _maintain(strategy, genre_selfjoin_query(), base, stream)
    with forced_interpretation(True):
        interpreted = _maintain(strategy, genre_selfjoin_query(), base, stream)
    assert indexed.result() == rebuilt.result() == interpreted.result()
    # The final state equals direct evaluation over the post-update database.
    post = Bag(base)
    for update in stream:
        post = post.union(update.relations["M"])
    assert indexed.result() == evaluate_bag(
        genre_selfjoin_query(), Environment(relations={"M": post})
    )


@pytest.mark.parametrize("strategy", ("classic", "recursive", "nested"))
def test_indexed_run_actually_probes_persistent_index(strategy):
    base = generate_movies(40, seed=5)
    stream = movie_update_stream(3, 2, seed=9)
    view = _maintain(strategy, genre_selfjoin_query(), base, stream)
    report = view.indexes()
    assert report, "equality-join view should have index requirements"
    assert any(entry["registered"] and entry["hits"] > 0 for entry in report)
    assert all(entry["deltas_applied"] >= 0 for entry in report if entry["registered"])


def test_nan_join_keys_poison_but_never_diverge():
    nan = float("nan")
    base = Bag([("a", 1.0, "d"), ("n", nan, "d"), ("b", 1.0, "d")])
    stream = [
        Update(relations={"M": Bag.from_pairs([(("c", 1.0, "e"), 1)])}),
        Update(relations={"M": Bag.from_pairs([(("n2", nan, "e"), 1), (("a", 1.0, "d"), -1)])}),
    ]
    def run(interpreted, no_index):
        with forced_interpretation(interpreted), forced_no_index(no_index):
            engine = movies_engine(Bag(base))
            view = engine.view("v", genre_selfjoin_query(), strategy="classic")
            for update in stream:
                engine.apply(update)
            return view
    indexed = run(False, False)
    rebuilt = run(False, True)
    interpreted = run(True, False)
    assert indexed.result() == rebuilt.result() == interpreted.result()
    # NaN is not self-equal: it must never match itself through the index.
    assert all(not (isinstance(p, float) and math.isnan(p)) for pair in indexed.result().elements() for p in pair)
    report = indexed.indexes()
    assert any(entry["registered"] and entry["poisoned"] for entry in report)


def test_deep_updates_three_modes_agree():
    def run(interpreted, no_index):
        with forced_interpretation(interpreted), forced_no_index(no_index):
            engine = bag_of_bags_engine(12, 3, seed=47)
            relation = ast.Relation("R", bag_of(bag_of(BASE)))
            query = ast.For("x", relation, ast.Sng(ast.For("y", ast.SngVar("x"), ast.SngVar("y"))))
            view = engine.view("v", query, strategy="nested")
            dict_name = input_dict_name("R", ())
            dictionary = engine.database.shredded_environment().dictionaries[dict_name]
            labels = sorted(dictionary.support(), key=lambda l: l.render())[:2]
            engine.apply(
                Update(deep={dict_name: {label: Bag([f"deep-{i}"]) for i, label in enumerate(labels)}})
            )
            engine.apply_stream(nested_update_stream("R", 2, 1, 3, seed=53))
            return view.result()
    assert run(False, False) == run(False, True) == run(True, False)


def test_stale_environment_is_never_served_by_the_index():
    """Hand-mutated environments fall back to per-evaluation builds."""
    engine = movies_engine(generate_movies(30, seed=3))
    engine.view("v", genre_selfjoin_query(), strategy="classic")
    compiled = compile_expr(genre_selfjoin_query())
    env = engine.database.environment()
    # Swap in a post-update bag the store has never seen; the provider's
    # identity check must route around the (now stale) persistent index.
    env.relations["M"] = env.relations["M"].union(Bag([("Fresh", "Drama", "Dir")]))
    assert compiled.evaluate_bag(env) == evaluate_bag(
        genre_selfjoin_query(), Environment(relations={"M": env.relations["M"]})
    )


def test_escaped_dictionary_lookups_see_their_environment_snapshot():
    """An intensional dictionary that outlives its evaluation must keep
    answering from the environment it closed over, even though the
    persistent index it was first validated against mutates in place as the
    store applies later deltas (the interpreter's closed-over-environment
    semantics)."""
    from repro.nrc import builders as build
    from repro.nrc import predicates as preds
    from repro.labels import Label
    from repro.nrc.evaluator import evaluate

    database = Database()
    database.register("M", MOVIE_SCHEMA, Bag([("a", "g1", "d1")]))
    body = build.for_in(
        "m",
        ast.Relation("M", MOVIE_SCHEMA),
        build.proj("m", 0),
        condition=preds.eq(preds.var_path("m", 1), preds.var_path("p")),
    )
    expr = ast.DictSingleton("D", ("p",), body)
    compiled = compile_expr(expr)
    assert compiled.index_requirements, "the join over M should be indexable"
    database.register_index_requirements(compiled.index_requirements)

    env = database.environment()
    dictionary = compiled.evaluate(env)
    label = Label("D", ("g1",))
    before = dictionary.lookup(label)
    assert before == Bag(["a"])
    # The store moves on; the escaped dictionary must not see it.
    database.apply_update(Update(relations={"M": Bag([("b", "g1", "d2")])}))
    assert dictionary.lookup(label) == before
    # ... exactly as the interpreter's dictionary over the same snapshot.
    assert evaluate(expr, env).lookup(label) == before


def test_vacuum_revalidates_poisoned_indexes():
    nan = float("nan")
    engine = movies_engine(generate_movies(10, seed=3))
    view = engine.view("v", genre_selfjoin_query(), strategy="classic")
    engine.apply({"M": [("bad", nan, "d")]})
    assert any(entry["registered"] and entry["poisoned"] for entry in view.indexes())
    # While the bad key is still present, a deleting write cannot heal it.
    victim = min(generate_movies(10, seed=3).elements())
    engine.apply({"M": {victim: -1}})
    assert any(entry["poisoned"] for entry in view.indexes())
    # The write that deletes the bad key heals the index on its own.
    engine.apply({"M": {("bad", nan, "d"): -1}})
    report = view.indexes()
    assert all(not entry["poisoned"] for entry in report if entry["registered"])
    # ... and it serves probes again.
    hits_before = sum(entry["hits"] for entry in report if entry["registered"])
    engine.apply({"M": [("fine", "Drama", "d")]})
    hits_after = sum(
        entry["hits"] for entry in view.indexes() if entry["registered"]
    )
    assert hits_after > hits_before
    with forced_interpretation(True):
        engine2 = movies_engine(generate_movies(10, seed=3))
        view2 = engine2.view("v", genre_selfjoin_query(), strategy="classic")
        for update in (
            {"M": [("bad", nan, "d")]},
            {"M": {victim: -1}},
            {"M": {("bad", nan, "d"): -1}},
            {"M": [("fine", "Drama", "d")]},
        ):
            engine2.apply(update)
    assert view.result() == view2.result()


@given(
    st.lists(
        st.lists(
            st.tuples(
                st.sampled_from(["m0", "m1", "m2", "m3", "m4", "m5"]),
                st.sampled_from(["g0", "g1"]),
                st.sampled_from(["d0", "d1"]),
                st.integers(-2, 2),
            ),
            min_size=1,
            max_size=3,
        ),
        max_size=4,
    )
)
@settings(max_examples=25, deadline=None)
def test_random_update_streams_property(batches):
    """Random mixed-sign streams: indexed == unindexed == interpreter."""
    base = Bag([("m0", "g0", "d0"), ("m1", "g1", "d0"), ("m2", "g0", "d1")])
    updates = [
        Update(relations={"M": Bag.from_pairs([(row[:3], row[3]) for row in batch])})
        for batch in batches
    ]
    def run(interpreted, no_index):
        with forced_interpretation(interpreted), forced_no_index(no_index):
            engine = movies_engine(Bag(base))
            view = engine.view("v", genre_selfjoin_query(), strategy="classic")
            for update in updates:
                engine.apply(update)
            return view.result()
    assert run(False, False) == run(False, True) == run(True, False)


# --------------------------------------------------------------------------- #
# ShreddedDelta: no-op flat bags are dropped (PR 2's is_empty mirror)
# --------------------------------------------------------------------------- #
class TestShreddedDeltaNoOps:
    def test_empty_flat_bags_dropped_from_delta_symbols(self):
        delta = ShreddedDelta(bags={"R__F": EMPTY_BAG, "S__F": Bag(["x"])})
        symbols = delta.as_delta_symbols()
        assert ("R__F", 1) not in symbols
        assert symbols[("S__F", 1)] == Bag(["x"])

    def test_cancelled_flat_bag_dropped(self):
        cancelled = Bag(["a"]).union(Bag(["a"]).negate())
        delta = ShreddedDelta(bags={"R__F": cancelled})
        assert delta.as_delta_symbols() == {}
        # source_names still reports the touched relation for diagnostics.
        assert delta.source_names() == ("R__F",)


# --------------------------------------------------------------------------- #
# Engine facade: pairs form, batched streams, label retirement, reporting
# --------------------------------------------------------------------------- #
class TestEngineFacade:
    def test_apply_iterable_form_inserts(self):
        engine = movies_engine(Bag([("a", "g", "d")]))
        engine.apply({"M": [("b", "g", "d")]})
        assert engine.relation("M").multiplicity(("b", "g", "d")) == 1

    def test_apply_pairs_form_mixed_delta(self):
        engine = movies_engine(Bag([("a", "g", "d"), ("b", "g", "d")]))
        view = engine.view("v", genre_selfjoin_query(), strategy="classic")
        engine.apply({"M": {("a", "g", "d"): -1, ("c", "g", "d"): 2}})
        relation = engine.relation("M")
        assert relation.multiplicity(("a", "g", "d")) == 0
        assert relation.multiplicity(("c", "g", "d")) == 2
        assert view.result() == evaluate_bag(
            genre_selfjoin_query(), Environment(relations={"M": relation})
        )

    def test_apply_rejects_non_mapping(self):
        engine = movies_engine(Bag())
        with pytest.raises(TypeError):
            engine.apply([("a", "g", "d")])

    def test_batched_stream_equals_sequential(self):
        base = generate_movies(30, seed=3)
        stream = list(movie_update_stream(4, 2, existing=base, deletion_ratio=0.5, seed=11))
        sequential = movies_engine(Bag(base))
        view_seq = sequential.view("v", genre_selfjoin_query(), strategy="classic")
        assert sequential.apply_stream(stream) == 4
        batched = movies_engine(Bag(base))
        view_bat = batched.view("v", genre_selfjoin_query(), strategy="classic")
        assert batched.apply_stream(stream, batched=True) == 4
        assert view_seq.result() == view_bat.result()
        # One combined delta: a single refresh instead of one per update.
        assert view_bat.stats.updates_applied == 1
        assert view_seq.stats.updates_applied == 4

    def test_batched_cancelling_stream_is_a_noop(self):
        engine = movies_engine(Bag([("a", "g", "d")]))
        view = engine.view("v", genre_selfjoin_query(), strategy="classic")
        engine.apply_stream(
            [{"M": [("x", "g", "d")]}, {"M": {("x", "g", "d"): -1}}], batched=True
        )
        assert view.stats.updates_applied == 0
        assert engine.relation("M").multiplicity(("x", "g", "d")) == 0

    def test_vacuum_reclaims_nested_labels(self):
        from repro.workloads import PAPER_MOVIES, related_query

        engine = movies_engine(Bag(PAPER_MOVIES))
        nested = engine.view("nested", related_query(), strategy="nested")
        engine.view("flat", genre_selfjoin_query(), strategy="classic")
        assert not hasattr(engine, "vacuum")
        # Deleting a movie (pairs form) retires its related-movies label in
        # the same apply: the dictionary keeps only the live labels.
        engine.apply({"M": {("Drive", "Drama", "Refn"): -1}})
        (state,) = nested.view._dict_states
        assert sorted(label.values[0][0] for label in state.entries) == ["Rush", "Skyfall"]

    def test_explain_and_storage_report_surface_indexes(self):
        engine = movies_engine(generate_movies(20, seed=3))
        engine.view("v", genre_selfjoin_query(), strategy="classic")
        plan = engine.explain("v")
        assert any("persistent" in entry for entry in plan.indexes)
        assert "indexes" in plan.render()
        report = engine.storage_report()
        nested_stores = {s["relation"]: s for s in report["nested"]["stores"]}
        assert nested_stores["M"]["indexes"], "M should carry a persistent index"
        assert {"nested", "flat", "dictionaries"} <= set(report)

    def test_no_index_views_report_per_evaluation(self):
        with forced_no_index():
            engine = movies_engine(generate_movies(20, seed=3))
            view = engine.view("v", genre_selfjoin_query(), strategy="classic")
        assert all(not entry["registered"] for entry in view.indexes())
        plan = engine.explain("v")
        assert any("per-evaluation" in entry for entry in plan.indexes)

    def test_featured_join_with_targets_hits_index(self):
        engine = movies_engine(generate_movies(40, seed=7))
        engine.dataset("F", FEATURED_SCHEMA, Bag([("Movie000001", "s0")]))
        view = engine.view(
            "featured", featured_join_query(), strategy="classic", targets=("F",)
        )
        engine.apply_stream(
            featured_update_stream(3, 2, catalog_size=40, deletion_ratio=0.3, seed=7)
        )
        report = view.indexes()
        assert any(
            entry["relation"] == "M" and entry["registered"] and entry["hits"] > 0
            for entry in report
        )
        with forced_interpretation(True):
            engine2 = movies_engine(generate_movies(40, seed=7))
            engine2.dataset("F", FEATURED_SCHEMA, Bag([("Movie000001", "s0")]))
            view2 = engine2.view(
                "featured", featured_join_query(), strategy="classic", targets=("F",)
            )
            engine2.apply_stream(
                featured_update_stream(3, 2, catalog_size=40, deletion_ratio=0.3, seed=7)
            )
        assert view.result() == view2.result()
