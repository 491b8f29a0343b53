"""Sharded relation stores, parallel view refresh, and their escape hatch.

The core property is differential: maintenance over **sharded stores** (any
shard count, with or without concurrent view refresh) must produce
bit-identical view contents to the **single-shard** escape hatch
(``REPRO_SHARDS=1``, refreshed inline) and to the strict **interpreter**,
across every strategy,
including negative multiplicities and NaN/unhashable join keys.  Sharding
specifics are covered directly: primary-key routing co-locates equal keys
(single-shard probes), poisoning is confined to the owning shard, the
deleting write heals per shard, and the nested strategy's active-label index
and dictionaries stay consistent with a full scan.
"""

import math
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bag.bag import Bag, EMPTY_BAG
from repro.engine import Engine
from repro.engine.scheduler import (
    ViewRefreshScheduler,
    forced_parallel_views,
    resolve_view_workers,
)
from repro.ivm import Update
from repro.ivm.database import Database, RefreshContext
from repro.ivm.views import View
from repro.nrc import ast
from repro.nrc import builders as build
from repro.nrc.compile import IndexRequirement, compilation_enabled, forced_interpretation
from repro.nrc.evaluator import Environment, evaluate_bag
from repro.nrc.types import BASE, bag_of, tuple_of
from repro.storage import (
    HashIndex,
    RelationStore,
    ShardIndexFamily,
    ShardedBag,
    StorageManager,
    forced_shards,
    resolve_shard_count,
)
from repro.workloads import (
    MOVIE_SCHEMA,
    generate_movies,
    genre_selfjoin_query,
    movie_update_stream,
    movies_engine,
)

STRATEGIES = ("naive", "classic", "recursive", "nested")


# --------------------------------------------------------------------------- #
# ShardedBag: Bag semantics over per-shard snapshots
# --------------------------------------------------------------------------- #
class TestShardedBag:
    def _pair(self):
        store = RelationStore("R", Bag([("a", 1), ("b", 2), ("c", 1), ("d", 3)]), shards=4)
        plain = Bag([("a", 1), ("b", 2), ("c", 1), ("d", 3)])
        return store.bag, plain

    def test_point_queries_and_sizes(self):
        sharded, plain = self._pair()
        assert isinstance(sharded, ShardedBag)
        assert sharded.multiplicity(("a", 1)) == 1
        assert ("b", 2) in sharded and ("z", 9) not in sharded
        assert len(sharded) == len(plain)
        assert sharded.distinct_size() == plain.distinct_size()
        assert sharded.cardinality() == plain.cardinality()
        assert not sharded.is_empty()
        assert sorted(sharded.elements()) == sorted(plain.elements())
        assert sorted(sharded.items()) == sorted(plain.items())

    def test_equality_and_hash_match_plain_bags(self):
        sharded, plain = self._pair()
        assert sharded == plain and plain == sharded
        assert hash(sharded) == hash(plain)

    def test_structural_operations_inherited(self):
        sharded, plain = self._pair()
        delta = Bag.from_pairs([(("a", 1), -1), (("e", 5), 2)])
        assert sharded.union(delta) == plain.union(delta)
        assert sharded.difference(delta) == plain.difference(delta)
        assert sharded.negate() == plain.negate()
        assert sharded.as_dict() == plain.as_dict()

    def test_negative_multiplicities(self):
        store = RelationStore("R", EMPTY_BAG, shards=3)
        store.apply_delta(Bag.from_pairs([(("a", 1), -2), (("b", 2), 1)]))
        assert store.bag.multiplicity(("a", 1)) == -2
        assert store.bag.has_negative()
        assert store.bag.cardinality() == 3


# --------------------------------------------------------------------------- #
# Store behavior: routing, per-shard COW, escape hatch
# --------------------------------------------------------------------------- #
class TestShardedStore:
    def test_single_shard_hatch_reproduces_plain_store(self):
        with forced_shards(1):
            store = RelationStore("R", Bag([("a", 1)]))
        assert store.shards == 1
        assert type(store.bag) is Bag
        assert isinstance(store.ensure_index(((1,),)), HashIndex)

    def test_default_is_sharded_and_env_overrides(self):
        assert RelationStore("R").shards == resolve_shard_count(None)
        with forced_shards(5):
            assert RelationStore("R").shards == 5
        assert RelationStore("R", shards=2).shards == 2

    def test_first_index_sets_routing_and_coloctes_equal_keys(self):
        rows = Bag([("m%d" % i, "g%d" % (i % 3), "d") for i in range(30)])
        store = RelationStore("R", rows, shards=4)
        assert store.routing_paths is None
        family = store.ensure_index(((1,),))
        assert store.routing_paths == ((1,),)
        assert isinstance(family, ShardIndexFamily) and family.routed
        # Equal primary keys live in exactly one shard: the probe consults
        # only the owning shard, and no other shard's slice knows the key.
        for genre in ("g0", "g1", "g2"):
            key = (genre,)
            owning = [index for index in family.shard_indexes if index.bucket_of(key)]
            assert len(owning) == 1
            assert dict(family.get(key)) == dict(owning[0].bucket_of(key))

    def test_secondary_index_merges_disjoint_shard_buckets(self):
        rows = Bag([("m%d" % i, "g%d" % (i % 3), "d%d" % (i % 2)) for i in range(20)])
        store = RelationStore("R", rows, shards=4)
        store.ensure_index(((1,),))  # primary: genre
        secondary = store.ensure_index(((2,),))  # secondary: director
        assert not secondary.routed
        unsharded = HashIndex(((2,),), rows)
        for director in ("d0", "d1"):
            assert dict(secondary.get((director,))) == dict(unsharded.get((director,)))

    def test_apply_delta_and_replace_keep_index_views_fresh(self):
        store = RelationStore("R", Bag([("a", 1)]), shards=4)
        family = store.ensure_index(((1,),))
        store.apply_delta(Bag([("b", 1)]))
        assert family.version == store.version
        assert family.deltas_applied == 1
        assert dict(family.get((1,))) == {("a", 1): 1, ("b", 1): 1}
        rebuilds = family.rebuilds
        store.replace(Bag([("z", 9)]))
        assert family.rebuilds == rebuilds + 1
        assert family.version == store.version
        assert dict(family.get((9,))) == {("z", 9): 1}

    def test_retained_snapshot_copies_only_touched_shards(self):
        rows = Bag([(("k%d" % i), i) for i in range(64)])
        store = RelationStore("R", rows, shards=8)
        snapshot = store.bag  # a reader retains the composite
        shard_dicts = [bag._data for bag in snapshot.shard_bags]
        store.apply_delta(Bag([("fresh", 999)]))
        after = store.bag
        preserved = sum(
            1
            for old, new in zip(shard_dicts, (bag._data for bag in after.shard_bags))
            if old is new
        )
        # Exactly one shard was touched; the other seven still share their
        # dicts with the retained snapshot (no O(n) copy happened).
        assert preserved == 7
        assert snapshot.multiplicity(("fresh", 999)) == 0  # reader's view is immutable
        assert after.multiplicity(("fresh", 999)) == 1

    def test_unhashable_routing_falls_back_to_element_hash(self):
        store = RelationStore("R", EMPTY_BAG, shards=4)
        family = store.ensure_index(((1,),))
        # Elements whose key projection fails route by whole-element hash
        # and poison their shard; probes then decline store-wide.
        store.apply_delta(Bag([("short",), ("ok", 1)]))
        assert family.poisoned
        assert store.bag.multiplicity(("short",)) == 1

    def test_provider_serves_family_and_declines_stale(self):
        manager = StorageManager(shards=4)
        manager.ensure("R", Bag([("a", 1)]))
        family = manager.ensure_index("R", ((1,),))
        provider = manager.provider()
        assert provider.probe("R", ((1,),), manager.bag("R")) is family
        stale = manager.bag("R")
        manager.apply_delta("R", Bag([("b", 2)]))
        assert provider.probe("R", ((1,),), stale) is None
        assert provider.probe("R", ((1,),), manager.bag("R")) is family


# --------------------------------------------------------------------------- #
# Poisoning is per shard; the deleting write heals per shard
# --------------------------------------------------------------------------- #
class TestPerShardPoisoning:
    def test_nan_poisons_only_owning_shard(self):
        nan = float("nan")
        store = RelationStore("R", Bag([("a", 1.0), ("b", 2.0), ("c", 3.0)]), shards=4)
        family = store.ensure_index(((1,),))
        store.apply_delta(Bag([("n", nan)]))
        description = family.describe()
        assert description["poisoned"]
        assert len(description["poisoned_shards"]) == 1
        healthy = [
            entry for entry in description["per_shard"] if not entry["poisoned"]
        ]
        assert len(healthy) == 3

    def test_vacuum_rebuilds_only_poisoned_shards(self):
        """Deleting writes heal: while the bad row is present a deletion's
        heal re-poisons the owning shard, the one that deletes the bad row
        sticks, and only that shard was ever rebuilt."""
        nan = float("nan")
        database = Database(shards=4)
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
        before = [entry["rebuilds"] for entry in described()["per_shard"]]
        # Bad key still present: the deleting write's heal re-poisons.
        apply([(("a", 1.0), -1)])
        assert described()["poisoned"]
        apply([(("n", nan), -1)])
        assert not described()["poisoned"]
        after = [entry["rebuilds"] for entry in described()["per_shard"]]
        extra_rebuilds = [now - then for then, now in zip(before, after)]
        # Only the poisoned shard was rebuilt (twice: the heal that failed
        # and the one that stuck); healthy shards kept their
        # incrementally-maintained slices untouched.
        assert sorted(extra_rebuilds) == [0, 0, 0, 2]
        # ... and the healed family serves probes again.
        environment = database.environment()
        family = environment.indexes.probe("R", ((1,),), environment.relations["R"])
        assert family is not None and dict(family.get((2.0,))) == {("b", 2.0): 1}

    def test_engine_vacuum_heals_and_matches_interpreter(self):
        nan = float("nan")

        def run(interpreted):
            with forced_interpretation(interpreted), forced_shards(4):
                engine = movies_engine(generate_movies(12, seed=3))
                view = engine.view("v", genre_selfjoin_query(), strategy="classic")
                engine.apply({"M": [("bad", nan, "d")]})
                engine.apply({"M": {("bad", nan, "d"): -1}})
                healed = [entry for entry in view.indexes() if entry["registered"]]
                engine.apply({"M": [("fine", "Drama", "d")]})
                return view, healed

        view, healed = run(False)
        interpreted_view, _ = run(True)
        assert view.result() == interpreted_view.result()
        if compilation_enabled():
            # The deleting apply healed the index, no later pass needed.
            assert healed and all(not entry["poisoned"] for entry in healed)
            hits = sum(entry["hits"] for entry in view.indexes() if entry["registered"])
            assert hits > sum(entry["hits"] for entry in healed)


# --------------------------------------------------------------------------- #
# Differential property: sharded ≡ single-shard ≡ interpreter, all strategies
# --------------------------------------------------------------------------- #
def _maintain(strategy, shards, workers, base, updates, interpreted=False):
    with forced_shards(shards), forced_parallel_views(workers), forced_interpretation(
        interpreted
    ):
        engine = movies_engine(Bag(base))
        view = engine.view("v", genre_selfjoin_query(), strategy=strategy)
        for update in updates:
            engine.apply(update)
        return view.result()


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_streams_three_configs_agree(strategy):
    base = generate_movies(40, seed=5)
    updates = list(movie_update_stream(4, 3, existing=base, deletion_ratio=0.4, seed=9))
    sharded = _maintain(strategy, 4, 2, base, updates)
    serial = _maintain(strategy, 1, 1, base, updates)
    interpreted = _maintain(strategy, 4, 2, base, updates, interpreted=True)
    assert sharded == serial == interpreted
    post = Bag(base)
    for update in updates:
        post = post.union(update.relations["M"])
    assert sharded == evaluate_bag(
        genre_selfjoin_query(), Environment(relations={"M": post})
    )


@given(
    shards=st.sampled_from([2, 3, 8]),
    batches=st.lists(
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
    ),
)
@settings(max_examples=20, deadline=None)
def test_random_streams_sharded_equals_single_shard_property(shards, batches):
    """Random mixed-sign streams: any shard count ≡ single shard ≡ seed result."""
    base = Bag([("m0", "g0", "d0"), ("m1", "g1", "d0"), ("m2", "g0", "d1")])
    updates = [
        Update(relations={"M": Bag.from_pairs([(row[:3], row[3]) for row in batch])})
        for batch in batches
    ]
    sharded = _maintain("classic", shards, 2, base, updates)
    serial = _maintain("classic", 1, 1, base, updates)
    assert sharded == serial
    post = base
    for update in updates:
        post = post.union(update.relations["M"])
    assert sharded == evaluate_bag(
        genre_selfjoin_query(), Environment(relations={"M": post})
    )


# --------------------------------------------------------------------------- #
# Concurrent refresh: determinism, error propagation
# --------------------------------------------------------------------------- #
def _multi_view_run(workers):
    with forced_shards(4), forced_parallel_views(workers):
        movies = generate_movies(50, seed=11)
        engine = movies_engine(movies, expected_update_size=2)
        catalog = build.for_in("x", ast.Relation("M", MOVIE_SCHEMA), ast.SngVar("x"))
        views = [
            engine.view("selfjoin", genre_selfjoin_query(), strategy="classic"),
            engine.view("catalog", catalog, strategy="recursive"),
            engine.view("nested", genre_selfjoin_query(), strategy="nested"),
            engine.view("naive", catalog, strategy="naive"),
        ]
        engine.apply_stream(
            movie_update_stream(5, 3, existing=movies, deletion_ratio=0.3, seed=13)
        )
        return tuple(view.result() for view in views)


def test_concurrent_refresh_is_deterministic():
    first = _multi_view_run(2)
    second = _multi_view_run(2)
    inline = _multi_view_run(1)
    assert first == second == inline


def test_threaded_refresh_actually_uses_worker_threads():
    seen_threads = set()

    class Probe(View):
        def on_update(self, update, shredded_delta, context):
            seen_threads.add(threading.current_thread().name)

    with forced_parallel_views(2):
        database = Database()
        database.register("R", bag_of(BASE), Bag(["a"]))
        for _ in range(2):
            database.register_view(Probe())
        database.apply_update(Update(relations={"R": Bag(["b"])}))
    assert any(name.startswith("repro-view-refresh") for name in seen_threads)


def test_untouched_views_refresh_inline_and_keep_the_pool_idle():
    """Views an update cannot touch only record an empty refresh, on the
    coordinating thread; with one affected view left, nothing goes to the
    pool at all."""
    threads = {}

    class Probe(View):
        def __init__(self, name, relation):
            super().__init__()
            self.name = name
            self._delta_sources = frozenset({(relation, 1)})

        def on_update(self, update, shredded_delta, context):
            threads[self.name] = threading.current_thread().name

    with forced_parallel_views(2):
        database = Database()
        database.register("R", bag_of(BASE), Bag(["a"]))
        database.register("S", bag_of(BASE), Bag(["a"]))
        for name, relation in (("r1", "R"), ("r2", "R"), ("s1", "S"), ("s2", "S")):
            database.register_view(Probe(name, relation))
        main = threading.current_thread().name
        database.apply_update(Update(relations={"R": Bag(["b"])}))
        assert threads["s1"] == threads["s2"] == main
        assert all(threads[name].startswith("repro-view-refresh") for name in ("r1", "r2"))
        database.close()

        database = Database()
        database.register("R", bag_of(BASE), Bag(["a"]))
        database.register("S", bag_of(BASE), Bag(["a"]))
        for name, relation in (("r1", "R"), ("s1", "S"), ("s2", "S")):
            database.register_view(Probe(name, relation))
        threads.clear()
        database.apply_update(Update(relations={"R": Bag(["b"])}))
        assert set(threads.values()) == {main}
        database.close()


def test_parallel_refresh_propagates_first_error_and_aborts_update():
    class Exploding(View):
        def on_update(self, update, shredded_delta, context):
            raise RuntimeError("boom")

    with forced_parallel_views(2):
        database = Database()
        database.register("R", bag_of(BASE), Bag(["a"]))
        database.register_view(Exploding())
        database.register_view(Exploding())
        with pytest.raises(RuntimeError, match="boom"):
            database.apply_update(Update(relations={"R": Bag(["b"])}))
        # Views run pre-mutation, so the failed update left the store alone.
        assert database.relation("R") == Bag(["a"])


def test_storage_shards_reporting_matches_created_stores():
    """The reported shard count is fixed at construction, even when the
    REPRO_SHARDS environment changes afterwards (finding from review)."""
    with forced_shards(4):
        engine = Engine()
    engine.dataset("R", bag_of(BASE), Bag(["a"]))  # created outside the block
    assert engine.database.storage_shards() == 4
    report = engine.storage_report()
    assert report["shards"] == 4
    assert all(entry["shards"] == 4 for entry in report["nested"]["stores"])


def test_resolve_view_workers_precedence():
    with forced_parallel_views(3):
        assert resolve_view_workers(None) == 3
        assert resolve_view_workers(1) == 1
    with forced_parallel_views(None):
        assert resolve_view_workers(7) == 7
        assert resolve_view_workers(None) >= 1
    # 0 used to select a per-view refresh without the shared context.
    with pytest.raises(ValueError, match=">= 1"):
        resolve_view_workers(0)
    with forced_parallel_views(0), pytest.raises(ValueError, match=">= 1"):
        resolve_view_workers(None)


def test_scheduler_runs_all_tasks_and_resizes():
    order = []
    scheduler = ViewRefreshScheduler(2)
    scheduler.run([lambda index=index: order.append(index) for index in range(5)])
    assert sorted(order) == [0, 1, 2, 3, 4]
    scheduler.resize(1)
    scheduler.run([lambda: order.append("serial")])
    assert order[-1] == "serial"
    scheduler.shutdown()


# --------------------------------------------------------------------------- #
# Shared refresh context
# --------------------------------------------------------------------------- #
def test_refresh_context_environments_are_pre_update_snapshots():
    database = Database()
    database.register("R", bag_of(BASE), Bag(["a"]))
    update = Update(relations={"R": Bag(["b"])})
    context = RefreshContext(database, update, database.shred_update(update))
    assert context.delta_environment().relations["R"] == Bag(["a"])
    assert context.relation_deltas[("R", 1)] == Bag(["b"])
    post = context.post_shredded_environment()
    assert post is context.post_shredded_environment()  # memoized
    flat_name = database.shredded_source_names("R")[0]
    assert post.relations[flat_name] == Bag(["a", "b"])


# --------------------------------------------------------------------------- #
# Nested strategy: active-label index stays consistent with a full scan
# --------------------------------------------------------------------------- #
TRIPLE_SCHEMA = bag_of(bag_of(bag_of(BASE)))


def _triple(rows):
    """Helper: a bag of bags of bags from plain lists."""
    return Bag([Bag([Bag(inner) for inner in outer]) for outer in rows])


def _nested_identity_engine(rows, shards=4, workers=1):
    with forced_shards(shards), forced_parallel_views(workers):
        engine = Engine()
        engine.dataset("R", TRIPLE_SCHEMA, _triple(rows))
        relation = ast.Relation("R", TRIPLE_SCHEMA)
        view = engine.view("v", build.for_in("x", relation, ast.SngVar("x")), strategy="nested")
        return engine, view


def _assert_active_index_consistent(view):
    backend = view.view
    for state in backend._dict_states:
        assert dict(state.active) == backend._scan_active(state), (
            f"active-label index diverged from scan at path {state.path!r}"
        )
        assert state.entries.keys() == state.active.keys(), (
            f"dictionary at path {state.path!r} holds labels that are not live"
        )


def test_nested_active_label_index_tracks_deep_nesting():
    engine, view = _nested_identity_engine([[["a", "b"], ["c"]], [["d"]]])
    backend = view.view
    assert any(state.parent is not None for state in backend._dict_states), (
        "triple nesting should produce a child dictionary position"
    )
    _assert_active_index_consistent(view)
    engine.apply({"R": [_triple([[["x", "y"]]]).elements().__next__()]})
    _assert_active_index_consistent(view)
    # Deleting an outer element deactivates its labels (and, transitively,
    # the labels of its inner bags) without any flat-view scan.
    victim = next(iter(_triple([[["a", "b"], ["c"]]]).elements()))
    engine.apply({"R": {victim: -1}})
    _assert_active_index_consistent(view)
    with forced_interpretation(True), forced_shards(4):
        reference = Engine()
        reference.dataset("R", TRIPLE_SCHEMA, _triple([[["a", "b"], ["c"]], [["d"]]]))
        relation = ast.Relation("R", TRIPLE_SCHEMA)
        ref_view = reference.view(
            "v", build.for_in("x", relation, ast.SngVar("x")), strategy="nested"
        )
        reference.apply({"R": [next(iter(_triple([[["x", "y"]]]).elements()))]})
        reference.apply({"R": {victim: -1}})
    assert view.result() == ref_view.result()


def test_nested_vacuum_reconciles_active_index_and_drops_stale_entries():
    """The deleting apply retires the victim's labels at both positions —
    its outer bag's and, transitively, its two inner bags' — with no scan."""
    engine, view = _nested_identity_engine([[["a"], ["b"]], [["c"]]])
    backend = view.view
    before = [len(state.entries) for state in backend._dict_states]
    assert before == [2, 3]
    victim = next(iter(_triple([[["a"], ["b"]]]).elements()))
    engine.apply({"R": {victim: -1}})
    assert [len(state.entries) for state in backend._dict_states] == [1, 1]
    _assert_active_index_consistent(view)
    assert view.result() == _triple([[["c"]]])


def test_nested_negative_multiplicity_carriers():
    """Labels referenced only by negative-multiplicity elements stay active."""
    engine, view = _nested_identity_engine([[["a"]]])
    phantom = next(iter(_triple([[["p"]]]).elements()))
    engine.apply({"R": {phantom: -1}})  # net-negative outer element
    _assert_active_index_consistent(view)
    engine.apply({"R": {phantom: 1}})  # cancels back out
    _assert_active_index_consistent(view)
    assert view.result() == _triple([[["a"]]])


# --------------------------------------------------------------------------- #
# Reporting surfaces
# --------------------------------------------------------------------------- #
def test_explain_reports_shards_and_refresh_mode():
    with forced_shards(4), forced_parallel_views(2):
        engine = movies_engine(generate_movies(10, seed=3))
        engine.view("v", genre_selfjoin_query(), strategy="classic")
        plan = engine.explain("v")
        assert plan.shards == 4
        assert plan.parallel_apply == "threads(2)"
        assert "O(|Δ|/4)" in plan.apply_unit
        rendered = plan.render()
        assert "4 shard(s)" in rendered and "threads(2)" in rendered


@pytest.mark.skipif(
    not compilation_enabled(),
    reason="persistent-index registration requires the compiled pipeline",
)
def test_storage_report_aggregates_and_breaks_down_per_shard():
    with forced_shards(4):
        engine = movies_engine(generate_movies(20, seed=3))
        engine.view("v", genre_selfjoin_query(), strategy="classic")
        engine.apply({"M": [("x", "Drama", "d")]})
        report = engine.storage_report()
        assert report["shards"] == 4
        store_entry = next(
            entry for entry in report["nested"]["stores"] if entry["relation"] == "M"
        )
        assert store_entry["shards"] == 4
        assert store_entry["distinct"] == 21
        assert sum(shard["distinct"] for shard in store_entry["shard_stats"]) == 21
        index_entry = store_entry["indexes"][0]
        assert index_entry["entries"] == sum(
            shard["entries"] for shard in index_entry["per_shard"]
        )


def test_engine_kwargs_override_environment():
    with forced_parallel_views(3):
        engine = Engine(shards=2, parallel_views=1)
        engine.dataset("R", bag_of(BASE), Bag(["a"]))
        assert engine.database.storage_shards() == 2
        assert engine.database.view_refresh_workers() == 1
        assert engine.database.refresh_mode() == "shared-snapshot inline"
    with pytest.raises(ValueError, match=">= 1"):
        Engine(parallel_views=0)
