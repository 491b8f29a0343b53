"""The delta-bounded read path (result stores, footprint probes, versioned
serve reads).

Three layers of the same invariant — reads cost what the delta touched,
never what the result holds:

* :class:`~repro.storage.ResultStore` — view materializations folded in
  place, whose unchanged snapshot is handed out again for free; property
  tests pin maintained ≡ recomputation across every maintenance strategy,
  including negative deltas and retained-snapshot isolation.
* the nested view's footprint-bounded dictionary probes — the probe
  counters prove untouched labels are never visited, and the
  ``forced_no_footprint`` switch reproduces the all-labels sweep bit for bit.
* the server's versioned reads — ``ETag`` / ``If-None-Match`` 304s with no
  body, and ``limit``/``offset`` pages that tile the full result exactly
  (differential paged ≡ full).
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bag import Bag
from repro.bag.builder import BagBuilder
from repro.client.api import APIClient, APIError
from repro.client.resources import DatasetsClient, UpdatesClient, ViewsClient
from repro.engine import Engine
from repro.ivm import Database, NestedIVMView, Update
from repro.ivm.footprint import footprint_enabled, forced_no_footprint
from repro.nrc import ast, builders as build, predicates as preds
from repro.nrc.compile import CompiledQuery, compile_expr, forced_interpretation
from repro.nrc.evaluator import Environment, evaluate_bag
from repro.nrc.types import BASE, bag_of
from repro.serve import ProtocolError, ReproServer, ServerConfig
from repro.serve.protocol import encode_bag, encode_bag_page
from repro.storage import ResultStore
from repro.workloads import MOVIE_SCHEMA, genre_selfjoin_query, related_query

GENRES = ("Drama", "Action", "Comedy")
DIRECTORS = ("Refn", "Mendes", "Howard")

movie_rows = st.tuples(
    st.text(alphabet="ABCDEF", min_size=1, max_size=3),
    st.sampled_from(GENRES),
    st.sampled_from(DIRECTORS),
)
movie_bags = st.dictionaries(movie_rows, st.integers(1, 2), max_size=6).map(Bag.from_mapping)
update_bags = st.dictionaries(movie_rows, st.integers(-1, 2), max_size=3).map(Bag.from_mapping)


def drama_filter() -> ast.Expr:
    """A flat IncNRC+ query the classic/recursive backends accept."""
    movies = ast.Relation("M", MOVIE_SCHEMA)
    return build.filter_query(
        movies, preds.eq(preds.var_path("x", 1), preds.const("Drama")), "x"
    )


def _guard(engine_or_db, update: Bag) -> Bag:
    """Drop deletions of tuples that are not present (negative deltas must
    stay meaningful)."""
    current = engine_or_db.relation("M")
    return Bag.from_pairs(
        (row, mult)
        for row, mult in update.items()
        if mult > 0 or current.multiplicity(row) >= -mult
    )


# --------------------------------------------------------------------------- #
# ResultStore: the materialization container
# --------------------------------------------------------------------------- #
class TestResultStore:
    def test_freeze_is_a_plain_bag(self):
        store = ResultStore("r", Bag(["a", "a", "b"]))
        frozen = store.freeze()
        assert type(frozen) is Bag
        assert frozen == Bag(["a", "a", "b"])

    def test_contents_round_trip_and_read_without_freezing(self):
        bag = Bag.from_pairs([((i, "x"), 1 + i % 3) for i in range(50)])
        store = ResultStore("r", bag)
        store.apply_bag(Bag([(50, "x")]))
        assert store.frozen is None
        expected = bag.union(Bag([(50, "x")]))
        assert store.cardinality() == expected.cardinality()
        assert store.distinct_size() == expected.distinct_size()
        assert sorted(store.items()) == sorted(expected.items())
        assert store.multiplicity((3, "x")) == expected.multiplicity((3, "x"))
        assert store.multiplicity(("absent",)) == 0
        assert not store.is_empty()
        assert store.frozen is None
        assert store.freeze() == expected

    def test_repeated_freeze_returns_the_cached_snapshot(self):
        store = ResultStore("r", Bag(range(40)))
        first = store.freeze()
        assert store.freeze() is first
        assert store.frozen is first
        store.apply_bag(Bag([1]))
        second = store.freeze()
        assert second is not first
        assert store.freeze() is second
        assert store.snapshot_freezes == 1

    @pytest.mark.parametrize("rounds", (1, 3, 8))
    def test_apply_bag_matches_bag_union(self, rounds):
        """``rounds`` successive deltas fold to the same bag as their unions;
        an empty delta leaves the version alone."""
        base = Bag.from_pairs([((i,), 2) for i in range(30)])
        store = ResultStore("r", base)
        expected = base
        for r in range(rounds):
            delta = Bag.from_pairs([((r,), -2), ((99 + r,), 3), ((7,), 1)])
            store.apply_bag(delta)
            store.apply_bag(Bag())
            expected = expected.union(delta)
        assert store.freeze() == expected
        assert store.version == rounds

    def test_retained_snapshot_isolated_from_later_deltas(self):
        base = Bag.from_pairs([((i,), 1) for i in range(20)])
        store = ResultStore("r", base)
        snapshot = store.freeze()
        before = Bag.from_pairs(snapshot.items())
        store.apply_bag(Bag.from_pairs([((3,), -1), ((77,), 2)]))
        assert Bag.from_pairs(snapshot.items()) == before
        assert store.freeze() == base.union(
            Bag.from_pairs([((3,), -1), ((77,), 2)])
        )

    def test_snapshot_iteration_outlives_a_delta(self):
        """An iterator that outlives its snapshot still yields that
        snapshot's pairs after the store mutates."""
        base = Bag.from_pairs([((i,), 1 + i % 2) for i in range(40)])
        store = ResultStore("r", base)
        snapshot = store.freeze()
        expected = list(snapshot.items())
        pairs = snapshot.items()
        first = next(pairs)
        del snapshot
        store.apply_bag(Bag.from_pairs([((i,), -1) for i in range(40)] + [((99,), 1)]))
        assert [first, *pairs] == expected

    def test_describe_is_json_serializable(self):
        store = ResultStore("r", Bag(range(30)))
        description = json.loads(json.dumps(store.describe()))
        assert description["result"] == "r"
        assert description["distinct"] == 30


# --------------------------------------------------------------------------- #
# Property: maintained ≡ recomputation, all four strategies
# --------------------------------------------------------------------------- #
QUERY_OF = {
    "naive": related_query,
    "classic": drama_filter,
    "recursive": drama_filter,
    "nested": related_query,
}


@pytest.mark.parametrize("strategy", sorted(QUERY_OF))
@settings(max_examples=15, deadline=None)
@given(movie_bags, st.lists(update_bags, min_size=1, max_size=3))
def test_result_store_equals_recompute(strategy, instance, updates):
    query = QUERY_OF[strategy]()
    engine = Engine()
    engine.dataset("M", MOVIE_SCHEMA, rows=instance)
    view = engine.view("v", query, strategy=strategy)
    for update in updates:
        engine.apply({"M": _guard(engine, update)})
        expected = evaluate_bag(
            query, Environment(relations={"M": engine.relation("M")})
        )
        assert view.result() == expected


@settings(max_examples=15, deadline=None)
@given(movie_bags, update_bags)
def test_retained_snapshots_survive_negative_and_deep_updates(instance, update):
    """A reader holding a nested result keeps seeing the pre-update value
    while the store copy-on-writes underneath it — including deletions that
    rewrite inner bags of surviving outer rows (deep updates)."""
    engine = Engine()
    engine.dataset("M", MOVIE_SCHEMA, rows=instance)
    handle = engine.view("related", related_query(), strategy="nested")
    retained = handle.result()
    before = Bag.from_pairs(retained.items())
    safe = _guard(engine, update)
    if safe.is_empty():
        return
    engine.apply({"M": safe})
    assert Bag.from_pairs(retained.items()) == before
    expected = evaluate_bag(
        related_query(), Environment(relations={"M": engine.relation("M")})
    )
    assert handle.result() == expected


def test_unchanged_view_read_returns_cached_snapshot_without_freezing():
    """Satellite: repeated reads of an unchanged view are free — the same
    frozen snapshot object comes back and the store freezes nothing new."""
    engine = Engine()
    engine.dataset(
        "M",
        MOVIE_SCHEMA,
        rows=Bag([("A", "Drama", "Refn"), ("B", "Action", "Mendes")]),
    )
    for strategy in ("classic", "recursive", "nested"):
        handle = engine.view(f"v_{strategy}", QUERY_OF[strategy](), strategy=strategy)
        first = handle.result()
        assert handle.result() is first
        store = handle.view.result_store()
        assert store is not None
        frozen_count = store.snapshot_freezes
        for _ in range(5):
            handle.result()
        assert store.snapshot_freezes == frozen_count


# --------------------------------------------------------------------------- #
# Compiled deltas fold straight into the result store
# --------------------------------------------------------------------------- #
R_NESTED = bag_of(bag_of(BASE))


def _flatten_selfjoin() -> ast.Expr:
    """Example 4's ``flatten(R) × flatten(R)``: recursive IVM materializes
    ``flatten(R)`` and maintains it with its own delta."""
    relation = ast.Relation("R", R_NESTED)
    return ast.Product((ast.Flatten(relation), ast.Flatten(relation)))


def _fold_case(strategy):
    """An engine with one view whose compiled delta has a bag-producing
    root, plus two updates that change its result."""
    engine = Engine()
    if strategy == "classic":
        query = drama_filter()
        engine.dataset("M", MOVIE_SCHEMA, rows=Bag(ROWS))
        updates = (
            {"M": Bag([("F", "Drama", "Howard")])},
            {"M": Bag.from_pairs([(("A", "Drama", "Refn"), -1)])},
        )
    else:
        query = _flatten_selfjoin()
        engine.dataset("R", R_NESTED, rows=Bag([Bag(["a", "b"]), Bag(["c"])]))
        updates = (
            {"R": Bag([Bag(["d"])])},
            {"R": Bag.from_pairs([(Bag(["c"]), -1)])},
        )
    return engine, engine.view("v", query, strategy=strategy), query, updates


def _interpreted(engine, query):
    relations = {name: engine.relation(name) for name in engine.dataset_names()}
    return evaluate_bag(query, Environment(relations=relations))


@pytest.mark.parametrize("strategy", ("classic", "recursive"))
def test_refresh_folds_inside_the_walk_without_apply_bag(strategy, monkeypatch):
    """Neither the result store nor a materialization builder is handed a
    finished delta bag: the compiled walk writes into them directly."""
    engine, handle, query, updates = _fold_case(strategy)
    view = handle.view
    targets = [view.result_store()]
    targets += [m.value for m in getattr(view, "_materializations", {}).values()]
    assert len(targets) == (1 if strategy == "classic" else 2)
    applied, folds = [], []
    apply_bag, evaluate = BagBuilder.apply_bag, CompiledQuery.evaluate

    def apply_bag_spy(builder, delta, scale=1):
        applied.append(builder)
        return apply_bag(builder, delta, scale)

    def evaluate_spy(compiled, env=None, counter=None, into=None):
        folds.append(into)
        return evaluate(compiled, env, counter, into=into)

    monkeypatch.setattr(BagBuilder, "apply_bag", apply_bag_spy)
    monkeypatch.setattr(CompiledQuery, "evaluate", evaluate_spy)
    for update in updates:
        engine.apply(update)
        assert handle.result() == _interpreted(engine, query)
    assert not any(isinstance(builder, ResultStore) for builder in applied)
    assert not any(builder is target for builder in applied for target in targets)
    assert {id(target) for target in folds} == {id(target) for target in targets}


@pytest.mark.parametrize("strategy", ("classic", "recursive"))
def test_snapshot_and_live_iterator_survive_a_fold(strategy):
    """Copy-on-write runs before the walk's first pair lands: a held
    ``result()`` keeps its contents, and so does an iterator over it — with
    the snapshot itself alive, and with only the iterator left."""
    engine, handle, query, (first_update, second_update) = _fold_case(strategy)
    snapshot = handle.result()
    expected = list(snapshot.items())
    pairs = snapshot.items()
    head = next(pairs)
    engine.apply(first_update)
    assert list(snapshot.items()) == expected
    assert [head, *pairs] == expected
    assert handle.result() == _interpreted(engine, query) != snapshot

    snapshot = handle.result()
    expected = list(snapshot.items())
    pairs = snapshot.items()
    head = next(pairs)
    del snapshot
    engine.apply(second_update)
    assert [head, *pairs] == expected
    assert handle.result() == _interpreted(engine, query)


FOLD_QUERIES = {"filter": drama_filter, "selfjoin": genre_selfjoin_query}


@pytest.mark.parametrize("query_name", sorted(FOLD_QUERIES))
@pytest.mark.parametrize("strategy", ("classic", "recursive"))
@settings(max_examples=20, deadline=None)
@given(movie_bags, st.lists(update_bags, min_size=1, max_size=4))
def test_compiled_fold_equals_interpreter_and_recompute(strategy, query_name, instance, updates):
    """Unguarded streams: deletions of absent rows drive multiplicities
    negative in the relation, the delta and the result alike."""
    query = FOLD_QUERIES[query_name]()
    handles = []
    for interpreted in (False, True):
        with forced_interpretation(interpreted):
            engine = Engine()
            engine.dataset("M", MOVIE_SCHEMA, rows=instance)
            handles.append((engine, engine.view("v", query, strategy=strategy)))
    relation = instance
    for update in updates:
        relation = relation.union(update)
        expected = evaluate_bag(query, Environment(relations={"M": relation}))
        for engine, handle in handles:
            engine.apply({"M": update})
            assert handle.result() == expected


class TestFoldVersionContract:
    """A compiled fold is one mutation: the version bumps once and the live
    snapshot is dropped, whether or not the delta nets to nothing.  An empty
    ``apply_bag`` (the value-root and interpreter path) changes neither."""

    R = ast.Relation("R", bag_of(BASE))

    def _below_three(self):
        return compile_expr(
            build.filter_query(self.R, preds.lt(preds.var_path("x"), preds.const(3)), "x")
        )

    @staticmethod
    def _env(*elements):
        return Environment(relations={"R": Bag(elements)})

    def test_a_fold_bumps_the_version_once(self):
        store = ResultStore("r", Bag([0]))
        assert self._below_three().evaluate(self._env(1, 2, 7), into=store) is None
        assert store.version == 1
        assert store.freeze() == Bag([0, 1, 2])

    def test_a_net_empty_fold_still_counts_and_drops_the_snapshot(self):
        store = ResultStore("r", Bag([0]))
        before = store.freeze()
        self._below_three().evaluate(self._env(7, 9), into=store)
        assert store.version == 1
        assert store.frozen is None
        after = store.freeze()
        assert after == before and after is not before

    def test_value_root_folds_through_apply_bag(self):
        store = ResultStore("r", Bag([0]))
        before = store.freeze()
        compiled = compile_expr(self.R)
        compiled.evaluate(self._env(), into=store)
        assert (store.version, store.freeze()) == (0, before)
        assert store.freeze() is before
        compiled.evaluate(self._env(4), into=store)
        assert (store.version, store.freeze()) == (1, Bag([0, 4]))

    def test_an_update_the_view_does_not_read_leaves_it_alone(self):
        engine = Engine()
        engine.dataset("M", MOVIE_SCHEMA, rows=Bag(ROWS))
        engine.dataset("N", MOVIE_SCHEMA)
        handle = engine.view("v", drama_filter(), strategy="classic")
        store = handle.view.result_store()
        first, version = handle.result(), store.version
        engine.apply({"N": Bag([("Z", "Drama", "Refn")])})
        assert store.version == version
        assert handle.result() is first
        engine.apply({"M": Bag([("Z", "Action", "Refn")])})
        assert store.version == version + 1
        assert handle.result() == first


# --------------------------------------------------------------------------- #
# Footprint-bounded dictionary probes
# --------------------------------------------------------------------------- #
ROWS = [
    ("A", "Drama", "Refn"),
    ("B", "Action", "Mendes"),
    ("C", "Comedy", "Howard"),
    ("D", "Drama", "Refn"),
    ("E", "Action", "Howard"),
]


def _nested_view(rows=ROWS):
    database = Database()
    database.register("M", MOVIE_SCHEMA, Bag(rows))
    view = NestedIVMView(related_query(), database)
    return database, view


class TestFootprintProbes:
    def test_related_query_delta_is_analyzable(self):
        _, view = _nested_view()
        footprint = view.read_stats()["footprint"]
        assert footprint["enabled"] is footprint_enabled()
        assert footprint["planned"] >= 1

    def test_untouched_labels_are_never_probed(self):
        database, view = _nested_view()
        database.apply_update(
            Update(relations={"M": Bag([("F", "Drama", "Refn")])})
        )
        probes = view.read_stats()["probes"]
        assert probes["full_sweeps"] == 0
        assert probes["footprint_sweeps"] >= 1
        # Every probed label was justified by the delta's key footprint, and
        # the labels outside it (Action/Mendes, Comedy/Howard, ...) were
        # skipped without being visited.
        assert probes["dict_probes"] == probes["footprint_probes"]
        assert probes["skipped_labels"] > 0
        expected = evaluate_bag(
            related_query(), Environment(relations={"M": database.relation("M")})
        )
        assert view.result() == expected

    def test_probe_count_bounded_by_delta_label_footprint(self):
        """The counter the acceptance criterion pins: probes ≤ the number of
        dictionary entries whose key shares the delta row's genre or
        director (its label footprint), strictly fewer than all entries."""
        database, view = _nested_view()
        delta_row = ("F", "Drama", "Refn")
        database.apply_update(Update(relations={"M": Bag([delta_row])}))
        probes = view.read_stats()["probes"]
        distinct_movies = set(ROWS) | {delta_row}
        bound = sum(
            1
            for name, gen, director in distinct_movies
            if gen == delta_row[1] or director == delta_row[2]
        )
        assert 0 < probes["footprint_probes"] <= bound < len(distinct_movies)

    def test_disabled_footprint_sweeps_all_labels_same_result(self):
        database, view = _nested_view()
        update = Update(relations={"M": Bag([("F", "Drama", "Refn")])})
        database.apply_update(update)
        fast = view.read_stats()["probes"]

        with forced_no_footprint():
            database_slow, view_slow = _nested_view()
            database_slow.apply_update(update)
            slow = view_slow.read_stats()["probes"]
        assert slow["footprint_sweeps"] == 0
        assert slow["full_sweeps"] >= 1
        assert slow["dict_probes"] > fast["dict_probes"]
        assert view_slow.result() == view.result()

    @settings(max_examples=15, deadline=None)
    @given(movie_bags, update_bags)
    def test_footprint_probes_preserve_correctness(self, instance, update):
        database = Database()
        database.register("M", MOVIE_SCHEMA, instance)
        view = NestedIVMView(related_query(), database)
        safe = _guard(database, update)
        database.apply_update(Update(relations={"M": safe}))
        expected = evaluate_bag(
            related_query(), Environment(relations={"M": database.relation("M")})
        )
        assert view.result() == expected
        probes = view.read_stats()["probes"]
        # Whatever path was taken, every probe is accounted for by exactly
        # one of the three selection modes.
        assert (
            probes["footprint_sweeps"] + probes["support_sweeps"] + probes["full_sweeps"]
            >= 0
        )

    def test_storage_report_carries_named_read_path(self):
        engine = Engine()
        engine.dataset("M", MOVIE_SCHEMA, rows=Bag(ROWS))
        engine.view("related", related_query(), strategy="nested")
        report = engine.storage_report()
        entries = {entry["name"]: entry for entry in report["read_path"]}
        assert "related" in entries
        entry = entries["related"]
        assert entry["strategy"] == "nested"
        assert "probes" in entry and "result_store" in entry
        assert "backend_id" not in entry
        json.dumps(report)  # the serve layer ships this verbatim


# --------------------------------------------------------------------------- #
# Wire pages
# --------------------------------------------------------------------------- #
class TestEncodeBagPage:
    def test_default_page_reduces_to_encode_bag(self):
        bag = Bag.from_pairs([((i,), 1 + i % 2) for i in range(10)])
        assert encode_bag_page(bag) == encode_bag(bag)

    def test_pages_tile_the_full_encoding(self):
        bag = Bag.from_pairs([((i,), 1 + i % 3) for i in range(23)])
        full = encode_bag(bag)["pairs"]
        tiled = []
        offset = 0
        while True:
            page = encode_bag_page(bag, limit=4, offset=offset)
            tiled.extend(page["pairs"])
            if page["page"]["returned"] == 0:
                break
            offset += page["page"]["returned"]
        assert tiled == full

    def test_page_metadata(self):
        bag = Bag(range(10))
        page = encode_bag_page(bag, limit=4, offset=8)
        assert page["page"] == {
            "offset": 8,
            "limit": 4,
            "returned": 2,
            "remaining": 0,
        }
        assert page["distinct"] == 10 and page["cardinality"] == 10

    def test_bad_windows_rejected(self):
        with pytest.raises(ProtocolError):
            encode_bag_page(Bag(["a"]), limit=-1)
        with pytest.raises(ProtocolError):
            encode_bag_page(Bag(["a"]), offset=-1)


# --------------------------------------------------------------------------- #
# Versioned serve reads: ETag / 304 / paging, end to end
# --------------------------------------------------------------------------- #
DRAMAS_SPEC = {
    "from": "M",
    "var": "m",
    "where": ["eq", ["field", "m", "gen"], ["const", "Drama"]],
    "select": [["field", "m", "name"]],
}


@pytest.fixture
def server():
    with ReproServer(ServerConfig(port=0)) as instance:
        yield instance


@pytest.fixture
def api(server):
    return APIClient(server.url, max_retries=2, sleep=lambda _: None)


def _seed(api):
    datasets = DatasetsClient(api)
    views = ViewsClient(api)
    rows = [
        [f"m{i}", "Drama" if i % 2 else "Noir", f"d{i % 3}"] for i in range(20)
    ]
    datasets.create("M", fields=["name", "gen", "dir"], rows=rows)
    views.create("dramas", DRAMAS_SPEC)
    return datasets, views, UpdatesClient(api)


class TestVersionedReads:
    def test_matching_etag_is_a_bodyless_304(self, server, api):
        _seed(api)
        views = ViewsClient(api)
        full = views.show("dramas")
        url = f"{server.url}/v1/default/views/dramas"
        request = urllib.request.Request(
            url, headers={"If-None-Match": f'"{full["version"]}"'}
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request)
        assert info.value.status == 304
        assert info.value.read() == b""
        assert info.value.headers.get("ETag") == f'"{full["version"]}"'

    def test_client_decodes_304_as_unchanged(self, api):
        _seed(api)
        views = ViewsClient(api)
        full = views.show("dramas")
        unchanged = views.show("dramas", etag=full["version"])
        assert unchanged["unchanged"] and unchanged["not_modified"]
        assert unchanged["version"] == full["version"]
        # A stale ETag gets the fresh body.
        fresh = views.show("dramas", etag=full["version"] - 1)
        assert not fresh.get("unchanged")
        assert fresh["pairs"] == full["pairs"]

    def test_etag_poll_sees_writes(self, api):
        _seed(api)
        views = ViewsClient(api)
        updates = UpdatesClient(api)
        full = views.show("dramas")
        updates.insert("M", [["new", "Drama", "d9"]])
        fresh = views.show("dramas", etag=full["version"])
        assert not fresh.get("unchanged")
        assert fresh["version"] > full["version"]
        assert "new" in [pair[0] for pair in fresh["pairs"]]

    def test_paged_view_read_equals_full(self, api):
        _seed(api)
        views = ViewsClient(api)
        full = views.show("dramas")
        for limit in (1, 3, 7):
            tiled = []
            offset = 0
            while True:
                page = views.show("dramas", limit=limit, offset=offset)
                assert page["version"] == full["version"]
                assert len(page["pairs"]) <= limit
                tiled.extend(page["pairs"])
                if page["page"]["returned"] == 0:
                    break
                offset += page["page"]["returned"]
            assert tiled == full["pairs"]

    def test_dataset_and_snapshot_reads_are_versioned_and_paged(self, api):
        datasets, views, updates = _seed(api)
        snapshot = updates.snapshot()
        assert updates.snapshot(etag=snapshot["version"])["unchanged"]
        assert datasets.show("M", etag=snapshot["version"])["unchanged"]
        page = datasets.show("M", limit=5, offset=5)
        assert page["page"]["offset"] == 5 and page["page"]["returned"] == 5
        paged_snapshot = updates.snapshot(limit=2)
        for encoded in list(paged_snapshot["datasets"].values()) + list(
            paged_snapshot["views"].values()
        ):
            assert len(encoded["pairs"]) <= 2

    def test_bad_page_params_are_rejected(self, api):
        _seed(api)
        views = ViewsClient(api)
        for kwargs in ({"limit": -1}, {"offset": -2}):
            with pytest.raises(APIError) as info:
                views.show("dramas", **kwargs)
            assert info.value.status == 400
