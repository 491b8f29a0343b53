"""Tests for the naive, classic and recursive IVM views."""

import pytest

from repro.bag import Bag
from repro.errors import NotInFragmentError
from repro.ivm import (
    ClassicIVMView,
    Database,
    NaiveView,
    NestedIVMView,
    RecursiveIVMView,
    Update,
    deletions,
    insertions,
    partially_evaluate,
)
from repro.nrc import ast, builders as build, predicates as preds
from repro.nrc.analysis import referenced_deltas, referenced_relations
from repro.nrc.evaluator import evaluate_bag
from repro.nrc.pretty import render
from repro.nrc.types import BASE, bag_of, tuple_of
from repro.workloads import MOVIE_SCHEMA, generate_movies, movie_update_stream

MOVIE = tuple_of(BASE, BASE, BASE)
M = ast.Relation("M", MOVIE_SCHEMA)
NESTED_SCHEMA = bag_of(bag_of(BASE))


def drama_filter():
    return build.filter_query(M, preds.eq(preds.var_path("x", 1), preds.const("Drama")), "x")


class TestNaiveView:
    def test_materializes_on_construction(self, movie_db):
        view = NaiveView(drama_filter(), movie_db)
        assert view.result() == Bag([("Drive", "Drama", "Refn")])

    def test_tracks_updates(self, movie_db, paper_update):
        view = NaiveView(drama_filter(), movie_db)
        movie_db.apply_update(Update(relations={"M": paper_update}))
        assert view.result().cardinality() == 2
        assert view.stats.updates_applied == 1

    def test_matches_direct_recomputation(self, movie_db, paper_update):
        view = NaiveView(drama_filter(), movie_db)
        movie_db.apply_update(Update(relations={"M": paper_update}))
        assert view.result() == evaluate_bag(drama_filter(), movie_db.environment())


class TestClassicIVMView:
    def test_matches_naive_over_a_stream(self, movie_db):
        naive = NaiveView(drama_filter(), movie_db)
        classic = ClassicIVMView(drama_filter(), movie_db)
        for update in movie_update_stream(4, 2, seed=1):
            movie_db.apply_update(update)
        assert classic.result() == naive.result()

    def test_handles_deletions(self, movie_db):
        naive = NaiveView(drama_filter(), movie_db)
        classic = ClassicIVMView(drama_filter(), movie_db)
        movie_db.apply_update(deletions("M", [("Drive", "Drama", "Refn")]))
        assert classic.result() == naive.result()
        assert classic.result().is_empty()

    def test_delta_query_is_exposed(self, movie_db):
        classic = ClassicIVMView(drama_filter(), movie_db)
        assert "ΔM" in render(classic.residual_delta)

    def test_rejects_queries_outside_the_fragment(self, movie_db, related):
        with pytest.raises(NotInFragmentError):
            ClassicIVMView(related, movie_db)

    def test_does_less_work_than_naive(self):
        database = Database()
        database.register("M", MOVIE_SCHEMA, generate_movies(300))
        naive = NaiveView(drama_filter(), database)
        classic = ClassicIVMView(drama_filter(), database)
        for update in movie_update_stream(2, 2):
            database.apply_update(update)
        assert classic.stats.mean_update_operations < naive.stats.mean_update_operations / 5

    def test_multi_relation_join_view(self):
        database = Database()
        database.register("M", MOVIE_SCHEMA, generate_movies(20, seed=1))
        database.register("S", MOVIE_SCHEMA, generate_movies(20, seed=2))
        query = ast.Product((M, ast.Relation("S", MOVIE_SCHEMA)))
        naive = NaiveView(query, database)
        classic = ClassicIVMView(query, database)
        database.apply_update(
            Update(relations={"M": Bag([("x", "g", "d")]), "S": Bag([("y", "g", "d")])})
        )
        assert classic.result() == naive.result()


class TestPartialEvaluation:
    def test_materializes_database_dependent_subexpressions(self, selfjoin_query):
        first_order = __import__("repro.delta", fromlist=["delta"]).delta(selfjoin_query, ["R"])
        residual, materialized = partially_evaluate(first_order, ["R"])
        assert len(materialized) == 1
        name, expression = materialized[0]
        assert render(expression) == "flatten(R)"
        assert not referenced_relations(residual)
        assert referenced_deltas(residual)

    def test_bare_relations_are_not_materialized(self):
        query = ast.Product((M, M))
        first_order = __import__("repro.delta", fromlist=["delta"]).delta(query, ["M"])
        residual, materialized = partially_evaluate(first_order, ["M"])
        assert materialized == []
        assert "M" in render(residual)


class TestRecursiveIVMView:
    def test_matches_naive_over_a_stream(self, selfjoin_query):
        database = Database()
        database.register("R", NESTED_SCHEMA, Bag([Bag(["a", "b"]), Bag(["c"])]))
        naive = NaiveView(selfjoin_query, database)
        recursive = RecursiveIVMView(selfjoin_query, database)
        for payload in (Bag([Bag(["d"])]), Bag([Bag(["e", "f"])]), Bag.from_pairs([(Bag(["c"]), -1)])):
            database.apply_update(Update(relations={"R": payload}))
        assert recursive.result() == naive.result()

    def test_materializations_are_reported(self, selfjoin_query):
        database = Database()
        database.register("R", NESTED_SCHEMA, Bag([Bag(["a"])]))
        recursive = RecursiveIVMView(selfjoin_query, database)
        assert recursive.materialized_names() == ("__mat0",)
        assert "flatten(ΔR)" in render(recursive.residual_delta)

    def test_materialized_value_is_maintained(self, selfjoin_query):
        database = Database()
        database.register("R", NESTED_SCHEMA, Bag([Bag(["a"])]))
        recursive = RecursiveIVMView(selfjoin_query, database)
        database.apply_update(Update(relations={"R": Bag([Bag(["b"])])}))
        # The materialization lives in a transient builder; freeze to compare.
        materialized = recursive._materializations["__mat0"].value.freeze()
        assert materialized == Bag(["a", "b"])

    def test_flat_query_with_no_materializations_still_works(self, movie_db):
        recursive = RecursiveIVMView(drama_filter(), movie_db)
        naive = NaiveView(drama_filter(), movie_db)
        movie_db.apply_update(insertions("M", [("Melancholia", "Drama", "vonTrier")]))
        assert recursive.result() == naive.result()

    def test_residual_avoids_scanning_the_relation(self, selfjoin_query):
        """Per-update evaluation reads the materialized flatten, not R."""
        database = Database()
        database.register(
            "R", NESTED_SCHEMA, Bag([Bag([f"x{i}"]) for i in range(50)])
        )
        classic = ClassicIVMView(selfjoin_query, database)
        recursive = RecursiveIVMView(selfjoin_query, database)
        database.apply_update(Update(relations={"R": Bag([Bag(["new"])])}))
        assert recursive.result() == classic.result()
        assert (
            recursive.stats.mean_update_operations
            < classic.stats.mean_update_operations
        )


class TestUntouchedViews:
    """An update binding none of a view's Δ symbols is not evaluated."""

    def _database(self):
        database = Database()
        database.register("M", MOVIE_SCHEMA, generate_movies(30, seed=3))
        database.register("N", MOVIE_SCHEMA, generate_movies(30, seed=4))
        database.register("R", NESTED_SCHEMA, Bag([Bag(["a", "b"]), Bag(["c"])]))
        return database

    @pytest.mark.parametrize("view_class", [ClassicIVMView, RecursiveIVMView])
    def test_flat_views_skip_unrelated_updates(self, view_class, selfjoin_query):
        database = self._database()
        view = view_class(selfjoin_query, database)
        before = view.result()
        database.apply_update(insertions("N", [("Other", "Drama", "Someone")]))
        assert view.stats.updates_applied == 1
        assert view.stats.update_operations[-1] == 0
        assert view.result() is before
        database.apply_update(insertions("R", [Bag(["a", "zz"])]))
        assert view.stats.updates_applied == 2
        assert view.stats.update_operations[-1] > 0
        assert view.result() == evaluate_bag(selfjoin_query, database.environment())

    def test_nested_view_keeps_its_cached_result(self, related):
        database = self._database()
        view = NestedIVMView(related, database)
        before = view.result()
        database.apply_update(insertions("N", [("Other", "Drama", "Someone")]))
        assert view.result() is before
        assert view.stats.update_operations[-1] == 0
        database.apply_update(insertions("M", [("Fresh", "Drama", "Someone")]))
        assert view.result() == NaiveView(related, database, register=False).result()


class TestMaintenanceStats:
    def test_totals_run_while_the_window_stays_bounded(self):
        from repro.instrument import OpCounter
        from repro.ivm.views import RECENT_UPDATES, MaintenanceStats

        stats = MaintenanceStats()
        counter = OpCounter()
        counter.increment("for_iterations", 3)
        updates = RECENT_UPDATES + 40
        for index in range(updates):
            stats.record_update(0.5 if index == updates - 1 else 0.25, counter)
        assert stats.updates_applied == updates
        assert stats.total_update_operations == 3 * updates
        assert stats.total_update_seconds == pytest.approx(0.25 * updates + 0.25)
        assert stats.mean_update_operations == 3.0
        assert len(stats.update_seconds) == len(stats.update_operations) == RECENT_UPDATES
        assert stats.update_seconds[-1] == 0.5 and stats.update_operations[-1] == 3
        assert stats.summary()["updates_applied"] == float(updates)
