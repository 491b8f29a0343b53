"""Tests for RA+ as the flat fragment of NRC+ (Appendix A.1).

Appendix A.1's relational operators are NRC+ terms built from ``for``,
``where``, ``×``, ``⊎`` and ``sng``; their delta rules are the NRC+ delta
rules restricted to that fragment, and flat IVM is classic IVM (Prop. 4.1).
Named columns live in :mod:`repro.surface`.
"""

import pytest

from repro.bag import Bag, EMPTY_BAG
from repro.delta import degree, delta
from repro.errors import TypeCheckError
from repro.ivm import ClassicIVMView, Database, NaiveView, RecursiveIVMView, Update
from repro.nrc import ast, builders as build, predicates as preds
from repro.nrc.analysis import referenced_relations
from repro.nrc.evaluator import Environment, evaluate_bag
from repro.nrc.typecheck import infer_type
from repro.nrc.types import BASE, BagType, tuple_of
from repro.surface import Dataset, Record, STRING, field_types
from repro.workloads import SHOWTIME_SCHEMA, doz_query

MOVIES_SCHEMA = BagType(tuple_of(BASE, BASE))
MOVIES = Record("Movies", field_types(movie=STRING, genre=STRING))
SHOWS = Record("Shows", field_types(movie=STRING, loc=STRING, time=STRING))
MFLAT = ast.Relation("Mflat", MOVIES_SCHEMA)
SH = ast.Relation("Sh", SHOWTIME_SCHEMA)

movies_instance = Bag([("Drive", "Drama"), ("Skyfall", "Action"), ("Melancholia", "Drama")])
shows_instance = Bag(
    [
        ("Drive", "Oz", "20:00"),
        ("Skyfall", "Oz", "21:00"),
        ("Melancholia", "Kansas", "19:00"),
    ]
)
DB = {"Mflat": movies_instance, "Sh": shows_instance}


def run(query, relations=DB, deltas=None):
    return evaluate_bag(query, Environment(relations=relations, deltas=deltas or {}))


def incremental(query, updates, targets=None):
    """``h[R] ⊎ δ(h)[R, ΔR]`` for the one-step ``updates``."""
    delta_query = delta(query, targets)
    symbols = {(name, 1): bag for name, bag in updates.items()}
    return run(query).union(run(delta_query, deltas=symbols))


def post_update(updates):
    return {name: DB[name].union(updates.get(name, EMPTY_BAG)) for name in DB}


def doz_database():
    database = Database()
    database.register("Mflat", MOVIES_SCHEMA, movies_instance)
    database.register("Sh", SHOWTIME_SCHEMA, shows_instance)
    return database


class TestSchemas:
    def test_duplicate_columns_rejected(self):
        with pytest.raises(TypeCheckError):
            Record("Bad", (("a", BASE), ("a", BASE)))

    def test_index_of_unknown_column(self):
        with pytest.raises(TypeCheckError):
            MOVIES.position("nope")

    def test_record_is_the_relation_schema(self):
        assert MOVIES.bag_type() == MOVIES_SCHEMA
        assert SHOWS.bag_type() == SHOWTIME_SCHEMA
        assert SHOWS.position("loc") == 1


class TestOperators:
    def test_base_and_select(self):
        is_drama = preds.eq(preds.var_path("m", 1), preds.const("Drama"))
        dramas = build.filter_query(MFLAT, is_drama, "m")
        assert run(dramas) == Bag([("Drive", "Drama"), ("Melancholia", "Drama")])

    def test_project_keeps_duplicates_as_multiplicities(self):
        genres = build.for_in("m", MFLAT, build.proj("m", 1))
        assert run(genres).multiplicity("Drama") == 2

    def test_cross_product(self):
        product = ast.Product((MFLAT, SH))
        assert run(product).cardinality() == 9
        assert infer_type(product) == BagType(
            tuple_of(MOVIES_SCHEMA.element, SHOWTIME_SCHEMA.element)
        )

    def test_theta_join(self):
        on_movie = preds.eq(preds.var_path("m", 0), preds.var_path("s", 0))
        joined = build.for_in(
            "s", SH, build.for_in("m", MFLAT, build.pair(build.var("s"), build.var("m")), on_movie)
        )
        result = run(joined)
        assert result.cardinality() == 3
        assert (("Drive", "Oz", "20:00"), ("Drive", "Drama")) in result

    def test_union_and_negate(self):
        assert run(ast.Union((MFLAT, ast.Negate(MFLAT)))) == EMPTY_BAG

    def test_union_arity_mismatch_rejected(self):
        with pytest.raises(TypeCheckError):
            infer_type(ast.Union((MFLAT, SH)))

    def test_rename(self):
        renamed = Record("Renamed", field_types(movie=STRING, g=STRING))
        scan = Dataset("Mflat", renamed).to_expr()
        assert renamed.field_names == ("movie", "g")
        assert scan.schema == MOVIES_SCHEMA
        assert run(scan) == movies_instance

    def test_delta_rel_reads_update_symbols(self):
        delta_movies = ast.DeltaRelation("Mflat", MOVIES_SCHEMA)
        assert run(delta_movies) == EMPTY_BAG
        added = Bag([("New", "Drama")])
        assert run(delta_movies, deltas={("Mflat", 1): added}) == added

    def test_doz_query_of_example_8(self):
        assert run(doz_query()) == Bag(["Drive"])

    def test_builder_sugar(self):
        shows = Dataset("Sh", SHOWS)
        s = shows.row("s")
        query = shows.iterate(s).where(s["loc"] == "Oz").select(s["movie"], s["time"])
        assert run(query.to_expr()) == Bag([("Drive", "20:00"), ("Skyfall", "21:00")])


class TestFlatDeltaRules:
    def test_sources(self):
        assert referenced_relations(doz_query()) == {"Mflat", "Sh"}

    def test_delta_satisfies_equation_5(self):
        updates = {
            "Sh": Bag([("Melancholia", "Oz", "22:00")]),
            "Mflat": Bag([("Jarhead", "Drama")]),
        }
        assert incremental(doz_query(), updates) == run(doz_query(), post_update(updates))

    def test_delta_with_deletions(self):
        updates = {"Sh": Bag.from_pairs([(("Drive", "Oz", "20:00"), -1)])}
        result = incremental(doz_query(), updates)
        assert result == run(doz_query(), post_update(updates))
        assert result == EMPTY_BAG

    def test_delta_of_untargeted_expression_is_empty(self):
        delta_query = delta(doz_query(), ["Other"])
        assert isinstance(delta_query, ast.Empty)
        assert run(delta_query) == EMPTY_BAG

    def test_join_delta_lowers_degree_by_one(self):
        targets = ["Mflat", "Sh"]
        assert degree(doz_query(), targets) == 2
        assert degree(delta(doz_query(), targets), targets) == 1


class TestFlatIVMViews:
    def test_ivm_matches_naive(self):
        database = doz_database()
        query = doz_query()
        naive = NaiveView(query, database)
        ivm = ClassicIVMView(query, database)
        database.apply_update(Update(relations={"Sh": Bag([("Melancholia", "Oz", "23:00")])}))
        database.apply_update(Update(relations={"Mflat": Bag([("Jarhead", "Drama")])}))
        database.apply_update(
            Update(relations={"Sh": Bag.from_pairs([(("Drive", "Oz", "20:00"), -1)])})
        )
        assert ivm.result() == naive.result() == Bag(["Melancholia"])

    def test_ivm_exposes_delta_expression(self):
        ivm = ClassicIVMView(doz_query(), doz_database())
        assert ivm.residual_delta is not None
        assert ivm.materialized_names() == ()
        assert ivm.stats.init_operations >= 0

    def test_classic_and_recursive_agree(self):
        database = doz_database()
        classic = ClassicIVMView(doz_query(), database)
        recursive = RecursiveIVMView(doz_query(), database)
        shows = Bag([("Melancholia", "Oz", "23:00")])
        database.apply_update(Update(relations={"Sh": shows, "Mflat": Bag([("Jarhead", "Drama")])}))
        assert classic.result() == recursive.result() == Bag(["Drive", "Melancholia"])
