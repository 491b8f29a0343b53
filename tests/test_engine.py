"""The `repro.engine` facade: datasets, views, updates, handles, reprs."""

from __future__ import annotations

import pytest

from repro.bag import Bag
from repro.engine import Engine
from repro.errors import EngineError, NotInFragmentError, WorkloadError
from repro.ivm.classic import ClassicIVMView
from repro.ivm.updates import Update, UpdateStream, insertions
from repro.ivm.views import View
from repro.nrc import ast, builders as build, predicates as preds
from repro.nrc.evaluator import Environment, evaluate_bag
from repro.nrc.types import BASE, bag_of
from repro.surface import Dataset
from repro.workloads import (
    MOVIE_RECORD,
    MOVIE_SCHEMA,
    PAPER_MOVIES,
    generate_movies,
    movie_update_stream,
    related_query,
)

STRATEGIES = ("naive", "classic", "recursive", "nested", "auto")


def drama_filter():
    movies = ast.Relation("M", MOVIE_SCHEMA)
    return build.filter_query(
        movies, preds.eq(preds.var_path("x", 1), preds.const("Drama")), "x"
    )


# --------------------------------------------------------------------------- #
# Dataset registration
# --------------------------------------------------------------------------- #
def test_dataset_with_record_returns_surface_dataset():
    engine = Engine()
    movies = engine.dataset("M", MOVIE_RECORD, rows=PAPER_MOVIES)
    assert isinstance(movies, Dataset)
    assert engine.relation("M") == PAPER_MOVIES
    x = movies.row("x")
    query = movies.iterate(x).where(x.field("gen") == "Drama").select(x.field("name"))
    view = engine.view("dramas", query)
    assert view.result() == Bag(["Drive"])


def test_dataset_with_bag_type_returns_relation_node():
    engine = Engine()
    relation = engine.dataset("M", MOVIE_SCHEMA, rows=list(PAPER_MOVIES.elements()))
    assert isinstance(relation, ast.Relation)
    assert relation.name == "M"
    assert engine.relation("M") == PAPER_MOVIES


def test_dataset_rejects_non_schema():
    engine = Engine()
    with pytest.raises(TypeError):
        engine.dataset("M", "not a schema")


def test_duplicate_dataset_rejected():
    engine = Engine()
    engine.dataset("M", MOVIE_SCHEMA)
    with pytest.raises(EngineError):
        engine.dataset("M", MOVIE_SCHEMA)


def test_dataset_handle_roundtrip():
    engine = Engine()
    handle = engine.dataset("M", MOVIE_RECORD, rows=PAPER_MOVIES)
    assert engine.dataset_handle("M") is handle
    with pytest.raises(EngineError):
        engine.dataset_handle("missing")


# --------------------------------------------------------------------------- #
# Views
# --------------------------------------------------------------------------- #
def test_duplicate_view_name_rejected():
    engine = Engine()
    engine.dataset("M", MOVIE_SCHEMA, PAPER_MOVIES)
    engine.view("dramas", drama_filter())
    with pytest.raises(EngineError):
        engine.view("dramas", drama_filter())


def test_unknown_strategy_rejected():
    engine = Engine()
    engine.dataset("M", MOVIE_SCHEMA, PAPER_MOVIES)
    with pytest.raises(EngineError, match="available: naive, classic, recursive, nested$"):
        engine.view("dramas", drama_filter(), strategy="quantum")


def test_explicit_strategy_outside_fragment_rejected():
    engine = Engine()
    engine.dataset("M", MOVIE_SCHEMA, PAPER_MOVIES)
    with pytest.raises(NotInFragmentError):
        engine.view("related", related_query(), strategy="classic")


def test_view_lookup_and_membership():
    engine = Engine()
    engine.dataset("M", MOVIE_SCHEMA, PAPER_MOVIES)
    handle = engine.view("dramas", drama_filter())
    assert engine["dramas"] is handle
    assert "dramas" in engine
    assert "other" not in engine
    assert engine.views() == (handle,)
    with pytest.raises(EngineError):
        engine["other"]


def test_query_type_validation():
    engine = Engine()
    engine.dataset("M", MOVIE_SCHEMA, PAPER_MOVIES)
    with pytest.raises(TypeError):
        engine.view("bad", "select * from M")


def test_view_on_a_closed_engine_fails_before_materializing(monkeypatch):
    engine = Engine()
    relation = engine.dataset("R", bag_of(BASE), Bag(["a"]))
    engine.close()
    built = []
    monkeypatch.setattr(ClassicIVMView, "__init__", lambda *args, **kwargs: built.append(args))
    query = build.for_in("x", relation, ast.SngVar("x"))
    with pytest.raises(WorkloadError, match="database is closed"):
        engine.view("v", query, strategy="classic")
    assert built == [] and "v" not in engine
    # The database itself refuses a late registration the same way.
    with pytest.raises(WorkloadError, match="database is closed"):
        engine.database.register_view(View())


def test_explicit_targets_restrict_auto_to_honoring_backends():
    # Backends that derive their own update sources (naive, nested) would
    # refresh on relations the caller pinned out, so an explicit targets
    # list limits planning to classic/recursive and rejects the others.
    engine = Engine()
    engine.dataset("M", MOVIE_SCHEMA, PAPER_MOVIES)
    view = engine.view("dramas", drama_filter(), targets=["M"])
    assert view.strategy == "classic"
    with pytest.raises(EngineError, match="targets"):
        engine.view("dramas2", drama_filter(), strategy="nested", targets=["M"])
    with pytest.raises(EngineError, match="targets"):
        engine.view("related", related_query(), targets=["M"])


# --------------------------------------------------------------------------- #
# Updates
# --------------------------------------------------------------------------- #
def test_apply_accepts_mapping_and_update_objects():
    engine = Engine()
    engine.dataset("M", MOVIE_SCHEMA, PAPER_MOVIES)
    view = engine.view("dramas", drama_filter())
    engine.apply({"M": [("Jarhead", "Drama", "Mendes")]})
    engine.apply(insertions("M", [("Heat", "Crime", "Mann")]))
    assert view.result() == Bag(
        [("Drive", "Drama", "Refn"), ("Jarhead", "Drama", "Mendes")]
    )
    with pytest.raises(TypeError):
        engine.apply(42)


def test_insert_delete_convenience():
    engine = Engine()
    engine.dataset("M", MOVIE_SCHEMA, PAPER_MOVIES)
    view = engine.view("dramas", drama_filter())
    engine.insert("M", [("Jarhead", "Drama", "Mendes")])
    engine.delete("M", [("Drive", "Drama", "Refn")])
    assert view.result() == Bag([("Jarhead", "Drama", "Mendes")])


def test_apply_stream_counts_updates():
    engine = Engine()
    engine.dataset("M", MOVIE_SCHEMA, generate_movies(20))
    engine.view("dramas", drama_filter())
    stream = movie_update_stream(3, 2, seed=5)
    assert engine.apply_stream(stream) == 3


# --------------------------------------------------------------------------- #
# All strategies agree (satellite: parametrized consistency test)
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_strategies_agree_under_mixed_stream(strategy):
    base = generate_movies(30)
    engine = Engine()
    engine.dataset("M", MOVIE_SCHEMA, base)
    view = engine.view("dramas", drama_filter(), strategy=strategy)

    stream = movie_update_stream(4, 3, existing=base, deletion_ratio=0.4, seed=11)
    engine.apply_stream(stream)

    expected = evaluate_bag(
        drama_filter(), Environment(relations={"M": engine.relation("M")})
    )
    assert view.result() == expected
    assert view.stats.updates_applied == 4


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_strategies_agree_on_nested_view(strategy):
    # The nested `related` view is outside IncNRC+, so classic/recursive
    # must refuse it; every other strategy maintains the same result.
    engine = Engine()
    engine.dataset("M", MOVIE_SCHEMA, PAPER_MOVIES)
    if strategy in ("classic", "recursive"):
        with pytest.raises(NotInFragmentError):
            engine.view("related", related_query(), strategy=strategy)
        return
    view = engine.view("related", related_query(), strategy=strategy)
    engine.insert("M", [("Jarhead", "Drama", "Mendes")])
    expected = evaluate_bag(
        related_query(), Environment(relations={"M": engine.relation("M")})
    )
    assert view.result() == expected


# --------------------------------------------------------------------------- #
# Reprs (satellite)
# --------------------------------------------------------------------------- #
def test_update_stream_repr():
    assert repr(UpdateStream()) == "UpdateStream(empty)"
    stream = movie_update_stream(2, 3, seed=1)
    assert repr(stream) == "UpdateStream(2 updates, 6 changed tuples)"


def test_update_repr():
    update = insertions("M", [("Jarhead", "Drama", "Mendes")])
    assert repr(update) == "Update(M:1)"


def test_maintenance_stats_repr():
    engine = Engine()
    engine.dataset("M", MOVIE_SCHEMA, PAPER_MOVIES)
    view = engine.view("dramas", drama_filter())
    engine.insert("M", [("Heat", "Crime", "Mann")])
    text = repr(view.stats)
    assert text.startswith("MaintenanceStats(")
    assert "updates=1" in text
    assert "ops/update" in text


def test_engine_and_handle_reprs():
    engine = Engine()
    engine.dataset("M", MOVIE_SCHEMA, PAPER_MOVIES)
    handle = engine.view("dramas", drama_filter(), strategy="classic")
    assert "dramas" in repr(handle) and "classic" in repr(handle)
    assert "M" in repr(engine) and "dramas:classic" in repr(engine)
