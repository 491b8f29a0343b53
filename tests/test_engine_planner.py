"""Strategy planning over the paper's four strategies: Theorem 4 as a rule."""

from __future__ import annotations

import sys

import pytest

import repro.cost.size
from repro.engine import STRATEGIES, Engine, plan_view, planner
from repro.errors import EngineError, NotInFragmentError, ShreddingError
from repro.ivm.naive import NaiveView
from repro.nrc import ast, builders as build, predicates as preds
from repro.nrc.types import BASE, bag_of
from repro.serve.protocol import query_from_spec, record_from_spec
from repro.serve.smoke import (
    _CLASSICS_QUERY as SMOKE_CLASSICS,
    _DRAMAS_QUERY as SMOKE_DRAMAS,
    _RELATED_QUERY as SMOKE_RELATED,
    _YEARS_QUERY as SMOKE_YEARS,
)
from repro.surface import Dataset
from repro.workloads import (
    MOVIE_SCHEMA,
    bag_of_bags_engine,
    feed_query,
    generate_movies,
    genre_selfjoin_query,
    movies_engine,
    related_query,
    related_query_dsl,
)


def drama_filter():
    movies = ast.Relation("M", MOVIE_SCHEMA)
    return build.filter_query(
        movies, preds.eq(preds.var_path("x", 1), preds.const("Drama")), "x"
    )


def selfjoin_query():
    relation = ast.Relation("R", bag_of(bag_of(BASE)))
    return ast.Product((ast.Flatten(relation), ast.Flatten(relation)))


# --------------------------------------------------------------------------- #
# Auto planning: the query's fragment picks different backends per view
# --------------------------------------------------------------------------- #
def test_auto_selects_different_backends_per_view():
    """Acceptance: `strategy="auto"` routes distinct views to distinct engines."""
    engine = movies_engine(generate_movies(50))
    dramas = engine.view("dramas", drama_filter(), strategy="auto")
    related = engine.view("related", related_query(), strategy="auto")

    selfjoin_engine = bag_of_bags_engine(20, 4)
    selfjoin = selfjoin_engine.view("selfjoin", selfjoin_query(), strategy="auto")

    assert dramas.strategy == "classic"
    assert related.strategy == "nested"
    assert selfjoin.strategy == "recursive"
    assert len({dramas.strategy, related.strategy, selfjoin.strategy}) == 3


def _spec_query(spec, **datasets):
    """A served view's query: a JSON spec over wire-declared datasets."""
    handles = {
        name: Dataset(name, record_from_spec(name, fields))
        for name, fields in datasets.items()
    }
    return query_from_spec(spec, handles).to_expr()


MOVIE_FIELDS = ["name", "gen", "dir"]
YEAR_FIELDS = ["name", "year"]
CATALOG_SPEC = {"from": "M", "var": "m", "select": [["row", "m"]]}

#: ``auto``'s pick at every site that creates a view with it: tests, the
#: examples, the served smoke flow and the benchmark's ``feed``.
AUTO_SITES = {
    "dramas": (drama_filter, "classic"),
    "dramas (served)": (lambda: _spec_query(SMOKE_DRAMAS, M=MOVIE_FIELDS), "classic"),
    "catalog": (lambda: _spec_query(CATALOG_SPEC, M=MOVIE_FIELDS), "classic"),
    "genre self-join": (genre_selfjoin_query, "classic"),
    "years": (lambda: _spec_query(SMOKE_YEARS, Y=YEAR_FIELDS), "classic"),
    "classics": (lambda: _spec_query(SMOKE_CLASSICS, Y=YEAR_FIELDS), "classic"),
    "flatten self-join": (selfjoin_query, "recursive"),
    "related": (related_query, "nested"),
    "related (dsl)": (related_query_dsl, "nested"),
    "related (served)": (lambda: _spec_query(SMOKE_RELATED, M=MOVIE_FIELDS), "nested"),
    "feed": (feed_query, "nested"),
}


@pytest.mark.parametrize("site", AUTO_SITES)
def test_auto_pick_at_every_site(site):
    build_query, expected = AUTO_SITES[site]
    assert plan_view(build_query()).strategy == expected


def test_auto_on_an_empty_dataset_picks_by_fragment():
    """The pick depends on the query alone: an empty relation, where every
    strategy's work is zero, still gets an incremental strategy."""
    engine = Engine()
    engine.dataset("M", MOVIE_SCHEMA)
    assert engine.view("dramas", drama_filter()).strategy == "classic"
    assert engine.view("related", related_query()).strategy == "nested"


@pytest.mark.parametrize("strategy", [*STRATEGIES, "auto"])
def test_view_creation_measures_no_stored_bag(monkeypatch, strategy):
    measured = repro.cost.size.size_of

    def refuse(*args, **kwargs):
        raise AssertionError("view creation measured a stored bag")

    for module in list(sys.modules.values()):
        if getattr(module, "size_of", None) is measured:
            monkeypatch.setattr(module, "size_of", refuse)
    engine = movies_engine(generate_movies(20))
    query = related_query() if strategy in ("naive", "nested") else drama_filter()
    view = engine.view("v", query, strategy=strategy)
    engine.insert("M", [("Jarhead", "Drama", "Mendes")])
    assert view.result() == NaiveView(query, engine.database, register=False).result()


def test_explain_reports_the_rule_behind_the_choice():
    engine = movies_engine(generate_movies(50))
    engine.view("dramas", drama_filter(), strategy="auto")
    plan = engine.explain("dramas")

    assert plan.strategy == "classic"
    assert plan.requested == "auto"
    assert "Thm. 4" in plan.reason and "Prop. 4.1" in plan.reason
    # The built view's delta query shows up in the rendered explanation.
    assert "delta query" in plan.artifacts
    text = plan.render()
    assert "reason   : IncNRC+" in text and "delta query:" in text


def test_nested_view_planning_marks_fragment_violations():
    engine = movies_engine(generate_movies(30))
    plan = engine.view("related", related_query(), strategy="auto").plan
    assert plan.strategy == "nested"
    assert "outside IncNRC+" in plan.reason and "§5" in plan.reason
    assert "shredded flat" in plan.artifacts
    for strategy in ("classic", "recursive"):
        with pytest.raises(NotInFragmentError):
            plan_view(related_query(), requested=strategy)


def test_explicit_strategy_is_used_as_is():
    engine = movies_engine(generate_movies(20))
    view = engine.view("dramas", drama_filter(), strategy="naive")
    plan = view.plan
    assert plan.strategy == "naive"
    assert plan.requested == "naive"
    assert plan.reason == "explicitly requested"
    assert plan.artifacts == {}
    with pytest.raises(EngineError, match="unknown strategy"):
        plan_view(drama_filter(), requested="cheapest")


def test_recursive_choice_reflects_materializations():
    engine = bag_of_bags_engine(20, 4)
    plan = engine.view("selfjoin", selfjoin_query(), strategy="auto").plan
    assert plan.strategy == "recursive"
    assert "materializes 1" in plan.reason and "§4.1" in plan.reason
    assert "residual delta" in plan.artifacts


def test_auto_falls_back_to_naive_only_when_shredding_fails(monkeypatch):
    def unshreddable(query):
        raise ShreddingError("no shredding rule")

    monkeypatch.setattr(planner, "shred_query", unshreddable)
    plan = plan_view(related_query())
    assert plan.strategy == "naive"
    assert "cannot shred" in plan.reason
    # IncNRC+ queries never reach the shredder.
    assert plan_view(drama_filter()).strategy == "classic"


# --------------------------------------------------------------------------- #
# The strategy table
# --------------------------------------------------------------------------- #
def test_builtin_backends_registered():
    """The four strategies, in planner priority order; the two IncNRC+ ones
    are exactly those that honour ``targets``."""
    assert tuple(STRATEGIES) == ("naive", "classic", "recursive", "nested")
    assert [name for name, entry in STRATEGIES.items() if entry.inc_nrc] == [
        "classic",
        "recursive",
    ]
