"""Cost-driven strategy planning over the paper's four strategies."""

from __future__ import annotations

import pytest

from repro.engine import STRATEGIES, plan_view
from repro.engine.planner import PlanningInputs
from repro.errors import EngineError
from repro.nrc import ast, builders as build, predicates as preds
from repro.nrc.types import BASE, bag_of
from repro.workloads import (
    MOVIE_SCHEMA,
    bag_of_bags_engine,
    generate_movies,
    movies_engine,
    related_query,
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
# Auto planning: the cost model picks different backends per view
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


def test_auto_falls_back_to_naive_when_updates_dominate():
    # d ≫ n: re-evaluation is cheaper than processing a huge delta.
    engine = movies_engine(generate_movies(5), expected_update_size=500)
    view = engine.view("dramas", drama_filter(), strategy="auto")
    assert view.strategy == "naive"
    plan = engine.explain(view)
    assert "naive" in plan.reason


def test_explain_reports_cost_estimates_behind_the_choice():
    engine = movies_engine(generate_movies(50))
    view = engine.view("dramas", drama_filter(), strategy="auto")
    plan = engine.explain("dramas")

    assert plan.strategy == "classic"
    assert plan.requested == "auto"
    naive = plan.estimate_for("naive")
    chosen = plan.chosen_estimate
    assert naive is not None and naive.total is not None
    assert chosen is not None and chosen.total is not None
    assert chosen.total < naive.total
    # The classic/recursive/nested fragments are all eligible and estimated.
    for name in ("naive", "classic", "recursive", "nested"):
        assert plan.estimate_for(name) is not None
    # Numbers and the delta query show up in the rendered explanation.
    text = plan.render()
    assert "tcost=" in text and "total=" in text
    assert "delta query" in text
    assert str(chosen.total) in plan.reason


def test_nested_view_planning_marks_fragment_violations():
    engine = movies_engine(generate_movies(30))
    plan = engine.view("related", related_query(), strategy="auto").plan
    classic = plan.estimate_for("classic")
    recursive = plan.estimate_for("recursive")
    assert classic is not None and not classic.eligible
    assert recursive is not None and not recursive.eligible
    assert "shredding" in classic.reason
    nested = plan.estimate_for("nested")
    assert nested is not None and nested.eligible and nested.total is not None


def test_explicit_strategy_still_records_estimates():
    engine = movies_engine(generate_movies(20))
    view = engine.view("dramas", drama_filter(), strategy="naive")
    plan = view.plan
    assert plan.strategy == "naive"
    assert plan.requested == "naive"
    assert plan.reason == "explicitly requested"
    assert plan.estimate_for("classic").total is not None


def test_recursive_choice_reflects_materializations():
    engine = bag_of_bags_engine(20, 4)
    plan = engine.view("selfjoin", selfjoin_query(), strategy="auto").plan
    chosen = plan.chosen_estimate
    assert plan.strategy == "recursive"
    assert "materializes 1" in chosen.reason
    # Recursive wins precisely because it stops re-scanning the base relation.
    classic = plan.estimate_for("classic")
    assert chosen.scan_cost == 0
    assert classic.scan_cost > 0
    assert "residual delta" in plan.artifacts


def test_plan_view_validates_update_size():
    engine = movies_engine(generate_movies(5))
    with pytest.raises(EngineError):
        plan_view(drama_filter(), engine.database, expected_update_size=0)


def test_planning_inputs_targets_default_to_referenced_relations():
    engine = movies_engine(generate_movies(5))
    inputs = PlanningInputs(drama_filter(), engine.database)
    assert inputs.targets == ("M",)
    context = inputs.base_context()
    assert ("M", 1) in context.deltas
    assert context.deltas[("M", 1)].cardinality == 1


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
