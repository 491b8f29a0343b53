"""View refresh and the shared refresh context.

Every update refreshes its views on the applying thread, in registration
order, against one shared, pre-update
:class:`~repro.ivm.database.RefreshContext`.  The core property is
differential: the compiled pipelines, the strict interpreter and a
from-scratch recompute produce bit-identical view contents across every
strategy, including deletions.  The refresh contract is covered directly:
every refresh, touched or not, runs on the thread that called ``apply``,
and the first error aborts the update before any store mutates, with every
view that refreshed restored from the pre-update relations.
"""

import threading

import pytest

from repro.bag.bag import Bag
from repro.engine import Engine
from repro.errors import EvaluationError
from repro.ivm import Update
from repro.ivm.database import Database, RefreshContext
from repro.ivm.views import View
from repro.nrc import ast
from repro.nrc import builders as build
from repro.nrc import predicates as preds
from repro.nrc.compile import forced_interpretation
from repro.nrc.evaluator import Environment, evaluate_bag
from repro.nrc.types import BASE, bag_of
from repro.workloads import (
    MOVIE_SCHEMA,
    generate_movies,
    genre_selfjoin_query,
    movie_update_stream,
    movies_engine,
)

STRATEGIES = ("naive", "classic", "recursive", "nested")


# --------------------------------------------------------------------------- #
# Differential property: compiled ≡ interpreter ≡ recompute, all strategies
# --------------------------------------------------------------------------- #
def _maintain(strategy, base, updates, interpreted=False):
    with forced_interpretation(interpreted):
        engine = movies_engine(Bag(base))
        view = engine.view("v", genre_selfjoin_query(), strategy=strategy)
        for update in updates:
            engine.apply(update)
        return view.result()


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_streams_three_configs_agree(strategy):
    base = generate_movies(40, seed=5)
    updates = list(movie_update_stream(4, 3, existing=base, deletion_ratio=0.4, seed=9))
    compiled = _maintain(strategy, base, updates)
    interpreted = _maintain(strategy, base, updates, interpreted=True)
    post = Bag(base)
    for update in updates:
        post = post.union(update.relations["M"])
    recomputed = evaluate_bag(genre_selfjoin_query(), Environment(relations={"M": post}))
    assert compiled == interpreted == recomputed


# --------------------------------------------------------------------------- #
# One update, one thread: order, error propagation
# --------------------------------------------------------------------------- #
def _multi_view_run(interpreted):
    with forced_interpretation(interpreted):
        movies = generate_movies(50, seed=11)
        engine = movies_engine(movies)
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


def test_multi_view_refresh_matches_the_interpreter():
    compiled = _multi_view_run(interpreted=False)
    assert compiled == _multi_view_run(interpreted=False)
    assert compiled == _multi_view_run(interpreted=True)


class _Probe(View):
    """Records which thread refreshed it; reads only ``relation``'s Δ."""

    def __init__(self, name, relation, log):
        super().__init__()
        self.name = name
        self._delta_sources = frozenset({(relation, 1)})
        self._log = log

    def on_update(self, update, shredded_delta, context):
        self._log.append((self.name, threading.current_thread().name))


def test_every_refresh_runs_on_the_applying_thread():
    """Touched views (``r*``) and untouched ones (``s*``) alike refresh on
    the thread that called ``apply``, in registration order."""
    log = []
    database = Database()
    database.register("R", bag_of(BASE), Bag(["a"]))
    database.register("S", bag_of(BASE), Bag(["a"]))
    names = ("r1", "s1", "r2", "s2", "r3")
    for name in names:
        database.register_view(_Probe(name, name[0].upper(), log))
    applier = threading.Thread(
        target=database.apply_update,
        args=(Update(relations={"R": Bag(["b"])}),),
        name="applier",
    )
    applier.start()
    applier.join()
    assert log == [(name, "applier") for name in names]
    assert database.relation("R") == Bag(["a", "b"])
    database.close()


def test_first_refresh_error_aborts_the_update():
    log = []

    class Exploding(View):
        def __init__(self, message):
            super().__init__()
            self._message = message

        def on_update(self, update, shredded_delta, context):
            log.append(self._message)
            raise RuntimeError(self._message)

    database = Database()
    database.register("R", bag_of(BASE), Bag(["a"]))
    database.register_view(Exploding("first"))
    database.register_view(Exploding("second"))
    with pytest.raises(RuntimeError, match="first"):
        database.apply_update(Update(relations={"R": Bag(["b"])}))
    assert log == ["first"]
    # Views run pre-mutation, so the failed update left the store alone.
    assert database.relation("R") == Bag(["a"])


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
    flat_name = database.shredded_source_names("R")[0]
    assert context.shredded_environment().relations[flat_name] == Bag(["a"])
    assert context.shredded_delta_environment().deltas[(flat_name, 1)] == Bag(["b"])


# --------------------------------------------------------------------------- #
# A rejected update leaves every view equal to Q(db)
# --------------------------------------------------------------------------- #
R_SCHEMA = bag_of(BASE)


def _below(bound):
    """``for x in R where x < bound union sng(x)``: an ordered comparison,
    which raises on a string element among integers."""
    relation = ast.Relation("R", R_SCHEMA)
    return build.filter_query(relation, preds.lt(preds.var_path("x"), preds.const(bound)), "x")


def _assert_views_equal_the_interpreter(engine, queries):
    environment = Environment(relations={"R": engine.relation("R")})
    for name, query in queries.items():
        assert engine[name].result() == evaluate_bag(query, environment), name


@pytest.mark.parametrize("interpreted", (False, True), ids=("compiled", "interpreted"))
@pytest.mark.parametrize("failing", STRATEGIES)
@pytest.mark.parametrize("earlier", STRATEGIES)
def test_rejected_update_leaves_every_view_at_the_relations(earlier, failing, interpreted):
    """``ident`` refreshes first and holds the update by the time the
    second view's delta raises; the failing view itself may have folded
    ``0`` before reaching ``"x"``.  The update is rejected, and both views
    must still equal the interpreter over the untouched relations — and
    after the next good write too."""
    queries = {
        "ident": build.for_in("x", ast.Relation("R", R_SCHEMA), ast.SngVar("x")),
        "low": _below(4),
    }
    with forced_interpretation(interpreted):
        engine = Engine()
        engine.dataset("R", R_SCHEMA, rows=Bag([1, 2, 3]))
        engine.view("ident", queries["ident"], strategy=earlier)
        engine.view("low", queries["low"], strategy=failing)
    version = engine.state_version
    with pytest.raises(EvaluationError):
        engine.apply({"R": Bag([0, 5, "x"])})
    assert engine.relation("R") == Bag([1, 2, 3])
    assert engine.state_version == version
    _assert_views_equal_the_interpreter(engine, queries)
    engine.apply({"R": Bag.from_pairs([(0, 1), (5, 1), (2, -1)])})
    assert engine.relation("R") == Bag([0, 1, 3, 5])
    _assert_views_equal_the_interpreter(engine, queries)


@pytest.mark.parametrize("strategy", ("classic", "recursive"))
def test_a_fold_that_raises_mid_walk_is_restored(strategy, monkeypatch):
    """The compiled delta folds ``0`` into the store, then raises on
    ``"x"``: the half-folded store is what the restore starts from, and
    what it leaves is the pre-update result."""
    query = _below(4)
    engine = Engine()
    engine.dataset("R", R_SCHEMA, rows=Bag([1, 2, 3]))
    handle = engine.view("low", query, strategy=strategy)
    before_restore = []
    restore = View.restore

    def spy(view):
        before_restore.append(view.result())
        restore(view)

    monkeypatch.setattr(View, "restore", spy)
    with pytest.raises(EvaluationError):
        engine.apply({"R": Bag([0, 5, "x"])})
    assert before_restore == [Bag([0, 1, 2, 3])]
    assert handle.result() == Bag([1, 2, 3])
    engine.apply({"R": Bag([0])})
    assert handle.result() == Bag([0, 1, 2, 3])
