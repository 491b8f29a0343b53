"""The view-refresh pool and the shared refresh context.

Every update refreshes its views against one shared, pre-update
:class:`~repro.ivm.database.RefreshContext`; ``REPRO_PARALLEL_VIEWS`` /
``Engine(parallel_views=)`` decide whether independent views refresh
inline or on a thread pool.  The core property is differential: the pool,
the inline refresh and the strict interpreter produce bit-identical view
contents across every strategy, including deletions.  The pool's own
contract is covered directly: untouched views stay on the coordinating
thread, the first error aborts the update before any store mutates, and
the worker count resolves explicit argument > environment > auto.
"""

import threading

import pytest

from repro.bag.bag import Bag
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
# Differential property: pool ≡ inline ≡ interpreter, all strategies
# --------------------------------------------------------------------------- #
def _maintain(strategy, workers, base, updates, interpreted=False):
    with forced_parallel_views(workers), forced_interpretation(interpreted):
        engine = movies_engine(Bag(base))
        view = engine.view("v", genre_selfjoin_query(), strategy=strategy)
        for update in updates:
            engine.apply(update)
        return view.result()


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_streams_three_configs_agree(strategy):
    base = generate_movies(40, seed=5)
    updates = list(movie_update_stream(4, 3, existing=base, deletion_ratio=0.4, seed=9))
    pooled = _maintain(strategy, 2, base, updates)
    inline = _maintain(strategy, 1, base, updates)
    interpreted = _maintain(strategy, 2, base, updates, interpreted=True)
    assert pooled == inline == interpreted
    post = Bag(base)
    for update in updates:
        post = post.union(update.relations["M"])
    assert pooled == evaluate_bag(
        genre_selfjoin_query(), Environment(relations={"M": post})
    )


# --------------------------------------------------------------------------- #
# Concurrent refresh: determinism, error propagation
# --------------------------------------------------------------------------- #
def _multi_view_run(workers):
    with forced_parallel_views(workers):
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
# Reporting and options
# --------------------------------------------------------------------------- #
def test_explain_reports_refresh_mode():
    with forced_parallel_views(2):
        engine = movies_engine(generate_movies(10, seed=3))
        engine.view("v", genre_selfjoin_query(), strategy="classic")
        plan = engine.explain("v")
        assert plan.parallel_apply == "threads(2)"
        assert plan.to_dict()["parallel_apply"] == "threads(2)"
        assert "refresh  : threads(2)" in plan.render()


def test_engine_kwargs_override_environment():
    with forced_parallel_views(3):
        engine = Engine(parallel_views=1)
        engine.dataset("R", bag_of(BASE), Bag(["a"]))
        assert engine.database.view_refresh_workers() == 1
        assert engine.database.refresh_mode() == "shared-snapshot inline"
    with pytest.raises(ValueError, match=">= 1"):
        Engine(parallel_views=0)
