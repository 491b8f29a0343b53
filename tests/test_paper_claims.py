"""The paper's quantitative claims, one cell each, as exact operation counts.

The source paper is a theory paper: its claims are asymptotic counts (§2.2's
``O(nd + d²)`` against ``Ω((n+d)²)``, Theorem 2's degree drop, Lemma 3's cost
bound, Theorem 9's constant cones), not timings.  Every cell below runs the
engine on a small deterministic instance, pins the counts it measures
exactly — so any change in the work a strategy does fails the cell — and
asserts the shape the claim predicts (what stays constant, what grows, who
wins).  The counts are independent of hash seed and execution backend; no cell
reads a clock.  They are the compiled pipeline's counts: the interpreter
(views built inside ``forced_interpretation()``) counts its work
differently.
"""

from __future__ import annotations

import pytest

from repro.bag import Bag
from repro.circuits import build_recompute_circuit, build_update_circuit
from repro.cost import CostContext, cost_of, tcost
from repro.delta import degree, delta
from repro.engine import Engine
from repro.instrument import OpCounter
from repro.ivm import Update
from repro.labels import Label
from repro.nrc import ast, builders as build, predicates as preds
from repro.nrc.evaluator import Environment, evaluate_bag
from repro.nrc.types import BASE, bag_of, tuple_of
from repro.shredding import ValueShredder, shred_query, unshred_bag
from repro.shredding.context import iter_context_dicts
from repro.shredding.shred_database import build_shredded_environment, input_dict_name
from repro.workloads import (
    MOVIE_SCHEMA,
    SHOWTIME_SCHEMA,
    bag_of_bags_engine,
    doz_query,
    generate_movies,
    generate_nested_bag,
    generate_showtimes,
    movie_update_stream,
    movies_engine,
    nested_bag_type,
    nested_update_stream,
    related_query,
)

#: One update stream seed for every instance size, so a count that the
#: claim says is independent of ``n`` is *equal* across sizes, not close.
STREAM_SEED = 1

M = ast.Relation("M", MOVIE_SCHEMA)
R = ast.Relation("R", bag_of(bag_of(BASE)))
DRAMAS = build.filter_query(M, preds.eq(preds.var_path("x", 1), preds.const("Drama")), "x")


def _movies_ops(query, strategy, size, batch):
    """Mean per-update operations of ``strategy`` vs naive re-evaluation."""
    engine = movies_engine(generate_movies(size))
    naive = engine.view("naive", query, strategy="naive")
    maintained = engine.view("maintained", query, strategy=strategy)
    engine.apply_stream(movie_update_stream(1, batch, seed=STREAM_SEED))
    return naive.stats.mean_update_operations, maintained.stats.mean_update_operations


# --------------------------------------------------------------------------- #
# E1 — §2.2: the nested `related` view, shredded IVM vs re-evaluation
# --------------------------------------------------------------------------- #
E1 = {30: (954, 138), 60: (2_486, 166)}


def test_e1_related_nested_ivm_vs_naive():
    measured = {n: _movies_ops(related_query(), "nested", n, batch=2) for n in E1}
    assert measured == E1
    speedups = [naive / nested for naive, nested in measured.values()]
    assert 1 < speedups[0] < speedups[1]  # the separation widens with n


# --------------------------------------------------------------------------- #
# E2 — Example 3 / Theorem 4: δ(filter_p)[R, ΔR] = filter_p[ΔR]
# --------------------------------------------------------------------------- #
E2 = {100: (129, 3), 400: (503, 3)}


def test_e2_filter_classic_ops_do_not_depend_on_n():
    measured = {n: _movies_ops(DRAMAS, "classic", n, batch=2) for n in E2}
    assert measured == E2
    (naive_small, classic_small), (naive_large, classic_large) = measured.values()
    assert classic_small == classic_large
    assert naive_large > 2 * naive_small


# --------------------------------------------------------------------------- #
# E3 — Example 4 / §4.1: recursive IVM of flatten(R) × flatten(R)
# --------------------------------------------------------------------------- #
E3 = {10: (1_188, 297, 240), 20: (4_158, 567, 450)}


def test_e3_selfjoin_recursive_le_classic_lt_naive():
    query = ast.Product((ast.Flatten(R), ast.Flatten(R)))
    measured = {}
    for n in E3:
        engine = bag_of_bags_engine(n, 3, seed=n)
        views = [engine.view(s, query, strategy=s) for s in ("naive", "classic", "recursive")]
        engine.apply_stream(nested_update_stream("R", 1, 1, 3, seed=STREAM_SEED))
        measured[n] = tuple(view.stats.mean_update_operations for view in views)
    assert measured == E3
    for naive, classic, recursive in measured.values():
        assert recursive <= classic < naive


# --------------------------------------------------------------------------- #
# E4 — Appendix A.1 / Example 8: the flat DOz join, classic IVM vs naive
# --------------------------------------------------------------------------- #
E4 = {100: (343, 15), 400: (1_337, 15)}


def _e4_engine(n):
    """Example 8's instance at scale ``n``: the first ``n // 10`` movies play
    in Oz, and the update adds two Oz showtimes of the first drama."""
    movies = generate_movies(n)
    flat_movies = Bag((name, genre) for name, genre, _ in movies.elements())
    oz = Bag((name, "Oz", "20:00") for name, _ in list(flat_movies.elements())[: n // 10])
    drama = min(name for name, genre in flat_movies.elements() if genre == "Drama")
    engine = Engine()
    engine.dataset("Mflat", bag_of(tuple_of(BASE, BASE)), flat_movies)
    engine.dataset("Sh", SHOWTIME_SCHEMA, generate_showtimes(movies).union(oz))
    return engine, Update(relations={"Sh": Bag((drama, "Oz", f"{18 + s}:00") for s in range(2))})


def test_e4_flat_join_classic_vs_naive():
    measured = {}
    for n in E4:
        engine, update = _e4_engine(n)
        views = [engine.view(s, doz_query(), strategy=s) for s in ("naive", "classic")]
        engine.apply(update)
        measured[n] = tuple(view.stats.mean_update_operations for view in views)
    assert measured == E4
    (naive_small, ivm_small), (naive_large, ivm_large) = measured.values()
    assert 0 < ivm_small == ivm_large < naive_small < naive_large


#: What the relational-algebra evaluator this NRC+ query replaced gave on the
#: E4 instances, before and after the update.
E4_DOZ = {
    100: ({"Movie000004": 1}, {"Movie000004": 3}),
    400: (
        {"Movie000004": 1, "Movie000011": 1, "Movie000022": 1, "Movie000037": 1},
        {"Movie000004": 3, "Movie000011": 1, "Movie000022": 1, "Movie000037": 1},
    ),
}


def test_e4_doz_equals_the_relational_algebra_result():
    for n, (before, after) in E4_DOZ.items():
        engine, update = _e4_engine(n)
        view = engine.view("doz", doz_query(), strategy="classic")
        assert dict(view.result().items()) == before
        engine.apply(update)
        assert dict(view.result().items()) == after
        assert view.result() == evaluate_bag(doz_query(), engine.database.environment())


# --------------------------------------------------------------------------- #
# E5 — §5.1 / Lemma 6 / Theorem 8: shredding round-trip and equivalence
# --------------------------------------------------------------------------- #
E5 = {1: 0, 2: 10, 3: 30}


def test_e5_shredding_labels_roundtrip_and_equivalence():
    labels = {}
    for depth in E5:
        bag_type = nested_bag_type(depth)
        value = generate_nested_bag(depth, 10, 2, seed=depth)
        flat, context = ValueShredder().shred_bag(value, bag_type.element)
        labels[depth] = sum(len(dictionary.support()) for _, dictionary in iter_context_dicts(context))
        assert unshred_bag(flat, bag_type.element, context) == value  # Lemma 6: u ∘ shred = id
        query = build.for_in("x", ast.Relation("R", bag_type), ast.SngVar("x"))
        direct = evaluate_bag(query, Environment(relations={"R": value}))
        environment = build_shredded_environment({"R": value}, {"R": bag_type})
        assert shred_query(query).evaluate_nested(environment) == direct  # Theorem 8
    assert labels == E5


# --------------------------------------------------------------------------- #
# E6 — §4.2 / Lemma 3: evaluation is O(tcost(C⟦h⟧))
# --------------------------------------------------------------------------- #
E6 = {
    "filter_p[M]": {20: (48, 60), 40: (96, 120)},
    "M × M": {20: (420, 2_400), 40: (1_640, 9_600)},
    "related^F[M]": {20: (120, 40), 40: (240, 80)},
}


def test_e6_measured_ops_and_tcost_per_n():
    measured = {}
    for n in (20, 40):
        movies = generate_movies(n)
        environment = Environment(relations={"M": movies})
        context = CostContext.from_instances(relations={"M": movies})
        shredded = build_shredded_environment({"M": movies}, {"M": MOVIE_SCHEMA})
        shredded_context = CostContext.from_instances(relations={"M__F": shredded.relations["M__F"]})
        for name, query, env, cost_context in (
            ("filter_p[M]", DRAMAS, environment, context),
            ("M × M", ast.Product((M, M)), environment, context),
            ("related^F[M]", shred_query(related_query()).flat, shredded, shredded_context),
        ):
            counter = OpCounter()
            evaluate_bag(query, env, counter)
            measured.setdefault(name, {})[n] = (counter.total(), tcost(cost_of(query, cost_context)))
    assert measured == E6
    for by_n in measured.values():
        # Lemma 3's constant: measured / predicted never grows with n.
        ratios = [ops / predicted for ops, predicted in by_n.values()]
        assert ratios == sorted(ratios, reverse=True)


# --------------------------------------------------------------------------- #
# E7 — Theorem 2: deg(δ(h)) = deg(h) − 1, so towers have height deg(h)
# --------------------------------------------------------------------------- #
def test_e7_iterated_delta_degrees_drop_by_one():
    for k in range(1, 5):
        query = ast.Flatten(R) if k == 1 else ast.Product((ast.Flatten(R),) * k)
        assert degree(query, ("R",)) == k
        levels = [query]
        for order in range(1, k + 1):
            levels.append(delta(levels[-1], ("R",), order=order))
        assert tuple(degree(level, ("R",)) for level in levels) == tuple(range(k, -1, -1))


# --------------------------------------------------------------------------- #
# E8 — §2.2 / §5.2: deep updates touch only their label definitions
# --------------------------------------------------------------------------- #
E8 = {20: (2, 1, 60), 80: (2, 1, 240), 320: (2, 1, 960)}


def test_e8_deep_update_ops_per_touched_label_do_not_depend_on_n():
    query = build.for_in("x", R, ast.SngVar("x"))
    name = input_dict_name("R", ())
    measured = {}
    inner = 3
    for n in E8:
        engine = bag_of_bags_engine(n, inner, seed=n)
        view = engine.view("groups", query, strategy="nested")
        dictionary = engine.database.shredded_environment().dictionaries[name]
        touched = sorted(dictionary.support(), key=Label.render)[:2]
        engine.apply(Update(deep={name: {label: Bag([f"deep-{i}"]) for i, label in enumerate(touched)}}))
        ivm_ops = view.stats.mean_update_operations
        measured[n] = (ivm_ops, ivm_ops / len(touched), view.result().cardinality() * inner)
    assert measured == E8
    ops_per_touched_label = {per_label for _, per_label, _ in measured.values()}
    rebuild_sizes = [rebuild for _, _, rebuild in measured.values()]
    assert len(ops_per_touched_label) == 1
    assert rebuild_sizes == sorted(set(rebuild_sizes))


# --------------------------------------------------------------------------- #
# E9 — §5.4 / Theorems 9 & 14: constant maintenance cones, growing recompute cones
# --------------------------------------------------------------------------- #
E9 = {4: (6, 12, 6, 10), 16: (6, 48, 6, 34), 64: (6, 192, 6, 130)}


def test_e9_update_cone_constant_recompute_cone_grows():
    k = 3
    measured = {}
    for slots in E9:
        update, recompute = build_update_circuit(slots, k), build_recompute_circuit(slots, k)
        measured[slots] = (update.max_cone_size(), recompute.max_cone_size(), update.depth(), recompute.depth())
    assert measured == E9
    update_cones = {update for update, _, _, _ in measured.values()}
    recompute_cones = [recompute for _, recompute, _, _ in measured.values()]
    assert update_cones == {2 * k}  # 2k bits, whatever the input size
    assert recompute_cones == sorted(set(recompute_cones))


# --------------------------------------------------------------------------- #
# E10 — §2.2 / Appendix A.2: the IVM advantage shrinks as d approaches n
# --------------------------------------------------------------------------- #
E10 = {3: (2_593, 278), 15: (3_523, 1_282), 60: (7_946, 5_844)}


def test_e10_speedup_falls_as_batch_approaches_n():
    measured = {d: _movies_ops(related_query(), "nested", 60, batch=d) for d in E10}
    assert measured == E10
    speedups = [naive / nested for naive, nested in measured.values()]
    assert speedups == sorted(set(speedups), reverse=True)
    assert speedups[-1] > 1
