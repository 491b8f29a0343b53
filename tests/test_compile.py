"""Differential tests: the compiled pipeline against the strict interpreter.

The interpreter (:mod:`repro.nrc.evaluator`) is the semantic reference; every
test here evaluates the same expression (or maintains the same view) both
ways and requires identical bags — including negative multiplicities, deep
updates and every maintenance strategy.
"""

import pytest

from repro.bag.bag import Bag, EMPTY_BAG
from repro.dictionaries import DictValue
from repro.engine import Engine
from repro.instrument import OpCounter
from repro.ivm import Update
from repro.labels import Label
from repro.nrc import ast
from repro.nrc import builders as build
from repro.nrc import predicates as preds
from repro.nrc.compile import (
    REPRO_NO_COMPILE,
    CompiledQuery,
    compilation_enabled,
    compile_expr,
    try_compile,
)
from repro.nrc.evaluator import Environment, evaluate, evaluate_bag
from repro.delta.rules import delta
from repro.errors import CompileError
from repro.nrc.types import BASE, bag_of
from repro.shredding.context import iter_context_dicts
from repro.shredding.shred_database import build_shredded_environment, input_dict_name
from repro.shredding.shred_query import shred_query
from repro.workloads import (
    MOVIE_SCHEMA,
    bag_of_bags_engine,
    generate_movies,
    genre_selfjoin_query,
    movie_update_stream,
    movies_engine,
    nested_update_stream,
    related_query,
)

MOVIES = generate_movies(60, seed=3)
MOVIE_ENV = Environment(relations={"M": MOVIES})
MOVIE_REL = ast.Relation("M", MOVIE_SCHEMA)

NESTED = Bag([Bag(["a", "b"]), Bag(["b", "c"]), Bag(["a"]), Bag([])])
NESTED_REL = ast.Relation("R", bag_of(bag_of(BASE)))
NESTED_ENV = Environment(relations={"R": NESTED})


def _assert_agree(expr, env):
    compiled = compile_expr(expr)
    assert compiled.evaluate_bag(env) == evaluate_bag(expr, env)


# --------------------------------------------------------------------------- #
# Expression-level equivalence
# --------------------------------------------------------------------------- #
class TestCompiledExpressions:
    def test_filter(self):
        query = build.filter_query(
            MOVIE_REL, preds.eq(preds.var_path("x", 1), preds.const("Drama")), "x"
        )
        _assert_agree(query, MOVIE_ENV)

    def test_genre_selfjoin_hash_join(self):
        _assert_agree(genre_selfjoin_query(), MOVIE_ENV)

    def test_join_with_disjunctive_guard_falls_back_to_loop(self):
        condition = preds.Or(
            (
                preds.eq(preds.var_path("m", 1), preds.var_path("m2", 1)),
                preds.eq(preds.var_path("m", 2), preds.var_path("m2", 2)),
            )
        )
        inner = build.for_in("m2", MOVIE_REL, build.proj("m2", 0), condition=condition)
        _assert_agree(ast.For("m", MOVIE_REL, inner), MOVIE_ENV)

    def test_constant_equality_guard(self):
        query = ast.For(
            "m",
            MOVIE_REL,
            build.where(
                preds.eq(preds.var_path("m", 1), preds.const("Drama")),
                build.proj("m", 0),
            ),
        )
        _assert_agree(query, MOVIE_ENV)

    def test_related_query_with_sng(self):
        _assert_agree(related_query(), MOVIE_ENV)

    def test_flatten_product_selfjoin(self):
        query = ast.Product((ast.Flatten(NESTED_REL), ast.Flatten(NESTED_REL)))
        _assert_agree(query, NESTED_ENV)

    def test_let_union_negate(self):
        query = ast.Let(
            "X",
            ast.Flatten(NESTED_REL),
            ast.Union((ast.BagVar("X"), ast.Negate(ast.BagVar("X")), ast.Flatten(NESTED_REL))),
        )
        _assert_agree(query, NESTED_ENV)

    def test_shadowed_variable(self):
        inner = ast.For("m", MOVIE_REL, build.proj("m", 1))
        query = ast.For("m", MOVIE_REL, ast.Union((build.proj("m", 0), inner)))
        _assert_agree(query, MOVIE_ENV)

    def test_delta_of_selfjoin_with_negative_multiplicities(self):
        delta_query = delta(genre_selfjoin_query(), ("M",))
        update = Bag.from_pairs(
            [
                (("Movie000001", "Drama", "Director1"), -1),
                (("Fresh", "Drama", "Director9"), 2),
                (("Gone", "Action", "Director2"), -3),
            ]
        )
        env = MOVIE_ENV.with_deltas({("M", 1): update})
        _assert_agree(delta_query, env)

    def test_empty_delta_produces_empty_change(self):
        delta_query = delta(genre_selfjoin_query(), ("M",))
        env = MOVIE_ENV.with_deltas({("M", 1): EMPTY_BAG})
        assert compile_expr(delta_query).evaluate_bag(env) == EMPTY_BAG

    def test_shredded_flat_and_dictionaries(self):
        shredded = shred_query(related_query())
        env = build_shredded_environment({"M": MOVIES}, {"M": MOVIE_SCHEMA})
        _assert_agree(shredded.flat, env)
        flat = evaluate_bag(shredded.flat, env)
        for _, expression in iter_context_dicts(shredded.context):
            compiled_dict = compile_expr(expression).evaluate(env)
            interpreted_dict = evaluate(expression, env)
            assert isinstance(compiled_dict, DictValue)
            for element in flat.elements():
                parts = element if isinstance(element, tuple) else (element,)
                for part in parts:
                    if isinstance(part, Label):
                        assert compiled_dict.lookup(part) == interpreted_dict.lookup(part)

    def test_free_element_variable_parameters(self):
        # A body with a free variable (as inside a dictionary definition).
        body = build.for_in(
            "m2",
            MOVIE_REL,
            build.proj("m2", 0),
            condition=preds.eq(preds.var_path("m", 1), preds.var_path("m2", 1)),
        )
        env = MOVIE_ENV.copy()
        env.elem_vars["m"] = ("Probe", "Drama", "Nobody")
        _assert_agree(body, env)

    def test_unbound_variable_raises(self):
        from repro.errors import UnboundVariableError

        with pytest.raises(UnboundVariableError):
            compile_expr(ast.SngVar("ghost")).evaluate_bag(Environment())

    def test_guard_binder_does_not_shadow_its_own_predicate(self):
        # Regression: a where-binder whose name collides with an enclosing
        # variable must not shadow it inside the guard predicate — the
        # predicate is the *source* of the binder and is evaluated before
        # the binding exists.
        from repro.nrc.types import BagType, tuple_of

        pairs = Bag([("k1", 0), ("k2", 0)])
        flat = Bag([("k1",)])
        env = Environment(relations={"S": pairs, "R": flat})
        # for y in S union (for x in R union
        #   (for y in Pred(x.0 == y.0) union sng(x)))
        s_node = ast.Relation("S", BagType(tuple_of(BASE, BASE)))
        r_node = ast.Relation("R", BagType(tuple_of(BASE)))
        guard = ast.For(
            "y",
            ast.Pred(preds.eq(preds.var_path("x", 0), preds.var_path("y", 0))),
            ast.SngVar("x"),
        )
        query = ast.For("y", s_node, ast.For("x", r_node, guard))
        _assert_agree(query, env)

    def test_hash_join_rejects_non_base_keys(self):
        # Regression: equality over compound values must raise exactly as
        # the interpreter's comparison rule does, never be hashed silently.
        from repro.errors import EvaluationError
        from repro.nrc.types import BagType, tuple_of

        compound = Bag([(("a", "b"), "x"), (("a", "b"), "y")])
        env = Environment(relations={"T": compound})
        t_node = ast.Relation("T", BagType(tuple_of(tuple_of(BASE, BASE), BASE)))
        inner = build.for_in(
            "u",
            t_node,
            build.proj("u", 1),
            condition=preds.eq(preds.var_path("t", 0), preds.var_path("u", 0)),
        )
        query = ast.For("t", t_node, inner)
        with pytest.raises(EvaluationError):
            evaluate_bag(query, env)
        with pytest.raises(EvaluationError):
            compile_expr(query).evaluate_bag(env)

    def test_hash_join_matches_interpreter_on_nan_keys(self):
        # Regression: NaN is not self-equal, so a dict-backed index must not
        # match it (dict lookup short-circuits on identity); the join falls
        # back to the faithful nested loop.
        from repro.nrc.types import BagType

        values = Bag([float("nan"), 1.0, 2.0])
        env = Environment(relations={"F": values})
        f_node = ast.Relation("F", BagType(BASE))
        inner = build.for_in(
            "y",
            f_node,
            build.tuple_bag(ast.SngVar("x"), ast.SngVar("y")),
            condition=preds.eq(preds.var_path("x"), preds.var_path("y")),
        )
        query = ast.For("x", f_node, inner)
        _assert_agree(query, env)

    def test_guard_rebinding_loop_var_disables_atom_classification(self):
        # Regression: once a guard binder rebinds the loop variable's name
        # (to the unit tuple), later equality conjuncts mentioning that name
        # no longer see the loop element and must not become hash atoms —
        # both paths raise here because () is not a base-comparable value.
        from repro.errors import EvaluationError
        from repro.nrc.types import BagType

        env = Environment(relations={"B": Bag(["a", "b"])})
        b_node = ast.Relation("B", BagType(BASE))
        query = ast.For(
            "x",
            b_node,
            ast.For(
                "x",
                ast.Pred(preds.TruePredicate()),
                ast.For(
                    "w",
                    ast.Pred(preds.eq(preds.var_path("x"), preds.const("a"))),
                    ast.SngUnit(),
                ),
            ),
        )
        with pytest.raises(EvaluationError):
            evaluate_bag(query, env)
        with pytest.raises(EvaluationError):
            compile_expr(query).evaluate_bag(env)

    def test_hash_join_respects_conjunct_short_circuit(self):
        # Regression: when an earlier conjunct is false for every pair, the
        # interpreter never evaluates a later non-base equality; hoisting it
        # into a hash key must not introduce an error — the join degrades to
        # the nested loop instead.
        from repro.nrc.types import BagType, tuple_of

        rows = Bag([("a", Bag(["g"]))])
        env = Environment(relations={"W": rows})
        w_node = ast.Relation("W", BagType(tuple_of(BASE, BASE)))
        condition = preds.And(
            (
                preds.ne(preds.var_path("x", 0), preds.var_path("y", 0)),
                preds.eq(preds.var_path("x", 1), preds.var_path("y", 1)),
            )
        )
        inner = build.for_in("y", w_node, build.proj("y", 0), condition=condition)
        query = ast.For("x", w_node, inner)
        assert evaluate_bag(query, env) == EMPTY_BAG
        assert compile_expr(query).evaluate_bag(env) == EMPTY_BAG

    def test_hash_join_build_degrades_when_a_key_fails_to_project(self):
        # Regression: a build-side element the key path cannot project (a
        # bag where a tuple belongs) poisons the build like an unhashable
        # key, so the loop twin raises — or not — in interpreter order.
        from repro.errors import UnboundVariableError
        from repro.nrc.types import BagType

        rows = Bag([("a", "b"), Bag(["q"])])
        s_node = ast.Relation("S", BagType(BASE))
        key = preds.eq(preds.const("a"), preds.var_path("x", 0))
        env = Environment(relations={"S": rows})
        short_circuited = build.for_in(
            "x", s_node, ast.SngVar("x"), preds.And((preds.eq(preds.const("a"), preds.const("b")), key))
        )
        assert evaluate_bag(short_circuited, env) == EMPTY_BAG
        assert compile_expr(short_circuited).evaluate_bag(env) == EMPTY_BAG
        unbound_first = build.for_in("x", s_node, ast.SngVar("ghost"), key)
        with pytest.raises(UnboundVariableError):
            evaluate_bag(unbound_first, env)
        with pytest.raises(UnboundVariableError):
            compile_expr(unbound_first).evaluate_bag(env)


# --------------------------------------------------------------------------- #
# Hash-join work reduction
# --------------------------------------------------------------------------- #
class TestHashJoinWork:
    def test_compiled_delta_does_less_work(self):
        movies = generate_movies(300, seed=11)
        env = Environment(relations={"M": movies})
        delta_query = delta(genre_selfjoin_query(), ("M",))
        update = Bag([("Fresh0", "Drama", "DirectorX"), ("Fresh1", "SciFi", "DirectorY")])
        delta_env = env.with_deltas({("M", 1): update})

        interpreted_counter = OpCounter()
        interpreted = evaluate_bag(delta_query, delta_env, interpreted_counter)
        compiled_counter = OpCounter()
        compiled = compile_expr(delta_query).evaluate_bag(delta_env, compiled_counter)

        assert compiled == interpreted
        # The nested-loop interpreter pays |M|·d predicate checks; the
        # hash-join pays one probe per outer tuple plus the matches, so the
        # loop/predicate work (the part the index removes) collapses.  The
        # emission work (elements actually produced) is identical by design.
        assert compiled_counter.total() < interpreted_counter.total()
        compiled_loop_work = compiled_counter.get("for_iterations") + compiled_counter.get(
            "predicate_checks"
        )
        interpreted_loop_work = interpreted_counter.get(
            "for_iterations"
        ) + interpreted_counter.get("predicate_checks")
        assert compiled_loop_work < interpreted_loop_work / 2
        assert compiled_counter.get("elements_emitted") == interpreted_counter.get(
            "elements_emitted"
        )

    def test_index_reused_across_probes(self):
        movies = generate_movies(100, seed=5)
        env = Environment(relations={"M": movies})
        counter = OpCounter()
        compile_expr(genre_selfjoin_query()).evaluate_bag(env, counter)
        # One build of the inner index, not one per outer tuple.
        assert counter.get("hash_build_entries") == 100
        assert counter.get("hash_probes") == 100


# --------------------------------------------------------------------------- #
# Escape hatch and fallback
# --------------------------------------------------------------------------- #
class TestEscapeHatch:
    def test_no_compile_env_disables_compilation(self, monkeypatch):
        monkeypatch.setenv(REPRO_NO_COMPILE, "1")
        assert not compilation_enabled()
        assert try_compile(ast.SngUnit()) is None

    def test_try_compile_returns_none_for_unknown_nodes(self):
        class Alien(ast.Expr):
            pass

        assert try_compile(Alien()) is None
        with pytest.raises(CompileError):
            compile_expr(Alien())

    def test_views_fall_back_to_interpreter(self, monkeypatch):
        monkeypatch.setenv(REPRO_NO_COMPILE, "1")
        engine = movies_engine(generate_movies(30))
        view = engine.view("join", genre_selfjoin_query(), strategy="classic")
        assert view.execution == "interpreted"
        assert engine.explain("join").execution == "interpreted"


# --------------------------------------------------------------------------- #
# Strategy-level differential maintenance
# --------------------------------------------------------------------------- #
def _maintained_results(strategy, query, stream, monkeypatch, interpreted):
    if interpreted:
        monkeypatch.setenv(REPRO_NO_COMPILE, "1")
    else:
        monkeypatch.delenv(REPRO_NO_COMPILE, raising=False)
    engine = movies_engine(generate_movies(40, seed=9))
    view = engine.view("v", query, strategy=strategy)
    results = []
    for update in stream:
        engine.apply(update)
        results.append(view.result())
    return view, results


@pytest.mark.parametrize("strategy", ["naive", "classic", "recursive", "nested"])
def test_strategies_agree_compiled_vs_interpreted(strategy, monkeypatch):
    query = related_query() if strategy == "nested" else genre_selfjoin_query()
    stream = list(
        movie_update_stream(
            4, 3, existing=generate_movies(40, seed=9), deletion_ratio=0.4, seed=17
        )
    )
    compiled_view, compiled = _maintained_results(strategy, query, stream, monkeypatch, False)
    interpreted_view, interpreted = _maintained_results(strategy, query, stream, monkeypatch, True)
    assert compiled_view.execution == "compiled"
    assert interpreted_view.execution == "interpreted"
    assert compiled == interpreted


@pytest.mark.parametrize("interpreted", [False, True])
def test_nested_strategy_handles_deep_updates(interpreted, monkeypatch):
    if interpreted:
        monkeypatch.setenv(REPRO_NO_COMPILE, "1")
    else:
        monkeypatch.delenv(REPRO_NO_COMPILE, raising=False)
    engine = bag_of_bags_engine(12, 3, seed=21)
    query = build.for_in("x", ast.Relation("R", bag_of(bag_of(BASE))), ast.SngVar("x"))
    view = engine.view("groups", query, strategy="nested")

    dict_name = input_dict_name("R", ())
    dictionary = engine.database.shredded_environment().dictionaries[dict_name]
    labels = sorted(dictionary.support(), key=lambda label: label.render())[:2]
    engine.apply(Update(deep={dict_name: {labels[0]: Bag(["deep-a"]), labels[1]: Bag(["deep-b"])}}))
    engine.apply_stream(nested_update_stream("R", 2, 1, 3, seed=5))

    # The maintained view must agree with direct re-evaluation of the query
    # over the post-update database, whichever execution mode ran.
    expected = evaluate_bag(query, engine.database.environment())
    assert view.result() == expected


def test_compiled_and_interpreted_selfjoin_ops_diverge_superlinearly(monkeypatch):
    """The compiled pipeline's per-update work stays near the match count."""
    stream = list(movie_update_stream(3, 4, seed=29))
    _, _ = _maintained_results("classic", genre_selfjoin_query(), stream, monkeypatch, False)
    monkeypatch.delenv(REPRO_NO_COMPILE, raising=False)
    engine_c = movies_engine(generate_movies(200, seed=9))
    compiled_view = engine_c.view("v", genre_selfjoin_query(), strategy="classic")
    monkeypatch.setenv(REPRO_NO_COMPILE, "1")
    engine_i = movies_engine(generate_movies(200, seed=9))
    interpreted_view = engine_i.view("v", genre_selfjoin_query(), strategy="classic")
    monkeypatch.delenv(REPRO_NO_COMPILE, raising=False)
    for update in stream:
        engine_c.apply(update)
        engine_i.apply(update)
    assert compiled_view.result() == interpreted_view.result()
    assert (
        compiled_view.stats.mean_update_operations
        < interpreted_view.stats.mean_update_operations / 2
    )


# --------------------------------------------------------------------------- #
# Explain / execution reporting
# --------------------------------------------------------------------------- #
class TestExecutionReporting:
    def test_plan_reports_compiled(self):
        engine = movies_engine(generate_movies(20))
        engine.view("join", genre_selfjoin_query(), strategy="classic")
        plan = engine.explain("join")
        assert plan.execution == "compiled"
        assert "execution: compiled" in plan.render()

    def test_handle_repr_mentions_execution(self):
        engine = movies_engine(generate_movies(10))
        handle = engine.view("join", genre_selfjoin_query(), strategy="classic")
        assert "execution=compiled" in repr(handle)

    def test_compiled_query_repr(self):
        compiled = compile_expr(genre_selfjoin_query())
        assert isinstance(compiled, CompiledQuery)
        assert "CompiledQuery" in repr(compiled)


# --------------------------------------------------------------------------- #
# Fused pipelines: generated expressions, differential against the interpreter
# --------------------------------------------------------------------------- #
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.nrc.compile as compile_module
from repro.errors import EvaluationError, NotInFragmentError, TypeCheckError
from repro.nrc.typecheck import infer_type
from repro.nrc.types import tuple_of

PAIR_T = bag_of(tuple_of(BASE, BASE))
GEN_RELATIONS = {"A": "pair", "B": "pair", "R": "bag"}

# One small domain for both positions, so cross-position equalities match.
_keys = _vals = st.sampled_from("abc")
_mults = st.sampled_from([-2, -1, 1, 1, 2])
_pair_bags = st.dictionaries(
    st.tuples(_keys, _vals), _mults, min_size=1, max_size=6
).map(Bag.from_mapping)
_inner = st.lists(st.sampled_from("pq"), max_size=2).map(Bag)
_nested_bags = st.dictionaries(_inner, _mults, max_size=3).map(Bag.from_mapping)
# Join keys hashing cannot match faithfully: NaN and a compound value.
_odd_pair_bags = st.dictionaries(
    st.tuples(st.sampled_from(["a", float("nan"), ("a", "b")]), _vals), _mults, max_size=3
).map(Bag.from_mapping)


@st.composite
def _environments(draw, pairs=_pair_bags):
    relations = {"A": draw(pairs), "B": draw(pairs), "R": draw(_nested_bags)}
    deltas = {("A", 1): draw(pairs), ("B", 1): draw(pairs), ("R", 1): draw(_nested_bags)}
    env = Environment(relations=relations, deltas=deltas)
    env.elem_vars["free"] = draw(st.tuples(_keys, _vals))
    return env


@st.composite
def _predicates(draw, scope):
    """A predicate over the pair-shaped variables in scope (or ``free``)."""
    pair_vars = [name for name, shape in scope.items() if shape == "pair"] + ["free"]

    def operand(positions):
        if draw(st.integers(0, 4)) == 0:
            return preds.const(draw(st.sampled_from("abc")))
        return preds.var_path(draw(st.sampled_from(pair_vars)), draw(st.sampled_from(positions)))

    def comparison():
        op = draw(st.sampled_from(["==", "==", "!=", "<"]))
        return preds.Comparison(op, operand((0, 1)), operand((0, 1)))

    terms = tuple(comparison() for _ in range(draw(st.integers(1, 2))))
    if len(terms) == 1:
        return terms[0]
    return draw(st.sampled_from([preds.And, preds.Or]))(terms)


@st.composite
def _bag_exprs(draw, depth=3, scope=None, bag_vars=None):
    """A bag-typed NRC+ expression and the shape of its elements.

    Binder names come from a pool of two, so shadowing is the norm; ``let``
    bounds, hoistable loop-invariant sub-expressions and negations land
    inside loop bodies.  One draw in a few takes an ill-shaped turn (a
    projection off the end, ``flatten`` of non-bags, an unbound name) so the
    error paths are compared too.
    """
    scope = dict(scope or {})
    bag_vars = dict(bag_vars or {})
    recurse = lambda **kw: draw(  # noqa: E731
        _bag_exprs(
            depth=depth - 1,
            scope=kw.get("scope", scope),
            bag_vars=kw.get("bag_vars", bag_vars),
        )
    )
    leaves = ["relation"] * 4 + ["delta"] * 3 + ["empty", "unit"]
    if scope:
        leaves += ["var"] * 3 + ["proj"] * 6
    if bag_vars:
        leaves += ["bagvar"] * 3
    inner = ["join"] * 8 + ["for"] * 4 + ["where"] * 6 + ["union"] * 3
    inner += ["negate", "product", "product", "flatten", "sng", "let", "let", "pred"]
    if depth <= 0:
        kind = draw(st.sampled_from(leaves))
    elif draw(st.integers(0, 149)) == 0:
        kind = "ghost"
    else:
        kind = draw(st.sampled_from(leaves + inner * 3))
    if kind in ("relation", "delta"):
        name = draw(st.sampled_from(sorted(GEN_RELATIONS)))
        schema = PAIR_T if GEN_RELATIONS[name] == "pair" else bag_of(bag_of(BASE))
        node = ast.Relation(name, schema) if kind == "relation" else ast.DeltaRelation(name, schema, 1)
        return node, GEN_RELATIONS[name]
    if kind == "empty":
        return ast.Empty(), "pair"
    if kind == "unit":
        return ast.SngUnit(), "unit"
    if kind == "var":
        name = draw(st.sampled_from(sorted(scope)))
        return ast.SngVar(name), scope[name]
    if kind == "proj":
        name = draw(st.sampled_from(sorted(scope)))
        limit = 1 if scope[name] == "pair" else 0
        index = draw(st.sampled_from([0] * 15 + [limit] * 15 + [2]))  # 2 runs off the end
        return ast.SngProj(name, (index,)), "base"
    if kind == "bagvar":
        name = draw(st.sampled_from(sorted(bag_vars)))
        return ast.BagVar(name), bag_vars[name]
    if kind == "ghost":
        return draw(st.sampled_from([ast.SngVar("ghost"), ast.BagVar("Ghost")])), "base"
    if kind == "pred":
        return ast.Pred(draw(_predicates(scope))), "unit"
    if kind == "join":
        # The canonical equi-join: a pair-shaped probe side, a pair-shaped
        # build side (a relation, an update, or a let-bound bag) and an
        # equality between them, in either operand order, maybe with more.
        def side():
            name = draw(st.sampled_from(["A", "A", "B"]))
            return draw(
                st.sampled_from(
                    [ast.Relation(name, PAIR_T), ast.DeltaRelation(name, PAIR_T, 1)]
                    + [ast.BagVar(var) for var, shape in bag_vars.items() if shape == "pair"]
                )
            )

        outer, build_var = draw(st.sampled_from([("x", "y"), ("y", "x"), ("x", "x")]))
        inner_scope = {**scope, outer: "pair", build_var: "pair"}
        probe = preds.var_path(outer if outer != build_var else "free", draw(st.integers(0, 1)))
        key = preds.var_path(build_var, draw(st.integers(0, 1)))
        equality = preds.eq(*draw(st.permutations([probe, key])))
        extra = draw(st.one_of(st.none(), _predicates(inner_scope)))
        condition = equality if extra is None else preds.And(
            tuple(draw(st.permutations([equality, extra])))
        )
        body, body_shape = recurse(scope=inner_scope)
        joined = build.for_in(build_var, side(), body, condition=condition)
        return build.for_in(outer, side(), joined), body_shape
    if kind in ("for", "where"):
        source, shape = recurse()
        var = draw(st.sampled_from(["x", "y"]))
        inner_scope = {**scope, var: shape}
        body, body_shape = recurse(scope=inner_scope)
        condition = draw(_predicates(inner_scope)) if kind == "where" else None
        return build.for_in(var, source, body, condition=condition), body_shape
    if kind == "union":
        left, shape = recurse()
        right, _ = recurse()
        return ast.Union((left, right)), shape
    if kind == "negate":
        body, shape = recurse()
        return ast.Negate(body), shape
    if kind == "product":
        left, _ = recurse()
        right, _ = recurse()
        return ast.Product((left, right)), "pair"
    if kind == "flatten":
        body, shape = recurse()
        return ast.Flatten(body), "base"
    if kind == "sng":
        body, _ = recurse()
        return ast.Sng(body), "bag"
    assert kind == "let"
    bound, shape = recurse()
    name = draw(st.sampled_from(["X", "Y"]))
    body, body_shape = recurse(bag_vars={**bag_vars, name: shape})
    return ast.Let(name, bound, body), body_shape


def _outcome(thunk):
    try:
        return thunk()
    except EvaluationError as error:  # UnboundVariableError included
        return type(error)


def _well_typed(expr):
    try:
        infer_type(expr, pi={"free": PAIR_T.element})
    except TypeCheckError:
        return False
    return True


def _literal_plan(expr):
    """``expr`` compiled in its literal binder order (no Δ-first rewrite)."""
    with mock.patch.object(compile_module, "_delta_first", lambda literal: literal):
        return compile_expr(expr)


def _coarse(outcome):
    """An ``_outcome`` at the ill-typed caveat's level: the bag, or an error."""
    return outcome if isinstance(outcome, Bag) else EvaluationError


def _assert_delta_outcome(expr, env):
    """Compiled ≡ interpreted, error class included, on well-typed input.

    On input the type checker rejects, ``repro.nrc.compile``'s caveat
    applies, and only at the Bag-or-``EvaluationError`` level.  Each
    divergence it documents has a reference that reproduces it, and the
    compiled outcome must match one of them, so a raise-vs-bag split no
    caveat explains still fails:

    * the interpreter itself (no divergence);
    * the literal-order plan — a hash-join skips conjuncts on pairs its
      index excludes, in either binder order;
    * the interpreter over the Δ-first expression — walking the update
      source first decides which source errors first, or whether a source
      is evaluated at all.
    """
    compiled = _outcome(lambda: compile_expr(expr).evaluate_bag(env))
    interpreted = _outcome(lambda: evaluate_bag(expr, env))
    if _well_typed(expr):
        assert compiled == interpreted
        return
    references = [
        _coarse(interpreted),
        _coarse(_outcome(lambda: _literal_plan(expr).evaluate_bag(env))),
        _coarse(_outcome(lambda: evaluate_bag(compile_module._delta_first(expr), env))),
    ]
    assert _coarse(compiled) in references


def _pinned_environment(relations, updates, free):
    env = Environment(
        relations={"A": EMPTY_BAG, "B": EMPTY_BAG, "R": EMPTY_BAG, **relations},
        deltas={(name, 1): bag for name, bag in updates.items()},
    )
    env.elem_vars["free"] = free
    return env


_GEN_A, _GEN_R = ast.Relation("A", PAIR_T), ast.Relation("R", bag_of(bag_of(BASE)))
_A_KEY = preds.eq(preds.const("a"), preds.var_path("x", 0))


class TestFusedPipelineDifferential:
    @settings(max_examples=300, deadline=None)
    @given(_bag_exprs(), _environments())
    def test_generated_expressions_agree(self, generated, env):
        expr, _ = generated
        compiled = compile_expr(expr)
        assert _outcome(lambda: compiled.evaluate_bag(env)) == _outcome(
            lambda: evaluate_bag(expr, env)
        )

    @settings(max_examples=200, deadline=None)
    @given(_bag_exprs(), _environments())
    # Two ill-typed expressions shrunk from a seed sweep, on environments
    # that make them fail deterministically under an exact comparison.
    # δ = for x in ΔA ⊎ ΔR where 'a' == x.0: sng(ghost) — the interpreter
    # raises UnboundVariableError at ΔA's row; the hash-join build must
    # degrade on ΔR's bag, not raise EvaluationError projecting it.
    @example(
        (build.for_in("x", ast.Union((_GEN_A, _GEN_R)), ast.SngVar("ghost"), _A_KEY), "base"),
        _pinned_environment({}, {"A": Bag([("a", "b")]), "R": Bag([Bag(["q"])])}, ("a", "b")),
    )
    # The interpreter raises comparing 'a' with y.0 of y = ΔA, a bag; the
    # compiled join's index on free.0 == x.0 excludes every pair first.
    @example(
        (
            ast.For(
                "y",
                ast.Union((_GEN_A, ast.Sng(ast.DeltaRelation("A", PAIR_T, 1)))),
                ast.For(
                    "x",
                    _GEN_A,
                    build.for_in(
                        "x",
                        _GEN_A,
                        ast.SngVar("ghost"),
                        preds.And(
                            (
                                preds.eq(preds.const("a"), preds.var_path("y", 0)),
                                preds.eq(preds.var_path("free", 0), preds.var_path("x", 0)),
                            )
                        ),
                    ),
                ),
            ),
            "base",
        ),
        _pinned_environment(
            {"A": Bag.from_pairs([(("b", "c"), -2)])},
            {"A": Bag.from_pairs([(("b", "c"), -2)])},
            ("a", "a"),
        ),
    )
    def test_generated_deltas_agree(self, generated, env):
        # Negative multiplicities in relations *and* updates: entries cancel
        # inside the fused delta pipeline, not in a final normalisation pass.
        expr, _ = generated
        try:
            delta_expr = delta(expr, ("A", "B", "R"))
        except NotInFragmentError:
            return  # sng over an updated relation: maintained by shredding
        _assert_delta_outcome(delta_expr, env)

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(["A", "B"]),
        st.sampled_from(["A", "B"]),
        st.booleans(),
        st.integers(0, 1),
        st.integers(0, 1),
        _environments(st.one_of(_pair_bags, _odd_pair_bags)),
    )
    def test_joins_over_unhashable_keys_agree(self, probe, built, updated, left, right, env):
        # NaN and compound key values: the hash-join must degrade to its
        # nested-loop twin and raise (or not) exactly where the interpreter
        # does.  The equality is the guard's only conjunct — an *additional*
        # ill-typed conjunct falls under the module's documented caveat.
        build_side = ast.DeltaRelation(built, PAIR_T, 1) if updated else ast.Relation(built, PAIR_T)
        condition = preds.eq(preds.var_path("x", left), preds.var_path("y", right))
        inner = build.for_in(
            "y", build_side, build.tuple_bag(build.proj("x", 1), build.proj("y", 1)), condition
        )
        query = ast.For("x", ast.Relation(probe, PAIR_T), inner)
        compiled = compile_expr(query)
        assert _outcome(lambda: compiled.evaluate_bag(env)) == _outcome(
            lambda: evaluate_bag(query, env)
        )

    def test_cancellation_inside_one_pipeline(self):
        # +1 and -1 copies of the same output meet in the accumulator of a
        # single fused loop nest; the result must hold no zero entry.
        rows = Bag.from_pairs([(("a", "x"), 1), (("a", "y"), -1)])
        env = Environment(relations={"A": rows})
        a_node = ast.Relation("A", PAIR_T)
        query = ast.For("x", a_node, ast.Union((build.proj("x", 0), ast.Negate(build.proj("x", 0)))))
        result = compile_expr(query).evaluate_bag(env)
        assert result == evaluate_bag(query, env) == EMPTY_BAG
        projection = ast.For("x", a_node, build.proj("x", 0))
        assert compile_expr(projection).evaluate_bag(env).as_dict() == {}

    def test_empty_delta_selfjoin_walks_nothing(self):
        # for m in M: for m2 in ΔM …: with ΔM empty the build side of every
        # delta term is empty, so no loop may walk M against it.
        movies = generate_movies(200, seed=4)
        delta_query = delta(genre_selfjoin_query(), ("M",))
        env = Environment(relations={"M": movies}, deltas={("M", 1): EMPTY_BAG})
        counter = OpCounter()
        assert compile_expr(delta_query).evaluate_bag(env, counter) == EMPTY_BAG
        assert counter.get("for_iterations") == 0
        assert counter.get("hash_probes") == 0


# --------------------------------------------------------------------------- #
# Delta-first binder order
# --------------------------------------------------------------------------- #
def _churn(movies):
    """A 4-row update: two fresh rows in, two live rows out."""
    live = sorted(element for element, _ in movies.items())[:2]
    fresh = [(("Fresh0", "Drama", "DirectorX"), 1), (("Fresh1", "SciFi", "DirectorY"), 1)]
    return Bag.from_pairs(fresh + [(row, -1) for row in live])


class TestDeltaFirstOrder:
    @pytest.mark.parametrize("size", [1000, 8000])
    def test_selfjoin_delta_cost_follows_the_update(self, size):
        # δ(self-join)'s middle term `for m in M: for m2 in ΔM …` walks ΔM
        # and probes an index over M: 3 terms × 4 probes, whatever |M|.
        movies = generate_movies(size, seed=13)
        update = _churn(movies)
        delta_query = delta(genre_selfjoin_query(), ("M",))
        env = Environment(relations={"M": movies}, deltas={("M", 1): update})
        swapped, literal = OpCounter(), OpCounter()
        result = compile_expr(delta_query).evaluate_bag(env, swapped)
        assert result == _literal_plan(delta_query).evaluate_bag(env, literal)
        assert result == evaluate_bag(delta_query, env)
        assert swapped.get("hash_probes") == 3 * len(update) == 12
        assert literal.get("hash_probes") == size + 2 * len(update)
        assert literal.get("for_iterations") - swapped.get("for_iterations") == size - len(update)
        # Both M-side sites share one per-evaluation build (no persistent
        # index behind a plain Environment); ΔM's is the third term's.
        assert swapped.get("hash_build_entries") == size + len(update)

    @pytest.mark.parametrize("strategy", ["classic", "recursive"])
    def test_selfjoin_views_probe_the_existing_index(self, strategy):
        engine = movies_engine(generate_movies(300, seed=9))
        handle = engine.view("v", genre_selfjoin_query(), strategy=strategy)
        assert handle.view.index_requirements() == (
            compile_module.IndexRequirement("M", ((1,),)),
        )
        index = lambda: next(entry for entry in handle.indexes() if entry["registered"])  # noqa: E731
        before = index()
        movies = engine.database.environment().relations["M"]
        engine.apply({"M": _churn(movies).as_dict()})
        # Two terms probe M's persistent index once per update row each, and
        # neither falls back to a per-evaluation build.
        assert index()["hits"] - before["hits"] == 2 * 4
        assert index()["rebuilds"] == before["rebuilds"]
        assert handle.result() == evaluate_bag(
            genre_selfjoin_query(), engine.database.environment()
        )

    def test_two_relation_join_delta_indexes_both_sides(self):
        # The cost of the swap for a join of two different relations: the
        # `A × ΔB` term now probes an index over A instead of building one
        # over ΔB per evaluation, so δ needs a persistent index on each side.
        a, b = ast.Relation("A", PAIR_T), ast.Relation("B", PAIR_T)
        condition = preds.eq(preds.var_path("x", 1), preds.var_path("y", 0))
        pair = build.tuple_bag(ast.SngVar("x"), ast.SngVar("y"))
        query = build.for_in("x", a, build.for_in("y", b, pair, condition=condition))
        delta_query = delta(query, ("A", "B"))
        required = compile_module.IndexRequirement
        assert compile_expr(query).index_requirements == (required("B", ((0,),)),)
        assert _literal_plan(delta_query).index_requirements == (required("B", ((0,),)),)
        assert compile_expr(delta_query).index_requirements == (
            required("B", ((0,),)),
            required("A", ((1,),)),
        )


_JOIN_SIDES = [ast.Relation(name, PAIR_T) for name in "AB"] + [
    ast.DeltaRelation(name, PAIR_T, order) for name in "AB" for order in (1, 2)
]


@st.composite
def _two_binder_joins(draw):
    """``for a in S union for b in T union (for g in p(a, b) union ⟨a, b⟩)``.

    ``p`` holds an equality between ``a`` and ``b`` (either orientation, key
    positions 0 or 1 — NaN and compound keys live at position 0) plus up to
    two more conjuncts over position 1, which is always a base value:
    constants and residual comparisons.  ``a == b`` must not swap; the guard
    binder may rebind either name.
    """
    source, target = draw(st.sampled_from(_JOIN_SIDES)), draw(st.sampled_from(_JOIN_SIDES))
    outer, inner = draw(st.sampled_from([("x", "y"), ("y", "x"), ("x", "x")]))
    positions = (1,) if outer == inner else (0, 1)
    equality = preds.eq(
        *draw(
            st.permutations(
                [
                    preds.var_path(outer, draw(st.sampled_from(positions))),
                    preds.var_path(inner, draw(st.sampled_from(positions))),
                ]
            )
        )
    )

    def extra():
        var = preds.var_path(draw(st.sampled_from([outer, inner])), 1)
        if draw(st.booleans()):
            return preds.eq(*draw(st.permutations([var, preds.const(draw(_vals))])))
        other = preds.var_path(draw(st.sampled_from([outer, inner])), 1)
        return preds.Comparison(draw(st.sampled_from(["!=", "<"])), var, other)

    extras = [extra() for _ in range(draw(st.integers(0, 2)))]
    conjuncts = draw(st.permutations([equality] + extras))
    condition = conjuncts[0] if len(conjuncts) == 1 else preds.And(tuple(conjuncts))
    guard = draw(st.sampled_from(["x", "y", "_w"]))
    pair = build.tuple_bag(ast.SngVar(outer), ast.SngVar(inner))
    return ast.For(outer, source, ast.For(inner, target, ast.For(guard, ast.Pred(condition), pair)))


@st.composite
def _join_environments(draw):
    """``(clean, env)``: a clean environment's bags are non-empty, base-keyed."""
    clean = draw(st.booleans())
    pairs = _pair_bags if clean else st.one_of(_pair_bags, _odd_pair_bags)
    return clean, Environment(
        relations={"A": draw(pairs), "B": draw(pairs)},
        deltas={(name, order): draw(pairs) for name in "AB" for order in (1, 2)},
    )


class TestDeltaFirstDifferential:
    @settings(max_examples=300, deadline=None)
    @given(_two_binder_joins(), _join_environments())
    def test_swapped_joins_agree(self, query, drawn):
        clean, env = drawn
        swapped, literal = OpCounter(), OpCounter()
        outcome = _outcome(lambda: compile_expr(query).evaluate_bag(env, swapped))
        assert outcome == _outcome(lambda: evaluate_bag(query, env))
        assert outcome == _outcome(lambda: _literal_plan(query).evaluate_bag(env, literal))
        if not clean:
            return
        # Every bag is non-empty with base keys: each plan probes once per
        # element of the loop it walks outermost.
        source, target = query.source, query.body.source
        legal = (
            query.var != query.body.var
            and isinstance(target, ast.DeltaRelation)
            and not isinstance(source, ast.DeltaRelation)
        )
        if legal:
            assert swapped.get("hash_probes") == len(evaluate_bag(target, env))
            assert literal.get("hash_probes") == len(evaluate_bag(source, env))
        else:
            assert swapped.as_dict() == literal.as_dict()
