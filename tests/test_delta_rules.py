"""Tests for the delta transformation (Figure 4) and Proposition 4.1.

Besides rule-by-rule checks, the key correctness statement
``h[R ⊎ ΔR] = h[R] ⊎ δ(h)[R, ΔR]`` is verified on concrete instances for
every construct of IncNRC+.
"""

import pytest

from repro.bag import Bag, EMPTY_BAG
from repro.delta import delta, delta_var_name, depends_on
from repro.errors import NotInFragmentError
from repro.nrc import ast, builders as build, predicates as preds
from repro.nrc.evaluator import Environment, evaluate_bag
from repro.nrc.pretty import render
from repro.nrc.types import BASE, bag_of, tuple_of

MOVIE = tuple_of(BASE, BASE, BASE)
M = ast.Relation("M", bag_of(MOVIE))
NESTED = bag_of(bag_of(BASE))
R = ast.Relation("R", NESTED)


def check_proposition_4_1(query, relations, update_bags, targets=None, bag_vars=None):
    """h[R ⊎ ΔR] == h[R] ⊎ δ(h)[R, ΔR] on concrete instances.

    ``bag_vars`` binds free bag variables; the update never touches them.
    """
    delta_query = delta(query, targets)
    old_env = Environment(relations=relations, bag_vars=bag_vars)
    updated_relations = dict(relations)
    for name, update in update_bags.items():
        updated_relations[name] = updated_relations[name].union(update)
    new_env = Environment(relations=updated_relations, bag_vars=bag_vars)
    delta_env = Environment(
        relations=relations,
        deltas={(name, 1): bag for name, bag in update_bags.items()},
        bag_vars=bag_vars,
    )
    direct = evaluate_bag(query, new_env)
    incremental = evaluate_bag(query, old_env).union(evaluate_bag(delta_query, delta_env))
    assert direct == incremental
    return delta_query


class TestDeltaRules:
    def test_delta_of_relation_is_the_update_symbol(self):
        assert delta(M, ["M"]) == ast.DeltaRelation("M", bag_of(MOVIE), 1)

    def test_delta_of_untouched_relation_is_empty(self):
        assert delta(M, ["S"]) == ast.Empty()

    def test_delta_of_input_independent_constructs_is_empty(self):
        for expr in (ast.SngUnit(), ast.Empty(), ast.SngVar("x"), ast.SngProj("x", (0,))):
            assert delta(expr, ["M"]) == ast.Empty()

    def test_delta_of_filter_matches_example_3(self):
        query = build.filter_query(M, preds.eq(preds.var_path("x", 1), preds.const("Drama")), "x")
        result = delta(query, ["M"])
        assert render(result) == "for x in ΔM where x.1 == 'Drama' union sng(x)"

    def test_delta_of_product_has_three_terms(self):
        query = ast.Product((ast.Flatten(R), ast.Flatten(R)))
        result = delta(query, ["R"], auto_simplify=True)
        assert isinstance(result, ast.Union)
        assert len(result.terms) == 3

    def test_delta_of_union_distributes(self):
        query = ast.Union((M, M))
        result = delta(query, ["M"])
        assert result == ast.Union(
            (
                ast.DeltaRelation("M", bag_of(MOVIE), 1),
                ast.DeltaRelation("M", bag_of(MOVIE), 1),
            )
        )

    def test_delta_of_negate_and_flatten_commute(self):
        assert delta(ast.Negate(M), ["M"]) == ast.Negate(ast.DeltaRelation("M", bag_of(MOVIE), 1))
        assert delta(ast.Flatten(R), ["R"]) == ast.Flatten(ast.DeltaRelation("R", NESTED, 1))

    def test_delta_of_unrestricted_sng_is_rejected(self, related):
        with pytest.raises(NotInFragmentError):
            delta(related, ["M"])

    def test_delta_of_sng_star_is_empty(self):
        query = ast.For("m", M, ast.Sng(ast.SngProj("m", (0,))))
        result = delta(query, ["M"])
        # Only the source changes; the sng* body contributes nothing.
        assert render(result) == "for m in ΔM union sng(sng(π_0(m)))"

    def test_delta_order_controls_symbols(self):
        assert delta(M, ["M"], order=3) == ast.DeltaRelation("M", bag_of(MOVIE), 3)
        with pytest.raises(ValueError):
            delta(M, ["M"], order=0)

    def test_delta_var_name(self):
        assert delta_var_name("X") == "ΔX"
        assert delta_var_name("X", 2) == "Δ2X"

    def test_depends_on_tracks_let_bindings(self):
        expr = ast.Let("X", M, ast.BagVar("X"))
        assert depends_on(expr, frozenset({"M"}))
        assert not depends_on(expr, frozenset({"S"}))

    def test_free_bag_var_named_like_a_target_is_not_the_target(self):
        assert not depends_on(ast.BagVar("M"), frozenset({"M"}))
        query = ast.Product((M, ast.BagVar("M")))
        assert delta(query, ["M"]) == ast.Product(
            (ast.DeltaRelation("M", bag_of(MOVIE), 1), ast.BagVar("M"))
        )

    def test_delta_of_dict_singleton_differentiates_body(self):
        body = ast.For("m2", M, ast.SngProj("m2", (0,)))
        dictionary = ast.DictSingleton("ι", ("m",), body)
        result = delta(dictionary, ["M"])
        assert isinstance(result, ast.DictSingleton)
        assert "ΔM" in render(result)

    def test_delta_of_dict_var(self):
        dictionary = ast.DictVar("D", bag_of(BASE))
        assert delta(dictionary, ["D"]) == ast.DeltaDictVar("D", bag_of(BASE), 1)
        assert delta(dictionary, ["M"]) == ast.DictEmpty()

    def test_delta_of_dict_lookup(self):
        lookup = ast.DictLookup(ast.DictVar("D", bag_of(BASE)), "l")
        result = delta(lookup, ["D"])
        assert result == ast.DictLookup(ast.DeltaDictVar("D", bag_of(BASE), 1), "l")


class TestProposition41:
    """Concrete-instance checks of h[R ⊎ ΔR] = h[R] ⊎ δ(h)[R, ΔR]."""

    movies = Bag([("Drive", "Drama", "Refn"), ("Skyfall", "Action", "Mendes")])
    movie_update = Bag([("Jarhead", "Drama", "Mendes"), ("Rush", "Action", "Howard")])
    movie_deletion = Bag.from_pairs([(("Drive", "Drama", "Refn"), -1)])
    nested = Bag([Bag(["a", "b"]), Bag(["c"])])
    nested_update = Bag([Bag(["d"])])

    def test_filter(self):
        query = build.filter_query(M, preds.eq(preds.var_path("x", 1), preds.const("Drama")), "x")
        check_proposition_4_1(query, {"M": self.movies}, {"M": self.movie_update})

    def test_filter_with_deletion(self):
        query = build.filter_query(M, preds.eq(preds.var_path("x", 1), preds.const("Drama")), "x")
        check_proposition_4_1(query, {"M": self.movies}, {"M": self.movie_deletion})

    def test_projection(self):
        query = ast.For("m", M, ast.SngProj("m", (0,)))
        check_proposition_4_1(query, {"M": self.movies}, {"M": self.movie_update})

    def test_self_product(self):
        query = ast.Product((M, M))
        check_proposition_4_1(query, {"M": self.movies}, {"M": self.movie_update})

    def test_flatten(self):
        query = ast.Flatten(R)
        check_proposition_4_1(query, {"R": self.nested}, {"R": self.nested_update})

    def test_selfjoin_on_flattened_bags(self, selfjoin_query):
        check_proposition_4_1(selfjoin_query, {"R": self.nested}, {"R": self.nested_update})

    def test_union_and_negate(self):
        query = ast.Union((M, ast.Negate(M)))
        check_proposition_4_1(query, {"M": self.movies}, {"M": self.movie_update})

    def test_nested_for_join(self):
        predicate = preds.eq(preds.var_path("m", 1), preds.var_path("m2", 1))
        inner = build.for_in("m2", M, build.proj("m2", 0), condition=predicate)
        query = ast.For("m", M, inner)
        check_proposition_4_1(query, {"M": self.movies}, {"M": self.movie_update})

    def test_let_binding(self):
        query = ast.Let("X", M, ast.Product((ast.BagVar("X"), ast.BagVar("X"))))
        check_proposition_4_1(query, {"M": self.movies}, {"M": self.movie_update})

    @pytest.mark.parametrize(
        "body",
        [
            # The inner binder shadows X and refers to the outer X: the
            # minimal shape on which delta() did not return.
            ast.Let("X", ast.Product((ast.BagVar("X"), ast.BagVar("X"))), ast.BagVar("X")),
            # Shadowing, linear: returned, with ΔX counted twice.
            ast.Let("X", ast.Union((ast.BagVar("X"), ast.BagVar("X"))), ast.BagVar("X")),
            # No shadowing at all: a dependent let under a dependent let
            # with a non-linear body did not return either.
            ast.Let("Y", ast.BagVar("X"), ast.Product((ast.BagVar("Y"), ast.BagVar("X")))),
            # An inner binder whose bound ignores the update hides X.
            ast.Let("X", ast.Relation("S", bag_of(MOVIE)), ast.BagVar("X")),
        ],
        ids=["shadow-selfproduct", "shadow-selfunion", "nested-product", "shadow-constant"],
    )
    def test_let_under_let(self, body):
        check_proposition_4_1(
            ast.Let("X", M, body),
            {"M": self.movies, "S": self.movies},
            {"M": self.movie_update.union(self.movie_deletion)},
        )

    def test_multi_relation_update(self):
        other = ast.Relation("S", bag_of(MOVIE))
        query = ast.Product((M, other))
        check_proposition_4_1(
            query,
            {"M": self.movies, "S": self.movies},
            {"M": self.movie_update, "S": self.movie_deletion},
        )

    def test_only_some_relations_updated(self):
        other = ast.Relation("S", bag_of(MOVIE))
        query = ast.Product((M, other))
        check_proposition_4_1(
            query,
            {"M": self.movies, "S": self.movies},
            {"M": self.movie_update},
            targets=["M"],
        )

    def test_free_bag_var_named_like_a_target(self):
        # The free bag variable M shares the target's name but is an input
        # the update leaves alone: δ must not turn it into an unbound ΔM.
        check_proposition_4_1(
            ast.Product((M, ast.BagVar("M"))),
            {"M": self.movies},
            {"M": self.movie_update},
            targets=["M"],
            bag_vars={"M": self.nested},
        )

    def test_sng_star_query(self):
        query = ast.For("m", M, ast.Sng(ast.SngProj("m", (0,))))
        check_proposition_4_1(query, {"M": self.movies}, {"M": self.movie_update})
