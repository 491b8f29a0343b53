"""Tests for degrees (Theorem 2) and towers of iterated deltas (Section 4.1)."""

import pytest

from repro.delta import degree, delta
from repro.errors import NotInFragmentError
from repro.nrc import ast, builders as build, predicates as preds
from repro.nrc.analysis import referenced_sources
from repro.nrc.types import BASE, bag_of, tuple_of

MOVIE = tuple_of(BASE, BASE, BASE)
M = ast.Relation("M", bag_of(MOVIE))
R = ast.Relation("R", bag_of(bag_of(BASE)))


class TestDegree:
    def test_relation_has_degree_one(self):
        assert degree(M, ["M"]) == 1

    def test_untargeted_relation_has_degree_zero(self):
        assert degree(M, ["S"]) == 0

    def test_update_symbols_have_degree_zero(self):
        assert degree(ast.DeltaRelation("M", bag_of(MOVIE)), ["M"]) == 0

    def test_constants_have_degree_zero(self):
        for expr in (ast.SngUnit(), ast.Empty(), ast.SngVar("x"), ast.InLabel("ι", ())):
            assert degree(expr, ["M"]) == 0

    def test_union_takes_max(self):
        expr = ast.Union((M, ast.Product((M, M))))
        assert degree(expr, ["M"]) == 2

    def test_for_and_product_add(self):
        assert degree(ast.Product((M, M)), ["M"]) == 2
        assert degree(ast.For("m", M, ast.For("m2", M, ast.SngVar("m2"))), ["M"]) == 2

    def test_flatten_and_negate_preserve(self):
        assert degree(ast.Flatten(R), ["R"]) == 1
        assert degree(ast.Negate(M), ["M"]) == 1

    def test_let_uses_bound_degree(self):
        expr = ast.Let("X", ast.Product((M, M)), ast.Product((ast.BagVar("X"), M)))
        assert degree(expr, ["M"]) == 3

    def test_filter_example(self):
        query = build.filter_query(M, preds.eq(preds.var_path("x", 1), preds.const("a")), "x")
        assert degree(query, ["M"]) == 1

    def test_unrestricted_sng_rejected(self, related):
        with pytest.raises(NotInFragmentError):
            degree(related, ["M"])

    def test_dictionary_constructs(self):
        body = ast.For("m2", M, ast.SngProj("m2", (0,)))
        dictionary = ast.DictSingleton("ι", ("m",), body)
        assert degree(dictionary, ["M"]) == 1
        lookup = ast.DictLookup(ast.DictVar("D", bag_of(BASE)), "l")
        assert degree(lookup, ["D"]) == 1
        assert degree(lookup, ["M"]) == 0


class TestTheorem2:
    """deg(δ(h)) = deg(h) − 1 for input-dependent h."""

    @pytest.mark.parametrize(
        "query",
        [
            M,
            ast.Product((M, M)),
            ast.Product((M, M, M)),
            ast.Flatten(R),
            ast.Product((ast.Flatten(R), ast.Flatten(R))),
            ast.For("m", M, ast.For("m2", M, ast.SngProj("m2", (0,)))),
            ast.Union((M, ast.Product((M, M)))),
        ],
    )
    def test_delta_lowers_degree_by_one(self, query):
        targets = sorted(referenced_sources(query))
        original = degree(query, targets)
        derived = degree(delta(query, targets), targets)
        assert derived == original - 1

    def test_repeated_deltas_reach_zero(self):
        query = ast.Product((M, M, M))
        current = query
        for expected in (3, 2, 1, 0):
            assert degree(current, ["M"]) == expected
            if expected:
                current = delta(current, ["M"], order=4 - expected)


def _tower(query, targets):
    """``h, δ(h), δ²(h), …`` until a level no longer depends on ``targets``."""
    levels = [query]
    while degree(levels[-1], targets):
        levels.append(delta(levels[-1], targets, order=len(levels)))
    return levels


class TestDeltaTowers:
    def test_tower_height_equals_degree(self, selfjoin_query):
        levels = _tower(selfjoin_query, ["R"])
        assert [degree(level, ["R"]) for level in levels] == [2, 1, 0]

    def test_degree_zero_query_has_flat_tower(self):
        assert _tower(ast.SngUnit(), ["M"]) == [ast.SngUnit()]

    def test_tower_of_degree_five(self):
        query = ast.Product(tuple(ast.Flatten(R) for _ in range(5)))
        levels = _tower(query, ["R"])
        assert [degree(level, ["R"]) for level in levels] == [5, 4, 3, 2, 1, 0]

    def test_last_level_mentions_only_updates(self, selfjoin_query):
        levels = _tower(selfjoin_query, ["R"])
        assert referenced_sources(levels[-1]) == frozenset()
