"""Unit tests for type inference (Figure 3 typing rules + label constructs)."""

import pytest

from repro.errors import TypeCheckError
from repro.nrc import ast, builders as build, predicates as preds
from repro.nrc.typecheck import UnknownType, infer_type, join_types, project_type
from repro.nrc.types import (
    BASE,
    BagType,
    DictType,
    LABEL,
    LabelType,
    UNIT,
    bag_of,
    tuple_of,
)

MOVIE = tuple_of(BASE, BASE, BASE)
M = ast.Relation("M", bag_of(MOVIE))


class TestCoreRules:
    def test_relation_has_its_schema(self):
        assert infer_type(M) == bag_of(MOVIE)

    def test_delta_relation_has_schema(self):
        assert infer_type(ast.DeltaRelation("M", bag_of(MOVIE))) == bag_of(MOVIE)

    def test_unbound_bag_var_rejected(self):
        with pytest.raises(TypeCheckError):
            infer_type(ast.BagVar("X"))

    def test_bag_var_from_context(self):
        assert infer_type(ast.BagVar("X"), gamma={"X": bag_of(BASE)}) == bag_of(BASE)

    def test_let_binds_bag_var(self):
        expr = ast.Let("X", M, ast.BagVar("X"))
        assert infer_type(expr) == bag_of(MOVIE)

    def test_let_restores_outer_binding(self):
        expr = ast.Let("X", M, ast.BagVar("X"))
        assert infer_type(expr, gamma={"X": bag_of(BASE)}) == bag_of(MOVIE)
        # And the outer binding is unaffected for a sibling expression.
        assert infer_type(ast.BagVar("X"), gamma={"X": bag_of(BASE)}) == bag_of(BASE)

    def test_sng_var(self):
        assert infer_type(ast.SngVar("x"), pi={"x": MOVIE}) == bag_of(MOVIE)

    def test_sng_var_unbound(self):
        with pytest.raises(TypeCheckError):
            infer_type(ast.SngVar("x"))

    def test_sng_proj(self):
        assert infer_type(ast.SngProj("x", (1,)), pi={"x": MOVIE}) == bag_of(BASE)

    def test_sng_proj_out_of_range(self):
        with pytest.raises(TypeCheckError):
            infer_type(ast.SngProj("x", (5,)), pi={"x": MOVIE})

    def test_sng_proj_on_non_product(self):
        with pytest.raises(TypeCheckError):
            infer_type(ast.SngProj("x", (0,)), pi={"x": BASE})

    def test_sng_unit(self):
        assert infer_type(ast.SngUnit()) == bag_of(UNIT)

    def test_sng_wraps_bags(self):
        assert infer_type(ast.Sng(M)) == bag_of(bag_of(MOVIE))

    def test_empty_polymorphic(self):
        inferred = infer_type(ast.Empty())
        assert isinstance(inferred, BagType)
        assert isinstance(inferred.element, UnknownType)

    def test_empty_annotated(self):
        assert infer_type(ast.Empty(BASE)) == bag_of(BASE)

    def test_for_binds_element_var(self):
        expr = ast.For("m", M, ast.SngProj("m", (0,)))
        assert infer_type(expr) == bag_of(BASE)

    def test_for_requires_bag_source(self):
        expr = ast.For("m", ast.SngUnit(), ast.SngVar("m"))
        assert infer_type(expr) == bag_of(UNIT)

    def test_flatten(self):
        nested = ast.Relation("R", bag_of(bag_of(BASE)))
        assert infer_type(ast.Flatten(nested)) == bag_of(BASE)

    def test_flatten_rejects_flat_bags(self):
        with pytest.raises(TypeCheckError):
            infer_type(ast.Flatten(M))

    def test_product_builds_tuples(self):
        expr = ast.Product((M, ast.Relation("S", bag_of(BASE))))
        assert infer_type(expr) == bag_of(tuple_of(MOVIE, BASE))

    def test_union_joins_compatible_types(self):
        assert infer_type(ast.Union((M, M))) == bag_of(MOVIE)

    def test_union_with_polymorphic_empty(self):
        assert infer_type(ast.Union((ast.Empty(), M))) == bag_of(MOVIE)

    def test_union_of_incompatible_types_rejected(self):
        other = ast.Relation("S", bag_of(tuple_of(BASE, BASE)))
        with pytest.raises(TypeCheckError):
            infer_type(ast.Union((M, other)))

    def test_negate_preserves_type(self):
        assert infer_type(ast.Negate(M)) == bag_of(MOVIE)

    def test_predicate_returns_unit_bag(self):
        predicate = preds.eq(preds.var_path("m", 0), preds.const("Drive"))
        assert infer_type(ast.Pred(predicate), pi={"m": MOVIE}) == bag_of(UNIT)

    def test_predicate_over_bag_component_rejected(self):
        nested = tuple_of(BASE, bag_of(BASE))
        predicate = preds.eq(preds.var_path("m", 1), preds.const("x"))
        with pytest.raises(TypeCheckError):
            infer_type(ast.Pred(predicate), pi={"m": nested})

    @pytest.mark.parametrize("component", [tuple_of(BASE, BASE), UNIT, LABEL])
    def test_predicate_over_non_base_component_rejected(self, component):
        # The evaluator refuses to compare anything but base values.
        predicate = preds.eq(preds.var_path("m", 1), preds.const("x"))
        with pytest.raises(TypeCheckError):
            infer_type(ast.Pred(predicate), pi={"m": tuple_of(BASE, component)})

    def test_predicate_with_unbound_var_rejected(self):
        predicate = preds.eq(preds.var_path("zz", 0), preds.const("a"))
        with pytest.raises(TypeCheckError):
            infer_type(ast.Pred(predicate))

    def test_full_query_typechecks(self, related):
        assert infer_type(related) == bag_of(tuple_of(BASE, bag_of(BASE)))


class TestLabelRules:
    def test_in_label(self):
        assert infer_type(ast.InLabel("ι", ("m",)), pi={"m": MOVIE}) == bag_of(LABEL)

    def test_in_label_unbound_param(self):
        with pytest.raises(TypeCheckError):
            infer_type(ast.InLabel("ι", ("m",)))

    def test_dict_singleton(self):
        body = ast.SngProj("m", (0,))
        expr = ast.DictSingleton("ι", ("m",), body, param_types=(MOVIE,))
        assert infer_type(expr) == DictType(bag_of(BASE))

    def test_dict_empty(self):
        assert infer_type(ast.DictEmpty(bag_of(BASE))) == DictType(bag_of(BASE))

    def test_dict_union_and_add(self):
        d = ast.DictEmpty(bag_of(BASE))
        assert infer_type(ast.DictUnion((d, d))) == DictType(bag_of(BASE))
        assert infer_type(ast.DictAdd((d, d))) == DictType(bag_of(BASE))

    def test_dict_var(self):
        assert infer_type(ast.DictVar("D", bag_of(BASE))) == DictType(bag_of(BASE))

    def test_dict_lookup(self):
        lookup = ast.DictLookup(ast.DictVar("D", bag_of(BASE)), "l")
        assert infer_type(lookup, pi={"l": LabelType()}) == bag_of(BASE)

    def test_dict_lookup_requires_label_key(self):
        lookup = ast.DictLookup(ast.DictVar("D", bag_of(BASE)), "l")
        with pytest.raises(TypeCheckError):
            infer_type(lookup, pi={"l": BASE})


class TestHelpers:
    def test_join_types_unknown_absorbs(self):
        unknown = UnknownType()
        assert join_types(unknown, BASE) == BASE
        assert join_types(BASE, unknown) == BASE

    def test_join_types_structural(self):
        assert join_types(bag_of(BASE), bag_of(BASE)) == bag_of(BASE)
        with pytest.raises(TypeCheckError):
            join_types(bag_of(BASE), tuple_of(BASE, BASE))

    def test_join_products_arity_mismatch(self):
        with pytest.raises(TypeCheckError):
            join_types(tuple_of(BASE, BASE), tuple_of(BASE, BASE, BASE))

    def test_project_type(self):
        nested = tuple_of(BASE, tuple_of(BASE, bag_of(BASE)))
        assert project_type(nested, (1, 1)) == bag_of(BASE)
        with pytest.raises(TypeCheckError):
            project_type(BASE, (0,))
