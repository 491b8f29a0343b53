"""Type inference and checking for NRC+ / IncNRC+_l expressions.

Implements the typing rules of Figure 3 plus the label/dictionary rules of
Section 5.2.  Relation and dictionary nodes carry their schemas, so a closed
query can be checked without any external catalogue; open expressions receive
their Γ (bag variables) and Π (element variables) contexts as arguments.

Polymorphic empties (``Empty``/``DictEmpty`` without an annotated type) are
given an internal *unknown* type that unifies with anything, so deltas — which
introduce many empty bags — always typecheck.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from repro.errors import TypeCheckError
from repro.nrc import ast
from repro.nrc.ast import Expr
from repro.nrc.predicates import Const, Operand, Predicate, VarPath
from repro.nrc.types import (
    BASE,
    BagType,
    BaseType,
    DictType,
    LABEL,
    LabelType,
    ProductType,
    Type,
    UNIT,
    UnitType,
)

__all__ = ["UnknownType", "infer_type", "check", "join_types", "project_type"]


@dataclass(frozen=True)
class UnknownType(Type):
    """Placeholder for polymorphic empties; unifies with every type."""

    def render(self) -> str:
        return "?"


_UNKNOWN = UnknownType()


def join_types(left: Type, right: Type, context: str = "") -> Type:
    """Least upper bound of two types under unknown-unification.

    Raises :class:`TypeCheckError` when the types are structurally
    incompatible.  ``context`` is included in error messages.
    """
    if isinstance(left, UnknownType):
        return right
    if isinstance(right, UnknownType):
        return left
    if isinstance(left, BaseType) and isinstance(right, BaseType):
        return left
    if isinstance(left, UnitType) and isinstance(right, UnitType):
        return left
    if isinstance(left, LabelType) and isinstance(right, LabelType):
        return left
    if isinstance(left, BagType) and isinstance(right, BagType):
        return BagType(join_types(left.element, right.element, context))
    if isinstance(left, DictType) and isinstance(right, DictType):
        joined = join_types(left.value, right.value, context)
        if not isinstance(joined, BagType):
            raise TypeCheckError(f"dictionary value type must be a bag ({context})")
        return DictType(joined)
    if isinstance(left, ProductType) and isinstance(right, ProductType):
        if left.arity != right.arity:
            raise TypeCheckError(
                f"product arity mismatch: {left.render()} vs {right.render()} ({context})"
            )
        return ProductType(
            tuple(
                join_types(l, r, context)
                for l, r in zip(left.components, right.components)
            )
        )
    raise TypeCheckError(
        f"incompatible types {left.render()} and {right.render()} ({context})"
    )


def project_type(type_: Type, path, context: str = "") -> Type:
    """Follow a projection path through product types."""
    current = type_
    for index in path:
        if isinstance(current, UnknownType):
            return _UNKNOWN
        if not isinstance(current, ProductType):
            raise TypeCheckError(
                f"projection .{index} applied to non-product type {current.render()} ({context})"
            )
        if index >= current.arity:
            raise TypeCheckError(
                f"projection index {index} out of range for {current.render()} ({context})"
            )
        current = current.component(index)
    return current


def infer_type(
    expr: Expr,
    gamma: Optional[Mapping[str, Type]] = None,
    pi: Optional[Mapping[str, Type]] = None,
) -> Type:
    """Infer the type of ``expr`` under contexts ``gamma`` (Γ) and ``pi`` (Π)."""
    return _Inferencer(dict(gamma or {}), dict(pi or {})).infer(expr)


def check(
    expr: Expr,
    gamma: Optional[Mapping[str, Type]] = None,
    pi: Optional[Mapping[str, Type]] = None,
) -> Type:
    """Alias of :func:`infer_type`; raises :class:`TypeCheckError` on failure."""
    return infer_type(expr, gamma, pi)


class _Inferencer:
    """Single-pass bottom-up type inference with explicit contexts."""

    def __init__(self, gamma: Dict[str, Type], pi: Dict[str, Type]) -> None:
        self._gamma = gamma
        self._pi = pi

    # ------------------------------------------------------------------ #
    def infer(self, expr: Expr) -> Type:
        method = getattr(self, f"_infer_{type(expr).__name__}", None)
        if method is None:
            raise TypeCheckError(f"no typing rule for node {type(expr).__name__}")
        return method(expr)

    def _expect_bag(self, type_: Type, context: str) -> BagType:
        if isinstance(type_, UnknownType):
            return BagType(_UNKNOWN)
        if not isinstance(type_, BagType):
            raise TypeCheckError(f"{context}: expected a bag type, got {type_.render()}")
        return type_

    def _expect_dict(self, type_: Type, context: str) -> DictType:
        if isinstance(type_, UnknownType):
            return DictType(BagType(_UNKNOWN))
        if not isinstance(type_, DictType):
            raise TypeCheckError(
                f"{context}: expected a dictionary type, got {type_.render()}"
            )
        return type_

    # Core constructs ----------------------------------------------------
    def _infer_Relation(self, expr: ast.Relation) -> Type:
        return expr.schema

    def _infer_DeltaRelation(self, expr: ast.DeltaRelation) -> Type:
        return expr.schema

    def _infer_BagVar(self, expr: ast.BagVar) -> Type:
        if expr.name not in self._gamma:
            raise TypeCheckError(f"unbound bag variable {expr.name!r}")
        return self._gamma[expr.name]

    def _infer_Let(self, expr: ast.Let) -> Type:
        bound_type = self.infer(expr.bound)
        saved = self._gamma.get(expr.name)
        self._gamma[expr.name] = bound_type
        try:
            return self.infer(expr.body)
        finally:
            if saved is None:
                self._gamma.pop(expr.name, None)
            else:
                self._gamma[expr.name] = saved

    def _infer_SngVar(self, expr: ast.SngVar) -> Type:
        if expr.var not in self._pi:
            raise TypeCheckError(f"unbound element variable {expr.var!r}")
        return BagType(self._pi[expr.var])

    def _infer_SngProj(self, expr: ast.SngProj) -> Type:
        if expr.var not in self._pi:
            raise TypeCheckError(f"unbound element variable {expr.var!r}")
        return BagType(project_type(self._pi[expr.var], expr.path, f"sng(π({expr.var}))"))

    def _infer_SngUnit(self, expr: ast.SngUnit) -> Type:
        return BagType(UNIT)

    def _infer_Sng(self, expr: ast.Sng) -> Type:
        body_type = self._expect_bag(self.infer(expr.body), "sng(e)")
        return BagType(body_type)

    def _infer_Empty(self, expr: ast.Empty) -> Type:
        if expr.element_type is None:
            return BagType(_UNKNOWN)
        return BagType(expr.element_type)

    def _infer_For(self, expr: ast.For) -> Type:
        source_type = self._expect_bag(self.infer(expr.source), "for source")
        saved = self._pi.get(expr.var)
        self._pi[expr.var] = source_type.element
        try:
            body_type = self._expect_bag(self.infer(expr.body), "for body")
        finally:
            if saved is None:
                self._pi.pop(expr.var, None)
            else:
                self._pi[expr.var] = saved
        return body_type

    def _infer_Flatten(self, expr: ast.Flatten) -> Type:
        body_type = self._expect_bag(self.infer(expr.body), "flatten")
        inner = body_type.element
        if isinstance(inner, UnknownType):
            return BagType(_UNKNOWN)
        if not isinstance(inner, BagType):
            raise TypeCheckError(
                f"flatten requires a bag of bags, got {body_type.render()}"
            )
        return inner

    def _infer_Product(self, expr: ast.Product) -> Type:
        element_types = []
        for factor in expr.factors:
            factor_type = self._expect_bag(self.infer(factor), "product factor")
            element_types.append(factor_type.element)
        return BagType(ProductType(tuple(element_types)))

    def _infer_Union(self, expr: ast.Union) -> Type:
        result: Type = BagType(_UNKNOWN)
        for term in expr.terms:
            term_type = self.infer(term)
            if not isinstance(term_type, (BagType, UnknownType)):
                raise TypeCheckError(
                    f"bag union over non-bag type {term_type.render()}"
                )
            result = join_types(result, term_type, "⊎")
        return result

    def _infer_Negate(self, expr: ast.Negate) -> Type:
        return self._expect_bag(self.infer(expr.body), "⊖")

    def _infer_Pred(self, expr: ast.Pred) -> Type:
        self._check_predicate(expr.predicate)
        return BagType(UNIT)

    def _check_predicate(self, predicate: Predicate) -> None:
        for var in predicate.free_vars():
            if var not in self._pi:
                raise TypeCheckError(f"unbound element variable {var!r} in predicate")
        self._check_predicate_operands(predicate)

    def _check_predicate_operands(self, predicate: Predicate) -> None:
        from repro.nrc import predicates as preds

        if isinstance(predicate, preds.Comparison):
            for operand in (predicate.left, predicate.right):
                self._check_operand(operand)
        elif isinstance(predicate, (preds.And, preds.Or)):
            for term in predicate.terms:
                self._check_predicate_operands(term)
        elif isinstance(predicate, preds.Not):
            self._check_predicate_operands(predicate.term)

    def _check_operand(self, operand: Operand) -> None:
        if isinstance(operand, Const):
            return
        if isinstance(operand, VarPath):
            var_type = self._pi.get(operand.var, _UNKNOWN)
            projected = project_type(var_type, operand.path, "predicate operand")
            # Exactly the evaluator's rule: tuples, units and labels are
            # rejected at run time, so they are rejected here too.
            if not isinstance(projected, (BaseType, UnknownType)):
                raise TypeCheckError(
                    "predicates may only inspect base values; "
                    f"{operand.render()} has type {projected.render()} (Appendix A.2)"
                )
            return
        raise TypeCheckError(f"unknown predicate operand {operand!r}")

    # Label / dictionary constructs --------------------------------------
    def _infer_InLabel(self, expr: ast.InLabel) -> Type:
        for param in expr.params:
            if param not in self._pi:
                raise TypeCheckError(
                    f"unbound element variable {param!r} in label constructor"
                )
        return BagType(LABEL)

    def _infer_DictSingleton(self, expr: ast.DictSingleton) -> Type:
        saved: Dict[str, Optional[Type]] = {}
        param_types = expr.param_types or tuple(_UNKNOWN for _ in expr.params)
        for param, param_type in zip(expr.params, param_types):
            saved[param] = self._pi.get(param)
            self._pi[param] = param_type
        try:
            body_type = self._expect_bag(self.infer(expr.body), "dictionary body")
        finally:
            for param, previous in saved.items():
                if previous is None:
                    self._pi.pop(param, None)
                else:
                    self._pi[param] = previous
        if expr.value_type is not None:
            body_type = self._expect_bag(
                join_types(body_type, expr.value_type, "dictionary value"), "dictionary"
            )
        return DictType(body_type)

    def _infer_DictEmpty(self, expr: ast.DictEmpty) -> Type:
        return DictType(expr.value_type or BagType(_UNKNOWN))

    def _infer_DictUnion(self, expr: ast.DictUnion) -> Type:
        return self._join_dict_terms(expr.terms, "∪")

    def _infer_DictAdd(self, expr: ast.DictAdd) -> Type:
        return self._join_dict_terms(expr.terms, "⊎ (dictionaries)")

    def _join_dict_terms(self, terms, operator: str) -> Type:
        result: Type = DictType(BagType(_UNKNOWN))
        for term in terms:
            term_type = self._expect_dict(self.infer(term), operator)
            result = join_types(result, term_type, operator)
        return result

    def _infer_DictVar(self, expr: ast.DictVar) -> Type:
        return DictType(expr.value_type)

    def _infer_DeltaDictVar(self, expr: ast.DeltaDictVar) -> Type:
        return DictType(expr.value_type)

    def _infer_DictLookup(self, expr: ast.DictLookup) -> Type:
        dict_type = self._expect_dict(self.infer(expr.dictionary), "dictionary lookup")
        if expr.var not in self._pi:
            raise TypeCheckError(f"unbound element variable {expr.var!r} in lookup")
        label_type = project_type(self._pi[expr.var], expr.path, "dictionary lookup")
        if not isinstance(label_type, (LabelType, UnknownType)):
            raise TypeCheckError(
                f"dictionary lookup key must be a label, got {label_type.render()}"
            )
        return dict_type.value
