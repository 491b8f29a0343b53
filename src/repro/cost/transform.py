"""The cost interpretation ``C[[·]]`` of IncNRC+ expressions (Figure 5).

Given cost estimates for the inputs (relations, updates, dictionaries and
free variables), ``C[[e]]`` computes an upper bound ``n{c}`` on the output of
``e``: ``n`` bounds the cardinality of the result bag and ``c`` bounds the
cost of its elements.  Together with :func:`repro.cost.tcost.tcost` this
yields the running-time bound of Lemma 3 and the efficiency guarantee of
Theorem 4 (``tcost(C[[δ(h)]]) < tcost(C[[h]])`` for incremental updates).

Constant-output constructs (``p(x)``, ``sng(⟨⟩)``, ``∅``, ``inL``) are costed
as single-element bags of bottom-cost elements, which matches the paper's
``1_{Bag(1)}`` constants while remaining a safe upper bound for ``∅``.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from repro.bag.bag import Bag
from repro.cost.domains import (
    ATOM_COST,
    BagCost,
    Cost,
    TupleCost,
    bottom_cost,
    sup,
)
from repro.cost.size import size_of
from repro.errors import CostModelError
from repro.nrc import ast
from repro.nrc.ast import Expr
from repro.nrc.types import BagType, Type

__all__ = ["CostContext", "cost_of", "dictionary_cost_of"]


class CostContext:
    """Cost assignments for the free inputs of an expression.

    * ``relations`` / ``dictionaries`` — cost of database sources,
    * ``deltas`` — cost of update symbols, keyed by ``(name, order)``,
    * ``bag_vars`` — the ``γ°`` assignment for ``let``-bound variables,
    * ``elem_vars`` — the ``ε°`` assignment for ``for``-bound variables.

    :meth:`from_instances` builds a context by measuring actual bag values
    with :func:`repro.cost.size.size_of`, which is how the E6 cell of
    ``tests/test_paper_claims.py`` compares predictions with measured work.
    """

    def __init__(
        self,
        relations: Optional[Mapping[str, BagCost]] = None,
        deltas: Optional[Mapping[Tuple[str, int], BagCost]] = None,
        dictionaries: Optional[Mapping[str, BagCost]] = None,
        bag_vars: Optional[Mapping[str, Cost]] = None,
        elem_vars: Optional[Mapping[str, Cost]] = None,
    ) -> None:
        self.relations: Dict[str, BagCost] = dict(relations or {})
        self.deltas: Dict[Tuple[str, int], BagCost] = dict(deltas or {})
        self.dictionaries: Dict[str, BagCost] = dict(dictionaries or {})
        self.bag_vars: Dict[str, Cost] = dict(bag_vars or {})
        self.elem_vars: Dict[str, Cost] = dict(elem_vars or {})

    @classmethod
    def from_instances(
        cls,
        relations: Optional[Mapping[str, Bag]] = None,
        deltas: Optional[Mapping[Tuple[str, int], Bag]] = None,
        dictionary_entry_bounds: Optional[Mapping[str, BagCost]] = None,
    ) -> "CostContext":
        """Build a context by measuring concrete relation and update instances."""
        relation_costs = {
            name: _as_bag_cost(size_of(bag), name) for name, bag in (relations or {}).items()
        }
        delta_costs = {
            key: _as_bag_cost(size_of(bag), str(key)) for key, bag in (deltas or {}).items()
        }
        return cls(relation_costs, delta_costs, dictionary_entry_bounds)

    def copy(self) -> "CostContext":
        return CostContext(
            self.relations, self.deltas, self.dictionaries, self.bag_vars, self.elem_vars
        )


def _as_bag_cost(cost: Cost, context: str) -> BagCost:
    if not isinstance(cost, BagCost):
        raise CostModelError(f"{context}: expected a bag cost, got {cost.render()}")
    return cost


def cost_of(expr: Expr, context: Optional[CostContext] = None) -> BagCost:
    """Compute ``C[[expr]]`` under the given cost context."""
    return _CostTransformer(context or CostContext()).cost(expr)


def dictionary_cost_of(expr: Expr, context: Optional[CostContext] = None) -> BagCost:
    """Bound on a single entry of a dictionary-typed expression.

    Dictionary expressions (``h^Γ`` components and their deltas) are costed by
    the bag bound of one entry — the quantity Figure 5 assigns to dictionary
    sources.  Used by the strategy planner to estimate shredded maintenance.
    """
    return _CostTransformer(context or CostContext())._dictionary_cost(expr)


class _CostTransformer:
    """Recursive implementation of Figure 5 plus the label-construct rules."""

    def __init__(self, context: CostContext) -> None:
        self._ctx = context

    # ------------------------------------------------------------------ #
    def cost(self, expr: Expr) -> BagCost:
        method = getattr(self, f"_cost_{type(expr).__name__}", None)
        if method is None:
            raise CostModelError(f"no cost rule for node {type(expr).__name__}")
        result = method(expr)
        return _as_bag_cost(result, type(expr).__name__)

    @staticmethod
    def _unit_bag_cost(element_type: Optional[Type] = None) -> BagCost:
        element = bottom_cost(element_type) if element_type is not None else ATOM_COST
        return BagCost(1, element)

    # Sources -------------------------------------------------------------
    def _cost_Relation(self, expr: ast.Relation) -> BagCost:
        if expr.name in self._ctx.relations:
            return self._ctx.relations[expr.name]
        raise CostModelError(f"no cost estimate for relation {expr.name!r}")

    def _cost_DeltaRelation(self, expr: ast.DeltaRelation) -> BagCost:
        key = (expr.name, expr.order)
        if key in self._ctx.deltas:
            return self._ctx.deltas[key]
        raise CostModelError(f"no cost estimate for update Δ^{expr.order}{expr.name}")

    def _cost_BagVar(self, expr: ast.BagVar) -> Cost:
        if expr.name in self._ctx.bag_vars:
            return self._ctx.bag_vars[expr.name]
        raise CostModelError(f"no cost estimate for bag variable {expr.name!r}")

    # Constants and singletons ---------------------------------------------
    def _cost_Empty(self, expr: ast.Empty) -> BagCost:
        return self._unit_bag_cost(expr.element_type)

    def _cost_Pred(self, expr: ast.Pred) -> BagCost:
        return self._unit_bag_cost()

    def _cost_SngUnit(self, expr: ast.SngUnit) -> BagCost:
        return self._unit_bag_cost()

    def _cost_SngVar(self, expr: ast.SngVar) -> BagCost:
        return BagCost(1, self._elem_cost(expr.var))

    def _cost_SngProj(self, expr: ast.SngProj) -> BagCost:
        return BagCost(1, _project_cost(self._elem_cost(expr.var), expr.path))

    def _cost_Sng(self, expr: ast.Sng) -> BagCost:
        return BagCost(1, self.cost(expr.body))

    def _elem_cost(self, var: str) -> Cost:
        if var in self._ctx.elem_vars:
            return self._ctx.elem_vars[var]
        raise CostModelError(f"no cost estimate for element variable {var!r}")

    # Structural constructs -------------------------------------------------
    def _cost_Let(self, expr: ast.Let) -> BagCost:
        bound_cost = self.cost(expr.bound)
        saved = self._ctx.bag_vars.get(expr.name)
        had = expr.name in self._ctx.bag_vars
        self._ctx.bag_vars[expr.name] = bound_cost
        try:
            return self.cost(expr.body)
        finally:
            if had:
                self._ctx.bag_vars[expr.name] = saved  # type: ignore[assignment]
            else:
                self._ctx.bag_vars.pop(expr.name, None)

    def _cost_For(self, expr: ast.For) -> BagCost:
        source_cost = self.cost(expr.source)
        saved = self._ctx.elem_vars.get(expr.var)
        had = expr.var in self._ctx.elem_vars
        self._ctx.elem_vars[expr.var] = source_cost.element
        try:
            body_cost = self.cost(expr.body)
        finally:
            if had:
                self._ctx.elem_vars[expr.var] = saved  # type: ignore[assignment]
            else:
                self._ctx.elem_vars.pop(expr.var, None)
        return BagCost(source_cost.cardinality * body_cost.cardinality, body_cost.element)

    def _cost_Flatten(self, expr: ast.Flatten) -> BagCost:
        body_cost = self.cost(expr.body)
        inner = body_cost.element
        if isinstance(inner, BagCost):
            return BagCost(body_cost.cardinality * inner.cardinality, inner.element)
        # Polymorphic/unknown element costs (e.g. empty inputs): stay safe.
        return BagCost(body_cost.cardinality, ATOM_COST)

    def _cost_Product(self, expr: ast.Product) -> BagCost:
        factor_costs = [self.cost(factor) for factor in expr.factors]
        cardinality = 1
        for factor_cost in factor_costs:
            cardinality *= factor_cost.cardinality
        return BagCost(cardinality, TupleCost(tuple(fc.element for fc in factor_costs)))

    def _cost_Union(self, expr: ast.Union) -> BagCost:
        result: Cost = self.cost(expr.terms[0])
        for term in expr.terms[1:]:
            result = sup(result, self.cost(term))
        return _as_bag_cost(result, "⊎")

    def _cost_Negate(self, expr: ast.Negate) -> BagCost:
        return self.cost(expr.body)

    # Label / dictionary constructs -----------------------------------------
    def _cost_InLabel(self, expr: ast.InLabel) -> BagCost:
        return BagCost(1, ATOM_COST)

    def _cost_DictLookup(self, expr: ast.DictLookup) -> BagCost:
        return self._dictionary_cost(expr.dictionary)

    def _dictionary_cost(self, expr: Expr) -> BagCost:
        if isinstance(expr, ast.DictSingleton):
            saved: Dict[str, Optional[Cost]] = {}
            param_types = expr.param_types or tuple(None for _ in expr.params)
            for param, param_type in zip(expr.params, param_types):
                saved[param] = self._ctx.elem_vars.get(param)
                self._ctx.elem_vars[param] = (
                    bottom_cost(param_type) if param_type is not None else ATOM_COST
                )
            try:
                return self.cost(expr.body)
            finally:
                for param, previous in saved.items():
                    if previous is None:
                        self._ctx.elem_vars.pop(param, None)
                    else:
                        self._ctx.elem_vars[param] = previous
        if isinstance(expr, ast.DictEmpty):
            return self._unit_bag_cost(expr.value_type)
        if isinstance(expr, (ast.DictUnion, ast.DictAdd)):
            result: Cost = self._dictionary_cost(expr.terms[0])
            for term in expr.terms[1:]:
                result = sup(result, self._dictionary_cost(term))
            return _as_bag_cost(result, "dictionary combination")
        if isinstance(expr, ast.DictVar):
            if expr.name in self._ctx.dictionaries:
                return self._ctx.dictionaries[expr.name]
            raise CostModelError(f"no cost estimate for dictionary {expr.name!r}")
        if isinstance(expr, ast.DeltaDictVar):
            key = (expr.name, expr.order)
            if key in self._ctx.deltas:
                return self._ctx.deltas[key]
            raise CostModelError(f"no cost estimate for dictionary update Δ{expr.name}")
        if isinstance(expr, ast.BagVar):
            cost = self._cost_BagVar(expr)
            return _as_bag_cost(cost, expr.name)
        raise CostModelError(f"no dictionary cost rule for node {type(expr).__name__}")


def _project_cost(cost: Cost, path) -> Cost:
    current = cost
    for index in path:
        if isinstance(current, TupleCost) and index < len(current.components):
            current = current.components[index]
        else:
            return ATOM_COST
    return current
