"""Evaluation of NRC+ / IncNRC+_l expressions (the semantics of Figure 3).

The evaluator is a straightforward recursive interpreter over the AST.  Bags
carry integer multiplicities, and the ``for`` construct scales each body bag
by the multiplicity of the element it was produced from, matching the
``⊎_{v∈[[e1]]} [[e2]][x:=v]`` semantics.

Environments (:class:`Environment`) bundle

* the database relations (``γ`` entries for the ``R`` rule),
* the database dictionaries (shredded input contexts),
* update bags/dictionaries for the ``ΔR`` / ``ΔD`` symbols of delta queries,
* ``let``-bound variables, and
* ``for``-bound element variables (the ``ε`` assignment).

An optional :class:`~repro.instrument.OpCounter` records abstract operation
counts so ``tests/test_paper_claims.py`` (E6) can compare measured work with
the paper's ``tcost`` bound without depending on wall-clock noise.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Tuple, Union as TypingUnion

from repro.bag.bag import Bag, EMPTY_BAG
from repro.errors import EvaluationError, UnboundVariableError
from repro.instrument import OpCounter, maybe_count
from repro.nrc import ast
from repro.nrc.ast import Expr
from repro.dictionaries import (
    DictValue,
    EMPTY_DICT,
    IntensionalDict,
    MaterializedDict,
)
from repro.labels import Label

__all__ = ["Environment", "evaluate", "evaluate_bag"]

Value = TypingUnion[Bag, DictValue]


class Environment:
    """Evaluation environment for NRC+ expressions.

    All mappings are copied on construction so an environment can be shared
    safely between evaluations.  The helpers return extended copies; the
    evaluator itself mutates only private scratch copies.

    ``indexes`` optionally carries a persistent-index provider
    (:class:`repro.storage.store.IndexProvider`): the compiled pipeline
    probes it for pre-built hash-join indexes over base relations.  The
    provider verifies by bag identity that an index matches the relation
    binding actually in this environment, so carrying it through copies
    (including hand-mutated ones) is always safe — a mismatch just falls
    back to the per-evaluation build.  The interpreter ignores it.
    """

    __slots__ = ("relations", "dictionaries", "deltas", "bag_vars", "elem_vars", "indexes")

    def __init__(
        self,
        relations: Optional[Mapping[str, Bag]] = None,
        dictionaries: Optional[Mapping[str, DictValue]] = None,
        deltas: Optional[Mapping[Tuple[str, int], Value]] = None,
        bag_vars: Optional[Mapping[str, Value]] = None,
        elem_vars: Optional[Mapping[str, Any]] = None,
        indexes: Optional[Any] = None,
    ) -> None:
        self.relations: Dict[str, Bag] = dict(relations or {})
        self.dictionaries: Dict[str, DictValue] = dict(dictionaries or {})
        self.deltas: Dict[Tuple[str, int], Value] = dict(deltas or {})
        self.bag_vars: Dict[str, Value] = dict(bag_vars or {})
        self.elem_vars: Dict[str, Any] = dict(elem_vars or {})
        self.indexes = indexes

    def copy(self) -> "Environment":
        return Environment(
            self.relations,
            self.dictionaries,
            self.deltas,
            self.bag_vars,
            self.elem_vars,
            self.indexes,
        )

    def with_deltas(self, deltas: Mapping[Tuple[str, int], Value]) -> "Environment":
        """Return a copy with the given update symbols bound."""
        env = self.copy()
        env.deltas.update(deltas)
        return env


def evaluate(
    expr: Expr, env: Optional[Environment] = None, counter: Optional[OpCounter] = None
) -> Value:
    """Evaluate ``expr`` in ``env`` and return a :class:`Bag` or dictionary value."""
    return _Evaluator(env or Environment(), counter).eval(expr)


def evaluate_bag(
    expr: Expr, env: Optional[Environment] = None, counter: Optional[OpCounter] = None
) -> Bag:
    """Evaluate ``expr`` and require the result to be a bag."""
    value = evaluate(expr, env, counter)
    if not isinstance(value, Bag):
        raise EvaluationError(f"expected a bag result, got {value!r}")
    return value


class _Evaluator:
    """Recursive interpreter with an explicit environment."""

    def __init__(self, env: Environment, counter: Optional[OpCounter]) -> None:
        self._env = env
        self._counter = counter

    # ------------------------------------------------------------------ #
    def eval(self, expr: Expr) -> Value:
        method = getattr(self, f"_eval_{type(expr).__name__}", None)
        if method is None:
            raise EvaluationError(f"no evaluation rule for node {type(expr).__name__}")
        return method(expr)

    def _eval_bag(self, expr: Expr) -> Bag:
        value = self.eval(expr)
        if not isinstance(value, Bag):
            raise EvaluationError(f"expected a bag, got {value!r}")
        return value

    def _eval_dict(self, expr: Expr) -> DictValue:
        value = self.eval(expr)
        if not isinstance(value, DictValue):
            raise EvaluationError(f"expected a dictionary, got {value!r}")
        return value

    def _elem(self, name: str) -> Any:
        if name not in self._env.elem_vars:
            raise UnboundVariableError(f"unbound element variable {name!r}")
        return self._env.elem_vars[name]

    @staticmethod
    def _project(value: Any, path: Tuple[int, ...], context: str) -> Any:
        for index in path:
            if not isinstance(value, tuple) or index >= len(value):
                raise EvaluationError(f"{context}: projection .{index} fails on {value!r}")
            value = value[index]
        return value

    # Core constructs ----------------------------------------------------
    def _eval_Relation(self, expr: ast.Relation) -> Bag:
        if expr.name not in self._env.relations:
            raise UnboundVariableError(f"unknown relation {expr.name!r}")
        return self._env.relations[expr.name]

    def _eval_DeltaRelation(self, expr: ast.DeltaRelation) -> Bag:
        value = self._env.deltas.get((expr.name, expr.order), EMPTY_BAG)
        if not isinstance(value, Bag):
            raise EvaluationError(
                f"update symbol Δ^{expr.order}{expr.name} is bound to a non-bag value"
            )
        return value

    def _eval_BagVar(self, expr: ast.BagVar) -> Value:
        if expr.name not in self._env.bag_vars:
            raise UnboundVariableError(f"unbound bag variable {expr.name!r}")
        return self._env.bag_vars[expr.name]

    def _eval_Let(self, expr: ast.Let) -> Value:
        bound = self.eval(expr.bound)
        saved = self._env.bag_vars.get(expr.name)
        had = expr.name in self._env.bag_vars
        self._env.bag_vars[expr.name] = bound
        try:
            return self.eval(expr.body)
        finally:
            if had:
                self._env.bag_vars[expr.name] = saved  # type: ignore[assignment]
            else:
                self._env.bag_vars.pop(expr.name, None)

    def _eval_SngVar(self, expr: ast.SngVar) -> Bag:
        maybe_count(self._counter, "elements_emitted")
        return Bag.singleton(self._elem(expr.var))

    def _eval_SngProj(self, expr: ast.SngProj) -> Bag:
        value = self._project(self._elem(expr.var), expr.path, f"sng(π({expr.var}))")
        maybe_count(self._counter, "elements_emitted")
        return Bag.singleton(value)

    def _eval_SngUnit(self, expr: ast.SngUnit) -> Bag:
        maybe_count(self._counter, "elements_emitted")
        return Bag.singleton(())

    def _eval_Sng(self, expr: ast.Sng) -> Bag:
        inner = self._eval_bag(expr.body)
        maybe_count(self._counter, "elements_emitted")
        return Bag.singleton(inner)

    def _eval_Empty(self, expr: ast.Empty) -> Bag:
        return EMPTY_BAG

    def _eval_For(self, expr: ast.For) -> Bag:
        source = self._eval_bag(expr.source)
        accumulator: Dict[Any, int] = {}
        saved = self._env.elem_vars.get(expr.var)
        had = expr.var in self._env.elem_vars
        try:
            for element, multiplicity in source.items():
                maybe_count(self._counter, "for_iterations")
                self._env.elem_vars[expr.var] = element
                body = self._eval_bag(expr.body)
                if multiplicity == 0:
                    continue
                for inner_element, inner_multiplicity in body.items():
                    combined = multiplicity * inner_multiplicity
                    if combined == 0:
                        continue
                    maybe_count(self._counter, "union_merges")
                    updated = accumulator.get(inner_element, 0) + combined
                    if updated == 0:
                        accumulator.pop(inner_element, None)
                    else:
                        accumulator[inner_element] = updated
        finally:
            if had:
                self._env.elem_vars[expr.var] = saved
            else:
                self._env.elem_vars.pop(expr.var, None)
        return Bag.from_pairs(accumulator.items())

    def _eval_Flatten(self, expr: ast.Flatten) -> Bag:
        outer = self._eval_bag(expr.body)
        result = EMPTY_BAG
        for element, multiplicity in outer.items():
            if not isinstance(element, Bag):
                raise EvaluationError("flatten applied to a bag whose elements are not bags")
            maybe_count(self._counter, "union_merges", len(element))
            result = result.union(element.scale(multiplicity))
        return result

    def _eval_Product(self, expr: ast.Product) -> Bag:
        factor_bags = [self._eval_bag(factor) for factor in expr.factors]
        accumulator: Dict[Any, int] = {(): 1}
        for factor in factor_bags:
            next_accumulator: Dict[Any, int] = {}
            for prefix, prefix_mult in accumulator.items():
                for element, multiplicity in factor.items():
                    maybe_count(self._counter, "product_pairs")
                    combined = prefix_mult * multiplicity
                    if combined == 0:
                        continue
                    key = prefix + (element,)
                    next_accumulator[key] = next_accumulator.get(key, 0) + combined
            accumulator = next_accumulator
        return Bag.from_pairs(accumulator.items())

    def _eval_Union(self, expr: ast.Union) -> Bag:
        result = EMPTY_BAG
        for term in expr.terms:
            term_bag = self._eval_bag(term)
            maybe_count(self._counter, "union_merges", len(term_bag))
            result = result.union(term_bag)
        return result

    def _eval_Negate(self, expr: ast.Negate) -> Bag:
        return self._eval_bag(expr.body).negate()

    def _eval_Pred(self, expr: ast.Pred) -> Bag:
        maybe_count(self._counter, "predicate_checks")
        if expr.predicate.evaluate(self._env.elem_vars):
            return Bag.singleton(())
        return EMPTY_BAG

    # Label / dictionary constructs --------------------------------------
    def _eval_InLabel(self, expr: ast.InLabel) -> Bag:
        values = tuple(self._elem(param) for param in expr.params)
        maybe_count(self._counter, "elements_emitted")
        return Bag.singleton(Label(expr.iota, values))

    def _eval_DictSingleton(self, expr: ast.DictSingleton) -> DictValue:
        # Capture a snapshot of the current environment: the dictionary is a
        # closure over everything except its own parameters, which come from
        # the label at lookup time (Section 5.2).
        snapshot = self._env.copy()
        counter = self._counter
        body = expr.body
        params = expr.params

        def _lookup(values: Tuple[Any, ...]) -> Bag:
            local = snapshot.copy()
            if len(values) != len(params):
                raise EvaluationError(
                    f"label arity mismatch for dictionary {expr.iota!r}: "
                    f"expected {len(params)} values, got {len(values)}"
                )
            for param, value in zip(params, values):
                local.elem_vars[param] = value
            maybe_count(counter, "dict_lookups")
            return _Evaluator(local, counter)._eval_bag(body)

        return IntensionalDict(expr.iota, _lookup)

    def _eval_DictEmpty(self, expr: ast.DictEmpty) -> DictValue:
        return EMPTY_DICT

    def _eval_DictUnion(self, expr: ast.DictUnion) -> DictValue:
        result: DictValue = EMPTY_DICT
        for term in expr.terms:
            result = result.label_union(self._eval_dict(term))
        return result

    def _eval_DictAdd(self, expr: ast.DictAdd) -> DictValue:
        result: DictValue = EMPTY_DICT
        for term in expr.terms:
            result = result.add(self._eval_dict(term))
        return result

    def _eval_DictVar(self, expr: ast.DictVar) -> DictValue:
        if expr.name not in self._env.dictionaries:
            raise UnboundVariableError(f"unknown dictionary {expr.name!r}")
        return self._env.dictionaries[expr.name]

    def _eval_DeltaDictVar(self, expr: ast.DeltaDictVar) -> DictValue:
        value = self._env.deltas.get((expr.name, expr.order), EMPTY_DICT)
        if not isinstance(value, DictValue):
            raise EvaluationError(
                f"update symbol Δ^{expr.order}{expr.name} is bound to a non-dictionary value"
            )
        return value

    def _eval_DictLookup(self, expr: ast.DictLookup) -> Bag:
        dictionary = self._eval_dict(expr.dictionary)
        label = self._project(self._elem(expr.var), expr.path, "dictionary lookup")
        if not isinstance(label, Label):
            raise EvaluationError(f"dictionary lookup key is not a label: {label!r}")
        maybe_count(self._counter, "dict_lookups")
        return dictionary.lookup(label)
