"""The delta transformation (Figure 4) for IncNRC+ / IncNRC+_l.

Given a query ``h[R]`` and an update ``ΔR`` applied through bag union, the
delta query ``δ_R(h)[R, ΔR]`` satisfies (Proposition 4.1)::

    h[R ⊎ ΔR] = h[R] ⊎ δ_R(h)[R, ΔR].

The transformation is *closed*: deltas are again IncNRC+ expressions, which
is what enables recursive IVM (higher-order deltas, Section 4.1).

Generalization to several updated sources.  The paper presents the rules for
a single updated relation and notes the extension to many relations is
straightforward.  We implement the transformation with respect to a *set of
updated sources* (relations and/or database dictionaries): ``δ(R)`` is the
update symbol when ``R`` is in the target set and the empty bag otherwise,
and all structural rules are unchanged.  The ``let`` rule uses the same
machinery: a ``let``-bound variable whose bound depends on the update joins
the sources its body is differentiated by, with the bag variable ``ΔX`` the
rule binds as its update symbol.

Expressions whose singleton bodies depend on an updated source are *not*
efficiently incrementalizable (they are outside IncNRC+ relative to the
update); :func:`delta` raises :class:`~repro.errors.NotInFragmentError` for
them — shred the query first (Section 5, :mod:`repro.shredding`).
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Optional

from repro.errors import NotInFragmentError
from repro.nrc import ast
from repro.nrc.analysis import free_bag_vars, referenced_sources
from repro.nrc.ast import Expr
from repro.nrc.rewrite import simplify, substitute_bag_var
from repro.nrc.traverse import iter_subexpressions

__all__ = ["delta", "delta_var_name", "depends_on"]


def delta_var_name(name: str, order: int = 1) -> str:
    """Name of the update symbol bound for a ``let`` variable (``ΔX``, ``Δ²X``…)."""
    if order == 1:
        return f"Δ{name}"
    return f"Δ{order}{name}"


def depends_on(
    expr: Expr,
    targets: FrozenSet[str],
    dependent_vars: FrozenSet[str] = frozenset(),
) -> bool:
    """True iff ``expr`` depends on one of the updated sources.

    ``dependent_vars`` lists ``let``-bound variables whose definitions depend
    on the targets; references to them count as dependence (cf. Lemma 1).
    """
    if isinstance(expr, (ast.Relation, ast.DictVar)):
        return expr.name in targets
    if isinstance(expr, ast.BagVar):
        # A bag variable depends on the update either because its definition
        # does (tracked through ``dependent_vars`` by the ``let`` rule) or
        # because the variable itself is named among the targets.
        return expr.name in dependent_vars or expr.name in targets
    if isinstance(expr, ast.Let):
        bound_depends = depends_on(expr.bound, targets, dependent_vars)
        if bound_depends:
            return depends_on(expr.body, targets, dependent_vars | {expr.name})
        return depends_on(expr.body, targets, dependent_vars - {expr.name})
    return any(depends_on(child, targets, dependent_vars) for child in expr.children())


def delta(
    expr: Expr,
    targets: Optional[Iterable[str]] = None,
    order: int = 1,
    auto_simplify: bool = True,
) -> Expr:
    """Derive the delta query of ``expr`` with respect to the updated sources.

    Parameters
    ----------
    expr:
        The query to differentiate (must be in IncNRC+ with respect to the
        targets: no ``sng`` body may depend on an updated source).
    targets:
        Names of the updated relations/dictionaries.  Defaults to every
        source referenced by ``expr``.
    order:
        Derivation order: the update symbols introduced are ``Δ^order R``.
        Recursive IVM derives the k-th delta with ``order=k``.
    auto_simplify:
        Apply the algebraic simplifier to the result (removes the empty-bag
        branches produced by input-independent sub-expressions).
    """
    if order < 1:
        raise ValueError("delta order must be at least 1")
    target_set = frozenset(targets) if targets is not None else referenced_sources(expr)
    transformer = _DeltaTransformer(target_set, order)
    result = transformer.transform(expr, frozenset())
    return simplify(result) if auto_simplify else result


def _bag_var_names(expr: Expr) -> FrozenSet[str]:
    """Every ``let``-variable name bound or referenced anywhere in ``expr``."""
    return frozenset(
        node.name
        for node in iter_subexpressions(expr)
        if isinstance(node, (ast.Let, ast.BagVar))
    )


class _DeltaTransformer:
    """Single-pass implementation of the Figure 4 rules."""

    def __init__(self, targets: FrozenSet[str], order: int) -> None:
        self._targets = targets
        self._order = order

    # ------------------------------------------------------------------ #
    def transform(self, expr: Expr, dependent_vars: FrozenSet[str]) -> Expr:
        # Lemma 1: the delta of an expression that does not depend on the
        # updated sources is the empty bag (or the empty dictionary).
        if not depends_on(expr, self._targets, dependent_vars):
            return self._empty_like(expr)
        method = getattr(self, f"_delta_{type(expr).__name__}", None)
        if method is None:
            raise NotInFragmentError(
                f"no delta rule for node {type(expr).__name__}"
            )
        return method(expr, dependent_vars)

    @staticmethod
    def _empty_like(expr: Expr) -> Expr:
        dict_nodes = (
            ast.DictSingleton,
            ast.DictEmpty,
            ast.DictUnion,
            ast.DictAdd,
            ast.DictVar,
            ast.DeltaDictVar,
        )
        if isinstance(expr, dict_nodes):
            return ast.DictEmpty()
        return ast.Empty()

    # Sources -------------------------------------------------------------
    def _delta_Relation(self, expr: ast.Relation, dependent_vars: FrozenSet[str]) -> Expr:
        return ast.DeltaRelation(expr.name, expr.schema, self._order)

    def _delta_DictVar(self, expr: ast.DictVar, dependent_vars: FrozenSet[str]) -> Expr:
        return ast.DeltaDictVar(expr.name, expr.value_type, self._order)

    def _delta_BagVar(self, expr: ast.BagVar, dependent_vars: FrozenSet[str]) -> Expr:
        # Reached only for a variable being differentiated by: a ``let``
        # variable whose bound depends on the update (the ``let`` rule binds
        # its ``ΔX``) or a free variable named among the targets.
        return ast.BagVar(delta_var_name(expr.name, self._order))

    # Structural rules ------------------------------------------------------
    def _delta_Let(self, expr: ast.Let, dependent_vars: FrozenSet[str]) -> Expr:
        """``δ(let X := e1 in e2) = let X := e1, ΔX := δ(e1) in δ_{R,X}(e2)``.

        The body is differentiated once, with respect to the updated sources
        *and* ``X`` together (``X``'s update symbol being ``ΔX``) — the
        several-sources generalization the module already implements — so no
        delta is ever taken of a delta this rule built.  A binder whose bound
        does not depend on the update just scopes its body; either way an
        inner binder takes its name out of (or puts it into) the variables
        the body is differentiated by, which is what shadowing means.
        """
        if expr.name in free_bag_vars(expr.bound):
            # ``let X := f(X)``: δ(f(X)) mentions the outer X, which the
            # ``let X := f(X) in let ΔX := δ(f(X))`` built below would
            # capture.  Differentiate ``let X′ := f(X) in e2[X′/X]`` instead.
            taken = dependent_vars | _bag_var_names(expr)
            fresh = expr.name + "′"
            while fresh in taken:
                fresh += "′"
            expr = ast.Let(
                fresh,
                expr.bound,
                substitute_bag_var(expr.body, expr.name, ast.BagVar(fresh)),
            )
        if not depends_on(expr.bound, self._targets, dependent_vars):
            body = self.transform(expr.body, dependent_vars - {expr.name})
            return ast.Let(expr.name, expr.bound, body)
        return ast.Let(
            expr.name,
            expr.bound,
            ast.Let(
                delta_var_name(expr.name, self._order),
                self.transform(expr.bound, dependent_vars),
                self.transform(expr.body, dependent_vars | {expr.name}),
            ),
        )

    def _delta_For(self, expr: ast.For, dependent_vars: FrozenSet[str]) -> Expr:
        delta_source = self.transform(expr.source, dependent_vars)
        delta_body = self.transform(expr.body, dependent_vars)
        return ast.Union(
            (
                ast.For(expr.var, delta_source, expr.body),
                ast.For(expr.var, expr.source, delta_body),
                ast.For(expr.var, delta_source, delta_body),
            )
        )

    def _delta_Product(self, expr: ast.Product, dependent_vars: FrozenSet[str]) -> Expr:
        """n-ary generalization of ``δ(e1×e2) = δe1×e2 ⊎ e1×δe2 ⊎ δe1×δe2``.

        Every non-empty subset of factor positions contributes one term in
        which exactly those factors are replaced by their deltas.
        """
        factors = expr.factors
        deltas = [self.transform(factor, dependent_vars) for factor in factors]
        terms = []
        for mask in range(1, 1 << len(factors)):
            chosen = tuple(
                deltas[index] if mask & (1 << index) else factors[index]
                for index in range(len(factors))
            )
            terms.append(ast.Product(chosen))
        return ast.Union(tuple(terms))

    def _delta_Union(self, expr: ast.Union, dependent_vars: FrozenSet[str]) -> Expr:
        return ast.Union(tuple(self.transform(term, dependent_vars) for term in expr.terms))

    def _delta_Negate(self, expr: ast.Negate, dependent_vars: FrozenSet[str]) -> Expr:
        return ast.Negate(self.transform(expr.body, dependent_vars))

    def _delta_Flatten(self, expr: ast.Flatten, dependent_vars: FrozenSet[str]) -> Expr:
        return ast.Flatten(self.transform(expr.body, dependent_vars))

    def _delta_Sng(self, expr: ast.Sng, dependent_vars: FrozenSet[str]) -> Expr:
        # Only reached when the body depends on an updated source (otherwise
        # the Lemma 1 shortcut returned ∅): this is the unrestricted sng(e)
        # whose efficient incrementalization requires deep updates.
        raise NotInFragmentError(
            "sng(e) with an update-dependent body cannot be incrementalized "
            "directly; apply the shredding transformation first (Section 5)"
        )

    # Dictionary rules ------------------------------------------------------
    def _delta_DictSingleton(
        self, expr: ast.DictSingleton, dependent_vars: FrozenSet[str]
    ) -> Expr:
        return ast.DictSingleton(
            expr.iota,
            expr.params,
            self.transform(expr.body, dependent_vars),
            expr.value_type,
            expr.param_types,
        )

    def _delta_DictUnion(self, expr: ast.DictUnion, dependent_vars: FrozenSet[str]) -> Expr:
        return ast.DictUnion(
            tuple(self.transform(term, dependent_vars) for term in expr.terms)
        )

    def _delta_DictAdd(self, expr: ast.DictAdd, dependent_vars: FrozenSet[str]) -> Expr:
        return ast.DictAdd(
            tuple(self.transform(term, dependent_vars) for term in expr.terms)
        )

    def _delta_DictLookup(self, expr: ast.DictLookup, dependent_vars: FrozenSet[str]) -> Expr:
        return ast.DictLookup(
            self.transform(expr.dictionary, dependent_vars), expr.var, expr.path
        )
