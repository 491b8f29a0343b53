"""Plan rewrites: the join order and join shape a compiled query runs.

:class:`~repro.nrc.compile.CompiledQuery` compiles :func:`plan` of its
expression, so the compiler only emits.  Both rewrites are calculus
identities (Wong, "Normal forms and conservative extension properties for
query languages over collection types", JCSS 1996), checked against the
interpreter by generated differentials in ``tests/test_compile.py``:

* :func:`delta_first` — independent ``for``\\ s commute, so an update
  symbol's binder is walked before the base relations beside it, which the
  join then probes once per ``Δ`` element: ``O(|Δ| + matches)``, not
  ``O(|S| + matches)`` (the ``tcost`` bound of Section 4);
* :func:`split_disjunctions` — ``where (D₁ ∨ D₂) e = where D₁ e ⊎ where
  (¬D₁ ∧ D₂) e``, so a join guarded by a disjunction (``related``'s
  genre-or-director guard) becomes one equi-join per term.

The interpreter, the reference, runs the literal query.
``pretty.render(plan(expr))`` shows what a compiled query runs.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, FrozenSet, Iterator, List, Optional, Tuple

from repro.nrc import ast
from repro.nrc import predicates as preds
from repro.nrc.analysis import free_bag_vars, free_elem_vars, referenced_deltas
from repro.nrc.ast import Expr
from repro.nrc.traverse import _rebuild_with_children, map_expr

__all__ = ["conjuncts", "delta_first", "equality_atom", "plan", "split_disjunctions", "where_chain"]

#: Longer disjunctions stay one loop: each term costs a probe and an index.
MAX_DISJUNCTS = 3

# A hash-join atom: the loop variable's key path and the outer key operand.
Atom = Tuple[Tuple[int, ...], preds.Operand]


def plan(expr: Expr) -> Expr:
    """``expr`` reordered, then split against the loops it walks innermost."""
    return split_disjunctions(delta_first(expr))


# --------------------------------------------------------------------------- #
# Guard classification, shared with the emitter
# --------------------------------------------------------------------------- #
def conjuncts(predicate: preds.Predicate) -> List[preds.Predicate]:
    """``predicate``'s conjuncts, nested ``∧`` flattened, in order."""
    if isinstance(predicate, preds.And):
        return [part for term in predicate.terms for part in conjuncts(term)]
    return [predicate]


def equality_atom(
    conjunct: preds.Predicate, loop_var: Optional[str], local_names: FrozenSet[Optional[str]]
) -> Optional[Atom]:
    """``conjunct`` as a hash-join atom: ``==`` between a projection of the
    loop variable and a constant or a projection of a variable not in
    ``local_names`` (computable outside the loop); else ``None``."""
    if not isinstance(conjunct, preds.Comparison) or conjunct.op != "==":
        return None
    for inner, outer in ((conjunct.left, conjunct.right), (conjunct.right, conjunct.left)):
        if (
            isinstance(inner, preds.VarPath)
            and inner.var == loop_var
            and (
                isinstance(outer, preds.Const)
                or (isinstance(outer, preds.VarPath) and outer.var not in local_names)
            )
        ):
            return inner.path, outer
    return None


def where_chain(
    expr: Expr, loop_var: Optional[str]
) -> Iterator[Tuple[ast.For, Callable[[preds.Predicate], Optional[Atom]]]]:
    """The ``where`` guards (``for _w in p(x̄) union …``) at ``expr``, outermost
    first, each with :func:`equality_atom` over ``loop_var`` for its
    conjuncts.  The loop variable and earlier guard binders are local (a
    binder does not scope over its own predicate, as in the interpreter);
    once a guard rebinds the loop variable's name, none is joinable."""
    local_names = {loop_var}
    while isinstance(expr, ast.For) and isinstance(expr.source, ast.Pred):
        yield expr, partial(equality_atom, loop_var=loop_var, local_names=frozenset(local_names))
        local_names.add(expr.var)
        if expr.var == loop_var:
            loop_var = None
        expr = expr.body


# --------------------------------------------------------------------------- #
# Δ-first binder order
# --------------------------------------------------------------------------- #
def delta_first(expr: Expr) -> Expr:
    """Reorder adjacent binders so update-symbol sources are walked first.

    ``for x in S union for y in T union B`` becomes ``for y in T union for x
    in S union B`` when ``T`` mentions an update symbol and ``S`` does not,
    both sources are closed and ``x ≠ y``, so the two sums commute.  Without
    an equality atom both orders walk ``|S|·|T|`` pairs, so the swap is never
    asymptotically worse.  Applied bottom-up, so a ``Δ`` binder moves past a
    whole chain of base-relation binders.
    """
    return map_expr(expr, _hoist_delta_binder)


def _hoist_delta_binder(node: Expr) -> Expr:
    if not (isinstance(node, ast.For) and isinstance(node.body, ast.For)):
        return node
    outer, inner = node, node.body
    if (
        outer.var == inner.var
        or not referenced_deltas(inner.source)
        or referenced_deltas(outer.source)
        or free_elem_vars(outer.source)
        or free_elem_vars(inner.source)
    ):
        return node
    # The moved-in binder may now sit above another Δ binder: keep sinking it.
    return ast.For(
        inner.var, inner.source, _hoist_delta_binder(ast.For(outer.var, outer.source, inner.body))
    )


# --------------------------------------------------------------------------- #
# Disjunctive joins
# --------------------------------------------------------------------------- #
def split_disjunctions(expr: Expr) -> Expr:
    """Split each disjunctively guarded join into one equi-join per term.

    A loop ``for x in S`` qualifies when ``S`` reads no binder of the query
    (so it is indexed once per evaluation), its ``where`` chain holds no
    equality atom over ``x``, and the chain has a disjunction ``D₁ ∨ … ∨
    Dₖ`` (k ≤ :data:`MAX_DISJUNCTS`) each of whose terms holds one.  Copy i
    of the loop replaces the first such disjunction, in place, by ``¬D₁ ∧ …
    ∧ ¬Dᵢ₋₁ ∧ Dᵢ``: a pair several terms hold for comes out of the first
    only, with its exact multiplicity, and every conjunct keeps its order.
    """
    return _split(expr, frozenset(), frozenset())


def _split(expr: Expr, elems: FrozenSet[str], bags: FrozenSet[str]) -> Expr:
    """``expr`` split, under binders of the element names ``elems`` and bag names ``bags``."""
    if isinstance(expr, ast.For):
        children = (_split(expr.source, elems, bags), _split(expr.body, elems | {expr.var}, bags))
    elif isinstance(expr, ast.Let):
        children = (_split(expr.bound, elems, bags), _split(expr.body, elems, bags | {expr.name}))
    elif isinstance(expr, ast.DictSingleton):
        children = (_split(expr.body, elems | set(expr.params), bags),)
    else:
        children = tuple(_split(child, elems, bags) for child in expr.children())
    node = _rebuild_with_children(expr, children)
    if (
        isinstance(node, ast.For)
        and not isinstance(node.source, ast.Pred)
        and not free_elem_vars(node.source) & elems
        and not free_bag_vars(node.source) & bags
    ):
        return _split_loop(node)
    return node


def _split_loop(loop: ast.For) -> Expr:
    guards = [
        (depth, [(conjunct, atom_of) for conjunct in conjuncts(guard.source.predicate)])
        for depth, (guard, atom_of) in enumerate(where_chain(loop.body, loop.var))
    ]
    if any(atom_of(part) for _, classified in guards for part, atom_of in classified):
        return loop
    for depth, classified in guards:
        parts = [part for part, _ in classified]
        for position, (part, atom_of) in enumerate(classified):
            if not (
                isinstance(part, preds.Or)
                and 0 < len(part.terms) <= MAX_DISJUNCTS
                and all(any(map(atom_of, conjuncts(term))) for term in part.terms)
            ):
                continue
            branches = [
                ast.For(
                    loop.var,
                    loop.source,
                    _with_guard(
                        loop.body,
                        depth,
                        parts[:position]
                        + [preds.Not(earlier) for earlier in part.terms[:index]]
                        + conjuncts(term)
                        + parts[position + 1 :],
                    ),
                )
                for index, term in enumerate(part.terms)
            ]
            return branches[0] if len(branches) == 1 else ast.Union(tuple(branches))
    return loop


def _with_guard(chain: ast.For, depth: int, parts: List[preds.Predicate]) -> ast.For:
    """``chain`` with the predicate of its guard at ``depth`` replaced by ``∧ parts``."""
    if depth:
        return ast.For(chain.var, chain.source, _with_guard(chain.body, depth - 1, parts))
    predicate = parts[0] if len(parts) == 1 else preds.And(tuple(parts))
    return ast.For(chain.var, ast.Pred(predicate), chain.body)
