"""Delta rules for the flat relational algebra (Appendix A.1).

The transformation maps every RA+ expression over base relations ``R_i`` to
an expression over ``R_i`` and update symbols ``ΔR_i`` satisfying::

    e[R ⊎ ΔR] = e[R] ⊎ δ(e)[R, ΔR]

with the rules ``δ(R) = ΔR``, ``δ(σ_p e) = σ_p δ(e)``, ``δ(Π e) = Π δ(e)``,
``δ(e1 ⊎ e2) = δ(e1) ⊎ δ(e2)`` and
``δ(e1 × e2) = δ(e1)×e2 ⊎ e1×δ(e2) ⊎ δ(e1)×δ(e2)`` (joins behave like the
product).  Negative multiplicities in ``ΔR`` express deletions exactly as in
the bag-group setting of the nested calculus.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Optional, Set

from repro.errors import NotInFragmentError
from repro.relational import algebra as ra

__all__ = ["relational_delta", "relational_sources"]


def relational_sources(expr: ra.RAExpr) -> FrozenSet[str]:
    """Names of base relations referenced by ``expr``."""
    names: Set[str] = set()

    def _walk(node: ra.RAExpr) -> None:
        if isinstance(node, ra.BaseRel):
            names.add(node.name)
        for child in node.children():
            _walk(child)

    _walk(expr)
    return frozenset(names)


def relational_delta(
    expr: ra.RAExpr,
    targets: Optional[Iterable[str]] = None,
    order: int = 1,
) -> ra.RAExpr:
    """Derive the delta of a flat RA+ expression with respect to the targets."""
    target_set = frozenset(targets) if targets is not None else relational_sources(expr)
    return _delta(expr, target_set, order)


def _depends(expr: ra.RAExpr, targets: FrozenSet[str]) -> bool:
    if isinstance(expr, ra.BaseRel):
        return expr.name in targets
    return any(_depends(child, targets) for child in expr.children())


def _delta(expr: ra.RAExpr, targets: FrozenSet[str], order: int) -> ra.RAExpr:
    if not _depends(expr, targets):
        return _EmptyRel(expr.schema())
    if isinstance(expr, ra.BaseRel):
        return ra.DeltaRel(expr.name, expr.rel_schema, order)
    if isinstance(expr, ra.DeltaRel):
        return _EmptyRel(expr.rel_schema)
    if isinstance(expr, ra.Select):
        return ra.Select(_delta(expr.source, targets, order), expr.predicate, expr.description)
    if isinstance(expr, ra.Project):
        return ra.Project(_delta(expr.source, targets, order), expr.columns)
    if isinstance(expr, ra.Rename):
        return ra.Rename(_delta(expr.source, targets, order), expr.mapping)
    if isinstance(expr, ra.NegateRel):
        return ra.NegateRel(_delta(expr.source, targets, order))
    if isinstance(expr, ra.UnionAll):
        return ra.UnionAll(
            _delta(expr.left, targets, order), _delta(expr.right, targets, order)
        )
    if isinstance(expr, (ra.CrossProduct, ra.ThetaJoin)):
        left_delta = _delta(expr.left, targets, order)
        right_delta = _delta(expr.right, targets, order)
        combine = (
            (lambda a, b: ra.CrossProduct(a, b))
            if isinstance(expr, ra.CrossProduct)
            else (lambda a, b: ra.ThetaJoin(a, b, expr.on))
        )
        return ra.UnionAll(
            ra.UnionAll(combine(left_delta, expr.right), combine(expr.left, right_delta)),
            combine(left_delta, right_delta),
        )
    raise NotInFragmentError(f"no flat delta rule for {type(expr).__name__}")


class _EmptyRel(ra.RAExpr):
    """The constant empty relation of a given schema."""

    def __init__(self, schema: ra.RelSchema) -> None:
        self._schema = schema

    def schema(self) -> ra.RelSchema:
        return self._schema

    def evaluate(self, database, deltas=None):
        from repro.bag.bag import EMPTY_BAG

        return EMPTY_BAG

    def __repr__(self) -> str:
        return "∅"
