"""Static key-footprint analysis of dictionary delta expressions.

The nested view refreshes every context dictionary by probing the update's
*delta dictionary* — ``δ(h^Γ)`` evaluated over the shredded delta symbols.
When that delta has finite support (deep updates arriving as explicit label
deltas) only the touched labels are probed, but an **intensional** delta (a
``DictSingleton`` whose body joins ``ΔR`` against the database) reports no
support and used to be probed for *every* existing label — the O(n·d) term
of §2.2 of the paper.

Almost every such body constrains the label's value assignment ``ε`` against
the delta tuples through equality predicates: for the running ``related``
query the delta body is

    for m2 in ΔM^F where π₁(m) = π₁(m2) ∨ π₂(m) = π₂(m2) ...

so a label ⟨ι, m⟩ can only change if *some* delta tuple agrees with ``m`` on
the genre or the director position.  This module extracts that fact **once,
statically, at view construction**: :func:`analyze` walks the delta
expression, puts the guard predicates of each ``DictSingleton`` body in
(bounded) disjunctive normal form, and keeps every disjunct's
``ε``-projection ↔ ``Δ``-projection equality atoms as a
:class:`KeyConstraint`.  At refresh time the view projects the delta bag at
the ``Δ`` paths (O(|Δ|) keys) and consults a per-dictionary key → label
index maintained alongside the entries map, probing only the matched labels
— the delta's **label footprint**.

Soundness over precision: any construct the analysis cannot bound a label
set for (``Let`` bindings, dictionary lookups in bag position, a disjunct
with no usable equality atom) makes :func:`analyze` return ``None`` and the
view falls back to the all-labels sweep, which is always correct.  Dropping
atoms (``Not`` terms, constant comparisons, second join variables) only
*widens* the footprint, never narrows it, so every widening is sound too.

Inside :func:`forced_no_footprint` footprint-bounded probing is disabled
and every refresh runs the all-labels sweep — a test switch: the sweep is
the reference the bounded probes are checked against.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.nrc import ast
from repro.nrc.predicates import (
    And,
    Comparison,
    Not,
    Or,
    Predicate,
    TruePredicate,
    VarPath,
)

__all__ = [
    "FootprintPlan",
    "KeyConstraint",
    "SingletonPlan",
    "analyze",
    "footprint_enabled",
    "forced_no_footprint",
]

#: Set only inside :func:`forced_no_footprint`.
_footprint_disabled = False

#: DNF expansion caps: an analysis that would exceed them bails to the full
#: sweep instead of building a huge (still-sound but useless) plan.
_MAX_DISJUNCTS = 32
_MAX_BRANCHES = 32


def footprint_enabled() -> bool:
    """True unless inside :func:`forced_no_footprint`."""
    return not _footprint_disabled


@contextmanager
def forced_no_footprint(disabled: bool = True) -> Iterator[None]:
    """Temporarily disable (or re-enable) footprint-bounded probing.

    Dynamic, like :func:`repro.storage.store.forced_no_index`: the plans
    stay attached to the views, but refreshes inside the block run the
    all-labels sweep.
    """
    global _footprint_disabled
    saved = _footprint_disabled
    _footprint_disabled = disabled
    try:
        yield
    finally:
        _footprint_disabled = saved


@dataclass(frozen=True)
class KeyConstraint:
    """One disjunct's joint equality key between ``ε`` and a delta relation.

    A label ⟨ι, ε⟩ satisfies this constraint iff some element ``t`` of the
    ``ΔR`` bag named ``delta_name`` agrees with it on every aligned pair:
    ``project(ε[param], param_path) == project(t, delta_path)``.  The paths
    are tuple projections (the only operand form flat predicates use).
    """

    delta_name: str
    delta_paths: Tuple[Tuple[int, ...], ...]
    #: Aligned with ``delta_paths``: (parameter position in ε, path into it).
    param_paths: Tuple[Tuple[int, Tuple[int, ...]], ...]


@dataclass(frozen=True)
class SingletonPlan:
    """The footprint of one ``DictSingleton`` occurrence of the delta.

    A label with this ``iota`` (and ``arity`` packed values) may receive a
    non-empty delta only if it satisfies at least one of ``constraints``.
    An empty tuple means the body is statically empty — no label of this
    iota is ever touched.
    """

    iota: str
    arity: int
    constraints: Tuple[KeyConstraint, ...]


@dataclass(frozen=True)
class FootprintPlan:
    """Everything needed to bound one dictionary's refresh by its delta.

    ``singletons`` cover the intensional parts; ``dict_deltas`` names the
    ``ΔDict`` symbols whose runtime support contributes labels directly
    (deep updates riding along in the same delta expression).
    """

    singletons: Tuple[SingletonPlan, ...]
    dict_deltas: Tuple[str, ...]

    def key_combos(self) -> Tuple[Tuple[str, Tuple[Tuple[int, Tuple[int, ...]], ...]], ...]:
        """The distinct (iota, param_paths) combinations the label index needs."""
        combos = []
        for singleton in self.singletons:
            for constraint in singleton.constraints:
                combo = (singleton.iota, constraint.param_paths)
                if combo not in combos:
                    combos.append(combo)
        return tuple(combos)


# --------------------------------------------------------------------------- #
# Analysis entry point
# --------------------------------------------------------------------------- #
def analyze(delta_expression: ast.Expr) -> Optional[FootprintPlan]:
    """A bounded footprint plan for a dictionary delta, or ``None``.

    ``None`` means some part of the expression could touch labels the plan
    cannot enumerate from the delta — the caller must keep the all-labels
    sweep for correctness.
    """
    singletons: List[SingletonPlan] = []
    dict_deltas: List[str] = []
    if not _walk_dict(delta_expression, singletons, dict_deltas):
        return None
    return FootprintPlan(tuple(singletons), tuple(dict_deltas))


def _walk_dict(
    expr: ast.Expr, singletons: List[SingletonPlan], dict_deltas: List[str]
) -> bool:
    if isinstance(expr, ast.DictEmpty):
        return True
    if isinstance(expr, (ast.DictUnion, ast.DictAdd)):
        return all(_walk_dict(term, singletons, dict_deltas) for term in expr.terms)
    if isinstance(expr, ast.DeltaDictVar):
        if expr.name not in dict_deltas:
            dict_deltas.append(expr.name)
        return True
    if isinstance(expr, ast.DictSingleton):
        plan = _singleton_plan(expr)
        if plan is None:
            return False
        singletons.append(plan)
        return True
    # DictVar (a stored input dictionary: every label), DictLookup results,
    # Let-bound dictionaries, … — no static bound.
    return False


def _singleton_plan(node: ast.DictSingleton) -> Optional[SingletonPlan]:
    branches = _branches(node.body)
    if branches is None:
        return None
    params = {name: position for position, name in enumerate(node.params)}
    constraints: List[KeyConstraint] = []
    for predicates, delta_vars in branches:
        disjuncts = _conjunction_dnf(predicates)
        if disjuncts is None:
            return None
        for atoms in disjuncts:
            constraint = _key_constraint(atoms, delta_vars, params)
            if constraint is None:
                # An unconstrained way for this label to change: no bound.
                return None
            if constraint not in constraints:
                constraints.append(constraint)
    return SingletonPlan(node.iota, len(node.params), tuple(constraints))


# --------------------------------------------------------------------------- #
# Branch collection: which (predicates, delta bindings) make the body
# non-empty?  A branch is one way the body can produce elements; the body is
# non-empty only if some branch's conjunction holds with its delta variables
# bound to delta elements.
# --------------------------------------------------------------------------- #
_Branch = Tuple[Tuple[Predicate, ...], Dict[str, str]]


def _branches(expr: ast.Expr) -> Optional[List[_Branch]]:
    if isinstance(expr, ast.Empty):
        return []
    if isinstance(expr, ast.Union):
        collected: List[_Branch] = []
        for term in expr.terms:
            term_branches = _branches(term)
            if term_branches is None:
                return None
            collected.extend(term_branches)
            if len(collected) > _MAX_BRANCHES:
                return None
        return collected
    if isinstance(expr, ast.For):
        source = expr.source
        if isinstance(source, ast.DeltaRelation):
            if source.order != 1:
                return None
            source_branches: Optional[List[_Branch]] = [((), {expr.var: source.name})]
        elif isinstance(source, ast.Pred):
            source_branches = [((source.predicate,), {})]
        elif isinstance(source, (ast.Relation, ast.BagVar)):
            source_branches = [((), {})]
        else:
            # The bound variable stays unconstrained; the source's own
            # requirements still apply.
            source_branches = _branches(source)
        if source_branches is None:
            return None
        body_branches = _branches(expr.body)
        if body_branches is None:
            return None
        return _cross(source_branches, body_branches)
    if isinstance(expr, ast.Product):
        combined: Optional[List[_Branch]] = [((), {})]
        for factor in expr.factors:
            factor_branches = _branches(factor)
            if factor_branches is None:
                return None
            combined = _cross(combined, factor_branches)
            if combined is None:
                return None
        return combined
    if isinstance(expr, ast.Pred):
        return [((expr.predicate,), {})]
    if isinstance(expr, (ast.Flatten, ast.Negate)):
        # Non-emptiness of the wrapper requires non-emptiness of the body;
        # negation preserves support.
        return _branches(expr.body)
    if isinstance(expr, (ast.Sng, ast.SngVar, ast.SngProj, ast.SngUnit, ast.InLabel)):
        return [((), {})]
    if isinstance(expr, (ast.Relation, ast.BagVar, ast.DeltaRelation)):
        # A bare bag reference: may be non-empty with no key constraint.
        return [((), {})]
    # Let, DictLookup, nested dictionary constructs, … — unanalyzable.
    return None


def _cross(left: List[_Branch], right: List[_Branch]) -> Optional[List[_Branch]]:
    combined: List[_Branch] = []
    for left_preds, left_vars in left:
        for right_preds, right_vars in right:
            merged_vars = dict(left_vars)
            merged_vars.update(right_vars)
            combined.append((left_preds + right_preds, merged_vars))
            if len(combined) > _MAX_BRANCHES:
                return None
    return combined


# --------------------------------------------------------------------------- #
# Predicate normalization: conjunction of predicates → bounded DNF whose
# atoms are Comparison leaves.  Dropping a term (Not, non-comparison leaves)
# replaces it with "true", which widens the footprint — sound.
# --------------------------------------------------------------------------- #
def _conjunction_dnf(
    predicates: Tuple[Predicate, ...]
) -> Optional[List[Tuple[Comparison, ...]]]:
    disjuncts: List[Tuple[Comparison, ...]] = [()]
    for predicate in predicates:
        term_dnf = _dnf(predicate)
        if term_dnf is None:
            return None
        expanded = [
            existing + additional for existing in disjuncts for additional in term_dnf
        ]
        if len(expanded) > _MAX_DISJUNCTS:
            return None
        disjuncts = expanded
    return disjuncts


def _dnf(predicate: Predicate) -> Optional[List[Tuple[Comparison, ...]]]:
    if isinstance(predicate, Comparison):
        return [(predicate,)]
    if isinstance(predicate, TruePredicate):
        return [()]
    if isinstance(predicate, Not):
        # No information extracted: treated as "true" (widening).
        return [()]
    if isinstance(predicate, And):
        return _conjunction_dnf(tuple(predicate.terms))
    if isinstance(predicate, Or):
        collected: List[Tuple[Comparison, ...]] = []
        for term in predicate.terms:
            term_dnf = _dnf(term)
            if term_dnf is None:
                return None
            collected.extend(term_dnf)
            if len(collected) > _MAX_DISJUNCTS:
                return None
        return collected
    # Unknown predicate kinds carry no extractable structure.
    return [()]


def _key_constraint(
    atoms: Tuple[Comparison, ...],
    delta_vars: Dict[str, str],
    params: Dict[str, int],
) -> Optional[KeyConstraint]:
    """The joint key this disjunct pins between ε and one delta variable.

    Only ``ε``-projection = ``Δ``-projection equalities are usable.  When
    atoms span several delta variables the one with the most atoms wins and
    the rest are dropped (widening).  ``None`` when no atom is usable — the
    disjunct leaves the label unconstrained.
    """
    by_delta_var: Dict[str, List[Tuple[Tuple[int, ...], Tuple[int, Tuple[int, ...]]]]] = {}
    for atom in atoms:
        if atom.op != "==":
            continue
        for param_side, delta_side in ((atom.left, atom.right), (atom.right, atom.left)):
            if (
                isinstance(param_side, VarPath)
                and isinstance(delta_side, VarPath)
                and param_side.var in params
                and delta_side.var in delta_vars
            ):
                pair = (
                    tuple(delta_side.path),
                    (params[param_side.var], tuple(param_side.path)),
                )
                pairs = by_delta_var.setdefault(delta_side.var, [])
                if pair not in pairs:
                    pairs.append(pair)
                break
    if not by_delta_var:
        return None
    chosen = max(by_delta_var, key=lambda var: (len(by_delta_var[var]), var))
    pairs = sorted(by_delta_var[chosen])
    return KeyConstraint(
        delta_name=delta_vars[chosen],
        delta_paths=tuple(delta_path for delta_path, _ in pairs),
        param_paths=tuple(param_path for _, param_path in pairs),
    )
