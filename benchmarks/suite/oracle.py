"""The correctness oracle: the NRC+ interpreter over the acknowledged prefix.

Every workload keeps its own *model* of each relation — the seeded instance
⊎ every acknowledged delta — and, when the run ends, compares each view the
system maintained with ``repro.nrc.evaluator`` evaluating the view's query
over that model.  The interpreter is the semantic reference of the repo
(the compiled pipeline and every IVM strategy are tested against it); it
never sees engine state.

The interpreter runs equality joins as nested loops, so evaluating a
self-join over the whole model would outlast the run.  Where a query's join
predicate contains an equality on one column, :func:`interpret_partitioned`
evaluates it once per value of that column over the matching rows only and
unions the parts — pairs never cross partitions, so the union is the full
result, and every match decision is still the interpreter's.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping

from repro.bag.bag import Bag, EMPTY_BAG
from repro.nrc.ast import Expr
from repro.nrc.evaluator import Environment, evaluate_bag


def interpret(expr: Expr, relations: Mapping[str, Bag]) -> Bag:
    return evaluate_bag(expr, Environment(relations=dict(relations)))


def interpret_partitioned(
    expr: Expr, relations: Mapping[str, Bag], key_column: Mapping[str, int]
) -> Bag:
    """Evaluate ``expr`` per join-key value and union the parts.

    ``key_column[name]`` is the tuple position of the equi-join column in
    relation ``name`` — every keyed relation must be one the query iterates
    and joins on that column; relations not listed are passed whole.
    """
    parts: Dict[Any, Dict[str, List]] = {}
    for name, column in key_column.items():
        for element, multiplicity in relations[name].items():
            parts.setdefault(element[column], {}).setdefault(name, []).append(
                (element, multiplicity)
            )
    result = EMPTY_BAG
    for rows in parts.values():
        if len(rows) < len(key_column):
            # Some keyed relation has no row with this key: every keyed
            # relation is a generator of the join, so the part is empty.
            continue
        scoped = dict(relations)
        for name in key_column:
            scoped[name] = Bag.from_pairs(rows.get(name, ()))
        result = result.union(interpret(expr, scoped))
    return result


def mismatches(label: str, got: Bag, want: Bag) -> List[str]:
    """Human-readable differences (empty when the bags are equal)."""
    if got == want:
        return []
    extra = got.union(want.negate())
    sample = list(extra.items())[:3]
    return [
        f"{label}: result differs from the interpreter "
        f"(got {got.cardinality()} rows, want {want.cardinality()}; e.g. {sample!r})"
    ]
