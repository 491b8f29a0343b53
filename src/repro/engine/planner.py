"""Cost-driven strategy planning (Section 4 as a query planner).

The paper's cost interpretation ``C[[·]]`` (Figure 5) with ``tcost`` (Lemma 3)
bounds the running time of evaluating any IncNRC+ expression.  The planner
applies it to the *maintenance* work of each of the paper's four strategies
(:data:`STRATEGIES`):

* **naive** — re-evaluates ``h`` per update: ``tcost(C[[h]])`` plus a full
  scan of every referenced relation;
* **classic** — evaluates ``δ(h)`` per update (Proposition 4.1): its tcost
  plus a scan of the base relations that survive in the delta;
* **recursive** — evaluates the residual delta over materialized
  sub-expressions (Section 4.1) plus the (higher-order) deltas maintaining
  those materializations; base relations replaced by materializations no
  longer count toward the scan term;
* **nested** — evaluates ``δ(h^F)`` and the context-dictionary deltas over
  the shredded database (Section 5, Theorem 5).

Estimates are grounded in the *current* database instance (via
:func:`repro.cost.size.size_of`) and an assumed update batch size ``d``
(``expected_update_size``).  Following Theorem 4's reading — incrementalize
only when the delta is strictly cheaper — ``auto`` picks the cheapest
incremental strategy when it beats naive re-evaluation, and naive otherwise;
ties between incremental strategies break by table order.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, NamedTuple, Optional, Tuple

from repro.cost.domains import ATOM_COST, BagCost, Cost, bottom_cost, sup
from repro.cost.size import size_of
from repro.cost.tcost import tcost
from repro.cost.transform import CostContext, cost_of, dictionary_cost_of
from repro.delta.rules import delta
from repro.errors import CostModelError, EngineError, NotInFragmentError, ShreddingError
from repro.engine.plan import MaintenancePlan, StrategyEstimate
from repro.ivm.classic import ClassicIVMView
from repro.ivm.database import Database
from repro.ivm.naive import NaiveView
from repro.ivm.nested import NestedIVMView
from repro.ivm.recursive import RecursiveIVMView, partially_evaluate
from repro.nrc.analysis import (
    is_incremental_fragment,
    referenced_relations,
    referenced_sources,
)
from repro.nrc.ast import Expr
from repro.nrc.pretty import render
from repro.nrc.rewrite import simplify
from repro.nrc.types import BagType
from repro.shredding.context import iter_context_dicts
from repro.shredding.shred_query import shred_query

__all__ = [
    "STRATEGIES",
    "PlanningInputs",
    "Strategy",
    "plan_view",
    "estimate_naive",
    "estimate_classic",
    "estimate_recursive",
    "estimate_nested",
]


class PlanningInputs:
    """Cost-model inputs for planning one view over a concrete database.

    Bundles the database instance statistics (relation sizes, shredded-mirror
    sizes, dictionary entry bounds) and the assumed update size ``d`` so the
    backend estimators can build :class:`~repro.cost.transform.CostContext`
    objects without re-measuring the data.
    """

    def __init__(
        self,
        query: Expr,
        database: Database,
        targets: Optional[Iterable[str]] = None,
        expected_update_size: int = 1,
    ) -> None:
        if expected_update_size < 1:
            raise EngineError("expected update size must be at least 1")
        self.query = query
        self.database = database
        self.d = expected_update_size
        self.explicit_targets = targets is not None
        self.targets: Tuple[str, ...] = tuple(
            sorted(targets) if targets is not None else sorted(referenced_relations(query))
        )
        # Measuring the instance walks every stored bag; do it once per
        # planning run, not once per estimator call.
        self._base_costs: Optional[Dict[str, BagCost]] = None
        self._shredded_costs: Optional[
            Tuple[Dict[str, BagCost], Dict[str, BagCost]]
        ] = None

    # ------------------------------------------------------------------ #
    # Cost contexts
    # ------------------------------------------------------------------ #
    def base_context(self) -> CostContext:
        """Costs of the nested relations plus ``ΔR`` symbols of size ``d``."""
        if self._base_costs is None:
            self._base_costs = {
                name: self._bag_cost(
                    self.database.relation(name), self.database.schema(name)
                )
                for name in self.database.relation_names()
            }
        relations = dict(self._base_costs)
        deltas: Dict[Tuple[str, int], BagCost] = {}
        for name in self.targets:
            if name not in relations:
                continue
            deltas[(name, 1)] = BagCost(self.d, relations[name].element)
        return CostContext(relations=relations, deltas=deltas)

    def shredded_context(self, sources: Iterable[str]) -> CostContext:
        """Costs of the shredded mirror plus delta symbols for ``sources``."""
        if self._shredded_costs is None:
            env = self.database.shredded_environment()
            self._shredded_costs = (
                {name: self._bag_cost(bag) for name, bag in env.relations.items()},
                {
                    name: self._entry_bound(dictionary)
                    for name, dictionary in env.dictionaries.items()
                },
            )
        relations = dict(self._shredded_costs[0])
        dictionaries = dict(self._shredded_costs[1])
        deltas: Dict[Tuple[str, int], BagCost] = {}
        for name in sources:
            if name in relations:
                deltas[(name, 1)] = BagCost(self.d, relations[name].element)
            elif name in dictionaries:
                deltas[(name, 1)] = BagCost(self.d, dictionaries[name].element)
        return CostContext(relations=relations, dictionaries=dictionaries, deltas=deltas)

    # ------------------------------------------------------------------ #
    # Scan terms
    # ------------------------------------------------------------------ #
    def scan_cost(self, expr: Expr, context: CostContext) -> int:
        """Tuples re-read from base sources when evaluating ``expr`` once.

        ``tcost`` bounds the output-production work (Lemma 3's lazy bound);
        this term adds the cost of reading every *base relation* the
        expression still mentions, which is what separates backends that
        re-scan the database per update from those that touch only the
        update and their own materializations.
        """
        total = 0
        for name in referenced_relations(expr):
            cost = context.relations.get(name)
            if cost is not None:
                total += tcost(cost)
        return total

    # ------------------------------------------------------------------ #
    # Measuring helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _bag_cost(bag, schema: Optional[BagType] = None) -> BagCost:
        cost = size_of(bag, schema)
        if not isinstance(cost, BagCost):  # pragma: no cover - relations are bags
            raise CostModelError("relations must measure to bag costs")
        if cost.cardinality == 0 and schema is not None:
            # Empty relations still need a usable element bound for deltas.
            return BagCost(0, bottom_cost(schema.element))
        return cost

    @staticmethod
    def _entry_bound(dictionary) -> BagCost:
        bound: Optional[Cost] = None
        for _, bag in dictionary.items():
            entry_cost = size_of(bag)
            bound = entry_cost if bound is None else sup(bound, entry_cost)
        if isinstance(bound, BagCost):
            return bound
        return BagCost(1, ATOM_COST)


# --------------------------------------------------------------------------- #
# Strategy estimators
# --------------------------------------------------------------------------- #
def estimate_naive(query: Expr, inputs: PlanningInputs) -> StrategyEstimate:
    """Full re-evaluation: ``tcost(C[[h]])`` plus a scan of every source."""
    try:
        context = inputs.base_context()
        bound = tcost(cost_of(query, context))
        scan = inputs.scan_cost(query, context)
    except CostModelError as exc:
        return StrategyEstimate("naive", True, reason=f"no estimate: {exc}")
    return StrategyEstimate(
        "naive", True, reason="re-evaluates the query per update", tcost=bound, scan_cost=scan
    )


def estimate_classic(query: Expr, inputs: PlanningInputs) -> StrategyEstimate:
    """First-order delta processing: ``tcost(C[[δ(h)]])`` (Proposition 4.1)."""
    if not is_incremental_fragment(query):
        return StrategyEstimate(
            "classic",
            False,
            reason="outside IncNRC+ (input-dependent sng); requires shredding",
        )
    try:
        delta_query = delta(query, inputs.targets)
        context = inputs.base_context()
        bound = tcost(cost_of(delta_query, context))
        scan = inputs.scan_cost(delta_query, context)
    except (CostModelError, NotInFragmentError) as exc:
        return StrategyEstimate("classic", True, reason=f"no estimate: {exc}")
    return StrategyEstimate(
        "classic",
        True,
        reason="evaluates δ(h) against the pre-update state",
        tcost=bound,
        scan_cost=scan,
        artifacts={"delta query": render(delta_query)},
    )


def estimate_recursive(query: Expr, inputs: PlanningInputs) -> StrategyEstimate:
    """Residual delta over materializations plus their own (cheap) deltas."""
    if not is_incremental_fragment(query):
        return StrategyEstimate(
            "recursive",
            False,
            reason="outside IncNRC+ (input-dependent sng); requires shredding",
        )
    try:
        first_order = delta(query, inputs.targets)
        residual, to_materialize = partially_evaluate(first_order, inputs.targets)
        residual = simplify(residual)
        context = inputs.base_context()
        for name, expression in to_materialize:
            context.bag_vars[name] = cost_of(expression, inputs.base_context())
        bound = tcost(cost_of(residual, context))
        scan = inputs.scan_cost(residual, context)
        for _, expression in to_materialize:
            maintenance = delta(expression, inputs.targets)
            bound += tcost(cost_of(maintenance, inputs.base_context()))
            scan += inputs.scan_cost(maintenance, context)
    except (CostModelError, NotInFragmentError) as exc:
        return StrategyEstimate("recursive", True, reason=f"no estimate: {exc}")
    return StrategyEstimate(
        "recursive",
        True,
        reason=f"materializes {len(to_materialize)} database-dependent sub-expression(s)",
        tcost=bound,
        scan_cost=scan,
        artifacts={"residual delta": render(residual)},
    )


def estimate_nested(query: Expr, inputs: PlanningInputs) -> StrategyEstimate:
    """Shredded maintenance: ``δ(h^F)`` plus the context-dictionary deltas."""
    try:
        shredded = shred_query(query)
    except ShreddingError as exc:
        return StrategyEstimate("nested", False, reason=f"cannot shred: {exc}")
    if shredded.output_type is None:
        return StrategyEstimate("nested", False, reason="unknown output type")
    try:
        sources = set(referenced_sources(shredded.flat))
        dict_expressions = [expr for _, expr in iter_context_dicts(shredded.context)]
        for expression in dict_expressions:
            sources |= set(referenced_sources(expression))
        ordered_sources = tuple(sorted(sources))
        context = inputs.shredded_context(ordered_sources)

        flat_delta = delta(shredded.flat, ordered_sources)
        bound = tcost(cost_of(flat_delta, context))
        scan = inputs.scan_cost(flat_delta, context)
        for expression in dict_expressions:
            dict_delta = delta(expression, ordered_sources)
            bound += tcost(dictionary_cost_of(dict_delta, context))
            scan += inputs.scan_cost(dict_delta, context)
    except (CostModelError, NotInFragmentError, ShreddingError) as exc:
        return StrategyEstimate("nested", True, reason=f"no estimate: {exc}")
    return StrategyEstimate(
        "nested",
        True,
        reason=f"maintains h^F and {len(dict_expressions)} context dictionary(ies)",
        tcost=bound,
        scan_cost=scan,
        artifacts={"shredded flat": render(shredded.flat)},
    )


# --------------------------------------------------------------------------- #
# The strategy table
# --------------------------------------------------------------------------- #
class Strategy(NamedTuple):
    """One of the paper's four ways to maintain a view."""

    #: The :mod:`repro.ivm` class that maintains a view this way.
    view: type
    estimate: Callable[[Expr, PlanningInputs], StrategyEstimate]
    #: Maintains first-order deltas of IncNRC+ (Proposition 4.1): honours an
    #: explicit ``targets`` list and rejects queries outside IncNRC+.  The
    #: other strategies derive their own update sources from the query.
    inc_nrc: bool


#: The closed strategy set, in planner priority order: naive first (the
#: Theorem 4 baseline), then first-order deltas (Proposition 4.1), recursive
#: IVM with materialized higher-order deltas (Section 4.1) and shredded IVM
#: for full NRC+ (Section 5).
STRATEGIES: Dict[str, Strategy] = {
    "naive": Strategy(NaiveView, estimate_naive, inc_nrc=False),
    "classic": Strategy(ClassicIVMView, estimate_classic, inc_nrc=True),
    "recursive": Strategy(RecursiveIVMView, estimate_recursive, inc_nrc=True),
    "nested": Strategy(NestedIVMView, estimate_nested, inc_nrc=False),
}


# --------------------------------------------------------------------------- #
# Planning
# --------------------------------------------------------------------------- #
def plan_view(
    query: Expr,
    database: Database,
    *,
    name: str = "<view>",
    requested: str = "auto",
    expected_update_size: int = 1,
    targets: Optional[Iterable[str]] = None,
) -> MaintenancePlan:
    """Score the four strategies for ``query`` and pick one.

    With ``requested="auto"`` the choice follows Theorem 4's reading: the
    cheapest incremental strategy wins when strictly cheaper than naive
    re-evaluation, otherwise naive does.  An explicit ``requested`` name is
    honored as-is; the estimates are still computed so ``explain`` can show
    what the planner would have thought.
    """
    inputs = PlanningInputs(query, database, targets, expected_update_size)
    estimates = []
    for strategy_name, entry in STRATEGIES.items():
        if inputs.explicit_targets and not entry.inc_nrc:
            # A strategy that derives its own update sources would refresh on
            # relations the caller pinned out — semantically a different view.
            estimates.append(
                StrategyEstimate(
                    strategy_name, False, reason="does not honor an explicit targets list"
                )
            )
        else:
            estimates.append(entry.estimate(query, inputs))

    if requested != "auto":
        if requested not in STRATEGIES:
            raise EngineError(
                f"unknown strategy {requested!r}; available: {', '.join(STRATEGIES)}"
            )
        chosen, reason = requested, "explicitly requested"
    else:
        chosen, reason = _choose(estimates)

    artifacts = dict(next(e for e in estimates if e.strategy == chosen).artifacts)
    return MaintenancePlan(
        view_name=name,
        query=query,
        strategy=chosen,
        requested=requested,
        reason=reason,
        estimates=tuple(estimates),
        expected_update_size=expected_update_size,
        artifacts=artifacts,
    )


def _choose(estimates) -> Tuple[str, str]:
    """Pick the auto strategy from the estimates, in :data:`STRATEGIES` order."""
    naive, *incremental = estimates
    naive_total = naive.total if naive.eligible else None
    best = min(
        (e for e in incremental if e.eligible and e.total is not None),
        key=lambda estimate: estimate.total,
        default=None,
    )

    if best is not None and (naive_total is None or best.total < naive_total):
        comparison = (
            f"estimated per-update cost {best.total} < naive {naive_total}"
            if naive_total is not None
            else f"estimated per-update cost {best.total}"
        )
        return best.strategy, f"cheapest incremental backend ({comparison})"
    if naive.eligible:
        if best is not None:
            return (
                "naive",
                f"no incremental backend beats re-evaluation "
                f"(best incremental {best.total} ≥ naive {naive_total})",
            )
        return "naive", "no eligible incremental backend produced an estimate"
    # Explicit targets rule naive out; an IncNRC+ strategy the cost model
    # could not estimate still maintains the view.
    for estimate in incremental:
        if estimate.eligible:
            return estimate.strategy, "fallback: first eligible backend"
    raise EngineError("no strategy can maintain this query under an explicit targets list")
