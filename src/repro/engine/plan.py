"""Maintenance plans: the output of the cost-driven strategy planner.

``engine.view(name, query, strategy="auto")`` routes every view through the
planner, which scores each registered backend with the paper's cost model
(Section 4: ``C[[·]]`` and ``tcost``) and records the result here.  A
:class:`MaintenancePlan` is what ``engine.explain(view)`` returns: the chosen
strategy, the per-strategy estimates that justified the choice, and the
derived artifacts (delta query, residual delta, shredded flat/context) of the
winning backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.nrc.ast import Expr
from repro.nrc.pretty import render as render_expr

__all__ = ["StrategyEstimate", "MaintenancePlan"]


@dataclass
class StrategyEstimate:
    """The planner's verdict on one candidate backend for one view.

    ``tcost`` bounds the work of evaluating the backend's per-update
    (delta) queries — ``tcost(C[[δ(h)]])`` of Lemma 3 — and ``scan_cost``
    adds the tuples the backend must re-read from base sources on every
    refresh (zero for backends whose deltas touch only the update and their
    own materializations).  ``total`` is their sum; the planner minimizes it.
    """

    strategy: str
    eligible: bool
    reason: str = ""
    tcost: Optional[int] = None
    scan_cost: Optional[int] = None
    artifacts: Dict[str, str] = field(default_factory=dict)

    @property
    def total(self) -> Optional[int]:
        """The planner's objective: estimated per-update work, or ``None``."""
        if self.tcost is None:
            return None
        return self.tcost + (self.scan_cost or 0)

    def to_dict(self) -> Dict[str, object]:
        """Plain-data form (JSON-serializable: dicts/lists/scalars only)."""
        return {
            "strategy": self.strategy,
            "eligible": self.eligible,
            "reason": self.reason,
            "tcost": self.tcost,
            "scan_cost": self.scan_cost,
            "total": self.total,
            "artifacts": dict(self.artifacts),
        }

    def render(self) -> str:
        marker = "ok " if self.eligible else "-- "
        if self.total is not None:
            costs = f"tcost={self.tcost} scan={self.scan_cost or 0} total={self.total}"
        else:
            costs = "no estimate"
        suffix = f"  ({self.reason})" if self.reason else ""
        return f"{marker}{self.strategy:<10} {costs}{suffix}"

    def __repr__(self) -> str:
        return f"StrategyEstimate({self.render().strip()})"


@dataclass
class MaintenancePlan:
    """How one view will be maintained, and why.

    ``strategy`` names the backend that will run the view; ``requested``
    records what the caller asked for (``"auto"`` or an explicit name);
    ``estimates`` holds one :class:`StrategyEstimate` per registered backend
    in registry order; ``artifacts`` maps labels (``"delta query"``,
    ``"residual delta"``, ``"shredded flat"``, …) to rendered expressions of
    the chosen backend.
    """

    view_name: str
    query: Expr
    strategy: str
    requested: str
    reason: str
    estimates: Tuple[StrategyEstimate, ...] = ()
    expected_update_size: int = 1
    artifacts: Dict[str, str] = field(default_factory=dict)
    #: ``"compiled"`` when the built view runs its per-update queries through
    #: the closure compiler (:mod:`repro.nrc.compile`), ``"interpreted"``
    #: otherwise.  Filled in by the facade once the backend view exists.
    execution: str = "interpreted"
    #: One rendered entry per join atom of the view's compiled queries,
    #: marking whether the storage layer keeps a persistent index for it
    #: (``"M[.1] (persistent)"``) or the pipeline rebuilds per evaluation.
    #: Filled in by the facade once the backend view exists.
    indexes: Tuple[str, ...] = ()
    #: Relation-store shard count at planning time (``1`` = unsharded hatch).
    shards: int = 1
    #: How independent views are refreshed per update:
    #: ``"shared-snapshot inline"`` or ``"threads(N)"``.
    parallel_apply: str = "shared-snapshot inline"
    #: Rendered per-update application cost unit (``"O(|Δ|/N) per shard"``).
    apply_unit: str = "O(|Δ|)"
    #: The execution backend shard-apply units run on: a pinned name
    #: (``"processes(4)"``, with a degradation arrow when this runtime
    #: lacks it) or the cost model's pick for the assumed delta size
    #: (``"auto(serial)"``).
    backend: str = "auto(serial)"

    def estimate_for(self, strategy: str) -> Optional[StrategyEstimate]:
        """The estimate recorded for a given backend name (``None`` if absent)."""
        for estimate in self.estimates:
            if estimate.strategy == strategy:
                return estimate
        return None

    @property
    def chosen_estimate(self) -> Optional[StrategyEstimate]:
        return self.estimate_for(self.strategy)

    def to_dict(self) -> Dict[str, object]:
        """Plain-data form of the plan for wire protocols and CLI tables.

        Everything is JSON-serializable without a bespoke encoder: the query
        is rendered to its calculus string, estimates become plain dicts,
        and no ``Expr``/``Label``/dataclass objects leak through.  Round-trips
        ``json.loads(json.dumps(plan.to_dict())) == plan.to_dict()``.
        """
        return {
            "view": self.view_name,
            "query": render_expr(self.query),
            "strategy": self.strategy,
            "requested": self.requested,
            "reason": self.reason,
            "execution": self.execution,
            "indexes": list(self.indexes),
            "shards": self.shards,
            "parallel_apply": self.parallel_apply,
            "apply_unit": self.apply_unit,
            "backend": self.backend,
            "expected_update_size": self.expected_update_size,
            "estimates": [estimate.to_dict() for estimate in self.estimates],
            "artifacts": dict(self.artifacts),
        }

    def render(self) -> str:
        """Human-readable multi-line explanation (what ``explain`` prints)."""
        lines = [
            f"MaintenancePlan for view {self.view_name!r}",
            f"  strategy : {self.strategy} (requested: {self.requested})",
            f"  execution: {self.execution}",
            f"  indexes  : {', '.join(self.indexes) if self.indexes else 'none'}",
            f"  storage  : {self.shards} shard(s), apply {self.apply_unit}, "
            f"view refresh {self.parallel_apply}",
            f"  backend  : {self.backend}",
            f"  reason   : {self.reason}",
            f"  assumed update size d = {self.expected_update_size}",
            "  candidates:",
        ]
        for estimate in self.estimates:
            lines.append(f"    {estimate.render()}")
        for label, text in self.artifacts.items():
            lines.append(f"  {label}: {text}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        totals = ", ".join(
            f"{e.strategy}={e.total if e.total is not None else '∅'}"
            for e in self.estimates
        )
        return (
            f"MaintenancePlan(view={self.view_name!r}, strategy={self.strategy!r}, "
            f"estimates=[{totals}])"
        )
