"""Maintenance plans: what the strategy planner decided for one view, and why.

``engine.view(name, query, strategy="auto")`` routes every view through
:func:`~repro.engine.planner.plan_view`, which picks a strategy from the
query's fragment (Theorem 4, Section 4.1, Section 5).  A
:class:`MaintenancePlan` is what ``engine.explain(view)`` returns: the chosen
strategy, the rule that chose it, and the derived artifact (delta query,
residual delta, shredded flat query) of the built view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.nrc.ast import Expr
from repro.nrc.pretty import render as render_expr

__all__ = ["MaintenancePlan"]


@dataclass
class MaintenancePlan:
    """How one view will be maintained, and why.

    ``strategy`` names the backend that will run the view; ``requested``
    records what the caller asked for (``"auto"`` or an explicit name);
    ``reason`` states the rule behind the choice and the paper result it
    cites; ``artifacts`` maps labels (``"delta query"``, ``"residual
    delta"``, ``"shredded flat"``) to rendered expressions of the built view.
    """

    view_name: str
    query: Expr
    strategy: str
    requested: str
    reason: str
    #: Filled in by the facade once the backend view exists.
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

    def to_dict(self) -> Dict[str, object]:
        """Plain-data form of the plan for wire protocols and CLI tables.

        Everything is JSON-serializable without a bespoke encoder: the query
        is rendered to its calculus string, and no ``Expr``/``Label``/
        dataclass objects leak through.  Round-trips
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
            "artifacts": dict(self.artifacts),
        }

    def render(self) -> str:
        """Human-readable multi-line explanation (what ``explain`` prints)."""
        lines = [
            f"MaintenancePlan for view {self.view_name!r}",
            f"  strategy : {self.strategy} (requested: {self.requested})",
            f"  execution: {self.execution}",
            f"  indexes  : {', '.join(self.indexes) if self.indexes else 'none'}",
            f"  reason   : {self.reason}",
        ]
        for label, text in self.artifacts.items():
            lines.append(f"  {label}: {text}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"MaintenancePlan(view={self.view_name!r}, strategy={self.strategy!r}, "
            f"requested={self.requested!r})"
        )
