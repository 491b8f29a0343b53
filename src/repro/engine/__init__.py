"""The public facade: one engine, many maintenance strategies.

The paper's thesis is that a single calculus serves naive re-evaluation,
classical delta processing, recursive (higher-order) IVM and shredded/nested
IVM, with the cost model of Section 4 deciding which to use.  This package is
that thesis as an API: :class:`Engine` registers datasets and views, and
``strategy="auto"`` routes through the cost-driven planner, whose
:data:`~repro.engine.planner.STRATEGIES` table holds the four strategies.
"""

from repro.engine.core import Engine, EngineSnapshot, Session, ViewHandle
from repro.engine.plan import MaintenancePlan, StrategyEstimate
from repro.engine.planner import STRATEGIES, PlanningInputs, plan_view

__all__ = [
    "Engine",
    "EngineSnapshot",
    "Session",
    "ViewHandle",
    "MaintenancePlan",
    "StrategyEstimate",
    "PlanningInputs",
    "STRATEGIES",
    "plan_view",
]
