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
from repro.engine.scheduler import (
    EXECUTION_BACKENDS,
    REPRO_BACKEND,
    REPRO_PARALLEL_VIEWS,
    ExecutionBackend,
    ViewRefreshScheduler,
    backend_availability,
    create_execution_backend,
    forced_backend,
    forced_parallel_views,
    recommend_backend,
    resolve_backend_spec,
    resolve_view_workers,
)

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
    "EXECUTION_BACKENDS",
    "ExecutionBackend",
    "REPRO_BACKEND",
    "REPRO_PARALLEL_VIEWS",
    "ViewRefreshScheduler",
    "backend_availability",
    "create_execution_backend",
    "forced_backend",
    "forced_parallel_views",
    "recommend_backend",
    "resolve_backend_spec",
    "resolve_view_workers",
]
