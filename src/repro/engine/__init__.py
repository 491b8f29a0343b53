"""The public facade: one engine, many maintenance strategies.

The paper's thesis is that a single calculus serves naive re-evaluation,
classical delta processing, recursive (higher-order) IVM and shredded/nested
IVM, with the query's fragment deciding which to use (Theorem 4).  This
package is that thesis as an API: :class:`Engine` registers datasets and
views, and ``strategy="auto"`` applies the planner's rule — ``classic``, or
``recursive`` when the delta has database-dependent parts (Section 4.1), for
IncNRC+ queries; ``nested`` for the rest (Section 5).  The planner's
:data:`~repro.engine.planner.STRATEGIES` table holds the four strategies.
"""

from repro.engine.core import Engine, EngineSnapshot, Session, ViewHandle
from repro.engine.plan import MaintenancePlan
from repro.engine.planner import STRATEGIES, plan_view

__all__ = [
    "Engine",
    "EngineSnapshot",
    "Session",
    "ViewHandle",
    "MaintenancePlan",
    "STRATEGIES",
    "plan_view",
]
