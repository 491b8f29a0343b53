"""Shared view infrastructure: maintenance statistics and the base protocol.

Every view implementation (naive, classic, recursive, nested) exposes the
same two-phase life cycle:

* construction materializes the view against the current database state;
* :meth:`on_update` (called by the database *before* it mutates its stored
  relations) refreshes the materialization for one update.

``MaintenanceStats`` accumulates the abstract operation counts and wall-clock
times used by the benchmark harness to compare strategies.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict

from repro.instrument import OpCounter

__all__ = ["RECENT_UPDATES", "MaintenanceStats", "View"]


#: Per-update samples a view keeps (its most recent refreshes); the totals
#: are running sums, so a long-lived view's accounting stays O(1) in memory.
RECENT_UPDATES = 256


@dataclass
class MaintenanceStats:
    """Work accounting for a view: initialization plus per-update refreshes.

    ``update_seconds`` / ``update_operations`` hold the last
    :data:`RECENT_UPDATES` refreshes (newest last); ``updates_applied`` and
    the ``total_*`` figures cover every refresh since construction.
    """

    init_seconds: float = 0.0
    init_operations: int = 0
    update_seconds: Deque[float] = field(default_factory=lambda: deque(maxlen=RECENT_UPDATES))
    update_operations: Deque[int] = field(default_factory=lambda: deque(maxlen=RECENT_UPDATES))
    updates_applied: int = 0
    total_update_seconds: float = 0.0
    total_update_operations: int = 0

    def record_init(self, seconds: float, counter: OpCounter) -> None:
        self.init_seconds = seconds
        self.init_operations = counter.total()

    def record_update(self, seconds: float, counter: OpCounter) -> None:
        operations = counter.total()
        self.update_seconds.append(seconds)
        self.update_operations.append(operations)
        self.updates_applied += 1
        self.total_update_seconds += seconds
        self.total_update_operations += operations

    @property
    def mean_update_operations(self) -> float:
        if not self.updates_applied:
            return 0.0
        return self.total_update_operations / self.updates_applied

    def summary(self) -> Dict[str, float]:
        return {
            "init_seconds": self.init_seconds,
            "init_operations": float(self.init_operations),
            "updates_applied": float(self.updates_applied),
            "total_update_seconds": self.total_update_seconds,
            "total_update_operations": float(self.total_update_operations),
            "mean_update_operations": self.mean_update_operations,
        }

    def __repr__(self) -> str:
        return (
            f"MaintenanceStats(init={self.init_operations} ops/"
            f"{self.init_seconds:.4f}s, updates={self.updates_applied}, "
            f"mean={self.mean_update_operations:.1f} ops/update)"
        )


class View:
    """Base class for materialized views.

    ``on_update`` may take a third argument, the shared
    :class:`~repro.ivm.database.RefreshContext` holding the pre-update
    snapshot environments of this refresh round; views that do, evaluate
    against it instead of rebuilding their own environments (one snapshot
    family per update instead of one per view, and the anchor that makes
    concurrent refresh safe).  ``accepts_refresh_context`` tells the
    database's dispatcher whether to pass it; it defaults to **false** so
    custom backends keeping the two-argument ``on_update`` — whether or
    not they subclass this base — are still called correctly.  Backends
    that take the context set it to true (as the four built-in views do,
    which always receive one).
    """

    #: The database passes a RefreshContext to ``on_update`` when true.
    #: Deliberately false here: opting in is the subclass's declaration
    #: that its ``on_update`` signature takes the third argument.
    accepts_refresh_context = False

    #: The update symbols ``(source, order)`` this view's maintenance queries
    #: mention; ``None`` (the default) means "unknown: refresh on every
    #: update".  Delta-maintained backends set it at construction.
    _delta_sources = None

    def __init__(self) -> None:
        self.stats = MaintenanceStats()

    def reads_any(self, symbols) -> bool:
        """False when an update binding only ``symbols`` cannot change this
        view: none of them occurs in its maintenance queries, so every delta
        would evaluate to the empty bag."""
        sources = self._delta_sources
        return sources is None or not sources.isdisjoint(symbols)

    def affected_by(self, context) -> bool:
        """Whether the update behind a refresh ``context`` can change this
        view; the dispatcher schedules only affected views."""
        return self.reads_any(context.relation_deltas)

    # Subclasses implement result() and on_update().
    def result(self):
        raise NotImplementedError

    def on_update(self, update, shredded_delta, context=None) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Execution reporting
    # ------------------------------------------------------------------ #
    def execution_mode(self) -> str:
        """``"compiled"`` when every per-update query of this view runs
        through the closure compiler (:mod:`repro.nrc.compile`),
        ``"interpreted"`` otherwise (``REPRO_NO_COMPILE`` set, or some
        query fell outside the compiler's coverage)."""
        return getattr(self, "_execution_mode", "interpreted")

    # ------------------------------------------------------------------ #
    # Read-path reporting (the result-store layer)
    # ------------------------------------------------------------------ #
    def result_store(self):
        """The sharded :class:`~repro.storage.ResultStore` backing this
        view's materialization, or ``None`` for backends that keep their
        own representation (e.g. the naive recompute baseline)."""
        return None

    def read_stats(self):
        """Read-path accounting surfaced through ``storage_report()``.

        Base views report their result store's shape (shards, versions,
        snapshot freezes); backends with extra read-side machinery — the
        nested view's footprint-bounded dictionary probes — extend this.
        """
        stats = {"view": type(self).__name__}
        store = self.result_store()
        if store is not None:
            stats["result_store"] = store.describe()
        return stats

    # ------------------------------------------------------------------ #
    # Persistent index plumbing (the storage layer)
    # ------------------------------------------------------------------ #
    def _collect_index_requirements(self, *compiled) -> tuple:
        """Record the join atoms of this view's compiled queries.

        Collects the :class:`~repro.nrc.compile.IndexRequirement`s of every
        non-``None`` compiled query (deduplicated, first-seen order) for
        reporting, without registering anything — backends whose per-update
        evaluation cannot probe persistent indexes use this so the storage
        layer is not taxed with maintaining indexes nobody reads.
        """
        seen = set()
        requirements = []
        for compiled_query in compiled:
            if compiled_query is None:
                continue
            for requirement in compiled_query.index_requirements:
                if requirement.key() not in seen:
                    seen.add(requirement.key())
                    requirements.append(requirement)
        self._index_requirements = tuple(requirements)
        self._registered_indexes = ()
        return self._index_requirements

    def _register_indexes(self, database, *compiled) -> None:
        """Register the join atoms of this view's compiled queries.

        Asks the database's storage layer to keep persistent hash indexes
        for the collected requirements.  Requirements the storage layer
        cannot serve — computed build sides, the ``REPRO_NO_INDEX`` escape
        hatch — stay per-evaluation.
        """
        requirements = self._collect_index_requirements(*compiled)
        self._registered_indexes = database.register_index_requirements(requirements)

    def index_requirements(self):
        """Join atoms this view's compiled queries probe (maybe unregistered)."""
        return getattr(self, "_index_requirements", ())

    def registered_index_requirements(self):
        """The subset of :meth:`index_requirements` backed by persistent indexes."""
        return getattr(self, "_registered_indexes", ())

    def index_report(self):
        """Live state (sizes, hit/rebuild counts) of this view's indexes."""
        database = getattr(self, "_database", None)
        requirements = self.index_requirements()
        if database is None or not requirements:
            return ()
        return database.describe_indexes(requirements)

    # ------------------------------------------------------------------ #
    # Timing helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _now() -> float:
        return time.perf_counter()
