"""Naive re-evaluation: the baseline every IVM strategy is compared against.

The view is recomputed from scratch against the post-update database after
every update — exactly the ``h[R ⊎ ΔR]`` re-evaluation whose cost the paper's
delta processing beats (Theorem 4, Section 2.2's ``Ω((n+d)²)`` bound for the
``related`` query).
"""

from __future__ import annotations

from repro.bag.bag import Bag
from repro.instrument import OpCounter
from repro.ivm.database import Database, ShreddedDelta
from repro.ivm.updates import Update
from repro.ivm.views import View
from repro.nrc.ast import Expr
from repro.nrc.compile import run_bag, try_compile
from repro.nrc.evaluator import Environment

__all__ = ["NaiveView"]


class NaiveView(View):
    """Materialized view refreshed by full re-evaluation."""

    def __init__(self, query: Expr, database: Database, register: bool = True) -> None:
        super().__init__()
        self._query = query
        self._database = database
        # Re-evaluation benefits from the compiled pipeline too (hash-joins
        # and loop-invariant hoisting), keeping the baseline honest.
        self._compiled_query = try_compile(query)
        self._execution_mode = "compiled" if self._compiled_query is not None else "interpreted"
        # Requirements are collected for explain()/index_report() but NOT
        # registered: every per-update re-evaluation assembles a post-update
        # environment by hand, which the provider's bag-identity check would
        # route to per-evaluation builds anyway — a persistent index would
        # be maintained on every update yet probed at most once, at init.
        # (Indexes registered by delta-maintaining views over the same
        # relations are still served to that initial evaluation.)
        self._collect_index_requirements(self._compiled_query)
        counter = OpCounter()
        started = self._now()
        self._result = run_bag(self._compiled_query, query, database.environment(), counter)
        self.stats.record_init(self._now() - started, counter)
        if register:
            database.register_view(self)

    def result(self) -> Bag:
        """Current materialized result (a nested bag)."""
        return self._result

    def on_update(self, update: Update, shredded_delta: ShreddedDelta, context) -> None:
        """Recompute the view against the post-update state.

        The database calls this before mutating its stored relations, so the
        post-update instances are assembled locally from the update.  The
        shared refresh context provides the pre-update snapshots (frozen
        once for all views; safe to read from worker threads).
        """
        counter = OpCounter()
        started = self._now()
        post_relations = dict(context.delta_environment().relations)
        for name, delta_bag in update.relations.items():
            post_relations[name] = post_relations[name].union(delta_bag)
        environment = Environment(relations=post_relations)
        self._result = run_bag(self._compiled_query, self._query, environment, counter)
        self.stats.record_update(self._now() - started, counter)
