"""Classical (first-order) IVM for IncNRC+ queries.

The delta query ``δ(h)[R, ΔR]`` is derived once, at view-creation time, and
evaluated against the *pre-update* database plus the update on every refresh
(Equation (5) of Appendix A.1 / Proposition 4.1)::

    h[R ⊎ ΔR] = h[R] ⊎ δ(h)[R, ΔR]

Queries outside IncNRC+ (an ``sng`` body depending on an updated relation)
are rejected with :class:`~repro.errors.NotInFragmentError`; use
:class:`repro.ivm.nested.NestedIVMView`, which shreds the query first.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.bag.bag import Bag
from repro.delta.rules import delta
from repro.instrument import OpCounter
from repro.ivm.database import Database, ShreddedDelta
from repro.ivm.updates import Update
from repro.ivm.views import View
from repro.nrc.analysis import referenced_deltas, referenced_relations
from repro.nrc.ast import Expr
from repro.nrc.compile import run_bag, try_compile

__all__ = ["ClassicIVMView"]


class ClassicIVMView(View):
    """Materialized view maintained with a single, first-order delta query."""

    accepts_refresh_context = True

    def __init__(
        self,
        query: Expr,
        database: Database,
        targets: Optional[Sequence[str]] = None,
        register: bool = True,
    ) -> None:
        super().__init__()
        self._query = query
        self._database = database
        self._targets = tuple(sorted(targets)) if targets is not None else tuple(
            sorted(referenced_relations(query))
        )
        self._delta_query = delta(query, self._targets)
        self._delta_sources = referenced_deltas(self._delta_query)
        # The delta pipeline is compiled once here and reused on every
        # update; ``None`` (escape hatch or unsupported node) means the
        # interpreter remains in charge.
        self._compiled_delta = try_compile(self._delta_query)
        self._execution_mode = "compiled" if self._compiled_delta is not None else "interpreted"
        compiled_query = try_compile(query)
        # Registering the join atoms before the initial evaluation lets even
        # the first materialization probe the persistent indexes.
        self._register_indexes(database, compiled_query, self._compiled_delta)

        counter = OpCounter()
        started = self._now()
        # The materialization lives in a sharded result store: per-update
        # changes fold into the touched shards (O(|Δresult|)), result()
        # freezes the snapshot lazily, and a retained snapshot copy-on-writes
        # only dirty shards on the next update.
        self._result = database.create_result_store(
            "classic", run_bag(compiled_query, query, database.environment(), counter)
        )
        self.stats.record_init(self._now() - started, counter)
        if register:
            database.register_view(self)

    # ------------------------------------------------------------------ #
    @property
    def delta_query(self) -> Expr:
        """The derived delta query (inspectable, e.g. for pretty printing)."""
        return self._delta_query

    def result(self) -> Bag:
        return self._result.freeze()

    def result_store(self):
        return self._result

    def on_update(self, update: Update, shredded_delta: ShreddedDelta, context) -> None:
        counter = OpCounter()
        started = self._now()
        # An update that binds none of the delta query's symbols changes
        # nothing: every term would walk its relations against an empty Δ.
        if self.reads_any(context.relation_deltas):
            # The shared context's environment is read-only here: the delta
            # query binds nothing view-local.
            environment = context.delta_environment()
            change = run_bag(self._compiled_delta, self._delta_query, environment, counter)
            self._result.apply_bag(change)
        self.stats.record_update(self._now() - started, counter)
