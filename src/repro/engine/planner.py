"""Strategy planning: the paper's answer to "which strategy?" as a rule.

The choice depends only on the query, never on the data:

* **classic** — an IncNRC+ query's first-order delta ``δ(h)`` is strictly
  cheaper than re-evaluating ``h`` (Theorem 4, Proposition 4.1);
* **recursive** — when partial evaluation of ``δ(h)`` finds
  database-dependent sub-expressions, materializing them and maintaining
  them by their own deltas removes the remaining scans (Section 4.1);
* **nested** — a query outside IncNRC+ (input-dependent ``sng``) is
  shredded into IncNRC+ flat queries and context dictionaries (Section 5,
  Theorem 5);
* **naive** — re-evaluation, the Theorem 4 baseline: ``auto`` falls back to
  it only for a query the shredding transformation cannot handle.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Dict, Iterable, NamedTuple, Optional, Tuple

from repro.delta.rules import delta
from repro.errors import EngineError, NotInFragmentError, ShreddingError
from repro.engine.plan import MaintenancePlan
from repro.ivm.classic import ClassicIVMView
from repro.ivm.naive import NaiveView
from repro.ivm.nested import NestedIVMView
from repro.ivm.recursive import RecursiveIVMView, partially_evaluate
from repro.nrc.analysis import is_incremental_fragment, referenced_relations
from repro.nrc.ast import Expr
from repro.shredding.shred_query import shred_query

__all__ = ["STRATEGIES", "Strategy", "plan_view"]


class Strategy(NamedTuple):
    """One of the paper's four ways to maintain a view."""

    #: The :mod:`repro.ivm` class that maintains a view this way.
    view: type
    #: Maintains first-order deltas of IncNRC+ (Proposition 4.1): honours an
    #: explicit ``targets`` list and rejects queries outside IncNRC+.  The
    #: other strategies derive their own update sources from the query.
    inc_nrc: bool
    #: Label and accessor of the derived query ``explain`` shows, if any.
    artifact: Optional[Tuple[str, Callable[[object], Expr]]] = None


#: The closed strategy set: naive first (the Theorem 4 baseline), then
#: first-order deltas (Proposition 4.1), recursive IVM with materialized
#: higher-order deltas (Section 4.1) and shredded IVM for full NRC+
#: (Section 5).
STRATEGIES: Dict[str, Strategy] = {
    "naive": Strategy(NaiveView, inc_nrc=False),
    "classic": Strategy(
        ClassicIVMView, inc_nrc=True, artifact=("delta query", attrgetter("residual_delta"))
    ),
    "recursive": Strategy(
        RecursiveIVMView,
        inc_nrc=True,
        artifact=("residual delta", attrgetter("residual_delta")),
    ),
    "nested": Strategy(
        NestedIVMView, inc_nrc=False, artifact=("shredded flat", attrgetter("shredded.flat"))
    ),
}


def plan_view(
    query: Expr,
    *,
    name: str = "<view>",
    requested: str = "auto",
    targets: Optional[Iterable[str]] = None,
) -> MaintenancePlan:
    """Pick the strategy that maintains ``query`` and check that it can.

    An explicit ``requested`` name is used as is; ``"auto"`` follows
    :func:`_auto`.  Raises :class:`EngineError` for an unknown name or a
    strategy that cannot honour an explicit ``targets`` list, and
    :class:`NotInFragmentError` for an IncNRC+ strategy over a query outside
    IncNRC+.
    """
    if requested == "auto":
        strategy, reason = _auto(query, targets)
    elif requested in STRATEGIES:
        strategy, reason = requested, "explicitly requested"
    else:
        raise EngineError(
            f"unknown strategy {requested!r}; available: {', '.join(STRATEGIES)}"
        )
    chosen = STRATEGIES[strategy]
    if targets is not None and not chosen.inc_nrc:
        # A strategy that derives its own update sources would refresh on
        # relations the caller pinned out — semantically a different view.
        raise EngineError(
            f"backend {strategy!r} derives its own update sources and cannot "
            f"honor an explicit targets list for view {name!r}"
        )
    if chosen.inc_nrc and not is_incremental_fragment(query):
        raise NotInFragmentError(
            f"backend {strategy!r} cannot maintain view {name!r}: "
            f"query is outside its supported fragment"
        )
    return MaintenancePlan(
        view_name=name, query=query, strategy=strategy, requested=requested, reason=reason
    )


def _auto(query: Expr, targets: Optional[Iterable[str]]) -> Tuple[str, str]:
    """Theorem 4 as a rule: the strategy and the reason that cites it."""
    if is_incremental_fragment(query):
        sources = tuple(sorted(targets if targets is not None else referenced_relations(query)))
        _, materialized = partially_evaluate(delta(query, sources), sources)
        if materialized:
            return "recursive", (
                f"IncNRC+ query whose delta reads the database: materializes "
                f"{len(materialized)} sub-expression(s) of δ(h) (Thm. 4, §4.1)"
            )
        return "classic", (
            "IncNRC+ query: δ(h) is strictly cheaper than re-evaluation (Thm. 4, Prop. 4.1)"
        )
    if targets is not None:
        raise EngineError(
            "no strategy can maintain a query outside IncNRC+ under an explicit targets list"
        )
    try:
        shredded = shred_query(query)
    except ShreddingError as error:
        return "naive", f"outside IncNRC+ and cannot shred ({error}): re-evaluates per update"
    if shredded.output_type is None:
        return "naive", "outside IncNRC+ with an unknown output type: re-evaluates per update"
    return "nested", "outside IncNRC+ (input-dependent sng): maintained shredded (§5, Thm. 5)"
