"""Benchmark residue: the names the ivmbench span table and provenance read.

Every store delta folds inline and every view refresh runs inline, on the
thread that applies the update (``Database._apply_store_delta`` and
``Database._notify_views``).  ``Database`` calls nothing here except
:class:`SerialExecutionBackend`; the rest survives only because
``benchmarks/suite/`` imports it, and goes once the suite reads spans from
``src/``.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

__all__ = [
    "SerialExecutionBackend",
    "ViewRefreshScheduler",
    "resolve_view_workers",
]


class SerialExecutionBackend:
    """The one call every non-empty relation-store delta folds through.

    ``Database`` folds each store delta inline, on the applying thread: a
    delta is ``O(|Δ|)`` work and the benchmark batches are a handful of
    rows, so there is nothing to ship elsewhere.  The class survives only
    because ``benchmarks/suite/layers.py`` times
    ``storage.relation_apply_delta`` by patching this method (and the three
    alias names below).
    """

    def apply_delta(self, store, delta) -> None:
        store.apply_delta(delta)


# Aliases the span table still names; all four resolve to one method.
ThreadExecutionBackend = SerialExecutionBackend
ProcessExecutionBackend = SerialExecutionBackend
SubinterpreterExecutionBackend = SerialExecutionBackend


def resolve_backend_spec(override: Optional[str] = None) -> Tuple[str, Optional[int]]:
    """Always ``("serial", None)``: what the benchmark's provenance records."""
    return "serial", None


class ViewRefreshScheduler:
    """Benchmark residue: ``layers.py`` patches ``run``; nothing calls it."""

    def run(self, tasks: Sequence[Callable[[], None]]) -> None:
        for task in tasks:
            task()


def resolve_view_workers(override: Optional[int] = None) -> int:
    """Benchmark residue: always ``1``, what the suite's provenance records."""
    return 1
