"""Classical (first-order) IVM for IncNRC+ queries (Proposition 4.1).

Classic IVM is recursive IVM with nothing materialized: the view evaluates
the first-order delta ``δ(h)[R, ΔR]`` itself, against the pre-update
database plus the update (:mod:`repro.ivm.recursive`).
"""

from __future__ import annotations

from repro.ivm.database import ShreddedDelta
from repro.ivm.recursive import RecursiveIVMView
from repro.ivm.updates import Update

__all__ = ["ClassicIVMView"]


class ClassicIVMView(RecursiveIVMView):
    """Materialized view maintained with a single, first-order delta query."""

    materialise = False

    # Its own function object, so the tracer's classic and recursive refresh
    # spans stay apart (see RecursiveIVMView.on_update).
    def on_update(self, update: Update, shredded_delta: ShreddedDelta, context) -> None:
        self._refresh(context)
