"""View-result stores: one view's materialization, delta-maintained in place.

A :class:`ResultStore` is a :class:`~repro.bag.builder.BagBuilder` with a
name and a version: per-update deltas fold into its one dict in place
(``O(|Δ|)``) and :meth:`~repro.bag.builder.BagBuilder.freeze` hands out the
snapshot lazily.  A retained snapshot (a serving session pinning
:class:`~repro.engine.EngineSnapshot`, a reader holding ``result()`` across
updates) makes the next delta copy the dict once; otherwise the store
mutates in place.

Repeated ``freeze()`` calls without an intervening mutation return the
*same* object with one attribute read, so an unchanged view's ``result()``
is free (the serving layer's ETag fast path relies on this identity).
Point reads and iteration (``multiplicity``/``elements``/``items``) read the
dict directly without freezing anything, which is what keeps the nested
view's carrier scans and presence checks off the snapshot path.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.bag.bag import Bag, EMPTY_BAG
from repro.bag.builder import BagBuilder

__all__ = ["ResultStore"]


class ResultStore(BagBuilder):
    """One view's materialized result.

    The maintenance contract is :class:`~repro.bag.builder.BagBuilder`'s
    (``apply_bag`` folds a delta in place, ``freeze`` hands out the immutable
    snapshot), so view backends update it exactly as they would a builder;
    the store adds the version and freeze accounting the storage reports
    surface.
    """

    __slots__ = ("name", "_version")

    def __init__(self, name: str, bag: Bag = EMPTY_BAG) -> None:
        super().__init__()
        self.name = name
        self._version = 0
        self.adopt_bag(bag)

    def apply_bag(self, delta: Bag, scale: int = 1) -> None:
        """Fold a result delta in — O(|Δ|); empty deltas leave the version."""
        if delta.is_empty():
            return
        self._version += 1
        super().apply_bag(delta, scale)

    @property
    def version(self) -> int:
        """Mutation counter: bumps on every applied (non-empty) delta."""
        return self._version

    @property
    def snapshot_freezes(self) -> int:
        """How many distinct immutable snapshots this store materialized."""
        return self.freezes

    def describe(self) -> Dict[str, Any]:
        return {
            "result": self.name,
            "cardinality": self.cardinality(),
            "distinct": self.distinct_size(),
            "version": self._version,
            "snapshot_freezes": self.freezes,
        }

    def __repr__(self) -> str:
        return (
            f"ResultStore({self.name!r}, {self.distinct_size()} distinct, "
            f"v{self._version})"
        )
