"""View-result stores: one view's materialization, delta-maintained in place.

A :class:`ResultStore` is a :class:`~repro.bag.builder.BagBuilder` with a
name and a version: per-update deltas fold into its one dict in place
(``O(|Δ|)``) and :meth:`~repro.bag.builder.BagBuilder.freeze` hands out the
snapshot lazily.  A classic or recursive view's compiled delta folds its
output pairs straight into that dict inside the walk
(``CompiledQuery.evaluate(into=store)``), one hash-and-store per pair; the
interpreter, value-typed roots and the nested view fold a finished delta
bag with :meth:`~repro.bag.builder.BagBuilder.apply_bag`.  Either way a
retained snapshot (a serving session pinning
:class:`~repro.engine.EngineSnapshot`, a reader holding ``result()`` across
updates) makes the next fold clone the dict once (``dict.copy()``, a block
copy), before the first pair lands; otherwise the store mutates in place.

The version counts the folds that reached the dict: it bumps once per
:meth:`ResultStore.writable` call — every non-empty ``apply_bag`` and every
compiled fold.  A compiled fold bumps it even when the delta nets to
nothing (the walk cannot know that in advance) and drops the live
snapshot, so the next ``freeze()`` hands out a new, equal bag; an empty
``apply_bag`` leaves both alone.

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
    (``apply_bag`` or a compiled fold into :meth:`writable` changes it in
    place, ``freeze`` hands out the immutable snapshot), so view backends
    update it exactly as they would a builder; the store adds the version
    and freeze accounting the storage reports surface.
    """

    __slots__ = ("name", "_version")

    def __init__(self, name: str, bag: Bag = EMPTY_BAG) -> None:
        super().__init__()
        self.name = name
        self._version = 0
        self.adopt_bag(bag)

    def writable(self) -> Dict[Any, int]:
        """The live dict (copy-on-write first); counts as one mutation."""
        self._version += 1
        return super().writable()

    @property
    def version(self) -> int:
        """Mutation counter: one bump per fold that reached the dict."""
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
