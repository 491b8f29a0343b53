"""Sharded view-result stores: delta-bounded copy-on-write for the read path.

A maintained view's materialization used to live in one
:class:`~repro.bag.builder.BagBuilder`: per-update deltas folded in place and
``result()`` froze the snapshot lazily.  That makes the *write* side O(|Δ|),
but a **retained** snapshot (a serving session pinning
:class:`~repro.engine.EngineSnapshot`, a benchmark holding ``result()``
across updates) forces the next delta to copy the whole result dict —
O(|result|) per write, the read path's mirror of the problem sharding solved
for relation stores in PR 5.

A :class:`ResultStore` applies the same remedy to view results: the
materialization is partitioned into N per-shard builders routed by a stable
hash of the output element (the view's output key — results carry no
registered index, so the whole element *is* the key), a delta is partitioned
once and folded per shard, and the snapshot is a lazily assembled
:class:`~repro.storage.shards.ShardedBag` over the per-shard frozen bags.  A
retained snapshot then copy-on-writes only the shards the next delta
touches: O(t·|result|/N) instead of O(|result|).

Repeated ``freeze()`` calls without an intervening mutation return the *same*
object — the composite is cached, no per-shard freeze runs, and no COW
refcounts move — so an unchanged view's ``result()`` is free (the serving
layer's ETag fast path relies on this identity).  Point reads and iteration
(``multiplicity``/``elements``/``items``) go shard-direct without freezing
anything, which is what keeps the nested view's carrier scans and presence
checks off the snapshot path.

``shards=1`` (or the ``REPRO_SHARDS=1`` escape hatch) collapses to the
pre-PR-8 single-builder behavior bit-for-bit: plain :class:`Bag` snapshots,
one builder, identical COW semantics.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.bag.bag import Bag, EMPTY_BAG
from repro.bag.builder import BagBuilder
from repro.storage.shards import ShardedBag, resolve_shard_count

__all__ = ["ResultStore"]


class ResultStore:
    """One view's materialized result, partitioned into per-shard builders.

    The maintenance contract is :class:`~repro.bag.builder.BagBuilder`'s
    (``apply_bag`` folds a delta in place, ``freeze`` hands out the immutable
    snapshot), so view backends swap one in without changing their update
    logic; the store adds shard routing, the cached composite snapshot, and
    the version / freeze accounting the storage reports surface.
    """

    __slots__ = (
        "name",
        "_builders",
        "_shard_count",
        "_version",
        "_composite",
        "_composite_freezes",
    )

    def __init__(
        self, name: str, bag: Bag = EMPTY_BAG, shards: Optional[int] = None
    ) -> None:
        self.name = name
        self._shard_count = resolve_shard_count(shards)
        self._version = 0
        self._composite: Optional[ShardedBag] = None
        self._composite_freezes = 0
        if self._shard_count == 1:
            self._builders = [BagBuilder.from_bag(bag)]
        else:
            self._builders = [BagBuilder() for _ in range(self._shard_count)]
            self._fold(bag.items())

    # ------------------------------------------------------------------ #
    # Shard routing
    # ------------------------------------------------------------------ #
    @property
    def shards(self) -> int:
        return self._shard_count

    def _fold(self, pairs) -> None:
        """Route ``(element, multiplicity)`` pairs to their shards and fold
        them in: one O(|pairs|) pass that passes each pair object on as it
        came — a compiled pipeline's accumulator is never re-tupled."""
        count = self._shard_count
        groups: List[List[Tuple[Any, int]]] = [[] for _ in range(count)]
        for pair in pairs:
            groups[hash(pair[0]) % count].append(pair)
        for builder, group in zip(self._builders, groups):
            if group:
                builder.apply_pairs(group)

    # ------------------------------------------------------------------ #
    # Maintenance (the BagBuilder contract)
    # ------------------------------------------------------------------ #
    def apply_bag(self, delta: Bag) -> None:
        """Fold a result delta into the touched shards — O(|Δ|).

        The composite snapshot reference is dropped *before* mutating, so a
        snapshot nobody retained dies here and the builders mutate in place;
        a retained one forces copy-on-write of the touched shards only.
        """
        if delta.is_empty():
            return
        self._version += 1
        if self._shard_count == 1:
            self._builders[0].apply_bag(delta)
            return
        self._composite = None
        self._fold(delta.items())

    def compact(self) -> None:
        """Squeeze the holes of past deletions out of every shard
        (:meth:`BagBuilder.compact`); for use right after a delta, by an
        owner that counts its churn."""
        self._composite = None
        for builder in self._builders:
            builder.compact()

    # ------------------------------------------------------------------ #
    # Snapshots
    # ------------------------------------------------------------------ #
    def freeze(self) -> Bag:
        """The current result as an immutable bag (lazily frozen snapshot).

        Repeated calls without intervening mutation return the identical
        object: single-shard stores reuse the builder's frozen bag, sharded
        stores the cached composite — no per-shard freeze, no COW refcount
        movement, O(1).
        """
        if self._shard_count == 1:
            return self._builders[0].freeze()
        composite = self._composite
        if composite is None:
            composite = self._composite = ShardedBag.of(
                tuple(builder.freeze() for builder in self._builders)
            )
            self._composite_freezes += 1
        return composite

    @property
    def frozen(self) -> Optional[Bag]:
        """The live frozen snapshot, or ``None`` if the store mutated since.

        Deliberately does not force a freeze (mirrors
        :attr:`BagBuilder.frozen` / :meth:`RelationStore.current_snapshot`).
        """
        if self._shard_count == 1:
            return self._builders[0].frozen
        return self._composite

    @property
    def version(self) -> int:
        """Mutation counter: bumps on every applied (non-empty) delta."""
        return self._version

    @property
    def snapshot_freezes(self) -> int:
        """How many distinct immutable snapshots this store materialized."""
        if self._shard_count == 1:
            return self._builders[0].freezes
        return self._composite_freezes

    # ------------------------------------------------------------------ #
    # Shard-direct reads (never freeze anything)
    # ------------------------------------------------------------------ #
    def multiplicity(self, element: Any) -> int:
        if self._shard_count == 1:
            return self._builders[0].multiplicity(element)
        return self._builders[hash(element) % self._shard_count].multiplicity(element)

    def elements(self) -> Iterator[Any]:
        for builder in self._builders:
            yield from builder.elements()

    def items(self) -> Iterator[Tuple[Any, int]]:
        for builder in self._builders:
            yield from builder.items()

    def distinct_size(self) -> int:
        return sum(builder.distinct_size() for builder in self._builders)

    def cardinality(self) -> int:
        return sum(builder.cardinality() for builder in self._builders)

    def is_empty(self) -> bool:
        return all(builder.distinct_size() == 0 for builder in self._builders)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def describe(self) -> Dict[str, Any]:
        description: Dict[str, Any] = {
            "result": self.name,
            "cardinality": self.cardinality(),
            "distinct": self.distinct_size(),
            "version": self._version,
            "snapshot_freezes": self.snapshot_freezes,
            "shards": self._shard_count,
        }
        if self._shard_count > 1:
            description["shard_stats"] = [
                {
                    "shard": position,
                    "distinct": builder.distinct_size(),
                    "cardinality": builder.cardinality(),
                    "snapshot_freezes": builder.freezes,
                }
                for position, builder in enumerate(self._builders)
            ]
        return description

    def __repr__(self) -> str:
        return (
            f"ResultStore({self.name!r}, {self.distinct_size()} distinct, "
            f"{self._shard_count} shards, v{self._version})"
        )
