"""Sharded relation storage: partitions, composite snapshots, index families.

A :class:`~repro.storage.store.RelationStore` can be partitioned into ``N``
shards, each owning one :class:`~repro.bag.builder.BagBuilder` and one
:class:`~repro.storage.index.HashIndex` per registered key.  Elements are
routed to shards by a stable hash of the store's **primary index key** (the
first key registered against the store; whole-element hash until one exists),
which buys three things:

* **O(|Δ|/N) maintenance units** — a delta is partitioned once and each
  shard folds only its own pairs into its builder and indexes, so the units
  are independent and can run concurrently;
* **per-shard copy-on-write** — a reader that retains a snapshot across a
  write (a serving session holding :meth:`~repro.engine.Engine.relation`
  or a consistent evaluation environment) forces the next delta to un-share
  only the *touched* shards: the write path copies ``O(touched · n/N)``
  entries instead of the whole ``O(n)`` dict;
* **single-shard probe routing** — because equal primary keys land in the
  same shard, a compiled hash-join probe on the primary key consults exactly
  one shard's index (:class:`ShardIndexFamily.get`); secondary-key probes
  merge the (disjoint) buckets of every shard.

The environment-facing snapshot of a sharded store is a :class:`ShardedBag`:
an immutable :class:`~repro.bag.bag.Bag` assembled from the per-shard frozen
snapshots in O(N).  It answers point queries and iteration without copying;
only structural operations (``union``, equality, hashing — the interpreter's
territory, already O(n)) materialize the merged dict, lazily and at most once.

Setting ``REPRO_SHARDS=1`` (or :func:`forced_shards`) reproduces the
pre-sharding single-dict store bit-for-bit: stores created under it keep one
shard, hand out plain :class:`~repro.bag.bag.Bag` snapshots and raw
:class:`~repro.storage.index.HashIndex` objects.

Shard assignment uses Python's built-in ``hash`` on the (interned) key
tuple: deterministic for a given key within a process, which is all routing
needs — results are shard-count independent, only the per-shard statistics
depend on the assignment.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from itertools import chain
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.bag.bag import Bag
from repro.storage.index import HashIndex, Paths

__all__ = [
    "DEFAULT_SHARD_COUNT",
    "REPRO_SHARDS",
    "SMALL_RELATION_SHARD_THRESHOLD",
    "ShardIndexFamily",
    "ShardedBag",
    "forced_shards",
    "resolve_shard_count",
    "shards_pinned",
]

#: Environment variable fixing the shard count of newly created stores.
#: ``REPRO_SHARDS=1`` is the escape hatch reproducing the pre-sharding
#: single-dict behavior.
REPRO_SHARDS = "REPRO_SHARDS"

#: Shard count used when neither the constructor nor the environment pins one.
DEFAULT_SHARD_COUNT = 8

#: Relations registered with fewer distinct rows than this default to a
#: single shard when nothing pins a count.  Measured (4 views, one-row
#: updates under a retained reader snapshot, 8 shards against 1): sharding
#: overhead (routing + composite assembly) beats its COW benefit at roughly
#: n=500 — a 1.26× gain there against 3.06× at n=2000 and 3.95× at n=8000 —
#: and single-view engines lose outright.  Small lookup relations are exactly the
#: read-rarely/write-rarely case the docs told users to hand-tune; the
#: registration path now applies the rule itself.
SMALL_RELATION_SHARD_THRESHOLD = 500


def shards_pinned(shards: Optional[int] = None) -> bool:
    """True when an explicit argument or ``REPRO_SHARDS`` pins the count.

    Adaptive defaults (the small-relation rule above) apply only when
    nothing is pinned: a user or test that forces a count gets exactly that
    count, as before.
    """
    return shards is not None or bool(os.environ.get(REPRO_SHARDS))


def resolve_shard_count(shards: Optional[int] = None) -> int:
    """The effective shard count: explicit argument > ``REPRO_SHARDS`` > default."""
    if shards is not None:
        if not isinstance(shards, int) or shards < 1:
            raise ValueError(f"shard count must be a positive int, got {shards!r}")
        return shards
    raw = os.environ.get(REPRO_SHARDS)
    if raw:
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(f"{REPRO_SHARDS} must be an integer, got {raw!r}") from None
        if value < 1:
            raise ValueError(f"{REPRO_SHARDS} must be >= 1, got {value}")
        return value
    return DEFAULT_SHARD_COUNT


@contextmanager
def forced_shards(count: Optional[int]) -> Iterator[None]:
    """Pin (or, with ``None``, un-pin) the shard count of stores created inside.

    Mirrors :func:`repro.storage.store.forced_no_index`: the hatch applies
    at *resolution* time — a standalone :class:`RelationStore` resolves when
    constructed, a :class:`~repro.ivm.database.Database` (and therefore an
    :class:`~repro.engine.Engine`) once at its own construction for all of
    its stores.  Stores already built keep their partitioning.
    """
    saved = os.environ.get(REPRO_SHARDS)
    try:
        if count is None:
            os.environ.pop(REPRO_SHARDS, None)
        else:
            os.environ[REPRO_SHARDS] = str(int(count))
        yield
    finally:
        if saved is None:
            os.environ.pop(REPRO_SHARDS, None)
        else:
            os.environ[REPRO_SHARDS] = saved


class ShardedBag(Bag):
    """An immutable bag assembled from per-shard snapshot bags, without copying.

    Supports are disjoint by construction (each element lives in exactly the
    shard its routing hash names), so point queries, iteration and size
    accounting delegate to the shards directly.  Structural operations
    inherited from :class:`~repro.bag.bag.Bag` (``union``, ``flat_map``,
    equality, hashing, …) read ``self._data``, which here is a *property*
    shadowing the base class's slot: it merges the shard dicts lazily, at
    most once per snapshot.  The hot compiled/indexed paths never touch it —
    they see this object only as an identity token plus an iteration source.
    """

    __slots__ = ("_shard_bags", "_merged", "_merged_bag")

    def __init__(self, *args: Any, **kwargs: Any) -> None:  # pragma: no cover
        raise TypeError("ShardedBag is built by RelationStore; use ShardedBag.of")

    @classmethod
    def of(cls, shard_bags: Tuple[Bag, ...]) -> "ShardedBag":
        composite = object.__new__(cls)
        composite._shard_bags = shard_bags
        composite._merged = None
        composite._merged_bag = None
        composite._hash = None
        return composite

    # -------------------------------------------------------------- #
    # The lazily merged dict behind inherited structural operations.
    # -------------------------------------------------------------- #
    @property
    def _data(self) -> Dict[Any, int]:  # type: ignore[override]
        merged = self._merged
        if merged is None:
            merged = {}
            for shard in self._shard_bags:
                merged.update(shard._data)
            self._merged = merged
        return merged

    def merged(self) -> Bag:
        """The merged contents as one plain :class:`Bag`, materialized once.

        Structural operations used to hand each caller a *fresh* plain bag
        over the (memoized) merged dict — so two identical calls produced
        two result objects and identity-keyed caches (the index provider's
        snapshot-correspondence check, compiled build-side memos) never hit.
        The merged view is now a memoized sibling snapshot: repeated calls
        return the same object, sharing the merged dict with this bag.
        """
        bag = self._merged_bag
        if bag is None:
            bag = self._merged_bag = Bag._from_clean_dict(self._data)
        return bag

    # -------------------------------------------------------------- #
    # Structural group operations: delegate to the memoized merged bag,
    # so calling the same operation twice reuses one materialization
    # (and ``x.union(EMPTY)``-style fast paths return a stable object).
    # -------------------------------------------------------------- #
    def union(self, other: Bag) -> Bag:
        if isinstance(other, Bag) and not other._data:
            return self  # identity fast path, as before — no merge forced
        return self.merged().union(other)

    def difference(self, other: Bag) -> Bag:
        if isinstance(other, Bag) and not other._data:
            return self
        return self.merged().difference(other)

    def scale(self, factor: int) -> Bag:
        if factor == 1:
            return self
        return self.merged().scale(factor)

    # -------------------------------------------------------------- #
    # Pickling: preserve the shard structure (the WAL/checkpoint pickle
    # fallback); per-shard bags re-merge lazily on the loading side.  The default slot pickling would trip over the
    # ``_data`` property (no setter), so the reduction is explicit.
    # -------------------------------------------------------------- #
    def __reduce__(self):
        return (ShardedBag.of, (self._shard_bags,))

    # -------------------------------------------------------------- #
    # Point queries and iteration: shard-direct, never merge.  The
    # iterators chain the shard dicts' own (C-level) iterators — a full
    # walk of a result pays no Python frame per pair.
    # -------------------------------------------------------------- #
    @property
    def shard_bags(self) -> Tuple[Bag, ...]:
        return self._shard_bags

    def shard_count(self) -> int:
        return len(self._shard_bags)

    def multiplicity(self, element: Any) -> int:
        for shard in self._shard_bags:
            multiplicity = shard._data.get(element)
            if multiplicity is not None:
                return multiplicity
        return 0

    def __contains__(self, element: Any) -> bool:
        return any(element in shard._data for shard in self._shard_bags)

    def elements(self) -> Iterator[Any]:
        return chain.from_iterable([shard._data for shard in self._shard_bags])

    def __iter__(self) -> Iterator[Any]:
        return self.elements()

    def items(self) -> Iterator[Tuple[Any, int]]:
        return chain.from_iterable([shard._data.items() for shard in self._shard_bags])

    def expand(self) -> Iterator[Any]:
        for element, multiplicity in self.items():
            for _ in range(max(multiplicity, 0)):
                yield element

    def __len__(self) -> int:
        return sum(len(shard._data) for shard in self._shard_bags)

    def distinct_size(self) -> int:
        return len(self)

    def is_empty(self) -> bool:
        return all(not shard._data for shard in self._shard_bags)

    def total_multiplicity(self) -> int:
        return sum(shard.total_multiplicity() for shard in self._shard_bags)

    def cardinality(self) -> int:
        return sum(shard.cardinality() for shard in self._shard_bags)

    def has_negative(self) -> bool:
        return any(shard.has_negative() for shard in self._shard_bags)

    def max_multiplicity(self) -> int:
        if self.is_empty():
            return 0
        return max(shard.max_multiplicity() for shard in self._shard_bags if shard._data)


class ShardIndexFamily:
    """One registered key over a sharded store: one ``HashIndex`` per shard.

    This is the object :meth:`RelationStore.ensure_index` returns and the
    :class:`~repro.storage.store.IndexProvider` serves for multi-shard
    stores; it implements the same probe contract as a raw
    :class:`~repro.storage.index.HashIndex` (``get``/``__bool__``/
    ``poisoned``/``version``/``hits``/``rebuilds``), so the compiled
    pipeline probes both interchangeably.

    ``routed`` families cover the store's primary (routing) key: equal keys
    co-locate, so :meth:`get` consults **only the owning shard** —
    single-shard probe routing.  Secondary families merge the per-shard
    buckets, which are disjoint because elements are partitioned.

    Poisoning is tracked per shard: an unhashable key poisons the owning
    shard's index only, and :meth:`revalidate` rebuilds just the poisoned
    shards.  A family with *any* poisoned shard declines probes outright
    (``poisoned`` is true): a poisoned shard means some element's key cannot
    be matched faithfully by hashing, and the interpreter-faithful answer is
    the compiled pipeline's own fallback over the whole relation, exactly as
    with an unsharded poisoned index.
    """

    __slots__ = (
        "paths",
        "shard_indexes",
        "routed",
        "hits",
        "rebuilds",
        "deltas_applied",
        "version",
        "_poisoned",
    )

    def __init__(
        self,
        paths: Paths,
        shard_indexes: Tuple[HashIndex, ...],
        routed: bool,
        version: int,
    ) -> None:
        self.paths = paths
        self.shard_indexes = shard_indexes
        self.routed = routed
        #: Family-level counters, mirroring HashIndex's: probes answered,
        #: full (re)builds + per-evaluation fallbacks, deltas folded in.
        self.hits = 0
        self.rebuilds = 1  # construction builds every shard once
        self.deltas_applied = 0
        self.version = version
        self._poisoned = any(index.poisoned for index in shard_indexes)

    # -------------------------------------------------------------- #
    # Probe contract (duck-typed with HashIndex)
    # -------------------------------------------------------------- #
    @property
    def poisoned(self) -> bool:
        return self._poisoned

    def refresh_poison(self) -> bool:
        self._poisoned = any(index.poisoned for index in self.shard_indexes)
        return self._poisoned

    def get(self, key: Tuple[Any, ...]):
        """Bucket for ``key`` as ``(element, multiplicity)`` pairs, or ``None``.

        Primary-key probes touch exactly the owning shard; secondary-key
        probes concatenate the per-shard buckets (disjoint by partitioning).
        """
        self.hits += 1
        indexes = self.shard_indexes
        if self.routed:
            return indexes[hash(key) % len(indexes)].bucket_of(key)
        merged: Optional[List[Tuple[Any, int]]] = None
        for index in indexes:
            bucket = index.bucket_of(key)
            if bucket is not None:
                if merged is None:
                    merged = list(bucket)
                else:
                    merged.extend(bucket)
        return merged

    def __bool__(self) -> bool:
        return any(index._buckets for index in self.shard_indexes)

    def __len__(self) -> int:
        """Number of distinct keys across shards.

        Routed families partition keys, so the per-shard counts sum exactly;
        secondary families may hold the same key in several shards and the
        distinct set is computed by union (introspection-only path).
        """
        if self.routed:
            return sum(len(index) for index in self.shard_indexes)
        keys = set()
        for index in self.shard_indexes:
            keys.update(index._buckets)
        return len(keys)

    # -------------------------------------------------------------- #
    # Maintenance (driven by RelationStore)
    # -------------------------------------------------------------- #
    def revalidate(self, shard_bags: Tuple[Bag, ...], version: int) -> None:
        """Rebuild **only the poisoned shards** from their current bags."""
        for index, bag in zip(self.shard_indexes, shard_bags):
            if index.poisoned:
                index.rebuild(bag)
            index.version = version
        self.version = version
        self.refresh_poison()

    # -------------------------------------------------------------- #
    # Introspection
    # -------------------------------------------------------------- #
    def entry_count(self) -> int:
        return sum(index.entry_count() for index in self.shard_indexes)

    def describe(self) -> Dict[str, Any]:
        return {
            "key_paths": [list(path) for path in self.paths],
            "distinct_keys": len(self),
            "entries": self.entry_count(),
            "hits": self.hits,
            "rebuilds": self.rebuilds,
            "deltas_applied": self.deltas_applied,
            "poisoned": self._poisoned,
            "version": self.version,
            "shards": len(self.shard_indexes),
            "routed": self.routed,
            "poisoned_shards": [
                position
                for position, index in enumerate(self.shard_indexes)
                if index.poisoned
            ],
            "per_shard": [
                {
                    "shard": position,
                    "distinct_keys": len(index),
                    "entries": index.entry_count(),
                    "deltas_applied": index.deltas_applied,
                    "rebuilds": index.rebuilds,
                    "poisoned": index.poisoned,
                }
                for position, index in enumerate(self.shard_indexes)
            ],
        }

    def __repr__(self) -> str:
        state = "poisoned" if self._poisoned else f"{self.entry_count()} entries"
        mode = "routed" if self.routed else "merged"
        return (
            f"ShardIndexFamily(paths={self.paths}, {len(self.shard_indexes)} shards, "
            f"{mode}, {state}, hits={self.hits})"
        )
