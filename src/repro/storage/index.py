"""Persistent secondary hash indexes, maintained incrementally from deltas.

A :class:`HashIndex` materializes the hash-join build side the compiled
pipeline (:mod:`repro.nrc.compile`) would otherwise rebuild on every
evaluation: a mapping from projection-key tuples to the bag elements that
carry them, with multiplicities.  The crucial property is that
:meth:`HashIndex.apply` walks **only the delta** — after an update of size
``d`` the index is current again in ``O(d)`` work, never ``O(|relation|)``,
which is exactly the ``Q_new = Q_old ⊎ ΔQ`` amortization the delta machinery
already provides for view contents and shredded dictionaries.

Hashing is sound only for keys on which ``==`` coincides with dictionary-key
matching — self-equal base values, the same rule the compiler's
per-evaluation build enforces.  An element whose key projection fails, is
non-base, or is not self-equal (``NaN``) *poisons* the index: it stops
answering probes (:meth:`buckets` and :meth:`get` return ``None``) and the
compiled pipeline falls back to its per-evaluation build, whose own
unhashable-key handling degrades to the interpreter-faithful nested loop.
Poisoning is therefore never a correctness concern, only a performance one;
:meth:`rebuild` re-validates from a full bag once the offending elements are
deleted — the database heals a poisoned store on every deleting write
(``RelationStore.heal``), and ``RelationStore.replace`` rebuilds wholesale.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Tuple

from repro.bag.bag import Bag
from repro.bag.values import intern_key, is_hashable_key

__all__ = ["HashIndex", "IndexKeyError", "index_key_of"]

#: One key part per equality atom: the projection path into the element.
Paths = Tuple[Tuple[int, ...], ...]


class IndexKeyError(Exception):
    """An element's key cannot be maintained by hashing (poisons the index)."""


def index_key_of(element: Any, paths: Paths) -> Tuple[Any, ...]:
    """The index key of ``element``: one projected value per path.

    Raises :class:`IndexKeyError` when a projection does not apply or the
    projected value is not faithfully hashable.  The returned tuple is
    interned (:func:`repro.bag.values.intern_key`): recurring keys resolve
    to one canonical object, so bucket lookups hit the identity fast path
    and the per-update re-hashing of hot keys stops dominating profiles.
    """
    parts = []
    for path in paths:
        value = element
        for index in path:
            if not isinstance(value, tuple) or index >= len(value):
                raise IndexKeyError(f"projection .{index} fails on {value!r}")
            value = value[index]
        if not is_hashable_key(value):
            raise IndexKeyError(f"unhashable key part {value!r}")
        parts.append(value)
    return intern_key(tuple(parts))


class HashIndex:
    """An incrementally-maintained secondary index over one relation's bag.

    ``paths`` is the tuple of projection paths forming the key (in probe
    order).  Buckets map each key to an ``element → multiplicity`` dict;
    entries whose multiplicities cancel to zero are dropped, and so are
    buckets that empty out, mirroring :class:`~repro.bag.bag.Bag`'s
    normalization.
    """

    __slots__ = (
        "paths",
        "_buckets",
        "_poisoned",
        "hits",
        "rebuilds",
        "deltas_applied",
        "version",
    )

    def __init__(self, paths: Paths, bag: Optional[Bag] = None) -> None:
        self.paths: Paths = tuple(tuple(path) for path in paths)
        self._buckets: Dict[Tuple[Any, ...], Dict[Any, int]] = {}
        self._poisoned = False
        #: The owning store's version counter at the last maintenance pass.
        #: The provider serves this index only while it matches the store's
        #: current version — the version-keyed freshness check that replaced
        #: the old reliance on one immutable bag object per store state.
        self.version = 0
        #: Probes answered by this index — including empty-bucket answers:
        #: "no matching element" is an answer the index served, sparing the
        #: same per-evaluation rebuild a non-empty one would have.
        self.hits = 0
        #: Full rebuilds: construction, :meth:`rebuild` calls, and
        #: per-evaluation fallbacks recorded by the pipeline when this index
        #: could not answer (poisoned or stale).
        self.rebuilds = 0
        #: Deltas folded in through :meth:`apply`.
        self.deltas_applied = 0
        if bag is not None:
            self.rebuild(bag)

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def rebuild(self, bag: Bag) -> None:
        """Reconstruct the index from a full bag (counts as one rebuild)."""
        self.rebuilds += 1
        self._buckets = {}
        self._poisoned = False
        self._fold(bag.items())

    def apply(self, delta: Bag) -> None:
        """Fold one delta in — walks only the delta, never the base bag."""
        if self._poisoned:
            return
        self.deltas_applied += 1
        self._fold(delta.items())

    def apply_pairs(self, pairs: Iterable[Tuple[Any, int]]) -> None:
        """Fold raw ``(element, multiplicity)`` pairs in (one delta application).

        The sharded store partitions a delta once and hands each shard only
        its own pairs; wrapping them back into a :class:`Bag` per shard would
        tax the O(|Δ|/N) units with needless allocation.
        """
        if self._poisoned:
            return
        self.deltas_applied += 1
        self._fold(pairs)

    def _fold(self, pairs: Iterable[Tuple[Any, int]]) -> None:
        buckets = self._buckets
        try:
            for element, multiplicity in pairs:
                key = index_key_of(element, self.paths)
                bucket = buckets.get(key)
                if bucket is None:
                    bucket = buckets[key] = {}
                updated = bucket.get(element, 0) + multiplicity
                if updated == 0:
                    bucket.pop(element, None)
                    if not bucket:
                        buckets.pop(key, None)
                else:
                    bucket[element] = updated
        except IndexKeyError:
            self.poison()

    def poison(self) -> None:
        """Stop answering probes until the next :meth:`rebuild`."""
        self._poisoned = True
        self._buckets = {}

    # ------------------------------------------------------------------ #
    # Pickling (slots classes need explicit state methods)
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> Dict[str, Any]:
        return {
            "paths": self.paths,
            "buckets": {key: dict(bucket) for key, bucket in self._buckets.items()},
            "poisoned": self._poisoned,
            "hits": self.hits,
            "rebuilds": self.rebuilds,
            "deltas_applied": self.deltas_applied,
            "version": self.version,
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.paths = tuple(tuple(path) for path in state["paths"])
        self._buckets = state["buckets"]
        self._poisoned = state["poisoned"]
        self.hits = state["hits"]
        self.rebuilds = state["rebuilds"]
        self.deltas_applied = state["deltas_applied"]
        self.version = state["version"]

    # ------------------------------------------------------------------ #
    # Probing (the hash-join contract of repro.nrc.compile)
    # ------------------------------------------------------------------ #
    @property
    def poisoned(self) -> bool:
        return self._poisoned

    def get(self, key: Tuple[Any, ...]):
        """Bucket for ``key`` as ``(element, multiplicity)`` pairs, or ``None``.

        The same shape as the per-evaluation build's buckets, so the
        compiled hash-join probes both interchangeably.  Every call counts
        as a hit, ``None`` answers included (see :attr:`hits`).
        """
        self.hits += 1
        bucket = self._buckets.get(key)
        if not bucket:
            return None
        return bucket.items()

    def bucket_of(self, key: Tuple[Any, ...]):
        """Like :meth:`get` but without hit accounting.

        Used by :class:`~repro.storage.shards.ShardIndexFamily`, which
        counts one family-level hit per probe regardless of how many shard
        buckets answering it touches.
        """
        bucket = self._buckets.get(key)
        if not bucket:
            return None
        return bucket.items()

    def __len__(self) -> int:
        """Number of distinct keys (buckets)."""
        return len(self._buckets)

    def __bool__(self) -> bool:
        return bool(self._buckets)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def entry_count(self) -> int:
        """Total number of indexed ``(element, multiplicity)`` entries."""
        return sum(len(bucket) for bucket in self._buckets.values())

    def describe(self) -> Dict[str, Any]:
        # Lists, not tuples: the serving layer json-encodes this as-is.
        return {
            "key_paths": [list(path) for path in self.paths],
            "distinct_keys": len(self._buckets),
            "entries": self.entry_count(),
            "hits": self.hits,
            "rebuilds": self.rebuilds,
            "deltas_applied": self.deltas_applied,
            "poisoned": self._poisoned,
            "version": self.version,
        }

    def __repr__(self) -> str:
        state = "poisoned" if self._poisoned else f"{self.entry_count()} entries"
        return f"HashIndex(paths={self.paths}, {state}, hits={self.hits})"
