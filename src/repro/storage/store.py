"""Relation stores: each relation's bag plus its persistent secondary indexes.

The storage layer is the single owner of mutable database state.  A
:class:`RelationStore` holds one relation's current :class:`~repro.bag.bag.Bag`
and any :class:`~repro.storage.index.HashIndex`es registered against it; a
:class:`StorageManager` names a family of stores (the database keeps one for
nested relations and one for the shredded flat mirror) and hands out the
:class:`IndexProvider` through which the compiled pipeline probes; a
:class:`DictionaryStore` owns the shredded input dictionaries.

Every mutation flows through :meth:`RelationStore.apply_delta`, which folds
the delta into the store's transient :class:`~repro.bag.builder.BagBuilder`s
*and* into every index — one ``O(|Δ|)`` pass that never copies the base
dict, so a one-tuple update to a million-tuple relation costs one-tuple
work.  Stores are **sharded** (:mod:`repro.storage.shards`): contents are
partitioned by a stable hash of the primary index key, the delta pass runs
as independent ``O(|Δ|/N)`` per-shard units, and snapshots assemble the
per-shard frozen bags into a :class:`~repro.storage.shards.ShardedBag` in
O(N).  The store is copy-on-write: the immutable :class:`~repro.bag.bag.Bag`
the rest of the system sees is frozen **lazily**, only when someone asks for
:attr:`RelationStore.bag`, and freezing shares the builders' dicts (O(1)
each); the next delta copies only the *touched shards'* dicts, and only if
that snapshot is still referenced somewhere (per-update evaluation
environments normally die before the store mutates, so the common case
stays in place — and a long-lived reader costs ``O(touched · n/N)`` per
write, not ``O(n)``).  Every mutation bumps a **version counter**; index
views record the version they reflect, and the provider serves one only
when (a) its version matches the store's and (b) the caller's bag is the
store's current frozen snapshot — the version replaces the old reliance on
one immutable bag object per store state, and any mismatch (a hand-built
post-update environment, an escaped evaluation context) silently falls back
to the per-evaluation build, keeping the interpreter-faithful snapshot
semantics.  ``REPRO_SHARDS=1`` reproduces the pre-sharding single-dict
store exactly.

Setting the environment variable :data:`REPRO_NO_INDEX` (to any non-empty
value) disables persistent indexes outright: no registration happens while
it is set, and :meth:`IndexProvider.probe` answers ``None`` — so even a view
sharing an engine with index-registering views falls back to the compiled
pipeline's per-evaluation builds.  This is how the benchmarks measure the
indexes' own contribution.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.bag.bag import Bag, EMPTY_BAG
from repro.bag.builder import BagBuilder, _getrefcount
from repro.dictionaries import MaterializedDict
from repro.labels import Label
from repro.storage.index import HashIndex, IndexKeyError, Paths, index_key_of
from repro.storage.shards import ShardIndexFamily, ShardedBag, resolve_shard_count

__all__ = [
    "REPRO_NO_INDEX",
    "DictionaryStore",
    "IndexProvider",
    "RelationStore",
    "StorageManager",
    "forced_no_index",
    "persistent_indexes_enabled",
]

#: What a store hands the provider / introspection per registered key:
#: a raw index for single-shard stores, a family otherwise.
IndexView = Union[HashIndex, ShardIndexFamily]

#: Environment variable that disables persistent-index registration.
REPRO_NO_INDEX = "REPRO_NO_INDEX"


def persistent_indexes_enabled() -> bool:
    """True unless the ``REPRO_NO_INDEX`` escape hatch is set."""
    return not os.environ.get(REPRO_NO_INDEX)


@contextmanager
def forced_no_index(disabled: bool = True) -> Iterator[None]:
    """Temporarily disable (or re-enable) persistent indexes.

    Mirrors :func:`repro.nrc.compile.forced_interpretation`, but the hatch
    is dynamic: views constructed inside the block register nothing, and
    *no* view is served a persistent index while the block is active (the
    provider declines every probe), so pre-existing registrations on a
    shared engine cannot leak in.
    """
    saved = os.environ.get(REPRO_NO_INDEX)
    try:
        if disabled:
            os.environ[REPRO_NO_INDEX] = "1"
        else:
            os.environ.pop(REPRO_NO_INDEX, None)
        yield
    finally:
        if saved is None:
            os.environ.pop(REPRO_NO_INDEX, None)
        else:
            os.environ[REPRO_NO_INDEX] = saved


#: Sentinel distinguishing "slice poisoned at dispatch, no summary expected"
#: from "worker reported poisoning" (``None``) in ``adopt_shard``.
_UNTOUCHED = object()


class _Shard:
    """One partition of a sharded store: a builder plus its index slices."""

    __slots__ = ("builder", "indexes")

    def __init__(self, builder: BagBuilder) -> None:
        self.builder = builder
        self.indexes: Dict[Paths, HashIndex] = {}


class RelationStore:
    """One relation's transient contents and its persistent indexes.

    The store is partitioned into N shards (``shards`` argument,
    ``REPRO_SHARDS`` environment variable, or
    :data:`~repro.storage.shards.DEFAULT_SHARD_COUNT`), each owning a
    :class:`~repro.bag.builder.BagBuilder` and one
    :class:`~repro.storage.index.HashIndex` slice per registered key.
    Elements are routed by a stable hash of the **primary index key** — the
    first key registered through :meth:`ensure_index` (whole-element hash
    until one exists; registering the first key re-partitions once).  A
    delta is partitioned in one O(|Δ|) pass and each touched shard folds its
    own pairs into its builder and index slices: O(|Δ|/N) units that are
    independent of each other.  :attr:`bag` assembles the per-shard frozen
    snapshots into a :class:`~repro.storage.shards.ShardedBag` in O(N); a
    retained snapshot therefore copy-on-writes only the shards the next
    delta touches.  :attr:`version` counts mutations; index views record the
    version they reflect, which is what the provider's freshness check keys
    off.

    With ``shards=1`` (the ``REPRO_SHARDS=1`` escape hatch) all of this
    collapses to the pre-sharding behavior: one builder, plain ``Bag``
    snapshots, raw ``HashIndex`` objects.
    """

    __slots__ = (
        "name",
        "_shards",
        "_shard_count",
        "_routing_paths",
        "_version",
        "_indexes",
        "_composite",
        "_composite_freezes",
    )

    def __init__(self, name: str, bag: Bag = EMPTY_BAG, shards: Optional[int] = None) -> None:
        self.name = name
        self._shard_count = resolve_shard_count(shards)
        self._version = 0
        self._routing_paths: Optional[Paths] = None
        self._indexes: Dict[Paths, IndexView] = {}
        self._composite: Optional[ShardedBag] = None
        self._composite_freezes = 0
        if self._shard_count == 1:
            self._shards = [_Shard(BagBuilder.from_bag(bag))]
        else:
            self._shards = [_Shard(BagBuilder()) for _ in range(self._shard_count)]
            if not bag.is_empty():
                self._scatter(bag.items())

    # ------------------------------------------------------------------ #
    # Shard routing
    # ------------------------------------------------------------------ #
    @property
    def shards(self) -> int:
        return self._shard_count

    @property
    def routing_paths(self) -> Optional[Paths]:
        """The primary index key elements are partitioned by (``None`` until
        the first index registers; whole-element hash routing until then)."""
        return self._routing_paths

    def _shard_of(self, element: Any) -> int:
        paths = self._routing_paths
        if paths is not None:
            try:
                return hash(index_key_of(element, paths)) % self._shard_count
            except IndexKeyError:
                # No faithful key: route by the element itself.  Such an
                # element poisons its shard's index slice for these paths,
                # so probes decline store-wide and routing never lies.
                pass
        return hash(element) % self._shard_count

    def _partition(self, pairs) -> Dict[int, List[Tuple[Any, int]]]:
        """One O(|pairs|) routing pass: shard id → that shard's pairs.

        The single partitioning primitive — initial scatter, re-sharding and
        delta application all route through it, so contents and deltas can
        never disagree about an element's owning shard.
        """
        groups: Dict[int, List[Tuple[Any, int]]] = {}
        for element, multiplicity in pairs:
            groups.setdefault(self._shard_of(element), []).append((element, multiplicity))
        return groups

    def _scatter(self, pairs) -> None:
        """Partition ``pairs`` into the shard builders (no index maintenance)."""
        for position, shard_pairs in self._partition(pairs).items():
            self._shards[position].builder.apply_pairs(shard_pairs)

    def _reshard(self) -> None:
        """Re-partition all contents under the current routing paths."""
        pairs = [
            pair for shard in self._shards for pair in shard.builder.items()
        ]
        self._version += 1
        self._composite = None
        self._shards = [_Shard(BagBuilder()) for _ in range(self._shard_count)]
        if pairs:
            self._scatter(pairs)

    # ------------------------------------------------------------------ #
    @property
    def bag(self) -> Bag:
        """The current contents as an immutable bag (lazily frozen snapshot).

        Repeated reads without intervening mutation return the same object;
        the first mutation after a read copies only the *touched shards'*
        dicts, and only if the snapshot is still referenced elsewhere.
        """
        if self._shard_count == 1:
            return self._shards[0].builder.freeze()
        composite = self._composite
        if composite is None:
            composite = self._composite = ShardedBag.of(
                tuple(shard.builder.freeze() for shard in self._shards)
            )
            self._composite_freezes += 1
        return composite

    @property
    def version(self) -> int:
        """Mutation counter: bumps on every applied delta or replacement."""
        return self._version

    @property
    def snapshot_freezes(self) -> int:
        """How many distinct immutable snapshots this store materialized."""
        if self._shard_count == 1:
            return self._shards[0].builder.freezes
        return self._composite_freezes

    def current_snapshot(self) -> Optional[Bag]:
        """The live frozen snapshot, or ``None`` if the store mutated since.

        Used by the provider's correspondence check; deliberately does *not*
        force a freeze.
        """
        if self._shard_count == 1:
            return self._shards[0].builder.frozen
        return self._composite

    def apply_delta(self, delta: Bag) -> None:
        """Fold ``delta`` into the touched shards and their indexes — ``O(|Δ|)``.

        The composite snapshot reference is dropped *before* mutating, so a
        snapshot nobody else retained dies here and the builders keep
        mutating in place; a retained one forces per-shard copy-on-write of
        the touched shards only.
        """
        if delta.is_empty():
            return
        self._version += 1
        version = self._version
        if self._shard_count == 1:
            shard = self._shards[0]
            shard.builder.apply_bag(delta)
            for index in shard.indexes.values():
                index.apply(delta)
                index.version = version
            return
        self._composite = None
        # Per-shard O(|Δ|/N) units: builder fold plus index-slice folds.
        # They are mutually independent — the scheduler may run them
        # concurrently; serial application is just one ordering.
        for position, shard_pairs in self._partition(delta.items()).items():
            shard = self._shards[position]
            shard.builder.apply_pairs(shard_pairs)
            for index in shard.indexes.values():
                index.apply_pairs(shard_pairs)
                index.version = version
        for family in self._indexes.values():
            family.deltas_applied += 1
            family.version = version
            if not family.poisoned:
                family.refresh_poison()

    # ------------------------------------------------------------------ #
    # Shard ownership transfer (sendable execution state)
    # ------------------------------------------------------------------ #
    def routing_token(self) -> Tuple[int, Optional[Paths], int]:
        """Identity of the current shard layout *and* contents.

        A worker's cached copy of a shard is valid only while the layout
        (shard count + routing paths — re-registration re-partitions) and
        the version (any local mutation: a delta applied in-process, a
        wholesale replace, a vacuum rebuild) both still match.  Execution
        backends compare tokens before reusing remote state and re-export
        on any mismatch, so out-of-band mutation can never corrupt an
        offloaded fold.
        """
        return (self._shard_count, self._routing_paths, self._version)

    def partition_delta(self, delta: Bag) -> Dict[int, List[Tuple[Any, int]]]:
        """Route a delta once, in-parent: shard position → that shard's pairs.

        Partitioning stays authoritative in the owning process (it depends
        on the process's hash seed via ``_shard_of``); workers receive
        already-partitioned pairs and never route anything themselves.
        """
        return self._partition(delta.items())

    def shard_unit_paths(self, position: int) -> List[Paths]:
        """The index keys a worker must summarize for one shard's fold:
        every registered slice that is currently healthy.  Poisoned slices
        ignore deltas on the serial path too, so omitting them keeps the
        offloaded fold's counter accounting bit-identical."""
        return [
            paths
            for paths, index in self._shards[position].indexes.items()
            if not index.poisoned
        ]

    def export_shard(self, position: int) -> Dict[str, Any]:
        """A picklable snapshot of one shard, for moving ownership out.

        Contains the builder's multiplicity dict (copied, so worker-side
        folds never alias this store's state) plus the full state of every
        index slice.  ``version`` stamps which store state the export
        reflects — the receiving side pairs it with :meth:`routing_token`
        to detect staleness.
        """
        shard = self._shards[position]
        return {
            "relation": self.name,
            "shard": position,
            "version": self._version,
            "data": dict(shard.builder._data),
            "indexes": {
                paths: index.export_shard() for paths, index in shard.indexes.items()
            },
        }

    def begin_delta(self) -> int:
        """Open one delta application whose folds happen elsewhere.

        Mirrors the head of :meth:`apply_delta` — bump the version, drop
        the composite snapshot reference — and returns the new version for
        the eventual :meth:`adopt_shard` calls.  Callers must pair it with
        :meth:`finish_delta` after every touched shard was adopted (or
        folded locally as a fallback).
        """
        self._version += 1
        if self._shard_count > 1:
            self._composite = None
        return self._version

    def adopt_shard(
        self,
        position: int,
        data: Dict[Any, int],
        index_deltas: Optional[Dict[Paths, Optional[List[Tuple[Any, Any, int]]]]] = None,
        *,
        version: Optional[int] = None,
    ) -> None:
        """Fold one shard's remotely computed result back in, without re-hashing.

        ``data`` is the shard's post-fold multiplicity dict (the frozen
        result bag's contents); the builder adopts it wholesale — a retained
        reader snapshot keeps its old dict, so no copy-on-write pass runs.
        ``index_deltas`` maps each healthy slice's paths to the
        ``(key, element, multiplicity)`` triples the worker computed (the
        ``index_key_of`` projections that dominate maintenance cost), or to
        ``None`` when the worker hit an unhashable key — which poisons the
        slice exactly as an in-process fold would.  Slices absent from the
        mapping were poisoned at dispatch time and only advance their
        version stamp, matching the serial path's no-op fold.
        """
        shard = self._shards[position]
        shard.builder.adopt_dict(data)
        stamp = self._version if version is None else version
        deltas = index_deltas or {}
        for paths, index in shard.indexes.items():
            triples = deltas.get(paths, _UNTOUCHED)
            if triples is None:
                if not index.poisoned:
                    index.deltas_applied += 1
                    index.poison()
            elif triples is not _UNTOUCHED:
                index.apply_keyed_pairs(triples)
            index.version = stamp

    def apply_shard_pairs(self, position: int, pairs: List[Tuple[Any, int]]) -> None:
        """Fold one shard's already-partitioned pairs in-process.

        Exactly the per-shard unit of :meth:`apply_delta`'s multi-shard
        loop, exposed for execution backends: the threads backend runs one
        call per touched shard on its pool (units touch disjoint shards, so
        concurrency is scheduling, not semantics), and the process backend
        uses it to recover locally when a work unit cannot be offloaded.
        Callers must wrap the calls in :meth:`begin_delta` /
        :meth:`finish_delta`.
        """
        shard = self._shards[position]
        version = self._version
        shard.builder.apply_pairs(pairs)
        for index in shard.indexes.values():
            index.apply_pairs(pairs)
            index.version = version

    def finish_delta(self) -> None:
        """Close a :meth:`begin_delta` application: family-level accounting.

        Mirrors the tail of :meth:`apply_delta` — one delta counted per
        index family, version stamps advanced, poison state refreshed.
        Single-shard stores keep raw :class:`HashIndex` views whose
        counters the adopt path already advanced, so there is nothing to do.
        """
        if self._shard_count == 1:
            return
        version = self._version
        for family in self._indexes.values():
            family.deltas_applied += 1
            family.version = version
            if not family.poisoned:
                family.refresh_poison()

    def replace(self, bag: Bag) -> None:
        """Swap in a freshly computed bag; every index is rebuilt."""
        self._version += 1
        version = self._version
        if self._shard_count == 1:
            shard = self._shards[0]
            freezes = shard.builder.freezes
            shard.builder = BagBuilder.from_bag(bag)
            # The freeze counter is cumulative per store, not per builder.
            shard.builder.freezes = freezes
            for index in shard.indexes.values():
                index.rebuild(bag)
                index.version = version
            return
        self._composite = None
        self._shards = [_Shard(BagBuilder()) for _ in range(self._shard_count)]
        if not bag.is_empty():
            self._scatter(bag.items())
        for paths, family in self._indexes.items():
            shard_indexes = []
            for shard in self._shards:
                index = HashIndex(paths, shard.builder.freeze())
                index.version = version
                shard.indexes[paths] = index
                shard_indexes.append(index)
            family.shard_indexes = tuple(shard_indexes)
            family.rebuilds += 1
            family.version = version
            family.refresh_poison()

    def vacuum(self) -> int:
        """Re-validate poisoned indexes against the current bags, per shard.

        A transient unhashable key poisons only the owning shard's index
        slice; once the offending elements are gone, rebuilding *that shard*
        restores ``O(|Δ|)`` maintenance — healthy shards keep their
        incrementally-maintained state untouched.  Returns the number of
        index views that came back healthy (a shard whose bag still contains
        bad keys re-poisons and the view stays on the per-evaluation
        fallback).
        """
        revalidated = 0
        for view in self._indexes.values():
            if not view.poisoned:
                continue
            if isinstance(view, HashIndex):
                view.rebuild(self.bag)
                view.version = self._version
                if not view.poisoned:
                    revalidated += 1
                continue
            view.revalidate(
                tuple(shard.builder.freeze() for shard in self._shards),
                self._version,
            )
            if not view.poisoned:
                revalidated += 1
        return revalidated

    # ------------------------------------------------------------------ #
    # Indexes
    # ------------------------------------------------------------------ #
    def ensure_index(self, paths: Paths) -> IndexView:
        """The index view keyed by ``paths``, built from the current bags if new.

        The first registered key becomes the store's primary **routing**
        key: contents are re-partitioned once so that equal keys co-locate,
        which is what lets the provider answer primary-key probes from a
        single shard.
        """
        key = tuple(tuple(path) for path in paths)
        view = self._indexes.get(key)
        if view is not None:
            return view
        if self._shard_count == 1:
            shard = self._shards[0]
            index = HashIndex(key, self.bag)
            index.version = self._version
            shard.indexes[key] = index
            self._indexes[key] = index
            return index
        if self._routing_paths is None:
            self._routing_paths = key
            self._reshard()
        shard_indexes = []
        for shard in self._shards:
            index = HashIndex(key, shard.builder.freeze())
            index.version = self._version
            shard.indexes[key] = index
            shard_indexes.append(index)
        family = ShardIndexFamily(
            key,
            tuple(shard_indexes),
            routed=(key == self._routing_paths),
            version=self._version,
        )
        self._indexes[key] = family
        return family

    def index_for(self, paths: Paths) -> Optional[IndexView]:
        """Lookup by an already-normalized tuple-of-tuples key.

        This sits on the compiled pipeline's per-probe path (the provider
        re-verifies on every call), so unlike :meth:`ensure_index` it does
        not re-normalize: the compiler always supplies tuple paths.
        """
        return self._indexes.get(paths)

    def indexes(self) -> Tuple[IndexView, ...]:
        return tuple(self._indexes.values())

    def describe(self) -> Dict[str, Any]:
        description = {
            "relation": self.name,
            "cardinality": sum(shard.builder.cardinality() for shard in self._shards),
            "distinct": sum(shard.builder.distinct_size() for shard in self._shards),
            "version": self._version,
            "snapshot_freezes": self.snapshot_freezes,
            "shards": self._shard_count,
            "indexes": [view.describe() for view in self._indexes.values()],
        }
        if self._shard_count > 1:
            paths = self._routing_paths
            description["routing_paths"] = (
                None if paths is None else [list(path) for path in paths]
            )
            description["shard_stats"] = [
                {
                    "shard": position,
                    "distinct": shard.builder.distinct_size(),
                    "cardinality": shard.builder.cardinality(),
                    "snapshot_freezes": shard.builder.freezes,
                }
                for position, shard in enumerate(self._shards)
            ]
        return description

    def __repr__(self) -> str:
        distinct = sum(shard.builder.distinct_size() for shard in self._shards)
        return (
            f"RelationStore({self.name!r}, {distinct} distinct, "
            f"{self._shard_count} shards, v{self._version}, "
            f"{len(self._indexes)} indexes)"
        )


class IndexProvider:
    """The compiled pipeline's window onto a manager's persistent indexes.

    :meth:`probe` answers only when the registered index provably describes
    the bag the query is reading: the index's recorded **version** must
    match the store's current version (freshness — the check that replaced
    the old one-immutable-bag-per-state identity test) *and* the caller's
    bag must be the store's current frozen snapshot (correspondence — a
    hand-built or stale environment binding fails it).  The correspondence
    check peeks at the live snapshot without forcing a freeze.  Every other
    case returns ``None`` and the pipeline rebuilds per evaluation,
    recording the rebuild here so hit/rebuild accounting stays truthful.
    """

    __slots__ = ("_manager",)

    def __init__(self, manager: "StorageManager") -> None:
        self._manager = manager

    def probe(self, name: str, paths: Paths, source_bag: Bag) -> Optional[IndexView]:
        """Serve the index view for ``(name, paths)`` if it describes ``source_bag``.

        For multi-shard stores the returned
        :class:`~repro.storage.shards.ShardIndexFamily` routes primary-key
        probes to the single owning shard and merges the (disjoint) shard
        buckets for secondary keys; the compiled pipeline probes it exactly
        like a raw :class:`~repro.storage.index.HashIndex`.
        """
        if os.environ.get(REPRO_NO_INDEX):
            return None
        store = self._manager.get(name)
        if store is None or store.current_snapshot() is not source_bag:
            return None
        index = store.index_for(paths)
        if index is None or index.poisoned or index.version != store.version:
            return None
        return index

    def note_rebuild(self, name: str, paths: Paths) -> None:
        """Record that the pipeline had to fall back to a per-evaluation build."""
        store = self._manager.get(name)
        if store is None:
            return
        index = store.index_for(paths)
        if index is not None:
            index.rebuilds += 1


class StorageManager:
    """A named family of relation stores sharing one index provider.

    ``shards`` fixes the shard count of every store this manager creates
    (``None`` defers to ``REPRO_SHARDS`` / the default at creation time).
    """

    __slots__ = ("kind", "_stores", "_provider", "_shards")

    def __init__(self, kind: str = "relations", shards: Optional[int] = None) -> None:
        self.kind = kind
        self._stores: Dict[str, RelationStore] = {}
        self._provider = IndexProvider(self)
        self._shards = shards

    @property
    def shards(self) -> Optional[int]:
        """The pinned shard count, or ``None`` when stores resolve it themselves."""
        return self._shards

    # ------------------------------------------------------------------ #
    def ensure(
        self, name: str, bag: Bag = EMPTY_BAG, shards: Optional[int] = None
    ) -> RelationStore:
        """Get-or-create a store.  ``shards`` overrides the manager pin for
        this one store (the registration path uses it to keep small
        relations on a single shard); it only applies at creation time."""
        store = self._stores.get(name)
        if store is None:
            count = self._shards if shards is None else shards
            store = self._stores[name] = RelationStore(name, bag, shards=count)
        return store

    def get(self, name: str) -> Optional[RelationStore]:
        return self._stores.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._stores

    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._stores))

    def bag(self, name: str) -> Bag:
        return self._stores[name].bag

    def bags(self) -> Dict[str, Bag]:
        """Name → current bag snapshot (the relations of an environment)."""
        return {name: store.bag for name, store in self._stores.items()}

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def apply_delta(self, name: str, delta: Bag) -> None:
        self.ensure(name).apply_delta(delta)

    def replace(self, name: str, bag: Bag) -> None:
        self.ensure(name).replace(bag)

    # ------------------------------------------------------------------ #
    # Indexes
    # ------------------------------------------------------------------ #
    def ensure_index(self, name: str, paths: Paths) -> Optional[HashIndex]:
        """Register a persistent index, honoring the ``REPRO_NO_INDEX`` hatch."""
        if not persistent_indexes_enabled():
            return None
        store = self._stores.get(name)
        if store is None:
            return None
        return store.ensure_index(paths)

    def vacuum(self) -> int:
        """Re-validate poisoned indexes in every store; returns the count healed."""
        return sum(store.vacuum() for store in self._stores.values())

    def provider(self) -> IndexProvider:
        return self._provider

    def report(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "stores": [store.describe() for _, store in sorted(self._stores.items())],
        }

    def __repr__(self) -> str:
        return f"StorageManager({self.kind!r}, {len(self._stores)} stores)"


class DictionaryStore:
    """The shredded input dictionaries, with in-place delta-merge application.

    Dictionaries are pointwise bag maps (label → bag).  The store owns one
    mutable entries dict per dictionary and folds deltas into it pointwise —
    ``O(|Δ| labels)`` per application, never a full-map rebuild.  Readers
    get a lazily frozen :class:`~repro.dictionaries.MaterializedDict` view
    that adopts the entries dict without copying; the next delta after a
    read copies the map only if that view is still referenced somewhere
    (the same copy-on-write discipline as
    :class:`~repro.bag.builder.BagBuilder`).
    """

    __slots__ = ("_entries", "_frozen")

    def __init__(self) -> None:
        self._entries: Dict[str, Dict[Label, Bag]] = {}
        self._frozen: Dict[str, Optional[MaterializedDict]] = {}

    def set(self, name: str, dictionary: MaterializedDict) -> None:
        if not isinstance(dictionary, MaterializedDict):
            raise TypeError("DictionaryStore.set requires a MaterializedDict")
        # Adopt the given dictionary's entries as the frozen-shared state;
        # the first delta copies only if the caller still holds it.
        self._entries[name] = dictionary._entries
        self._frozen[name] = dictionary

    def get(self, name: str, default: Optional[MaterializedDict] = None):
        entries = self._entries.get(name)
        if entries is None:
            return default
        return self._freeze(name, entries)

    def lookup(self, name: str, label: Label) -> Optional[Bag]:
        """One label's current definition (``None`` if undefined), read live
        — nothing is frozen, so the next delta still merges in place."""
        entries = self._entries.get(name)
        return None if entries is None else entries.get(label)

    def _freeze(self, name: str, entries: Dict[Label, Bag]) -> MaterializedDict:
        frozen = self._frozen.get(name)
        if frozen is None:
            frozen = self._frozen[name] = MaterializedDict._adopt(entries)
        return frozen

    def _writable(self, name: str) -> Dict[Label, Bag]:
        entries = self._entries.get(name)
        if entries is None:
            entries = self._entries[name] = {}
            self._frozen[name] = None
            return entries
        frozen = self._frozen.get(name)
        if frozen is not None:
            self._frozen[name] = None
            # As in BagBuilder._writable: the entries dict is checked too,
            # so an iterator over a handed-out view keeps its snapshot
            # (references when unshared: our _entries value slot, the frozen
            # view's attribute, the local binding, and getrefcount's
            # argument = 4).
            if (
                _getrefcount is None
                or _getrefcount(frozen) > 2
                or _getrefcount(entries) > 4
            ):
                entries = self._entries[name] = dict(entries)
        return entries

    def apply_delta(self, name: str, delta) -> None:
        if isinstance(delta, MaterializedDict):
            if len(delta) == 0:
                # Keep the name registered (an empty merge used to create
                # the entry) but touch nothing.
                if name not in self._entries:
                    self._entries[name] = {}
                    self._frozen[name] = None
                return
            entries = self._writable(name)
            for label, bag in delta.items():
                existing = entries.get(label)
                # Labels stay in the support even when their bags cancel to
                # empty (``supp([l ↦ ∅]) = {l}``), matching the pointwise
                # ``⊎`` of Section 5.2 exactly.
                entries[label] = bag if existing is None else existing.union(bag)
            return
        # Non-materialized deltas (intensional / lazy combinations) go
        # through the dictionary algebra and re-materialize, as before.
        existing_dict = self.get(name, MaterializedDict({}))
        merged = existing_dict.add(delta)
        if not isinstance(merged, MaterializedDict):
            merged = merged.materialize(merged.support() or ())
        self._entries[name] = merged._entries
        self._frozen[name] = merged

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._entries))

    def as_mapping(self) -> Dict[str, MaterializedDict]:
        return {
            name: self._freeze(name, entries)
            for name, entries in self._entries.items()
        }

    def report(self) -> Dict[str, Any]:
        return {
            "kind": "dictionaries",
            "stores": [
                {"dictionary": name, "labels": len(entries)}
                for name, entries in sorted(self._entries.items())
            ],
        }

    def __repr__(self) -> str:
        return f"DictionaryStore({len(self._entries)} dictionaries)"
