"""Relation stores: each relation's bag plus its persistent secondary indexes.

The storage layer is the single owner of mutable database state.  A
:class:`RelationStore` holds one relation's current :class:`~repro.bag.bag.Bag`
and any :class:`~repro.storage.index.HashIndex`es registered against it; a
:class:`StorageManager` names a family of stores (the database keeps one for
nested relations and one for the shredded flat mirror) and hands out the
:class:`IndexProvider` through which the compiled pipeline probes; a
:class:`DictionaryStore` owns the shredded input dictionaries.

Every mutation flows through :meth:`RelationStore.apply_delta`, which folds
the delta into the store's transient :class:`~repro.bag.builder.BagBuilder`
*and* into every index — one ``O(|Δ|)`` pass that never copies the base
dict, so a one-tuple update to a million-tuple relation costs one-tuple
work.  The store is copy-on-write: the immutable :class:`~repro.bag.bag.Bag`
the rest of the system sees is frozen **lazily**, only when someone asks for
:attr:`RelationStore.bag`, and freezing shares the builder's dict (O(1)); the
next delta copies the dict only if that snapshot is still referenced
somewhere (per-update evaluation environments normally die before the store
mutates, so the common case stays in place).  Every mutation bumps a
**version counter**; indexes record the version they reflect, and the
provider serves one only when (a) its version matches the store's and (b)
the caller's bag is the store's current frozen snapshot — any mismatch (a
hand-built post-update environment, an escaped evaluation context) silently
falls back to the per-evaluation build, keeping the interpreter-faithful
snapshot semantics.

Inside :func:`forced_no_index` persistent indexes are disabled outright: no
registration happens, and :meth:`IndexProvider.probe` answers ``None`` — so
even a view sharing an engine with index-registering views falls back to the
compiled pipeline's per-evaluation builds.  It is a test switch: the
per-evaluation path is the reference the indexed one is checked against.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.bag.bag import Bag, EMPTY_BAG
from repro.bag.builder import BagBuilder, _getrefcount
from repro.dictionaries import MaterializedDict
from repro.labels import Label
from repro.storage.index import HashIndex, Paths

__all__ = [
    "DictionaryStore",
    "IndexProvider",
    "RelationStore",
    "StorageManager",
    "forced_no_index",
    "persistent_indexes_enabled",
]

#: Set only inside :func:`forced_no_index`.
_indexes_disabled = False


def persistent_indexes_enabled() -> bool:
    """True unless inside :func:`forced_no_index`."""
    return not _indexes_disabled


@contextmanager
def forced_no_index(disabled: bool = True) -> Iterator[None]:
    """Temporarily disable (or re-enable) persistent indexes.

    Dynamic, unlike :func:`repro.nrc.compile.forced_interpretation`: views
    constructed inside the block register nothing, and *no* view is served
    a persistent index while the block is active (the provider declines
    every probe), so pre-existing registrations on a shared engine cannot
    leak in.
    """
    global _indexes_disabled
    saved = _indexes_disabled
    _indexes_disabled = disabled
    try:
        yield
    finally:
        _indexes_disabled = saved


class RelationStore:
    """One relation's transient contents and its persistent indexes.

    The contents live in one :class:`~repro.bag.builder.BagBuilder`; every
    registered key owns one :class:`~repro.storage.index.HashIndex` over
    them.  :meth:`apply_delta` folds a delta into both in one ``O(|Δ|)``
    pass.  :attr:`bag` caches the builder's frozen snapshot, so an
    unchanged store answers it with one attribute read; the cache is
    dropped *before* every mutation, so a snapshot nobody retained dies
    there and the builder keeps mutating in place.  :attr:`version` counts
    mutations; indexes record the version they reflect, which is what the
    provider's freshness check keys off.
    """

    __slots__ = ("name", "_builder", "_snapshot", "_version", "_indexes")

    def __init__(self, name: str, bag: Bag = EMPTY_BAG) -> None:
        self.name = name
        self._builder = BagBuilder.from_bag(bag)
        self._snapshot: Optional[Bag] = None
        self._version = 0
        self._indexes: Dict[Paths, HashIndex] = {}

    @property
    def bag(self) -> Bag:
        """The current contents as an immutable bag (lazily frozen snapshot).

        Repeated reads without intervening mutation return the same object;
        the first mutation after a read copies the dict only if the snapshot
        is still referenced elsewhere.
        """
        snapshot = self._snapshot
        if snapshot is None:
            snapshot = self._snapshot = self._builder.freeze()
        return snapshot

    @property
    def version(self) -> int:
        """Mutation counter: bumps on every applied delta or replacement."""
        return self._version

    @property
    def snapshot_freezes(self) -> int:
        """How many distinct immutable snapshots this store materialized."""
        return self._builder.freezes

    def current_snapshot(self) -> Optional[Bag]:
        """The live frozen snapshot, or ``None`` if the store mutated since.

        Used by the provider's correspondence check; deliberately does *not*
        force a freeze.
        """
        return self._snapshot

    def apply_delta(self, delta: Bag) -> None:
        """Fold ``delta`` into the contents and every index — ``O(|Δ|)``."""
        if delta.is_empty():
            return
        self._version += 1
        version = self._version
        self._snapshot = None
        self._builder.apply_bag(delta)
        for index in self._indexes.values():
            index.apply(delta)
            index.version = version

    def replace(self, bag: Bag) -> None:
        """Swap in a freshly computed bag; every index is rebuilt."""
        self._version += 1
        self._snapshot = None
        self._builder.adopt_bag(bag)
        for index in self._indexes.values():
            index.rebuild(bag)
            index.version = self._version

    @property
    def poisoned(self) -> bool:
        """True while some registered index is poisoned."""
        return any(index.poisoned for index in self._indexes.values())

    def heal(self) -> None:
        """Rebuild poisoned indexes from the current bag.

        Once the offending elements are gone, the rebuild restores
        ``O(|Δ|)`` maintenance.  The database calls this after a deleting
        delta reaches a poisoned store; an index whose bag still contains
        bad keys re-poisons and the view stays on the per-evaluation
        fallback.
        """
        for index in self._indexes.values():
            if index.poisoned:
                index.rebuild(self.bag)
                index.version = self._version

    # ------------------------------------------------------------------ #
    # Indexes
    # ------------------------------------------------------------------ #
    def ensure_index(self, paths: Paths) -> HashIndex:
        """The index keyed by ``paths``, built from the current bag if new."""
        key = tuple(tuple(path) for path in paths)
        index = self._indexes.get(key)
        if index is None:
            index = self._indexes[key] = HashIndex(key, self.bag)
            index.version = self._version
        return index

    def index_for(self, paths: Paths) -> Optional[HashIndex]:
        """Lookup by an already-normalized tuple-of-tuples key.

        This sits on the compiled pipeline's per-probe path (the provider
        re-verifies on every call), so unlike :meth:`ensure_index` it does
        not re-normalize: the compiler always supplies tuple paths.
        """
        return self._indexes.get(paths)

    def indexes(self) -> Tuple[HashIndex, ...]:
        return tuple(self._indexes.values())

    def describe(self) -> Dict[str, Any]:
        return {
            "relation": self.name,
            "cardinality": self._builder.cardinality(),
            "distinct": self._builder.distinct_size(),
            "version": self._version,
            "snapshot_freezes": self.snapshot_freezes,
            "indexes": [index.describe() for index in self._indexes.values()],
        }

    def __repr__(self) -> str:
        return (
            f"RelationStore({self.name!r}, {self._builder.distinct_size()} distinct, "
            f"v{self._version}, {len(self._indexes)} indexes)"
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

    def probe(self, name: str, paths: Paths, source_bag: Bag) -> Optional[HashIndex]:
        """Serve the index for ``(name, paths)`` if it describes ``source_bag``."""
        if _indexes_disabled:
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
    """A named family of relation stores sharing one index provider."""

    __slots__ = ("kind", "_stores", "_provider")

    def __init__(self, kind: str = "relations") -> None:
        self.kind = kind
        self._stores: Dict[str, RelationStore] = {}
        self._provider = IndexProvider(self)

    # ------------------------------------------------------------------ #
    def ensure(self, name: str, bag: Bag = EMPTY_BAG) -> RelationStore:
        """Get-or-create a store (``bag`` only applies at creation time)."""
        store = self._stores.get(name)
        if store is None:
            store = self._stores[name] = RelationStore(name, bag)
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
        """Register a persistent index, unless inside :func:`forced_no_index`."""
        if not persistent_indexes_enabled():
            return None
        store = self._stores.get(name)
        if store is None:
            return None
        return store.ensure_index(paths)

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
                entries = self._entries[name] = entries.copy()
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
