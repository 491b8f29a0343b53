"""The database: nested relations, their shredded mirror, and update dispatch.

A :class:`Database` routes all of its state through the persistent storage
layer (:mod:`repro.storage`):

* the *nested* relation instances (bags of possibly-nested tuples) live in
  one :class:`~repro.storage.StorageManager`, used by direct evaluation and
  by the naive re-evaluation baseline;
* a *shredded mirror* — flat relations plus input dictionaries (Section 5.1)
  — lives in a second manager and a :class:`~repro.storage.DictionaryStore`,
  maintained incrementally, used by the shredded/nested IVM engine;
* both managers also own the **persistent join indexes** the compiled delta
  pipelines register through :meth:`register_index_requirements`; every
  update folds its delta into the affected indexes in ``O(|Δ|)``, so compiled
  hash-joins probe without rebuilding their build sides.

Views register themselves with :meth:`register_view`.  ``apply_update``
notifies every registered view *before* mutating the stored instances, so
delta queries are evaluated against the pre-update state exactly as required
by ``h[R ⊎ ΔR] = h[R] ⊎ δ(h)[R, ΔR]``; the update is applied to the stored
relations (and their indexes) afterwards.

The whole application pass is ``O(|Δ|)``: stores fold deltas into transient
builders in place (copy-on-write — see :mod:`repro.bag.builder` and
:mod:`repro.storage.store`), relations without bag positions skip the
shredder entirely (their shredded form is the delta itself), and dictionary
deltas merge pointwise into the touched labels only.  A deep update reaches
the *nested* instance as a delta too: the relation's
:class:`~repro.shredding.nesting.Nester` re-nests only the tuples that
refer to the rewritten labels.
"""

from __future__ import annotations

import threading
from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.bag.bag import Bag, EMPTY_BAG
from repro.dictionaries import DictValue, MaterializedDict
from repro.errors import ShreddingError, WorkloadError
from repro.ivm.updates import Update
from repro.ivm.views import View
from repro.labels import LabelFactory
from repro.nrc.compile import IndexRequirement
from repro.nrc.evaluator import Environment
from repro.nrc.types import BagType, BaseType, LabelType, ProductType, Type
from repro.shredding.shred_database import (
    flat_relation_name,
    input_context_for,
    input_dict_name,
    shred_relation,
)
from repro.shredding.context import iter_context_dicts
from repro.shredding.nesting import Nester
from repro.shredding.shred_values import ValueShredder
from repro.storage import DictionaryStore, ResultStore, StorageManager, resolve_shard_count
from repro.storage.shards import SMALL_RELATION_SHARD_THRESHOLD, shards_pinned

__all__ = ["Database", "RefreshContext", "ShreddedDelta"]


def _is_passthrough_flat(type_: Type) -> bool:
    """True iff shredding values of this type is the identity.

    Holds for base values, labels, and products thereof.  Bag positions need
    real shredding and unit positions are *normalized* (any value becomes
    ``()``), so both disqualify a relation from the shredder bypass.
    """
    if isinstance(type_, (BaseType, LabelType)):
        return True
    if isinstance(type_, ProductType):
        return all(_is_passthrough_flat(component) for component in type_.components)
    return False


def _validate_flat_element(value: object, type_: Type) -> None:
    """The shape validation the shredder performs, without the shredding.

    Mirrors :meth:`repro.shredding.shred_values.ValueShredder.shred_value`
    exactly for passthrough-flat types: tuple arity must match product
    types; base and label positions are accepted as-is.
    """
    if isinstance(type_, ProductType):
        if not isinstance(value, tuple) or len(value) != type_.arity:
            raise ShreddingError(f"value {value!r} does not match type {type_.render()}")
        for component, component_type in zip(value, type_.components):
            if isinstance(component_type, ProductType):
                _validate_flat_element(component, component_type)


class ShreddedDelta:
    """The shredded form of an update: delta symbols for the flat world.

    ``bags`` maps flat relation names to flat delta bags; ``dictionaries``
    maps input dictionary names to dictionary deltas (new label definitions
    from shredding inserted tuples, plus any explicit deep deltas).
    """

    def __init__(
        self,
        bags: Optional[Dict[str, Bag]] = None,
        dictionaries: Optional[Dict[str, MaterializedDict]] = None,
    ) -> None:
        self.bags: Dict[str, Bag] = dict(bags or {})
        self.dictionaries: Dict[str, MaterializedDict] = dict(dictionaries or {})

    def as_delta_symbols(self, order: int = 1) -> Dict[Tuple[str, int], object]:
        """Bindings for the ``Δ`` symbols of delta queries.

        Flat bags whose multiplicities cancel to empty are dropped: an
        unbound ``ΔR`` symbol resolves to the empty bag anyway, and views can
        then recognize no-op flat deltas and skip work for them (the shredded
        mirror of ``Update.is_empty()``'s pointwise check).
        """
        symbols: Dict[Tuple[str, int], object] = {}
        for name, bag in self.bags.items():
            if bag.is_empty():
                continue
            symbols[(name, order)] = bag
        for name, dictionary in self.dictionaries.items():
            symbols[(name, order)] = dictionary
        return symbols

    def source_names(self) -> Tuple[str, ...]:
        return tuple(sorted(set(self.bags) | set(self.dictionaries)))


class RefreshContext:
    """Shared, read-only evaluation state for one update's view refreshes.

    Before PR 5 every view's ``on_update`` rebuilt its own environments per
    update; the scheduler instead builds one family of pre-update snapshot
    environments and shares it across all views — one snapshot family per
    update instead of one per view, and the anchor that makes concurrent
    refresh safe.  All environments expose *pre-update* state; views must
    treat them as read-only (copy before binding view-local variables).

    The nested-relation delta environment is built eagerly on the
    coordinating thread (every built-in strategy reads it, and building it
    freezes the relation stores before any worker runs).  The shredded
    environments are built lazily under a lock — only nested views read
    them, so an engine of classic/recursive views never freezes the flat
    mirror at all; the lock makes the one-time construction (and the store
    freezes inside it) single-threaded.  :meth:`post_shredded_environment`
    is the laziest of all: it costs ``O(|DB|)`` (it unions the deltas into
    the flat mirror) and is only needed when a nested view discovers newly
    active labels.
    """

    __slots__ = (
        "update",
        "shredded_delta",
        "relation_deltas",
        "delta_symbols",
        "_database",
        "_lock",
        "_delta_environment",
        "_shredded_environment",
        "_shredded_delta_environment",
        "_post_shredded_environment",
    )

    def __init__(self, database: "Database", update: Update, shredded_delta: ShreddedDelta) -> None:
        self._database = database
        self.update = update
        self.shredded_delta = shredded_delta
        self.relation_deltas: Dict[Tuple[str, int], Bag] = {
            (name, 1): bag
            for name, bag in update.relations.items()
            if not bag.is_empty()
        }
        self.delta_symbols = shredded_delta.as_delta_symbols(order=1)
        self._lock = threading.Lock()
        # Built eagerly on the coordinating thread: freezing the relation
        # stores here means worker threads only ever *read* frozen snapshots.
        self._delta_environment = database.environment(self.relation_deltas)
        self._shredded_environment: Optional[Environment] = None
        self._shredded_delta_environment: Optional[Environment] = None
        self._post_shredded_environment: Optional[Environment] = None

    def delta_environment(self) -> Environment:
        """Pre-update nested environment with the relation Δ symbols bound."""
        return self._delta_environment

    def shredded_environment(self) -> Environment:
        """Pre-update shredded (flat) environment, no delta symbols (lazy)."""
        with self._lock:
            env = self._shredded_environment
            if env is None:
                env = self._shredded_environment = self._database.shredded_environment()
            return env

    def shredded_delta_environment(self) -> Environment:
        """Pre-update shredded environment with the shredded Δ symbols bound (lazy)."""
        with self._lock:
            env = self._shredded_delta_environment
            if env is None:
                env = self._shredded_delta_environment = self._database.shredded_environment(
                    self.delta_symbols
                )
            return env

    def post_shredded_environment(self) -> Environment:
        """Post-update shredded environment (lazy: costs ``O(|DB|)``).

        Only nested views that discover newly active labels need it; updates
        that touch no new labels skip the union entirely — one of the
        ``O(|DB|)`` terms the pre-PR-5 per-view flow paid unconditionally.
        """
        pre = self.shredded_environment()
        with self._lock:
            post = self._post_shredded_environment
            if post is None:
                post = pre.copy()
                for name, bag in self.shredded_delta.bags.items():
                    post.relations[name] = post.relations.get(name, EMPTY_BAG).union(bag)
                for name, dictionary in self.shredded_delta.dictionaries.items():
                    existing = post.dictionaries.get(name, MaterializedDict({}))
                    post.dictionaries[name] = existing.add(dictionary)
                self._post_shredded_environment = post
            return post


class Database:
    """Named nested relations with an incrementally-maintained shredded mirror.

    ``shards`` fixes the shard count of every relation store (``None``
    defers to ``REPRO_SHARDS`` / the default); ``parallel_views`` fixes the
    view-refresh worker count (``None`` defers to ``REPRO_PARALLEL_VIEWS`` /
    auto — ``1`` shared-snapshot inline, ``N`` a thread pool; see
    :mod:`repro.engine.scheduler`).
    ``backend`` pins the execution backend deltas are applied on
    (``"serial"``/``"threads"``/``"processes"``/``"subinterpreters"``,
    optionally with a worker count as in ``"processes:4"``; ``None`` defers
    to ``REPRO_BACKEND`` / the per-delta cost model).
    """

    def __init__(
        self,
        shards: Optional[int] = None,
        parallel_views: Optional[int] = None,
        backend: Optional[str] = None,
    ) -> None:
        from repro.engine.scheduler import parse_backend_spec, resolve_view_workers

        # Validate eagerly; both are resolved again per apply.
        resolve_view_workers(parallel_views)
        if backend is not None:
            parse_backend_spec(backend)
        # Resolved once here (validating an explicit count): every store of
        # this database partitions the same way, and the reported shard
        # count can never drift from the stores actually created.
        resolved_shards = resolve_shard_count(shards)
        self._schemas: Dict[str, BagType] = {}
        self._storage = StorageManager(kind="nested", shards=resolved_shards)
        self._shredder = ValueShredder(LabelFactory(prefix="db"))
        self._flat_storage = StorageManager(kind="flat", shards=resolved_shards)
        self._dict_store = DictionaryStore()
        self._parallel_views = parallel_views
        self._scheduler = None  # lazily built ViewRefreshScheduler
        # Whether the shard count was pinned (constructor argument or the
        # REPRO_SHARDS hatch): pinned databases never adapt per relation.
        self._shards_pinned = shards_pinned(shards)
        self._backend_spec = backend
        # One ExecutionBackend instance per (name, workers) actually used,
        # created lazily — most sessions only ever touch one.
        self._exec_backends: Dict[Tuple[str, Optional[int]], object] = {}
        # Effective backend name → deltas applied through it (stats).
        self._backend_applies: Dict[str, int] = {}
        # Degradations recorded at resolution time (first occurrence each).
        self._backend_notes: List[str] = []
        # Input-dictionary name → (owning relation, context path).  Resolving
        # ownership by parsing the generated names would break for relations
        # whose own name contains the ``__D`` separator (e.g. ``user__Data``),
        # so the mapping is recorded from the schema at registration time.
        self._dict_owner: Dict[str, Tuple[str, Tuple[Any, ...]]] = {}
        # Nested relation → its nester, compiled at registration and built
        # (one full nesting) by the first deep update that reaches it; from
        # then on it keeps the nested instance equal to u(shredded mirror).
        # Relations never deep-updated take their deltas as given.
        self._nesters: Dict[str, Nester] = {}
        # Relations whose element type contains no bag positions: their
        # shredded form is the relation itself (no labels, no dictionaries),
        # so the update path skips the shredder for them entirely.
        self._flat_relations: set = set()
        self._views: List[View] = []
        # Monotone counter of state transitions (registrations and applied
        # non-empty updates).  The serving layer stamps reader snapshots
        # with it: two reads with equal versions saw identical state.
        self._state_version = 0
        self._closed = False
        # Reentrant: the durability layer wraps {mutate + WAL append} and
        # {close database + close WAL} in it, and close() re-acquires.
        self._lifecycle_lock = threading.RLock()
        # Non-None once recovery degraded the database: the reason string.
        self._read_only: Optional[str] = None
        # Transient pin consumed by the next create_result_store call (the
        # durability restore sets it right before recreating each view, so
        # restored result stores keep their checkpointed shard counts
        # instead of re-running the adaptive rule against the larger
        # restored contents).  Result-store names are shared backend
        # constants, so the pin cannot be keyed by name.
        self._next_result_shards: Optional[int] = None

    # ------------------------------------------------------------------ #
    # Schema and data registration
    # ------------------------------------------------------------------ #
    def register(self, name: str, schema: BagType, instance: Optional[Bag] = None) -> None:
        """Register a relation with its schema and optional initial instance."""
        with self._lifecycle_lock:
            self._register(name, schema, instance)

    def _register(self, name: str, schema: BagType, instance: Optional[Bag]) -> None:
        self.check_writable()
        if name in self._schemas:
            raise WorkloadError(f"relation {name!r} is already registered")
        if not isinstance(schema, BagType):
            raise TypeError("relation schemas must be bag types")
        self._schemas[name] = schema
        instance_bag = instance or EMPTY_BAG
        # Small relations default to one shard: partitioning overhead eats
        # the win below ~500 rows (measured 1.26× at n=500 against 3.06× at
        # n=2000, see SMALL_RELATION_SHARD_THRESHOLD).  A pinned
        # count (constructor argument / REPRO_SHARDS) always wins; the
        # choice is made once, at registration time.
        adaptive: Optional[int] = None
        if (
            not self._shards_pinned
            and instance_bag.cardinality() < SMALL_RELATION_SHARD_THRESHOLD
        ):
            adaptive = 1
        self._storage.ensure(name, instance_bag, shards=adaptive)
        # The flat mirror follows the nested relation's decision so both
        # sides of a small relation stay on the single-shard fast path
        # (replace() in _reshred_relation would otherwise create it with
        # the manager default).
        self._flat_storage.ensure(flat_relation_name(name), shards=adaptive)
        self._index_dictionaries(name, schema)
        self._reshred_relation(name)
        self._state_version += 1

    def _index_dictionaries(self, name: str, schema: BagType) -> None:
        """Record which input dictionaries back ``name`` (none: it may skip
        the shredder) and compile the nester that reads them live."""
        context = input_context_for(name, schema.element)
        dict_paths = tuple(path for path, _ in iter_context_dicts(context))
        if not dict_paths:
            if _is_passthrough_flat(schema.element):
                self._flat_relations.add(name)
            return
        lookups = {}
        for path in dict_paths:
            dict_name = input_dict_name(name, path)
            self._dict_owner[dict_name] = (name, path)
            lookups[path] = partial(self._dict_store.lookup, dict_name)
        self._nesters[name] = Nester(schema.element, lookups)

    def _reshred_relation(self, name: str) -> None:
        schema = self._schemas[name]
        shredded = shred_relation(name, self._storage.bag(name), schema.element, self._shredder)
        self._flat_storage.replace(flat_relation_name(name), shredded.flat)
        for dict_name, dictionary in shredded.dictionaries.items():
            if not isinstance(dictionary, MaterializedDict):
                dictionary = dictionary.materialize(dictionary.support() or ())
            self._dict_store.set(dict_name, dictionary)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def schema(self, name: str) -> BagType:
        return self._schemas[name]

    def relation(self, name: str) -> Bag:
        return self._storage.bag(name)

    def relation_names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._schemas))

    def shredded_source_names(self, name: str) -> Tuple[str, ...]:
        """Names of the flat relation and input dictionaries backing ``name``."""
        names = [flat_relation_name(name)]
        context = input_context_for(name, self._schemas[name].element)
        for path, _ in iter_context_dicts(context):
            names.append(input_dict_name(name, path))
        return tuple(names)

    def environment(self, deltas: Optional[Mapping] = None) -> Environment:
        """Environment for direct (nested) evaluation.

        ``deltas`` optionally binds the ``Δ`` symbols directly at
        construction — one environment build instead of the
        ``environment().with_deltas(...)`` copy-everything-twice dance the
        views used to pay on every update.
        """
        return Environment(
            relations=self._storage.bags(),
            deltas=deltas,
            indexes=self._storage.provider(),
        )

    def shredded_environment(self, deltas: Optional[Mapping] = None) -> Environment:
        """Environment for evaluating shredded (flat) queries."""
        return Environment(
            relations=self._flat_storage.bags(),
            dictionaries=self._dict_store.as_mapping(),
            deltas=deltas,
            indexes=self._flat_storage.provider(),
        )

    # ------------------------------------------------------------------ #
    # Storage and persistent indexes
    # ------------------------------------------------------------------ #
    def register_index_requirements(
        self, requirements: Iterable[IndexRequirement]
    ) -> Tuple[IndexRequirement, ...]:
        """Register persistent join indexes for the given requirements.

        Each requirement names a relation (nested, or the shredded mirror's
        flat form) and the projection paths of the join key.  Requirements
        over unknown names — delta symbols, let-bound bags, computed
        subexpressions — are skipped: those build sides stay per-evaluation.
        Returns the requirements that were actually registered (also empty
        inside :func:`~repro.storage.store.forced_no_index`).
        """
        registered: List[IndexRequirement] = []
        for requirement in requirements:
            name = requirement.relation
            if name in self._schemas:
                index = self._storage.ensure_index(name, requirement.paths)
            elif name in self._flat_storage:
                index = self._flat_storage.ensure_index(name, requirement.paths)
            else:
                index = None
            if index is not None:
                registered.append(requirement)
        return tuple(registered)

    def describe_indexes(
        self, requirements: Iterable[IndexRequirement]
    ) -> Tuple[Dict[str, object], ...]:
        """Live state of the indexes behind the given requirements."""
        report: List[Dict[str, object]] = []
        for requirement in requirements:
            name = requirement.relation
            if name in self._schemas:
                store = self._storage.get(name)
            else:
                store = self._flat_storage.get(name)
            entry: Dict[str, object] = {
                "relation": name,
                "key_paths": [list(path) for path in requirement.paths],
                "registered": False,
            }
            if store is not None:
                entry["store_version"] = store.version
                entry["snapshot_freezes"] = store.snapshot_freezes
                index = store.index_for(requirement.paths)
                if index is not None:
                    entry["registered"] = True
                    entry.update(index.describe())
            report.append(entry)
        return tuple(report)

    def storage_shards(self) -> int:
        """The shard count this database's stores are partitioned into.

        Fixed at construction (explicit argument, or the ``REPRO_SHARDS`` /
        default resolution at that moment), so it always matches the
        per-store ``shards`` entries in :meth:`storage_report`.
        """
        return self._storage.shards

    def storage_report(self) -> Dict[str, object]:
        """Sizes and index statistics of every store (what ``explain`` surfaces).

        Store entries aggregate across shards (``cardinality``/``distinct``
        sum the shard builders; index ``hits``/``entries`` merge the shard
        slices) and carry per-shard breakdowns under ``shard_stats`` /
        ``per_shard`` for multi-shard stores.
        """
        result_stores: List[Dict[str, object]] = []
        read_path: List[Dict[str, object]] = []
        for view in self._views:
            store = view.result_store()
            if store is not None:
                result_stores.append(store.describe())
            stats = view.read_stats()
            # The facade (Engine.storage_report) swaps this for the
            # user-facing view name; here the backend is anonymous.
            stats["backend_id"] = id(view)
            read_path.append(stats)
        for name, nester in self._nesters.items():
            if nester.built:
                read_path.append({"relation": name, "nesting": nester.stats()})
        return {
            "nested": self._storage.report(),
            "flat": self._flat_storage.report(),
            "dictionaries": self._dict_store.report(),
            "results": {"kind": "results", "stores": result_stores},
            "read_path": read_path,
            "shards": self.storage_shards(),
            "parallel_views": self.refresh_mode(),
            "execution": self.execution_report(),
        }

    def create_result_store(self, name: str, bag: Bag = EMPTY_BAG) -> ResultStore:
        """A result store partitioned like this database's relation stores.

        View backends route their materializations through here so result
        sharding follows the same policy as relation sharding: the
        database-wide shard count, with the small-relation rule (results
        below :data:`SMALL_RELATION_SHARD_THRESHOLD` rows stay on a single
        shard) applied when nothing pins a count.  The choice is made once,
        at view materialization time.
        """
        pinned = self._next_result_shards
        if pinned is not None:
            self._next_result_shards = None
            return ResultStore(name, bag, shards=pinned)
        shards = self.storage_shards()
        if (
            not self._shards_pinned
            and bag.cardinality() < SMALL_RELATION_SHARD_THRESHOLD
        ):
            shards = 1
        return ResultStore(name, bag, shards=shards)

    def pin_next_result_shards(self, shards: Optional[int]) -> None:
        """Pin the shard count of the *next* result store created.

        Consumed (and cleared) by that one :meth:`create_result_store` call.
        The durability restore sets it immediately before recreating each
        view, so restored result stores keep their checkpointed shard count
        — the adaptive small-relation rule would otherwise re-decide against
        the full restored cardinality and diverge from the original run.
        """
        self._next_result_shards = shards

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #
    def register_view(self, view: View) -> None:
        """Register a view to be notified on every update (pre-mutation)."""
        self.check_writable()
        if not isinstance(view, View):
            raise TypeError(f"views must subclass View, got {type(view).__name__}")
        self._views.append(view)
        self._state_version += 1

    # ------------------------------------------------------------------ #
    # Durability: state export and checkpoint adoption
    # ------------------------------------------------------------------ #
    def export_durable_state(self) -> Dict[str, object]:
        """Everything a checkpoint must persist, as frozen snapshots.

        Cheap by construction — O(shards) per store (copy-on-write freezes),
        O(labels) per dictionary, O(1) for the shredder reference — so the
        caller can encode the result on another thread while updates keep
        applying.  Must be called while no update is in flight (the same
        contract as :class:`~repro.engine.core.EngineSnapshot`).
        """
        relations: Dict[str, Dict[str, object]] = {}
        for name in self._schemas:
            nested = self._storage.get(name)
            flat = self._flat_storage.get(flat_relation_name(name))
            relations[name] = {
                "nested_bag": nested.bag,
                "nested_shards": nested.shards,
                "flat_bag": flat.bag,
                "flat_shards": flat.shards,
            }
        return {
            "state_version": self._state_version,
            "schemas": dict(self._schemas),
            "relations": relations,
            "dictionaries": {
                name: dict(dictionary.items())
                for name, dictionary in self._dict_store.as_mapping().items()
            },
            "shredder": self._shredder,
        }

    def adopt_relation(
        self,
        name: str,
        schema: BagType,
        nested_bag: Bag,
        flat_bag: Bag,
        *,
        nested_shards: int,
        flat_shards: int,
    ) -> None:
        """Install a checkpointed relation wholesale, bypassing the shredder.

        The recovery path's replacement for :meth:`register`: contents were
        already shredded in the original run and the label definitions live
        in the adopted dictionaries and shredder, so re-shredding here would
        be both wasted work and wrong — the restored shredder's emitted-set
        would suppress the label definitions ``_reshred_relation`` expects
        to produce.  Shard counts come from the checkpoint manifest (never
        re-decided: the adaptive rule would see the full restored
        cardinality, not the at-registration one), but contents are
        re-partitioned here because shard routing hashes with the current
        process's seed.  No version bump — recovery restores the recorded
        ``state_version`` explicitly once the whole checkpoint is adopted.
        """
        self._check_open()
        if name in self._schemas:
            raise WorkloadError(f"relation {name!r} is already registered")
        self._schemas[name] = schema
        self._adopt_store(self._storage, name, nested_bag, nested_shards)
        self._adopt_store(
            self._flat_storage, flat_relation_name(name), flat_bag, flat_shards
        )
        self._index_dictionaries(name, schema)

    @staticmethod
    def _adopt_store(manager: StorageManager, name: str, bag: Bag, shards: int) -> None:
        store = manager.ensure(name, shards=shards)
        if bag.is_empty():
            return
        version = store.begin_delta()
        for position, pairs in store.partition_delta(bag).items():
            store.adopt_shard(position, dict(pairs), version=version)
        store.finish_delta()

    def adopt_dictionary(self, name: str, entries: Mapping) -> None:
        """Install one checkpointed input dictionary (label → bag entries)."""
        self._check_open()
        self._dict_store.set(name, MaterializedDict(dict(entries)))

    def adopt_shredder(self, shredder: ValueShredder) -> None:
        """Install the checkpointed shredder (label counter + memo + emitted).

        What makes WAL replay assign the same labels the original run did.
        Called after the relations and dictionaries are adopted: a shredder
        from a checkpoint that predates the per-position memo is re-keyed
        from them (in label order, so every recovery agrees).
        """
        self._check_open()
        if shredder.needs_rekey:
            empty = MaterializedDict({})
            shredder.rekey(
                (owner, label, contents)
                for dict_name, owner in sorted(self._dict_owner.items())
                for label, contents in sorted(
                    self._dict_store.get(dict_name, empty).items(),
                    key=lambda entry: entry[0].render(),
                )
            )
        self._shredder = shredder

    def restore_state_version(self, version: int) -> None:
        """Set the version counter to the checkpoint's recorded value."""
        self._state_version = version

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #
    def shred_update(self, update: Update) -> ShreddedDelta:
        """Shred an update into delta symbols for the flat world.

        Inner bags of inserted tuples receive fresh labels (consistently with
        the database's label memoisation), and their definitions become
        dictionary deltas; explicit deep deltas are passed through.
        """
        delta = ShreddedDelta()
        for name, bag in update.relations.items():
            if name not in self._schemas:
                raise WorkloadError(f"update touches unknown relation {name!r}")
            if bag.is_empty():
                continue
            if name in self._flat_relations:
                # Flat relations shred to themselves — no inner bags, no
                # labels, no dictionary deltas.  Skipping the shredder keeps
                # the whole apply path O(|Δ|) for the common flat case; the
                # shape validation the shredder would have performed is kept.
                element_type = self._schemas[name].element
                for element in bag.elements():
                    _validate_flat_element(element, element_type)
                delta.bags[flat_relation_name(name)] = bag
                continue
            shredded = shred_relation(name, bag, self._schemas[name].element, self._shredder)
            delta.bags[flat_relation_name(name)] = shredded.flat
            for dict_name, dictionary in shredded.dictionaries.items():
                if isinstance(dictionary, MaterializedDict) and len(dictionary) == 0:
                    continue
                existing = delta.dictionaries.get(dict_name, MaterializedDict({}))
                merged = existing.add(dictionary)  # type: ignore[assignment]
                delta.dictionaries[dict_name] = merged  # type: ignore[assignment]
        for dict_name, entries in update.deep.items():
            existing = delta.dictionaries.get(dict_name, MaterializedDict({}))
            delta.dictionaries[dict_name] = existing.add(MaterializedDict(dict(entries)))  # type: ignore[assignment]
        return delta

    def apply_update(self, update: Update) -> ShreddedDelta:
        """Notify views of ``update`` and then apply it to the stored instances.

        A no-op update (empty relation bags, deep deltas whose entry bags are
        all empty) short-circuits: views are not notified and nothing is
        written.  Relation names are still validated first, so a typo'd name
        fails loudly even when its delta bag happens to be empty.
        """
        with self._lifecycle_lock:
            return self._apply_update(update)

    def _apply_update(self, update: Update) -> ShreddedDelta:
        self.check_writable()
        for name in update.relations:
            if name not in self._schemas:
                raise WorkloadError(f"update touches unknown relation {name!r}")
        if update.is_empty():
            return ShreddedDelta()
        shredded_delta = self.shred_update(update)
        # The requested backend is resolved once per apply — ``REPRO_BACKEND``
        # / ``forced_backend`` stay dynamic between applies — and shared by
        # the view dispatcher and every store delta below.
        from repro.engine.scheduler import resolve_backend_spec

        spec = resolve_backend_spec(self._backend_spec)

        self._notify_views(update, shredded_delta, spec[0])

        # Nested instances: one delta pass per store updates the bag and all
        # of its persistent indexes.  Each store's delta runs on the resolved
        # execution backend (serial/threads/processes/subinterpreters) —
        # interchangeable bit-for-bit, so the choice is pure scheduling.
        # A relation whose nester is built gets its delta from the mirror,
        # below.
        built = {name for name, nester in self._nesters.items() if nester.built}
        for name, bag in update.relations.items():
            if name not in built:
                self._apply_store_delta(self._storage, name, bag, spec)

        # A deep-updated label stands for a new bag from here on: the
        # shredder must not hand it out for the old one again.
        for dict_name, entries in update.deep.items():
            owner = self._dict_owner.get(dict_name)
            for label in entries if owner is not None else ():
                definition = self._dict_store.lookup(dict_name, label)
                if definition is not None:
                    self._shredder.retire(owner, label, definition)

        # Shredded mirror: flat relations and dictionaries.
        for flat_name, bag in shredded_delta.bags.items():
            self._apply_store_delta(self._flat_storage, flat_name, bag, spec)
        for dict_name, dictionary in shredded_delta.dictionaries.items():
            self._dict_store.apply_delta(dict_name, dictionary)

        if update.deep or built:
            self._renest(update, shredded_delta, spec, built)
        self._state_version += 1
        return shredded_delta

    # ------------------------------------------------------------------ #
    # Execution backends
    # ------------------------------------------------------------------ #
    def _apply_store_delta(
        self,
        manager: StorageManager,
        name: str,
        delta: Bag,
        spec: Tuple[str, Optional[int]],
    ) -> None:
        """Apply one store's delta on the backend ``spec`` resolves to.

        Empty deltas stay a strict no-op (matching ``RelationStore.
        apply_delta``'s early return) and are not counted.  The requested
        backend degrades along the documented chain when unavailable
        (``subinterpreters``/``processes`` → ``threads``); the effective
        backend name — which a backend may further narrow mid-flight — is
        what the per-backend apply counters record.

        A deleting delta that reaches a store with a poisoned index slice may
        have removed the unhashable key behind it, so the poisoned slices are
        rebuilt here, on the write — never on the probe path, where
        refreshes read concurrently.
        """
        if delta.is_empty():
            manager.apply_delta(name, delta)
            return
        store = manager.ensure(name)
        backend = self._resolve_execution_backend(store, delta, spec)
        effective = backend.apply_delta(store, delta)
        self._backend_applies[effective] = self._backend_applies.get(effective, 0) + 1
        if store.poisoned and delta.has_negative():
            store.heal()

    def _resolve_execution_backend(self, store, delta: Bag, spec: Tuple[str, Optional[int]]):
        from repro.engine.scheduler import (
            _auto_workers,
            availability_fallback,
            create_execution_backend,
            recommend_backend,
        )

        name, workers = spec
        if name == "auto":
            name = recommend_backend(
                delta.distinct_size(),
                store.shards,
                workers if workers is not None else _auto_workers(),
            )
        effective, note = availability_fallback(name)
        if note and note not in self._backend_notes:
            self._backend_notes.append(note)
        key = (effective, workers)
        backend = self._exec_backends.get(key)
        if backend is None:
            backend = self._exec_backends[key] = create_execution_backend(
                effective, workers
            )
        return backend

    def execution_report(self) -> Dict[str, object]:
        """The active execution backend and per-backend apply counts.

        ``requested`` is the resolution input (``"auto"`` unless pinned by
        the constructor or ``REPRO_BACKEND``); ``applies`` counts non-empty
        store deltas per *effective* backend; ``backends`` carries each
        instantiated backend's own state (workers, recorded fallbacks);
        ``notes`` lists availability degradations seen this session.
        Everything is plain data — the serving layer json-encodes it as-is.
        """
        from repro.engine.scheduler import backend_availability, resolve_backend_spec

        requested, workers = resolve_backend_spec(self._backend_spec)
        report: Dict[str, object] = {
            "requested": requested,
            "workers": workers,
            "applies": dict(self._backend_applies),
            "availability": backend_availability(),
            "backends": [
                backend.describe() for backend in self._exec_backends.values()
            ],
        }
        if self._backend_notes:
            report["notes"] = list(self._backend_notes)
        return report

    def execution_plan(self, delta_size: int = 1) -> str:
        """The backend a delta of ``delta_size`` would run on (for explain).

        Renders the resolution: a pinned name stays as-is (with the
        degradation arrow when this runtime lacks it), ``auto`` shows the
        cost model's pick for the assumed delta size.
        """
        from repro.engine.scheduler import (
            _auto_workers,
            availability_fallback,
            recommend_backend,
            resolve_backend_spec,
        )

        name, workers = resolve_backend_spec(self._backend_spec)
        resolved_workers = workers if workers is not None else _auto_workers()
        if name == "auto":
            recommended = recommend_backend(
                delta_size, self.storage_shards(), resolved_workers
            )
            effective, _ = availability_fallback(recommended)
            return f"auto({effective})"
        effective, _ = availability_fallback(name)
        if effective != name:
            return f"{name}->{effective}"
        if workers is not None:
            return f"{name}({workers})"
        return name

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def state_version(self) -> int:
        """Monotone counter of committed state transitions.

        Bumps once per registration and once per applied non-empty update
        (after the stores mutated), so a reader that pairs a snapshot with
        the version current at snapshot time can tell staleness apart from
        divergence.  No-op updates leave it untouched.
        """
        return self._state_version

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def lifecycle_lock(self) -> threading.RLock:
        """The lock serializing mutations against close (reentrant).

        ``register``/``apply_update``/``close`` all take it, so a ``close``
        racing an in-flight apply waits for the apply to commit instead of
        tearing down the scheduler under it.  The durability layer holds it
        across ``{mutate + WAL append}`` so the log can never record an
        update the store rejected (or vice versa).
        """
        return self._lifecycle_lock

    @property
    def read_only(self) -> Optional[str]:
        """The degradation reason, or ``None`` while the database is writable."""
        return self._read_only

    def set_read_only(self, reason: str) -> None:
        """Degrade to read-only: reads keep working, mutations raise.

        Recovery calls this when the WAL is damaged beyond a truncatable
        tail — serving stale-but-consistent state beats silently dropping
        acknowledged writes.  Replication fencing uses the same switch: a
        demoted primary stops accepting mutations without losing reads.
        """
        self._read_only = reason

    def promote_writable(self) -> None:
        """The explicit inverse of :meth:`set_read_only`, for failover.

        Taken under the lifecycle lock so the flip can never interleave
        with an in-flight mutation or close; promoting a closed database
        raises.  Idempotent when already writable.
        """
        with self._lifecycle_lock:
            self._check_open()
            self._read_only = None

    def _check_open(self) -> None:
        if self._closed:
            raise WorkloadError("database is closed")

    def check_writable(self) -> None:
        """Raise :class:`WorkloadError` unless the database accepts mutations."""
        self._check_open()
        if self._read_only is not None:
            raise WorkloadError(f"database is read-only: {self._read_only}")

    def close(self) -> None:
        """Deterministically release scheduler resources.

        Shuts down the view-refresh thread pool (worker threads otherwise
        live until garbage collection) and marks the database closed:
        further registrations and updates raise, while reads of the frozen
        stores remain valid.  Idempotent, and safe to race with an in-flight
        apply: the lifecycle lock makes close wait for it to commit.
        """
        with self._lifecycle_lock:
            if self._closed:
                return
            self._closed = True
            scheduler = self._scheduler
            if scheduler is not None:
                scheduler.shutdown()
                self._scheduler = None
            for backend in self._exec_backends.values():
                backend.shutdown()
            self._exec_backends.clear()

    # ------------------------------------------------------------------ #
    # View refresh dispatch
    # ------------------------------------------------------------------ #
    def view_refresh_workers(self) -> int:
        """The effective refresh worker count for the next update.

        Re-resolved on every call so the ``REPRO_PARALLEL_VIEWS`` hatch is
        dynamic, like the other escape hatches.
        """
        from repro.engine.scheduler import resolve_view_workers

        return resolve_view_workers(self._parallel_views)

    def refresh_mode(self) -> str:
        """Human-readable refresh mode (what ``explain`` reports)."""
        workers = self.view_refresh_workers()
        if workers == 1:
            return "shared-snapshot inline"
        return f"threads({workers})"

    def _notify_views(
        self, update: Update, shredded_delta: ShreddedDelta, requested_backend: str
    ) -> None:
        """Refresh every registered view against the pre-update state.

        One shared :class:`RefreshContext` is built up front and the
        scheduler runs the refreshes — inline for one worker, on a thread
        pool for more (delta environments are snapshots, so concurrency is
        scheduling, not semantics).  Views the update cannot touch
        (``affected_by`` is false: their refresh only records an empty
        update) refresh on the coordinating thread — the pool is engaged
        only when at least two refreshes have work to do.  The context is
        released before the stores mutate so unretained snapshots die and
        the builders keep mutating in place.
        """
        views = list(self._views)
        if not views:
            return
        workers = self.view_refresh_workers()
        # A pinned serial execution backend means "single-threaded": clamp
        # multi-worker refresh down to the shared-snapshot inline mode.
        if workers > 1 and requested_backend == "serial":
            workers = 1
        context = RefreshContext(self, update, shredded_delta)
        pool_tasks: List[Callable[[], None]] = []
        for view in views:
            if view.affected_by(context):
                pool_tasks.append(partial(view.on_update, update, shredded_delta, context))
            else:
                view.on_update(update, shredded_delta, context)
        if workers > 1 and len(pool_tasks) > 1:
            scheduler = self._scheduler
            if scheduler is None:
                from repro.engine.scheduler import ViewRefreshScheduler

                scheduler = self._scheduler = ViewRefreshScheduler(workers)
            else:
                scheduler.resize(workers)
            scheduler.run(pool_tasks)
        else:
            for task in pool_tasks:
                task()

    def _renest(
        self,
        update: Update,
        shredded_delta: ShreddedDelta,
        spec: Tuple[str, Optional[int]],
        built: set,
    ) -> None:
        """Carry the update into the nested instances the nesters maintain.

        The mirror already holds it.  The first deep update to reach a
        relation nests it once, ``O(|R|)``; from then on the relation's
        nested delta — for deep and plain updates alike — is what its nester
        settles: the tuples of ``ΔR^F`` plus those referring to a rewritten
        label, ``O(referrers(ℓ))`` for a deep update.  The store folds a
        delta, so persistent indexes over the relation are maintained, not
        rebuilt.  A dictionary's owner comes from the registry built at
        registration time, never from parsing its name.
        """
        rewritten: Dict[str, List[Tuple[Tuple[Any, ...], Iterable]]] = {}
        for dict_name, entries in update.deep.items():
            owner = self._dict_owner.get(dict_name)
            if owner is not None:
                rewritten.setdefault(owner[0], []).append((owner[1], entries))
        for name in set(rewritten).union(built.intersection(update.relations)):
            flat_name = flat_relation_name(name)
            flat = self._flat_storage.bag(flat_name)
            nester = self._nesters[name]
            if name not in built:
                # Resolved at call time: the benchmark's tracer wraps this name.
                from repro.shredding.shred_values import unshred_bag

                nested = unshred_bag(flat, self._schemas[name].element, nester)
                delta = nested.difference(self._storage.bag(name))
            else:
                nester.note_flat_delta(shredded_delta.bags.get(flat_name, EMPTY_BAG))
                for path, labels in rewritten.get(name, ()):
                    nester.note_dirty(path, labels)
                delta = nester.settle(flat.multiplicity)
            self._apply_store_delta(self._storage, name, delta, spec)
