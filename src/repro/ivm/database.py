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
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

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
from repro.storage import DictionaryStore, StorageManager

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

    ``Database._notify_views`` builds one family of pre-update snapshot
    environments per update and hands it to every view in turn, instead of
    each view rebuilding its own.  All environments expose *pre-update*
    state; views must treat them as read-only (copy before binding
    view-local variables).  The context is local to one ``_notify_views``
    call and every refresh runs on the applying thread, so it needs no lock.

    The nested-relation delta environment is built eagerly (every built-in
    strategy reads it).  The shredded environments are built lazily — only
    nested views read them, so an engine of classic/recursive views never
    freezes the flat mirror at all.  :meth:`post_shredded_environment` is
    the laziest of all: it costs ``O(|DB|)`` (it unions the deltas into the
    flat mirror) and is only needed when a nested view discovers newly
    active labels.
    """

    __slots__ = (
        "update",
        "shredded_delta",
        "relation_deltas",
        "delta_symbols",
        "_database",
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
        self._delta_environment = database.environment(self.relation_deltas)
        self._shredded_environment: Optional[Environment] = None
        self._shredded_delta_environment: Optional[Environment] = None
        self._post_shredded_environment: Optional[Environment] = None

    def delta_environment(self) -> Environment:
        """Pre-update nested environment with the relation Δ symbols bound."""
        return self._delta_environment

    def shredded_environment(self) -> Environment:
        """Pre-update shredded (flat) environment, no delta symbols (lazy)."""
        env = self._shredded_environment
        if env is None:
            env = self._shredded_environment = self._database.shredded_environment()
        return env

    def shredded_delta_environment(self) -> Environment:
        """Pre-update shredded environment with the shredded Δ symbols bound (lazy)."""
        env = self._shredded_delta_environment
        if env is None:
            env = self._shredded_delta_environment = self._database.shredded_environment(
                self.delta_symbols
            )
        return env

    def post_shredded_environment(self) -> Environment:
        """Post-update shredded environment (lazy: costs ``O(|DB|)``).

        Only nested views that discover newly active labels need it; updates
        that touch no new labels skip the union entirely.
        """
        post = self._post_shredded_environment
        if post is None:
            post = self.shredded_environment().copy()
            for name, bag in self.shredded_delta.bags.items():
                post.relations[name] = post.relations.get(name, EMPTY_BAG).union(bag)
            for name, dictionary in self.shredded_delta.dictionaries.items():
                existing = post.dictionaries.get(name, MaterializedDict({}))
                post.dictionaries[name] = existing.add(dictionary)
            self._post_shredded_environment = post
        return post


class Database:
    """Named nested relations with an incrementally-maintained shredded mirror.

    Each relation lives in one :class:`~repro.storage.RelationStore`.  An
    update runs on the applying thread end to end: every view refresh, then
    every store delta fold.
    """

    def __init__(self) -> None:
        from repro.engine.scheduler import SerialExecutionBackend

        self._schemas: Dict[str, BagType] = {}
        self._storage = StorageManager(kind="nested")
        self._shredder = ValueShredder(LabelFactory(prefix="db"))
        self._flat_storage = StorageManager(kind="flat")
        self._dict_store = DictionaryStore()
        # The call every non-empty store delta folds through (the name the
        # benchmark's ``storage.relation_apply_delta`` span patches).
        self._fold = SerialExecutionBackend()
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
        self._storage.ensure(name, instance_bag)
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
        """Benchmark residue (``benchmarks/suite/inproc.py`` records it): always 1."""
        return 1

    def storage_report(self) -> Dict[str, object]:
        """Sizes and index statistics of every store (what ``explain`` surfaces)."""
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
        }

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

        Cheap by construction — O(1) per store (copy-on-write freezes),
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
                "flat_bag": flat.bag,
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
    ) -> None:
        """Install a checkpointed relation wholesale, bypassing the shredder.

        The recovery path's replacement for :meth:`register`: contents were
        already shredded in the original run and the label definitions live
        in the adopted dictionaries and shredder, so re-shredding here would
        be both wasted work and wrong — the restored shredder's emitted-set
        would suppress the label definitions ``_reshred_relation`` expects
        to produce.  No version bump — recovery restores the recorded
        ``state_version`` explicitly once the whole checkpoint is adopted.
        """
        self._check_open()
        if name in self._schemas:
            raise WorkloadError(f"relation {name!r} is already registered")
        self._schemas[name] = schema
        self._storage.ensure(name, nested_bag)
        self._flat_storage.ensure(flat_relation_name(name), flat_bag)
        self._index_dictionaries(name, schema)

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
        self._notify_views(update, shredded_delta)

        # Nested instances: one delta pass per store updates the bag and all
        # of its persistent indexes.  A relation whose nester is built gets
        # its delta from the mirror, below.
        built = {name for name, nester in self._nesters.items() if nester.built}
        for name, bag in update.relations.items():
            if name not in built:
                self._apply_store_delta(self._storage, name, bag)

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
            self._apply_store_delta(self._flat_storage, flat_name, bag)
        for dict_name, dictionary in shredded_delta.dictionaries.items():
            self._dict_store.apply_delta(dict_name, dictionary)

        if update.deep or built:
            self._renest(update, shredded_delta, built)
        self._state_version += 1
        return shredded_delta

    def _apply_store_delta(self, manager: StorageManager, name: str, delta: Bag) -> None:
        """Fold one store's delta inline.

        Empty deltas stay a strict no-op (matching ``RelationStore.
        apply_delta``'s early return).  A deleting delta that reaches a
        store with a poisoned index slice may have removed the unhashable
        key behind it, so the poisoned slices are rebuilt here, on the
        write — never on the probe path, which only reads.
        """
        if delta.is_empty():
            manager.apply_delta(name, delta)
            return
        store = manager.ensure(name)
        self._fold.apply_delta(store, delta)
        if store.poisoned and delta.has_negative():
            store.heal()

    def execution_report(self) -> Dict[str, object]:
        """``{"requested": "serial"}``: the one key the benchmark still reads."""
        return {"requested": "serial"}

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
        racing an in-flight apply waits for the apply to commit.  The
        durability layer holds it across ``{mutate + WAL append}`` so the
        log can never record an update the store rejected (or vice versa).
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
        """Mark the database closed.

        Further registrations and updates raise, while reads of the frozen
        stores remain valid.  Idempotent, and safe to race with an in-flight
        apply: the lifecycle lock makes close wait for it to commit.
        """
        with self._lifecycle_lock:
            self._closed = True

    # ------------------------------------------------------------------ #
    # View refresh
    # ------------------------------------------------------------------ #
    def refresh_mode(self) -> str:
        """Benchmark residue: a constant, what ``benchmarks/suite/inproc.py`` records."""
        return "inline"

    def _notify_views(self, update: Update, shredded_delta: ShreddedDelta) -> None:
        """Refresh every registered view against the pre-update state.

        One shared :class:`RefreshContext` is built up front and every view
        refreshes against it, in registration order, on the applying thread.
        A view the update cannot touch only records an empty refresh.  The
        context is released before the stores mutate so unretained
        snapshots die and the builders keep mutating in place.

        The first error aborts the update before any store mutates.  By then
        the views before the failing one hold the update, and the failing
        one may hold part of it (a compiled delta folds into its store as it
        walks), so each view that refreshed is restored from the relations,
        still the pre-update ones, before the error propagates —
        ``O(|DB|)`` per such view, on the error path only.
        """
        if not self._views:
            return
        context = RefreshContext(self, update, shredded_delta)
        refreshed = 0
        try:
            for view in self._views:
                refreshed += 1
                view.on_update(update, shredded_delta, context)
        except BaseException:
            # Keep the pre-update snapshots out of the propagating traceback.
            del context
            for view in self._views[:refreshed]:
                view.restore()
            raise

    def _renest(
        self,
        update: Update,
        shredded_delta: ShreddedDelta,
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
            self._apply_store_delta(self._storage, name, delta)
