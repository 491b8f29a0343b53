"""The :class:`Engine` facade — the library's public API.

One object owns the database, picks each view's maintenance strategy from its
query's fragment, and dispatches updates to every registered view::

    engine = Engine()
    movies = engine.dataset("M", MOVIE_RECORD, rows=PAPER_MOVIES)
    view = engine.view("related", related, strategy="auto")
    engine.apply(insertions("M", [("Jarhead", "Drama", "Mendes")]))
    print(engine.explain("related").render())
    print(view.result())

``dataset`` accepts either a :class:`~repro.surface.Record` (returning a
surface-DSL :class:`~repro.surface.Dataset` to build queries against) or a
raw :class:`~repro.nrc.types.BagType` (returning the matching
:class:`~repro.nrc.ast.Relation` node for hand-written NRC+).  ``view``
accepts either a surface :class:`~repro.surface.Query` or an NRC+
:class:`~repro.nrc.ast.Expr`; ``strategy="auto"`` applies
:mod:`repro.engine.planner`'s rule (Theorem 4: ``classic`` or ``recursive``
for IncNRC+, ``nested`` otherwise), explicit names pick from its strategy
table.

The low-level :class:`~repro.ivm.Database` and view classes remain available
as the implementation layer, but new code should not wire them by hand.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Mapping, Optional, Sequence, Tuple, Union

from repro.bag.bag import Bag
from repro.durability.faults import FaultInjector
from repro.durability.manager import DurabilityManager, RecoveryReport
from repro.engine.plan import MaintenancePlan
from repro.engine.planner import STRATEGIES, plan_view
from repro.errors import EngineError
from repro.ivm.database import Database, ShreddedDelta
from repro.ivm.updates import Update, UpdateStream, deletions, insertions
from repro.ivm.views import MaintenanceStats, View
from repro.nrc import ast
from repro.nrc.ast import Expr
from repro.nrc.pretty import render
from repro.nrc.types import BagType
from repro.surface.dsl import Dataset, Query
from repro.surface.schema import Record

__all__ = ["Engine", "EngineSnapshot", "Session", "ViewHandle"]

#: What ``Engine.view`` accepts as a query.
QueryLike = Union[Query, Expr]
#: What ``Engine.apply`` accepts as an update: an :class:`Update`, or a
#: relation→rows mapping whose values are a :class:`Bag`, an iterable of
#: elements (insertions), or an ``element → multiplicity`` mapping (the
#: ``(element, multiplicity)`` pairs form — negative multiplicities express
#: deletions, so mixed deltas need no ``deletions()`` import).
UpdateLike = Union[Update, Mapping[str, Union[Bag, Iterable, Mapping]]]


class ViewHandle:
    """A maintained view as exposed by the facade.

    Wraps the backend view object together with the plan that chose it.
    ``result()`` returns the current materialization (always the *nested*
    value, whichever backend maintains it); ``stats`` exposes the
    maintenance accounting used by the benchmarks.
    """

    def __init__(
        self,
        name: str,
        strategy: str,
        view: View,
        plan: MaintenancePlan,
        *,
        expr=None,
        targets: Optional[Tuple[str, ...]] = None,
    ) -> None:
        self.name = name
        self.strategy = strategy
        self.view = view
        self.plan = plan
        # The creation spec, kept so durable engines can checkpoint the view
        # and recreate it bit-for-bit on recovery.
        self.expr = expr
        self.targets = targets

    def result(self) -> Bag:
        return self.view.result()

    @property
    def stats(self) -> MaintenanceStats:
        return self.view.stats

    @property
    def execution(self) -> str:
        """``"compiled"`` or ``"interpreted"`` — how the view's per-update
        queries run (see :mod:`repro.nrc.compile`)."""
        return self.view.execution_mode()

    def indexes(self) -> list:
        """Live state of the persistent storage indexes behind this view.

        One entry per join atom of the view's compiled queries: relation,
        key paths, whether a persistent index is registered for it, and —
        when registered — its size plus hit/rebuild counts.  The report is
        plain data (dicts/lists/scalars), so ``json.dumps`` accepts it
        unchanged — what the serving layer's wire protocol relies on.
        """
        return list(self.view.index_report())

    def explain(self) -> MaintenancePlan:
        return self.plan

    def __repr__(self) -> str:
        return (
            f"<View {self.name!r} strategy={self.strategy} "
            f"execution={self.execution} "
            f"updates={self.stats.updates_applied}>"
        )


class EngineSnapshot:
    """A consistent, immutable picture of an engine at one state version.

    Captures the frozen store snapshots of every dataset and the current
    materialization of every view, stamped with the database's
    ``state_version`` at capture time.  The bags are the storage layer's
    copy-on-write snapshots: retaining one costs nothing until the next
    write to that store, which then copies its dict once (see ``docs/api.md``,
    "Storage internals & complexity").  The serving layer publishes one of
    these per applied batch; readers pin it and never block behind an
    in-flight apply.

    Consistency contract: a snapshot must be captured while no update is in
    flight (the capturing thread is the applying thread, or externally
    synchronized with it).  Given that, all bags in one snapshot reflect
    exactly the state after the same update.
    """

    __slots__ = ("version", "datasets", "views")

    def __init__(
        self,
        version: int,
        datasets: Mapping[str, Bag],
        views: Mapping[str, Bag],
    ) -> None:
        self.version = version
        self.datasets = dict(datasets)
        self.views = dict(views)

    def __repr__(self) -> str:
        return (
            f"EngineSnapshot(version={self.version}, "
            f"datasets={sorted(self.datasets)}, views={sorted(self.views)})"
        )


class Engine:
    """Sessions over one database: registration, views, updates, explain."""

    def __init__(
        self,
        *,
        data_dir: Optional[str] = None,
        fsync: Optional[str] = None,
        fault_injector: Optional[FaultInjector] = None,
        standby: bool = False,
    ) -> None:
        """``data_dir`` makes the engine durable: operations are write-ahead
        logged, :meth:`checkpoint` cuts snapshot checkpoints, and opening an
        engine on an existing directory restores its state (newest valid
        checkpoint + WAL tail replay — see ``docs/durability.md``).
        ``fsync`` picks the WAL sync policy (``"always"``/``"batch"``/
        ``"off"``; ``None`` means ``"batch"``) and
        ``fault_injector`` arms the crash-injection harness
        (:mod:`repro.durability.faults`).  Without ``data_dir`` the engine
        is purely in-memory, exactly as before.

        ``standby=True`` (durable engines only) recovers from ``data_dir``
        but never opens the WAL for appends: the replication layer feeds
        the engine shipped records (:meth:`apply_replicated`) and mirrors
        the primary's segments itself, until :meth:`promote_writable` ends
        the standby (see ``docs/replication.md``).
        """
        self._database = Database()
        self._views: Dict[str, ViewHandle] = {}
        self._datasets: Dict[str, object] = {}
        # Original schema arguments (Record or BagType), as passed by the
        # user — what dataset records and checkpoint manifests persist.
        self._dataset_schemas: Dict[str, object] = {}
        self._durability: Optional[DurabilityManager] = None
        # The fencing epoch of in-memory engines (durable engines persist
        # theirs through the durability manager).
        self._epoch = 0
        if standby and data_dir is None:
            raise EngineError("standby=True requires an engine opened with data_dir")
        if data_dir is not None:
            self._durability = DurabilityManager(
                data_dir, fsync=fsync, faults=fault_injector, standby=standby
            )
            self._durability.open_and_recover(self)
            if self._durability.fenced is not None:
                # A demoted primary stays fenced across restarts: the epoch
                # file outlives the process, so a superseded node can never
                # silently resume acknowledging writes.
                self._database.set_read_only(
                    f"fenced by replication epoch {self._durability.epoch}: "
                    f"{self._durability.fenced}"
                )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Shut the engine down deterministically.

        Closes the database, then the WAL of a durable engine: further
        ``dataset``/``apply`` calls raise, already-frozen snapshots and view
        results stay readable.  Idempotent, and safe to call concurrently
        with an in-flight ``apply``: the database's lifecycle lock makes
        close wait for the apply (and its WAL append) to commit; also runs
        on context-manager exit.
        """
        with self._database.lifecycle_lock:
            self._database.close()
            if self._durability is not None:
                self._durability.close()

    @property
    def closed(self) -> bool:
        return self._database.closed

    # ------------------------------------------------------------------ #
    # Durability
    # ------------------------------------------------------------------ #
    @property
    def durable(self) -> bool:
        """True when the engine was opened with a ``data_dir``."""
        return self._durability is not None

    @property
    def read_only(self) -> Optional[str]:
        """Why the engine refuses writes (damaged WAL at recovery, a failed
        log write, fencing), or ``None`` when writable."""
        return self._database.read_only

    @property
    def recovery_report(self) -> Optional[RecoveryReport]:
        """What replay-on-open found (``None`` for in-memory engines)."""
        return None if self._durability is None else self._durability.report

    def durability_report(self) -> Optional[Mapping[str, object]]:
        """WAL counters, fsync policy, and the recovery summary (or ``None``)."""
        return None if self._durability is None else self._durability.describe()

    def sync_wal(self) -> None:
        """Make every logged operation durable — the acknowledgement barrier
        under the ``batch`` policy.  A no-op for in-memory engines."""
        if self._durability is not None:
            self._logged(self._durability.sync)

    def _logged(self, write: Callable[..., None], *args: object) -> None:
        """Run one WAL write for operations the database already committed.

        If it raises, memory is ahead of the log: the engine turns
        read-only (``promote_writable`` re-arms) before re-raising, so no
        later write can land on top of the unlogged one.
        """
        try:
            write(*args)
        except Exception as error:
            self._database.set_read_only(
                f"write-ahead log failed after an apply: {error}"
            )
            raise

    # ------------------------------------------------------------------ #
    # Replication & failover
    # ------------------------------------------------------------------ #
    @property
    def standby(self) -> bool:
        """True while the engine recovers-and-follows without a writable WAL."""
        return self._durability is not None and self._durability.standby

    @property
    def replication_epoch(self) -> int:
        """The monotone fencing epoch (persisted for durable engines)."""
        if self._durability is not None:
            return self._durability.epoch
        return self._epoch

    def set_replication_epoch(self, epoch: int, *, role: Optional[str] = None) -> None:
        """Adopt a fencing epoch (never lowers; durable engines persist it).

        Lifecycle-locked: the replica link adopts epochs from its own
        thread while the ingest worker applies, and the persisted state
        file must never see interleaved writers.
        """
        with self._database.lifecycle_lock:
            if self._durability is not None:
                if role is not None:
                    self._durability.set_epoch(epoch, role=role)
                else:
                    self._durability.set_epoch(epoch)
            else:
                self._epoch = max(self._epoch, int(epoch))

    def fence(self, epoch: int, reason: str) -> None:
        """Demote: adopt ``epoch`` and degrade to read-only in one step.

        Taken under the lifecycle lock so an in-flight apply commits (and
        logs) fully before the fence lands — the fence point is a clean
        position in the operation order, never the middle of a write.
        """
        with self._database.lifecycle_lock:
            if self._durability is not None:
                self._durability.set_epoch(epoch, fenced=reason)
            else:
                self._epoch = max(self._epoch, int(epoch))
            self._database.set_read_only(
                f"fenced by replication epoch {self.replication_epoch}: {reason}"
            )

    def promote_writable(self, *, epoch: Optional[int] = None) -> int:
        """Flip a standby, fenced, or recovery-degraded engine writable.

        The lifecycle-locked inverse of ``set_read_only``/standby: adopts
        ``epoch`` (when given), opens the WAL for appends on a fresh
        segment, and clears the read-only degradation.  Refused while a
        replay is in flight — promoting an engine whose state is still
        being rebuilt would let writes interleave with the replayed tail.
        Returns the engine's ``state_version`` at the promotion point.
        """
        with self._database.lifecycle_lock:
            if self._database.closed:
                raise EngineError("cannot promote a closed engine")
            if self._durability is not None:
                if self._durability.replaying:
                    raise EngineError(
                        "cannot promote to writable while a replay is in flight"
                    )
                self._durability.set_epoch(
                    self.replication_epoch if epoch is None else epoch,
                    role="primary",
                    fenced=None,
                )
                self._durability.open_wal()
            elif epoch is not None:
                self._epoch = max(self._epoch, int(epoch))
            self._database.promote_writable()
            return self._database.state_version

    def apply_replicated(self, payload: bytes) -> None:
        """Apply one shipped WAL record (a standby engine's only write path).

        Runs the record through the durability manager's replay dispatch
        with logging suspended; the replication layer is responsible for
        mirroring the raw frame into the local WAL, so the engine never
        re-logs it.
        """
        if self._durability is None:
            raise EngineError("replicated applies require an engine with data_dir")
        with self._database.lifecycle_lock:
            self._durability.replay_one(self, payload)

    def checkpoint_capture(self):
        """Pin a checkpoint capture (cheap: frozen copy-on-write snapshots).

        Must run while no update is in flight — call from the applying
        thread, or synchronized with it (the serving layer runs it as an
        ingest-worker barrier).  Encode with :meth:`write_checkpoint`, from
        any thread.
        """
        if self._durability is None:
            raise EngineError("checkpoint requires an engine opened with data_dir")
        return self._durability.capture(self)

    def write_checkpoint(self, capture) -> Mapping[str, object]:
        """Encode a capture to disk atomically; prunes covered WAL segments.

        A storage failure (``OSError``) turns the engine read-only before it
        re-raises, as a failed log write does: a disk that cannot hold the
        checkpoint will not hold the log either.  The earlier checkpoint and
        the WAL are not pruned, so reopening the directory restores the
        state before the failure; ``promote_writable`` re-arms.
        """
        if self._durability is None:
            raise EngineError("checkpoint requires an engine opened with data_dir")
        try:
            return self._durability.write_capture(capture)
        except OSError as error:
            self._database.set_read_only(f"checkpoint write failed: {error}")
            raise

    def checkpoint(self) -> Mapping[str, object]:
        """Capture and write a checkpoint in one call (single-threaded use)."""
        return self.write_checkpoint(self.checkpoint_capture())

    def simulate_crash(self) -> None:
        """Abandon the engine as a power loss would: unwritten WAL buffers
        are dropped, nothing is flushed, the database closes.  Only the
        fault-injection harness should want this; production code calls
        :meth:`close`."""
        if self._durability is not None:
            self._durability.discard()
        self._database.close()

    def _restore_dataset(self, name: str, schema: Union[Record, BagType]) -> BagType:
        """Recovery-path half of :meth:`dataset`: rebuild the query handle
        and schema bookkeeping without touching the database (contents are
        adopted from the checkpoint, not re-registered)."""
        if isinstance(schema, Record):
            bag_type = schema.bag_type()
            handle: object = Dataset(name, schema)
        elif isinstance(schema, BagType):
            bag_type = schema
            handle = ast.Relation(name, schema)
        else:
            raise TypeError(
                f"schema must be a Record or a BagType, got {type(schema).__name__}"
            )
        self._datasets[name] = handle
        self._dataset_schemas[name] = schema
        return bag_type

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @property
    def state_version(self) -> int:
        """Monotone counter of committed state transitions (see
        :meth:`~repro.ivm.database.Database.state_version`)."""
        return self._database.state_version

    def snapshot(self) -> EngineSnapshot:
        """Pin a consistent :class:`EngineSnapshot` at the current version.

        Must be called while no update is in flight (from the applying
        thread, or synchronized with it) — the serving layer's single-writer
        ingest loop satisfies this by construction.  The returned bags are
        lazily-frozen copy-on-write snapshots, so capture is O(1) per
        dataset and per already-materialized view result.
        """
        return EngineSnapshot(
            version=self._database.state_version,
            datasets={name: self._database.relation(name) for name in self.dataset_names()},
            views={handle.name: handle.result() for handle in self._views.values()},
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def database(self) -> Database:
        """The underlying low-level database (implementation layer)."""
        return self._database

    def dataset_names(self) -> Tuple[str, ...]:
        return self._database.relation_names()

    def dataset_handle(self, name: str):
        """The query-building handle returned when the dataset was registered."""
        try:
            return self._datasets[name]
        except KeyError:
            raise EngineError(f"no dataset named {name!r}") from None

    def relation(self, name: str) -> Bag:
        """Current contents of a registered dataset."""
        return self._database.relation(name)

    def views(self) -> Tuple[ViewHandle, ...]:
        return tuple(self._views.values())

    def __getitem__(self, name: str) -> ViewHandle:
        try:
            return self._views[name]
        except KeyError:
            raise EngineError(f"no view named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._views

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def dataset(
        self,
        name: str,
        schema: Union[Record, BagType],
        rows: Optional[Union[Bag, Iterable]] = None,
    ):
        """Register a dataset and return a handle for building queries.

        A :class:`Record` schema yields a surface-DSL :class:`Dataset`
        (``.row()`` / ``.iterate()``); a raw :class:`BagType` yields the
        corresponding :class:`~repro.nrc.ast.Relation` node.
        """
        if name in self._datasets:
            raise EngineError(f"dataset {name!r} is already registered")
        if isinstance(schema, Record):
            bag_type = schema.bag_type()
            handle: object = Dataset(name, schema)
        elif isinstance(schema, BagType):
            bag_type = schema
            handle = ast.Relation(name, schema)
        else:
            raise TypeError(
                f"schema must be a Record or a BagType, got {type(schema).__name__}"
            )
        instance = None
        if rows is not None:
            instance = rows if isinstance(rows, Bag) else Bag(rows)
        # Encode the WAL record up front so an unpersistable schema fails
        # before anything mutates; append only after the store accepted the
        # registration (append-after-apply).
        record = None
        if self._durability is not None:
            record = self._durability.prepare_dataset(name, schema, instance)
        with self._database.lifecycle_lock:
            self._database.register(name, bag_type, instance)
            if self._durability is not None:
                self._logged(self._durability.commit, record)
        self._datasets[name] = handle
        self._dataset_schemas[name] = schema
        return handle

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #
    def view(
        self,
        name: str,
        query: QueryLike,
        strategy: str = "auto",
        *,
        targets: Optional[Sequence[str]] = None,
    ) -> ViewHandle:
        """Create and materialize a maintained view.

        ``strategy="auto"`` picks the strategy from the query's fragment
        (:mod:`repro.engine.planner`); any of ``"naive"``, ``"classic"``,
        ``"recursive"``, ``"nested"`` selects it explicitly.
        """
        if name in self._views:
            raise EngineError(f"view {name!r} already exists")
        # Fail before the view materializes: a closed or read-only database
        # would refuse the registration only after the full evaluation.
        self._database.check_writable()
        expr = query.to_expr() if isinstance(query, Query) else query
        if not isinstance(expr, Expr):
            raise TypeError(
                f"query must be a surface Query or an NRC+ Expr, got {type(query).__name__}"
            )
        plan = plan_view(expr, name=name, requested=strategy, targets=targets)
        chosen = STRATEGIES[plan.strategy]
        # Encode the WAL record before building: a query that does not
        # pickle must fail loudly here, not corrupt the log (the resolved
        # strategy is pinned so replay never re-plans).
        record = None
        if self._durability is not None:
            record = self._durability.prepare_view(name, plan.strategy, expr, targets)
        if chosen.inc_nrc:
            view = chosen.view(expr, self._database, targets=targets)
        else:
            view = chosen.view(expr, self._database)
        handle = ViewHandle(
            name,
            plan.strategy,
            view,
            plan,
            expr=expr,
            targets=tuple(targets) if targets is not None else None,
        )
        if chosen.artifact is not None:
            label, derived = chosen.artifact
            plan.artifacts[label] = render(derived(view))
        plan.execution = handle.execution
        registered = {
            requirement.key() for requirement in view.registered_index_requirements()
        }
        plan.indexes = tuple(
            f"{requirement.render()} "
            f"({'persistent' if requirement.key() in registered else 'per-evaluation'})"
            for requirement in view.index_requirements()
        )
        # {register + append} under the lifecycle lock, matching the
        # dataset/apply discipline: a concurrent close cannot slip between
        # the two (silently dropping the record from a closed WAL), and the
        # append never interleaves with a concurrent apply's.
        with self._database.lifecycle_lock:
            self._views[name] = handle
            if self._durability is not None:
                self._logged(self._durability.commit, record)
        return handle

    def explain(self, view: Union[str, ViewHandle]) -> MaintenancePlan:
        """The :class:`MaintenancePlan` behind a view's strategy choice."""
        handle = view if isinstance(view, ViewHandle) else self[view]
        return handle.plan

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #
    def apply(self, update: UpdateLike) -> ShreddedDelta:
        """Apply one update: every registered view refreshes incrementally."""
        return self._apply_logged(self._coerce_update(update))

    def _apply_logged(self, update: Update) -> ShreddedDelta:
        """Apply one coerced update and write-ahead log it.

        ``{mutate + append}`` runs under the database's lifecycle lock, so
        the WAL only ever records updates the store accepted, and a
        concurrent ``close`` cannot slip between the two.  No-op updates
        are applied (for the validation) but never logged.
        """
        durability = self._durability
        if durability is None:
            return self._database.apply_update(update)
        with self._database.lifecycle_lock:
            delta = self._database.apply_update(update)
            if not update.is_empty():
                self._logged(durability.log_update, update)
            return delta

    def apply_stream(
        self,
        stream: Union[UpdateStream, Iterable[UpdateLike]],
        *,
        batched: bool = False,
    ) -> int:
        """Apply a stream of updates; returns the number of input updates.

        ``batched=True`` coalesces the whole stream into one cumulative
        update (:meth:`UpdateStream.merged`) and applies it in a single
        round: every view runs its delta pipeline once over the combined
        delta and the stores/indexes refresh once, instead of once per
        input update.  Cancelling insert/delete pairs vanish before any
        view sees them.  Views observe the same final state either way,
        but not the intermediate ones — don't batch when per-update
        results matter.
        """
        if batched:
            updates = [self._coerce_update(update) for update in stream]
            # The WAL logs the *merged* update — natural compaction: the
            # log, like the views, never sees cancelling insert/delete
            # pairs, and replay applies one round exactly as the batch did.
            self._apply_logged(UpdateStream(updates).merged())
            return len(updates)
        applied = 0
        for update in stream:
            self.apply(update)
            applied += 1
        return applied

    def insert(self, relation: str, rows: Iterable) -> ShreddedDelta:
        """Convenience: insert rows into one dataset."""
        return self.apply(insertions(relation, rows))

    def delete(self, relation: str, rows: Iterable) -> ShreddedDelta:
        """Convenience: delete rows from one dataset."""
        return self.apply(deletions(relation, rows))

    # ------------------------------------------------------------------ #
    # Storage introspection
    # ------------------------------------------------------------------ #
    def storage_report(self) -> Mapping[str, object]:
        """Sizes and index statistics of the underlying stores.

        Each store entry also carries its mutation ``version`` counter and
        ``snapshot_freezes`` (how many distinct immutable snapshots the
        copy-on-write store actually materialized) — see
        ``docs/api.md`` ("Storage internals & complexity").  The database
        reports the read path per anonymous backend view; the facade knows
        the user-facing names, so it re-keys each ``read_path`` entry with
        the handle's ``name`` and ``strategy``.
        """
        report = dict(self._database.storage_report())
        by_backend = {id(handle.view): handle for handle in self._views.values()}
        read_path = []
        for entry in report.get("read_path", ()):
            handle = by_backend.get(entry.get("backend_id"))
            named = {
                key: value for key, value in entry.items() if key != "backend_id"
            }
            if handle is not None:
                named = {"name": handle.name, "strategy": handle.strategy, **named}
            read_path.append(named)
        report["read_path"] = read_path
        return report

    @staticmethod
    def _coerce_update(update: UpdateLike) -> Update:
        if isinstance(update, Update):
            return update
        if isinstance(update, Mapping):
            relations = {}
            for name, rows in update.items():
                if isinstance(rows, Bag):
                    relations[name] = rows
                elif isinstance(rows, Mapping):
                    # The (element, multiplicity) pairs form: negative
                    # multiplicities are deletions, so one mapping can carry
                    # a mixed delta.  A Mapping is required (rather than an
                    # iterable of pairs) because rows that happen to be
                    # 2-tuples ending in an int would otherwise be ambiguous.
                    relations[name] = Bag.from_mapping(rows)
                else:
                    relations[name] = Bag(rows)
            return Update(relations=relations)
        raise TypeError(
            f"updates must be Update objects or relation→rows mappings, "
            f"got {type(update).__name__}"
        )

    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:
        views = ", ".join(
            f"{handle.name}:{handle.strategy}" for handle in self._views.values()
        )
        return (
            f"<Engine datasets={list(self.dataset_names())} "
            f"views=[{views}]>"
        )


#: The issue's "Engine/Session" object: a session is just an engine instance.
Session = Engine
