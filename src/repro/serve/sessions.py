"""Tenant sessions: one engine, one writer, one published snapshot.

A :class:`TenantSession` is the serving layer's unit of isolation, in the
spirit of pod-per-workload serving: each named tenant owns a private
:class:`~repro.engine.Engine` (its own stores, views, label space and
scheduler), so tenants can never observe — or corrupt — each other's state,
and admission control applies per tenant.

Concurrency contract (the load-bearing version of ``docs/api.md``'s
thread-safety notes):

* **writes** are serialized through the session's
  :class:`~repro.serve.ingest.IngestWorker`; nothing mutates the engine on
  any other thread.
* **reads** never touch the engine.  After every batch the worker publishes
  an immutable :class:`~repro.engine.EngineSnapshot` (frozen copy-on-write
  store snapshots + view materializations, stamped with the database's
  ``state_version``); readers load :attr:`TenantSession.snapshot` — a single
  attribute read, atomic in CPython — and serve the whole request from that
  pinned object.  A reader therefore observes one consistent version and
  never blocks behind an in-flight apply; the cost is the documented
  copy-on-write the next write pays for the retained snapshot.
* **wire bodies** belong to the published object too
  (:class:`PublishedSnapshot`): the first full read of a resource at a
  version encodes its response body, every later one sends the same bytes.
  The writer publishes an empty map and never encodes.
"""

from __future__ import annotations

import inspect
import os
import shutil
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.durability.manager import load_replication_state, store_replication_state
from repro.durability.wal import resolve_fsync_policy, resolve_segment_bytes
from repro.engine import Engine, EngineSnapshot
from repro.errors import EngineError
from repro.ivm.updates import Update
from repro.replication.feed import (
    count_lag,
    encode_frames,
    frame_payload,
    install_bootstrap,
    package_bootstrap,
    read_frames,
    wal_end_position,
)
from repro.replication.feed import append_mirror_frames
from repro.replication.subscriber import ReplicaLink
from repro.serve.ingest import Command, IngestWorker
from repro.serve.protocol import (
    ProtocolError,
    fields_spec_of,
    query_from_spec,
    record_from_spec,
)
from repro.surface.dsl import Dataset
from repro.surface.schema import Record

__all__ = [
    "PublishedSnapshot",
    "SessionManager",
    "TenantNotWritableError",
    "TenantRecoveringError",
    "TenantSession",
]

#: Longest tenant name, in UTF-8 bytes: a durable tenant is a directory
#: named after it, and every filesystem takes a name this long.
MAX_TENANT_NAME_BYTES = 128


class TenantRecoveringError(RuntimeError):
    """The tenant's engine is still replaying its WAL — retry shortly.

    Raised for requests that race a durable tenant's recovery (the
    background :meth:`SessionManager.recover_existing` warm-up after a
    server restart).  The server maps it to **503** with a ``Retry-After``
    header, which the SDK honors exactly like 429 backpressure.
    """

    def __init__(self, name: str, retry_after: float = 1.0) -> None:
        super().__init__(f"tenant {name!r} is recovering; retry shortly")
        self.tenant = name
        self.retry_after = retry_after


class TenantNotWritableError(RuntimeError):
    """The tenant is a replica or a fenced ex-primary — writes go elsewhere.

    The server maps it to **503** *without* a ``Retry-After`` header: the
    plain SDK surfaces it immediately (retrying the same node would never
    succeed), while :class:`~repro.client.failover.FailoverClient` treats
    it as the signal to re-locate the primary.
    """

    def __init__(self, name: str, role: str, reason: Optional[str] = None) -> None:
        detail = f" ({reason})" if reason else ""
        described = "fenced" if role == "fenced" else f"a {role}"
        super().__init__(
            f"tenant {name!r} is {described} and does not accept writes{detail}; "
            f"send writes to the current primary"
        )
        self.tenant = name
        self.role = role


class PublishedSnapshot(EngineSnapshot):
    """What readers pin: an engine snapshot plus the response bodies built
    from it so far.

    ``bodies`` maps a fully-read resource (``"views/dramas"``,
    ``"datasets/M"``, ``"snapshot"``) to the UTF-8 JSON body the server
    sent for it at this version.  It starts empty and is filled by readers
    (:mod:`repro.serve.server`); an entry is bytes, so it keeps no part of
    the snapshot alive, and the map is garbage with the snapshot — at most
    one body per fully-read resource per live snapshot, nothing to
    invalidate.
    """

    __slots__ = ("bodies",)

    def __init__(self, snapshot: EngineSnapshot) -> None:
        self.version = snapshot.version
        self.datasets = snapshot.datasets
        self.views = snapshot.views
        self.bodies: Dict[str, bytes] = {}


class TenantSession:
    """One tenant's engine plus its single-writer ingest pipeline."""

    def __init__(
        self,
        name: str,
        *,
        engine_options: Optional[Dict[str, Any]] = None,
        queue_depth: int = 256,
        coalesce: int = 64,
        sync_timeout: float = 30.0,
        replica_of: Optional[str] = None,
        poll_wait: float = 5.0,
        poll_interval: float = 0.05,
    ) -> None:
        self.name = name
        options = dict(engine_options or {})
        self._engine_options = options
        self._data_dir: Optional[str] = options.get("data_dir")
        self.sync_timeout = sync_timeout
        # Role resolution happens BEFORE the engine opens: the persisted
        # replication state decides whether recovery runs in standby mode.
        # A tenant promoted to primary stays primary across restarts even
        # when the server is (still) configured with --replica-of; a fenced
        # ex-primary reconfigured as a replica must reseed from a shipped
        # checkpoint (its WAL diverged from the new primary's at the fork).
        persisted = (
            load_replication_state(self._data_dir)
            if self._data_dir is not None
            else {"epoch": 0, "role": None, "fenced": None}
        )
        need_reseed = False
        if replica_of is not None and self._data_dir is None:
            raise ProtocolError(
                f"tenant {name!r} cannot be a replica: replication requires "
                f"a durable server (--data-dir)"
            )
        if persisted["role"] == "primary":
            role = "primary"
            replica_of = None
        elif replica_of is not None:
            role = "replica"
            options["standby"] = True
            need_reseed = persisted["fenced"] is not None
        elif persisted["fenced"] is not None:
            role = "fenced"
        else:
            role = "primary"
        self.role = role
        self.replica_of = replica_of
        self.engine = Engine(**options)
        # Registered surface records, readable from handler threads.  Only
        # the writer thread mutates it, and Python dict reads are atomic.
        self.records: Dict[str, Record] = {}
        self.snapshot = PublishedSnapshot(self.engine.snapshot())
        # Full reads answered from a snapshot's ``bodies`` / that added to it.
        self.body_hits = 0
        self.body_misses = 0
        self._body_count_lock = threading.Lock()
        self.worker = IngestWorker(
            name,
            capacity=queue_depth,
            coalesce=coalesce,
            apply_batch=self._apply_batch,
            on_batch=self.publish_snapshot,
        )
        self._closed = False
        self.link: Optional[ReplicaLink] = None
        if role == "replica":
            assert replica_of is not None
            self.link = ReplicaLink(
                replica_of,
                name,
                position=lambda: wal_end_position(self._wal_dir()),
                apply=self._link_apply,
                reseed=self._link_reseed,
                # Late-bound through self: a reseed swaps self.engine out.
                observe_epoch=lambda epoch: self.engine.set_replication_epoch(epoch),
                local_epoch=lambda: self.engine.replication_epoch,
                poll_wait=poll_wait,
                poll_interval=poll_interval,
                need_reseed=need_reseed,
            )
            self.link.start()

    def _wal_dir(self) -> str:
        assert self._data_dir is not None
        return os.path.join(self._data_dir, "wal")

    def _checkpoint_root(self) -> str:
        assert self._data_dir is not None
        return os.path.join(self._data_dir, "checkpoints")

    def _check_writable(self) -> None:
        if self.role != "primary":
            raise TenantNotWritableError(self.name, self.role, self.engine.read_only)

    # ------------------------------------------------------------------ #
    # Writer-thread internals
    # ------------------------------------------------------------------ #
    def publish_snapshot(self) -> None:
        """Capture and publish a fresh consistent snapshot (worker thread)."""
        self.snapshot = PublishedSnapshot(self.engine.snapshot())

    def _apply_batch(self, updates: List[Update]) -> Dict[str, Any]:
        applied = self.engine.apply_stream(updates, batched=True)
        # Sync-before-ack: a durable tenant fsyncs the WAL (per the engine's
        # fsync policy) before any waiter in this batch is released, so a
        # synchronous apply the client saw acknowledged survives a crash.
        self.engine.sync_wal()
        return {"applied": applied, "version": self.engine.state_version}

    def _create_dataset(self, name: str, fields: Any, rows: Any) -> Dict[str, Any]:
        record = record_from_spec(name, fields)
        initial = None
        if rows is not None:
            from repro.serve.protocol import decode_value

            if not isinstance(rows, list):
                raise ProtocolError("dataset rows must be a list")
            initial = [decode_value(row) for row in rows]
        self.engine.dataset(name, record, rows=initial)
        self.records[name] = record
        # Control commands get the same sync-before-ack barrier as applies:
        # an acknowledged schema change must survive a crash — and become
        # visible to WAL subscribers — without waiting for the next write.
        self.engine.sync_wal()
        return {
            "dataset": name,
            "fields": fields_spec_of(record),
            "version": self.engine.state_version,
        }

    def _create_view(self, name: str, query_spec: Any, strategy: str) -> Dict[str, Any]:
        datasets = {
            dataset_name: self.engine.dataset_handle(dataset_name)
            for dataset_name in self.engine.dataset_names()
            if isinstance(self.engine.dataset_handle(dataset_name), Dataset)
        }
        query = query_from_spec(query_spec, datasets)
        handle = self.engine.view(name, query, strategy=strategy)
        self.engine.sync_wal()
        return {
            "view": name,
            "strategy": handle.strategy,
            "execution": handle.execution,
            "version": self.engine.state_version,
        }

    # ------------------------------------------------------------------ #
    # Replica-side writer internals (the link's ship/reseed callables)
    # ------------------------------------------------------------------ #
    def _link_apply(self, frames: List[Tuple[int, int, bytes]], chaos: Any) -> None:
        """Link thread: run one shipped batch through the single writer."""
        self.worker.submit(
            Command("ship", run=lambda: self._ship(frames, chaos))
        ).result(self.sync_timeout)

    def _ship(self, frames: List[Tuple[int, int, bytes]], chaos: Any) -> Dict[str, Any]:
        """Worker thread: mirror + fsync the frames, then apply each payload.

        The standby check comes FIRST: a ship command that raced a
        promotion (fetched before the link paused, dequeued after the
        promote barrier) must not append foreign frames into what is now a
        writable primary's WAL.  Mirror-then-apply ordering means a crash
        between the two leaves durable bytes ahead of engine state — the
        safe direction, since restart rebuilds the engine from the mirror.
        """
        if not self.engine.standby:
            raise EngineError(
                f"tenant {self.name!r} is no longer a standby; shipped batch refused"
            )
        append_mirror_frames(self._wal_dir(), frames, fsync=True)
        chaos("replica.mid_apply")
        for _segment, _offset, frame in frames:
            self.engine.apply_replicated(frame_payload(frame))
        return {"version": self.engine.state_version}

    def _link_reseed(self, bootstrap: Dict[str, Any]) -> None:
        """Link thread: rebuild the tenant from a shipped checkpoint."""
        self.worker.submit(
            Command("reseed", run=lambda: self._reseed(bootstrap))
        ).result(self.sync_timeout)

    def _reseed(self, bootstrap: Dict[str, Any]) -> Dict[str, Any]:
        """Worker thread: wipe-and-reinstall, then reopen the standby engine.

        Runs as a worker barrier, so no apply is in flight while the engine
        is swapped out.  An empty ``bootstrap`` means the upstream has no
        checkpoint yet — the stream starts at segment 1 and a plain wipe
        suffices.
        """
        epoch = self.engine.replication_epoch
        self.engine.close()
        if bootstrap:
            install_bootstrap(self._data_dir, bootstrap)
            epoch = max(epoch, int(bootstrap.get("epoch", 0)))
        else:
            shutil.rmtree(self._wal_dir(), ignore_errors=True)
            shutil.rmtree(self._checkpoint_root(), ignore_errors=True)
        # Clearing any persisted fence: a reseeded directory is a clean
        # replica of the current primary, not a diverged ex-primary.
        store_replication_state(self._data_dir, epoch, "replica", None)
        options = dict(self._engine_options)
        options["standby"] = True
        self.engine = Engine(**options)
        self.records.clear()
        return {"reseeded": True, "version": self.engine.state_version}

    # ------------------------------------------------------------------ #
    # Handler-thread API (enqueue + wait)
    # ------------------------------------------------------------------ #
    def submit_apply(self, update: Update) -> Command:
        """Enqueue one update; raises BackpressureError when at capacity."""
        self._check_writable()
        return self.worker.submit(Command("apply", run=lambda: None, payload=update))

    def apply_sync(self, update: Update) -> Dict[str, Any]:
        return self.submit_apply(update).result(self.sync_timeout)

    def create_dataset(self, name: str, fields: Any, rows: Any = None) -> Dict[str, Any]:
        self._check_writable()
        command = Command(
            "dataset", run=lambda: self._create_dataset(name, fields, rows)
        )
        return self.worker.submit(command).result(self.sync_timeout)

    def create_view(
        self, name: str, query_spec: Any, strategy: str = "auto"
    ) -> Dict[str, Any]:
        self._check_writable()
        command = Command(
            "view", run=lambda: self._create_view(name, query_spec, strategy)
        )
        return self.worker.submit(command).result(self.sync_timeout)

    def checkpoint(self) -> Dict[str, Any]:
        """Cut a snapshot checkpoint without stalling ingest.

        The *capture* (cheap: frozen copy-on-write snapshots + a WAL
        rotation) runs on the writer thread — the ingest worker is the
        barrier that pins one consistent version — while the ``O(|DB|)``
        *encode + fsync* runs right here on the handler thread, so the
        worker is back to applying updates immediately.
        """
        self._check_writable()
        if not self.engine.durable:
            raise ProtocolError(
                f"tenant {self.name!r} is not durable (server has no --data-dir)"
            )
        if self.engine.read_only is not None:
            # A read-only engine never opened its WAL; a checkpoint written
            # anyway would claim coverage it does not have and double-apply
            # the surviving WAL segments on the next open.
            raise ProtocolError(
                f"tenant {self.name!r} is read-only after recovery "
                f"({self.engine.read_only}); checkpoint refused"
            )
        capture = self.worker.submit(
            Command("checkpoint", run=self.engine.checkpoint_capture)
        ).result(self.sync_timeout)
        written = dict(self.engine.write_checkpoint(capture))
        written["tenant"] = self.name
        return written

    # ------------------------------------------------------------------ #
    # Replication: the WAL feed, promotion, and fencing
    # ------------------------------------------------------------------ #
    def wal_feed(
        self,
        from_segment: int,
        from_offset: int,
        *,
        wait: float = 0.0,
        max_bytes: int = 1 << 20,
        want_bootstrap: bool = False,
        subscriber_epoch: int = 0,
    ) -> Dict[str, Any]:
        """One long-poll feed response (handler thread; never blocks writes).

        Reads are point-in-time scans of the segment files, racing the
        writer harmlessly: only fully-written, CRC-valid frames ship, and
        the server fsyncs before acknowledging any batch, so shipped bytes
        are always acknowledged bytes.

        This is also where an old primary learns it has been superseded: a
        subscriber advertising a **higher epoch** than ours proves a
        promotion happened elsewhere, and we fence ourselves before
        answering rather than keep acknowledging doomed writes.
        """
        if self._data_dir is None:
            raise ProtocolError(
                f"tenant {self.name!r} is not durable; there is no WAL to ship"
            )
        subscriber_epoch = int(subscriber_epoch)
        if subscriber_epoch > self.engine.replication_epoch and self.role == "primary":
            self.demote(
                subscriber_epoch,
                f"a subscriber advertised replication epoch {subscriber_epoch}",
            )
        wal_dir = self._wal_dir()
        if want_bootstrap:
            bootstrap = package_bootstrap(self._checkpoint_root())
            end = wal_end_position(wal_dir)
            if bootstrap is not None:
                next_position = (int(bootstrap["wal_start_segment"]), 8)
            else:
                next_position = (1, 8)
            records, lag_bytes = count_lag(wal_dir, next_position, end)
            body = {
                "tenant": self.name,
                "role": self.role,
                "epoch": self.engine.replication_epoch,
                "state_version": self.snapshot.version,
                "status": "ok",
                "frames": [],
                "next": list(next_position),
                "end": list(end),
                "lag_records": records,
                "lag_bytes": lag_bytes,
            }
            if bootstrap is not None:
                body["bootstrap"] = bootstrap
            return body
        deadline = time.monotonic() + max(0.0, min(float(wait), 30.0))
        while True:
            chunk = read_frames(wal_dir, from_segment, from_offset, max_bytes=max_bytes)
            if (
                chunk.frames
                or chunk.status != "ok"
                or self._closed
                or time.monotonic() >= deadline
            ):
                break
            time.sleep(0.05)
        records, lag_bytes = count_lag(wal_dir, chunk.next, chunk.end)
        body = {
            "tenant": self.name,
            "role": self.role,
            "epoch": self.engine.replication_epoch,
            "state_version": self.snapshot.version,
            "status": chunk.status,
            "frames": encode_frames(chunk.frames),
            "next": list(chunk.next),
            "end": list(chunk.end),
            "lag_records": records,
            "lag_bytes": lag_bytes,
        }
        if chunk.status == "pruned":
            # The requested segment fell behind a checkpoint: ship the
            # checkpoint itself so the subscriber can reseed in one round
            # trip instead of discovering it needs to ask.
            bootstrap = package_bootstrap(self._checkpoint_root())
            if bootstrap is not None:
                body["bootstrap"] = bootstrap
        return body

    def promote(self, *, epoch: Optional[int] = None) -> Dict[str, Any]:
        """Flip this tenant writable, fencing whatever it replicated from.

        The worker barrier is the fence point: every shipped batch already
        dequeued applies first, then the engine adopts the bumped epoch,
        opens a fresh WAL segment for appends, and clears read-only — all
        under the lifecycle lock.  A best-effort fencer thread then tells
        the old upstream to demote (the epoch carried on any future
        subscription covers the case where the old primary is dead right
        now and comes back later).
        """
        if self.role == "fenced":
            raise ProtocolError(
                f"tenant {self.name!r} is fenced at epoch "
                f"{self.engine.replication_epoch} ({self.engine.read_only}); "
                f"reseed it as a replica before promoting",
                code="epoch_conflict",
            )
        if self.role == "primary":
            if self.engine.read_only is not None:
                # The recovery-degraded case: satellite of the same switch —
                # an operator re-arming a primary that downgraded itself.
                version = self.worker.submit(
                    Command("promote", run=self.engine.promote_writable)
                ).result(self.sync_timeout)
                return {
                    "tenant": self.name,
                    "role": "primary",
                    "epoch": self.engine.replication_epoch,
                    "promoted": True,
                    "reenabled": True,
                    "version": version,
                }
            return {
                "tenant": self.name,
                "role": "primary",
                "epoch": self.engine.replication_epoch,
                "promoted": False,
                "already_primary": True,
            }
        link = self.link
        upstream_epoch = 0
        if link is not None:
            link.pause()
            upstream_epoch = link.status()["upstream_epoch"]
        try:
            new_epoch = (
                int(epoch)
                if epoch is not None
                else max(self.engine.replication_epoch, upstream_epoch) + 1
            )
            version = self.worker.submit(
                Command(
                    "promote",
                    run=lambda: self.engine.promote_writable(epoch=new_epoch),
                )
            ).result(self.sync_timeout)
        except BaseException:
            if link is not None:
                link.resume()
            raise
        if link is not None:
            link.stop()
            self.link = None
        self.role = "primary"
        upstream = self.replica_of
        self.replica_of = None
        if upstream is not None:
            self._spawn_fencer(upstream, new_epoch)
        return {
            "tenant": self.name,
            "role": "primary",
            "epoch": new_epoch,
            "promoted": True,
            "version": version,
        }

    def demote(self, epoch: int, reason: str) -> Dict[str, Any]:
        """Fence this tenant at ``epoch`` (the losing side of a failover)."""
        epoch = int(epoch)
        local = self.engine.replication_epoch
        if self.role != "primary":
            if epoch < local:
                raise ProtocolError(
                    f"demotion epoch {epoch} is older than tenant "
                    f"{self.name!r}'s epoch {local}",
                    code="epoch_conflict",
                )
            return {
                "tenant": self.name,
                "role": self.role,
                "epoch": max(local, epoch),
                "demoted": False,
            }
        if epoch <= local:
            raise ProtocolError(
                f"demotion epoch {epoch} does not supersede tenant "
                f"{self.name!r}'s epoch {local}",
                code="epoch_conflict",
            )
        self.worker.submit(
            Command("demote", run=lambda: self.engine.fence(epoch, reason))
        ).result(self.sync_timeout)
        self.role = "fenced"
        return {
            "tenant": self.name,
            "role": "fenced",
            "epoch": epoch,
            "demoted": True,
        }

    def _spawn_fencer(self, upstream: str, epoch: int) -> None:
        """Best-effort demotion of the old primary, off the request path."""

        def _fence() -> None:
            import json as _json
            import urllib.error
            import urllib.request

            url = f"{upstream}/v1/{self.name}/demote"
            payload = _json.dumps(
                {"epoch": epoch, "reason": f"superseded by promotion of {self.name!r}"}
            ).encode("utf-8")
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline:
                request = urllib.request.Request(
                    url,
                    data=payload,
                    method="POST",
                    headers={"Content-Type": "application/json"},
                )
                try:
                    with urllib.request.urlopen(request, timeout=5.0):
                        return
                except urllib.error.HTTPError as error:
                    if error.code in (400, 409):
                        # Already fenced at (or past) this epoch — done.
                        return
                except Exception:  # noqa: BLE001 - dead upstream is normal
                    pass
                time.sleep(0.5)

        threading.Thread(
            target=_fence, name=f"fencer-{self.name}", daemon=True
        ).start()

    def replication_status(self) -> Dict[str, Any]:
        """Role, epoch, positions, and lag — what ``/replication`` serves."""
        info: Dict[str, Any] = {
            "tenant": self.name,
            "role": self.role,
            "epoch": self.engine.replication_epoch,
            "standby": self.engine.standby,
            "read_only": self.engine.read_only,
            "state_version": self.snapshot.version,
        }
        if self._data_dir is not None:
            info["wal_end"] = list(wal_end_position(self._wal_dir()))
        link = self.link
        if link is not None:
            status = link.status()
            info["link"] = status
            info["replication_lag"] = {
                "records": status["lag_records"],
                "bytes": status["lag_bytes"],
            }
        return info

    # ------------------------------------------------------------------ #
    # Read-side API (snapshot only — never blocks behind a write)
    # ------------------------------------------------------------------ #
    def view_handle(self, name: str):
        try:
            return self.engine[name]
        except EngineError:
            raise ProtocolError(f"no view named {name!r}", code="not_found") from None

    def count_full_read(self, hit: bool) -> None:
        """One full-body read (handler threads, hence the lock)."""
        with self._body_count_lock:
            if hit:
                self.body_hits += 1
            else:
                self.body_misses += 1

    def dataset_record(self, name: str) -> Record:
        record = self.records.get(name)
        if record is None:
            raise ProtocolError(f"no dataset named {name!r}", code="not_found")
        return record

    def stats(self) -> Dict[str, Any]:
        snapshot = self.snapshot
        return {
            "tenant": self.name,
            "state_version": snapshot.version,
            "datasets": len(snapshot.datasets),
            "views": len(snapshot.views),
            "queue_depth": self.worker.depth(),
            "queue_capacity": self.worker.capacity,
            "coalesce_bound": self.worker.coalesce,
            "retry_after_hint": self.worker.retry_after(),
            "ingest": self.worker.stats.to_dict(),
            "body_hits": self.body_hits,
            "body_misses": self.body_misses,
            "durability": self.engine.durability_report(),
            "replication": self.replication_status(),
        }

    # ------------------------------------------------------------------ #
    def close(self, drain: bool = True) -> None:
        """Drain the ingest queue (optionally), checkpoint, close the engine.

        The SIGTERM path (``drain=True``) on a durable, writable tenant
        cuts a final checkpoint after the queue drains, so the next open
        recovers from the checkpoint instead of replaying the whole WAL
        tail.  Best-effort: a failed checkpoint never blocks shutdown —
        the WAL already holds everything acknowledged.
        """
        if self._closed:
            return
        self._closed = True
        link = self.link
        if link is not None:
            # Before the worker drains: a link mid-ship holds a queued
            # command the drain will complete, and a stopped link enqueues
            # nothing new afterwards.
            link.stop()
        if drain:
            self.worker.drain_and_stop()
        else:
            self.worker.stop_now()
        if (
            drain
            and self.engine.durable
            and self.engine.read_only is None
            and not self.engine.standby
        ):
            try:
                self.engine.checkpoint()
            except Exception:  # noqa: BLE001 - shutdown must proceed
                pass
        # Engine.close is idempotent and safe concurrently with an in-flight
        # apply; exercise and assert exactly that on every shutdown.
        self.engine.close()
        self.engine.close()
        assert self.engine.closed, "Engine.close() must leave the engine closed"


def check_engine_options(options: Dict[str, Any]) -> None:
    """Raise ``ValueError`` unless every tenant engine could be built from
    ``options``.

    Tenants build their engines lazily, on first use; a bad option found
    there would answer every tenant creation with a 500.  So the options
    are bound against ``Engine``'s signature (an unknown key fails) and the
    WAL settings go through the resolvers the engine itself runs: the fsync
    policy, and for a durable engine the segment size too, which fall back
    to ``REPRO_FSYNC`` / ``REPRO_WAL_SEGMENT_BYTES``.
    """
    try:
        arguments = inspect.signature(Engine).bind(**options).arguments
    except TypeError as error:
        raise ValueError(f"engine_options: {error}") from None
    fsync = arguments.get("fsync")
    if arguments.get("data_dir") is not None:
        resolve_fsync_policy(fsync)
        resolve_segment_bytes()
    elif fsync is not None:
        resolve_fsync_policy(fsync)


class SessionManager:
    """The named tenants of one server."""

    def __init__(
        self,
        *,
        engine_options: Optional[Dict[str, Any]] = None,
        queue_depth: int = 256,
        coalesce: int = 64,
        auto_create: bool = True,
        sync_timeout: float = 30.0,
        data_dir: Optional[str] = None,
        fsync: Optional[str] = None,
        replica_of: Optional[str] = None,
        poll_wait: float = 5.0,
        poll_interval: float = 0.05,
    ) -> None:
        self._engine_options = dict(engine_options or {})
        self._queue_depth = queue_depth
        self._coalesce = coalesce
        self._auto_create = auto_create
        self._sync_timeout = sync_timeout
        self._data_dir = data_dir
        self._fsync = fsync
        self._replica_of = replica_of.rstrip("/") if replica_of else None
        self._poll_wait = poll_wait
        self._poll_interval = poll_interval
        if self._replica_of is not None and data_dir is None:
            raise ProtocolError("--replica-of requires a durable server (--data-dir)")
        # Every tenant's engine is built from these options; the name only
        # picks its data subdirectory.
        check_engine_options(self._tenant_options(""))
        self._sessions: Dict[str, TenantSession] = {}
        self._recovering: set = set()
        # Tenants whose startup recovery raised: name → error summary.
        # They are no longer "recovering" (a later request retries the
        # open and surfaces the error), but /health keeps reporting them.
        self._recovery_failures: Dict[str, str] = {}
        self._lock = threading.Lock()

    @property
    def data_dir(self) -> Optional[str]:
        return self._data_dir

    def _tenant_options(self, name: str) -> Dict[str, Any]:
        options = dict(self._engine_options)
        if self._data_dir is not None:
            # One subdirectory per tenant: WAL + checkpoints never mix.
            options["data_dir"] = os.path.join(self._data_dir, name)
            if self._fsync is not None:
                options.setdefault("fsync", self._fsync)
        return options

    def _create(self, name: str) -> TenantSession:
        with self._lock:
            session = self._sessions.get(name)
            if session is None:
                session = self._sessions[name] = TenantSession(
                    name,
                    engine_options=self._tenant_options(name),
                    queue_depth=self._queue_depth,
                    coalesce=self._coalesce,
                    sync_timeout=self._sync_timeout,
                    replica_of=self._replica_of,
                    poll_wait=self._poll_wait,
                    poll_interval=self._poll_interval,
                )
            return session

    @property
    def replica_of(self) -> Optional[str]:
        return self._replica_of

    def _has_durable_state(self, name: str) -> bool:
        return self._data_dir is not None and os.path.isdir(
            os.path.join(self._data_dir, name)
        )

    def get(self, name: str) -> TenantSession:
        if (
            not name
            or name in (".", "..")
            or any(c in name for c in "/\\")
            or len(name.encode("utf-8")) > MAX_TENANT_NAME_BYTES
        ):
            raise ProtocolError(f"bad tenant name {name!r}")
        session = self._sessions.get(name)
        if session is not None:
            return session
        if name in self._recovering:
            raise TenantRecoveringError(name)
        # A tenant with durable state on disk is "known" even when
        # auto-creation is off: opening it is a recovery, not a creation.
        if not self._auto_create and not self._has_durable_state(name):
            raise ProtocolError(f"unknown tenant {name!r}", code="not_found")
        return self._create(name)

    def recover_existing(self) -> Tuple[str, ...]:
        """Reopen every tenant with durable state under the data directory.

        Run from the server's background recovery thread at startup.  Every
        pending tenant is marked *recovering* up front, so requests that
        race the warm-up get a 503 + ``Retry-After`` rather than a blocking
        (or, worse, double) replay.
        """
        if self._data_dir is None:
            return ()
        try:
            names = sorted(
                name
                for name in os.listdir(self._data_dir)
                if os.path.isdir(os.path.join(self._data_dir, name))
            )
        except FileNotFoundError:
            return ()
        names = [name for name in names if name not in self._sessions]
        self._recovering.update(names)
        recovered = []
        try:
            for name in names:
                try:
                    self._create(name)
                    recovered.append(name)
                except Exception as error:  # noqa: BLE001 - one damaged
                    # tenant must not kill the recovery thread and strand
                    # every later name in _recovering (a permanent 503).
                    self._recovery_failures[name] = (
                        f"{type(error).__name__}: {error}"
                    )
                finally:
                    self._recovering.discard(name)
        finally:
            # Whatever interrupts the loop, no tenant stays marked
            # recovering forever.
            self._recovering.difference_update(names)
        return tuple(recovered)

    def recovering(self) -> Tuple[str, ...]:
        return tuple(sorted(self._recovering))

    def recovery_failures(self) -> Dict[str, str]:
        """Tenants whose startup recovery raised, with the error summary."""
        return dict(self._recovery_failures)

    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._sessions))

    def stats(self) -> Dict[str, Any]:
        return {name: self._sessions[name].stats() for name in self.names()}

    def replication_summary(self) -> Dict[str, Any]:
        """Compact per-tenant role/epoch/lag map (what ``/health`` carries)."""
        summary: Dict[str, Any] = {}
        for name in self.names():
            session = self._sessions.get(name)
            if session is None:
                continue
            status = session.replication_status()
            entry: Dict[str, Any] = {
                "role": status["role"],
                "epoch": status["epoch"],
            }
            lag = status.get("replication_lag")
            if lag is not None:
                entry["lag_records"] = lag["records"]
                entry["lag_bytes"] = lag["bytes"]
            summary[name] = entry
        return summary

    def close_all(self, drain: bool = True) -> None:
        with self._lock:
            sessions = list(self._sessions.values())
        for session in sessions:
            session.close(drain=drain)
