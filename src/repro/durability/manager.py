"""The durability manager: WAL logging, checkpoint capture, replay-on-open.

One :class:`DurabilityManager` lives inside a durable
:class:`~repro.engine.core.Engine` and owns the ``data_dir`` layout::

    <data_dir>/wal/wal-00000001.log …      the write-ahead log segments
    <data_dir>/checkpoints/ckpt-00000001/  snapshot checkpoints
    <data_dir>/quarantine/                 damaged files recovery set aside

**Logging discipline** is append-after-apply: the engine mutates memory
first and logs the operation only once the store accepted it, both under
the database's lifecycle lock, so the WAL never records a rejected
mutation.  Durability of *acknowledged* writes is the caller's sync point:
``always`` syncs inside every append, the serving layer calls
:meth:`sync` once per acknowledged batch under ``batch``, and ``off``
never syncs (best-effort, bounded loss).

**Recovery** (:meth:`open_and_recover`) restores the newest valid
checkpoint — adopting store contents wholesale through
``Database.adopt_relation`` and recreating views through the normal
``Engine.view`` path with their checkpointed strategies pinned — then
replays the WAL tail from the checkpoint's ``wal_start_segment`` through
the normal engine API.  A **torn tail**
(damage extending to the end of the last segment — what a mid-write crash
leaves) is truncated away and recovery stays writable; **corruption**
anywhere else quarantines the damaged file and degrades the engine to
read-only, because records past the damage can no longer be replayed in
order.  The outcome is a :class:`RecoveryReport`.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import threading
import time
from typing import Any, Dict, List, Optional

from repro.bag.bag import Bag
from repro.durability.checkpoint import (
    CheckpointCapture,
    LoadedCheckpoint,
    list_checkpoints,
    load_newest_checkpoint,
    read_manifest,
    write_checkpoint,
)
from repro.durability.faults import FaultInjector
from repro.durability.records import (
    PICKLE_PROTOCOL,
    decode_record,
    encode_dataset_record,
    encode_update_record,
    encode_view_record,
)
from repro.durability.wal import (
    WriteAheadLog,
    list_segments,
    resolve_fsync_policy,
    scan_segment,
    segment_filename,
)
from repro.errors import EngineError
from repro.ivm.updates import Update

__all__ = [
    "DurabilityManager",
    "RecoveryReport",
    "load_replication_state",
    "store_replication_state",
]

#: Per-data-dir replication state: the fencing epoch, the last known role,
#: and (when fenced) the demotion reason.  Tiny, human-readable, written
#: atomically — the authoritative copy of the epoch that checkpoint
#: manifests mirror.
_REPLICATION_STATE = "replication.json"


def load_replication_state(data_dir: str) -> Dict[str, Any]:
    """The persisted ``{"epoch", "role", "fenced"}`` of a data directory.

    Missing or unreadable files mean a pre-replication directory: epoch 0,
    no role, not fenced.  Callers (the serving layer) read this *before*
    opening the engine to decide whether a tenant opens standby or primary.
    """
    path = os.path.join(data_dir, _REPLICATION_STATE)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except (FileNotFoundError, NotADirectoryError):
        raw = {}
    except (OSError, ValueError):
        # A torn write of the tmp+rename pair cannot happen; garbage here
        # means external damage — fall back to defaults rather than refuse
        # to open (the manifest epoch still floors the epoch below).
        raw = {}
    return {
        "epoch": int(raw.get("epoch", 0) or 0),
        "role": raw.get("role"),
        "fenced": raw.get("fenced"),
    }


def store_replication_state(
    data_dir: str, epoch: int, role: Optional[str], fenced: Optional[str]
) -> None:
    """Persist the replication state atomically (tmp + fsync + rename)."""
    os.makedirs(data_dir, exist_ok=True)
    path = os.path.join(data_dir, _REPLICATION_STATE)
    tmp = path + ".tmp"
    payload = {"format": 1, "epoch": epoch, "role": role, "fenced": fenced}
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


class RecoveryReport:
    """What one replay-on-open found, did, and gave up on."""

    __slots__ = (
        "data_dir",
        "duration_seconds",
        "checkpoint",
        "checkpoints_discarded",
        "segments_scanned",
        "records_replayed",
        "torn",
        "quarantined",
        "read_only",
        "reason",
        "state_version",
    )

    def __init__(self, data_dir: str) -> None:
        self.data_dir = data_dir
        self.duration_seconds = 0.0
        #: ``{"seq", "path", "state_version"}`` of the restored checkpoint,
        #: or ``None`` when recovery started from an empty database.
        self.checkpoint: Optional[Dict[str, Any]] = None
        self.checkpoints_discarded: List[Dict[str, str]] = []
        self.segments_scanned = 0
        self.records_replayed = 0
        #: Torn tails truncated: ``{"path", "dropped_bytes"}`` each.
        self.torn: List[Dict[str, Any]] = []
        #: Corrupt files moved aside: ``{"path", "reason"}`` each.
        self.quarantined: List[Dict[str, str]] = []
        self.read_only = False
        self.reason: Optional[str] = None
        self.state_version = 0

    def to_dict(self) -> Dict[str, Any]:
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __repr__(self) -> str:
        status = f"read-only ({self.reason})" if self.read_only else "writable"
        return (
            f"RecoveryReport(version={self.state_version}, "
            f"replayed={self.records_replayed}, {status})"
        )


class DurabilityManager:
    """Owns one engine's WAL, checkpoints, and recovery state."""

    def __init__(
        self,
        data_dir: str,
        *,
        fsync: Optional[str] = None,
        faults: Optional[FaultInjector] = None,
        standby: bool = False,
    ) -> None:
        self.data_dir = data_dir
        self.wal_dir = os.path.join(data_dir, "wal")
        self.checkpoint_dir = os.path.join(data_dir, "checkpoints")
        self.quarantine_dir = os.path.join(data_dir, "quarantine")
        self.policy = resolve_fsync_policy(fsync)
        self._faults = faults
        self._wal: Optional[WriteAheadLog] = None
        #: True while recovery replays through the engine API — the engine's
        #: logging hooks check it so replayed operations are not re-logged.
        self.replaying = False
        #: Standby managers recover but never open the WAL for appends: the
        #: replication layer mirrors the primary's segments byte-for-byte
        #: instead, and ``logging`` staying False keeps replicated applies
        #: from being re-logged locally.  ``open_wal`` (promotion) ends it.
        self.standby = standby
        #: The replication fencing epoch of this directory (monotone); 0
        #: until a failover ever touched the tenant.
        self.epoch = 0
        #: Last persisted role (``"primary"``/``"replica"``/``None``) and,
        #: when fenced by a higher epoch, the demotion reason.
        self.role: Optional[str] = None
        self.fenced: Optional[str] = None
        self.report: Optional[RecoveryReport] = None
        self._checkpoint_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------ #
    # Recovery
    # ------------------------------------------------------------------ #
    def open_and_recover(self, engine) -> RecoveryReport:
        """Restore ``engine`` from ``data_dir`` and open the WAL for appends."""
        start = time.monotonic()
        os.makedirs(self.wal_dir, exist_ok=True)
        os.makedirs(self.checkpoint_dir, exist_ok=True)
        report = RecoveryReport(self.data_dir)
        # A crash mid-checkpoint leaves only a .tmp directory: never valid,
        # never referenced, safe to sweep.
        for name in os.listdir(self.checkpoint_dir):
            if name.startswith(".tmp-"):
                shutil.rmtree(os.path.join(self.checkpoint_dir, name), ignore_errors=True)
        state = load_replication_state(self.data_dir)
        self.epoch = state["epoch"]
        self.role = state["role"]
        self.fenced = state["fenced"]
        loaded, discarded = load_newest_checkpoint(self.checkpoint_dir)
        for entry in discarded:
            moved = self._quarantine(entry["path"])
            report.checkpoints_discarded.append(
                {"path": moved, "reason": entry["reason"]}
            )
        wal_start = 1
        damaged: Optional[str] = None
        self.replaying = True
        try:
            if loaded is not None:
                self._restore_checkpoint(engine, loaded)
                wal_start = loaded.manifest["wal_start_segment"]
                # The manifest mirrors the epoch file; a bootstrap-shipped
                # checkpoint is the only copy a cold replica has, and a lost
                # epoch file must never rewind the fence.
                self.epoch = max(self.epoch, loaded.manifest.get("epoch", 0))
                report.checkpoint = {
                    "seq": loaded.seq,
                    "path": loaded.path,
                    "state_version": loaded.manifest["state_version"],
                }
            segments = [
                (number, path)
                for number, path in list_segments(self.wal_dir)
                if number >= wal_start
            ]
            for index, (number, path) in enumerate(segments):
                is_last = index == len(segments) - 1
                scan = scan_segment(number, path, is_last)
                report.segments_scanned += 1
                if damaged is None:
                    try:
                        for payload in scan.payloads:
                            self._replay_payload(engine, payload)
                            report.records_replayed += 1
                    except Exception as error:  # noqa: BLE001 - any replay
                        # failure means the record stream lies about the
                        # state machine: treat the segment as corrupt.
                        scan.status = "corrupt"
                        scan.detail = f"replay failed: {type(error).__name__}: {error}"
                if scan.status == "torn":
                    dropped = os.path.getsize(path) - scan.valid_bytes
                    os.truncate(path, scan.valid_bytes)
                    report.torn.append({"path": path, "dropped_bytes": dropped})
                elif scan.status == "corrupt":
                    moved = self._quarantine(path)
                    report.quarantined.append({"path": moved, "reason": scan.detail})
                    if damaged is None:
                        damaged = (
                            f"WAL segment {segment_filename(number)} is corrupt "
                            f"({scan.detail}); acknowledged writes past it cannot "
                            f"be replayed"
                        )
        finally:
            self.replaying = False
        if damaged is not None:
            engine.database.set_read_only(damaged)
            report.read_only = True
            report.reason = damaged
        else:
            # Segments below wal_start are covered by the restored
            # checkpoint (a crash between rename and prune leaves them).
            for number, path in list_segments(self.wal_dir):
                if number < wal_start:
                    os.remove(path)
            if not self.standby:
                self._wal = WriteAheadLog(
                    self.wal_dir, fsync=self.policy, faults=self._faults
                )
        report.state_version = engine.state_version
        report.duration_seconds = time.monotonic() - start
        self.report = report
        return report

    def _restore_checkpoint(self, engine, loaded: LoadedCheckpoint) -> None:
        database = engine.database
        for entry in loaded.manifest["datasets"]:
            name = entry["name"]
            bag_type = engine._restore_dataset(name, entry["schema"])
            database.adopt_relation(
                name,
                bag_type,
                loaded.bags[f"nested:{name}"],
                loaded.bags[f"flat:{name}"],
            )
        for dict_name, entries in loaded.dictionaries.items():
            database.adopt_dictionary(dict_name, entries)
        database.adopt_shredder(pickle.loads(loaded.shredder_blob))
        for spec in loaded.manifest["views"]:
            engine.view(
                spec["name"],
                spec["expr"],
                strategy=spec["strategy"],
                targets=spec["targets"],
            )
        database.restore_state_version(loaded.manifest["state_version"])

    def _replay_payload(self, engine, payload: bytes) -> None:
        kind, value = decode_record(payload)
        if kind == "update":
            engine.apply(value)
        elif kind == "dataset":
            name, schema, rows = value
            engine.dataset(name, schema, rows=rows)
        elif kind == "view":
            name, strategy, expr, targets = value
            engine.view(name, expr, strategy=strategy, targets=targets)
        elif kind == "vacuum":
            pass  # legacy X record: writes retire dead state themselves now
        else:  # pragma: no cover - decode_record owns the type dispatch
            raise ValueError(f"unreplayable record kind {kind!r}")

    def _quarantine(self, path: str) -> str:
        os.makedirs(self.quarantine_dir, exist_ok=True)
        base = os.path.basename(path.rstrip(os.sep))
        target = os.path.join(self.quarantine_dir, base)
        suffix = 1
        while os.path.exists(target):
            target = os.path.join(self.quarantine_dir, f"{base}.{suffix}")
            suffix += 1
        os.rename(path, target)
        return target

    # ------------------------------------------------------------------ #
    # Replication (epoch fencing, standby promotion, shipped-record apply)
    # ------------------------------------------------------------------ #
    _KEEP = object()

    def set_epoch(
        self,
        epoch: int,
        *,
        role: Any = _KEEP,
        fenced: Any = _KEEP,
    ) -> None:
        """Adopt a (never lower) fencing epoch and persist it atomically.

        ``role``/``fenced`` update only when passed; the epoch itself is
        clamped monotone — fencing must never rewind, whatever a lagging
        caller believes.  A call that changes nothing (a replica re-adopting
        the epoch it already holds, once per poll) skips the disk write.
        """
        epoch = max(self.epoch, int(epoch))
        role_changed = role is not DurabilityManager._KEEP and role != self.role
        fenced_changed = (
            fenced is not DurabilityManager._KEEP and fenced != self.fenced
        )
        if epoch == self.epoch and not role_changed and not fenced_changed:
            return
        self.epoch = epoch
        if role is not DurabilityManager._KEEP:
            self.role = role
        if fenced is not DurabilityManager._KEEP:
            self.fenced = fenced
        store_replication_state(self.data_dir, self.epoch, self.role, self.fenced)

    def open_wal(self) -> None:
        """Open the WAL for appends — the promotion half of standby mode.

        Appends start on a fresh segment after whatever the mirror holds,
        exactly as a normal recovery would.  Idempotent; refused on a
        closed manager.
        """
        if self._closed:
            raise EngineError("cannot open the WAL of a closed engine")
        if self._wal is not None and not self._wal.closed:
            return
        self.standby = False
        self._wal = WriteAheadLog(self.wal_dir, fsync=self.policy, faults=self._faults)

    def replay_one(self, engine, payload: bytes) -> None:
        """Apply one shipped WAL record through the normal replay path.

        The ``replaying`` flag suspends the engine's logging hooks for the
        duration, so a replicated operation is never re-logged locally —
        the replication layer mirrors the primary's raw frames instead,
        keeping the replica's WAL a byte-identical prefix of the primary's.
        """
        if self.logging:
            raise EngineError(
                "refusing a replicated apply: the WAL is open for appends "
                "(this engine is a writable primary, not a standby)"
            )
        self.replaying = True
        try:
            self._replay_payload(engine, payload)
        finally:
            self.replaying = False

    # ------------------------------------------------------------------ #
    # Logging (called by the engine, under its lifecycle lock)
    # ------------------------------------------------------------------ #
    @property
    def logging(self) -> bool:
        """True while operations should be appended to the WAL."""
        return (
            self._wal is not None and not self._wal.closed and not self.replaying
        )

    def log_update(self, update: Update) -> None:
        if self.logging:
            self._wal.append(encode_update_record(update))

    def prepare_dataset(self, name: str, schema: Any, rows: Optional[Bag]) -> Optional[bytes]:
        """Encode a dataset record up front (so encoding failures surface
        before the registration mutates anything); ``None`` when not logging."""
        if not self.logging:
            return None
        return encode_dataset_record(name, schema, rows)

    def prepare_view(
        self,
        name: str,
        strategy: str,
        expr: Any,
        targets,
    ) -> Optional[bytes]:
        """Encode a view record up front — an unpicklable query fails loudly
        here, before the view is built; ``None`` when not logging."""
        if not self.logging:
            return None
        return encode_view_record(name, strategy, expr, targets)

    def commit(self, record: Optional[bytes]) -> None:
        """Append a prepared record once the operation actually applied."""
        if record is not None and self.logging:
            self._wal.append(record)

    def sync(self) -> None:
        """Make every logged record durable (the ack barrier under ``batch``)."""
        if self.logging:
            self._wal.sync()

    # ------------------------------------------------------------------ #
    # Checkpoints
    # ------------------------------------------------------------------ #
    def capture(self, engine) -> CheckpointCapture:
        """Pin a checkpoint capture — cheap, must run on the applying thread.

        Rotates the WAL so the capture covers exactly the segments before
        the returned ``wal_start_segment``; the expensive encoding happens
        in :meth:`write_capture`, from any thread.  Refused when the WAL is
        not open for appends (engine closed, mid-replay, or degraded to
        read-only after recovery): without a live rotation point the
        capture would claim coverage from segment 1, and pruning against
        that claim deletes — or double-replays — surviving WAL segments
        whose records the captured state already contains.
        """
        if not self.logging:
            raise EngineError(
                "cannot checkpoint: the WAL is not open for appends "
                "(the engine is closed, replaying, or was degraded to "
                "read-only by recovery)"
            )
        state = engine.database.export_durable_state()
        views = []
        for handle in engine.views():
            views.append(
                {
                    "name": handle.name,
                    "strategy": handle.strategy,
                    "expr": handle.expr,
                    "targets": handle.targets,
                }
            )
        datasets = []
        for name, relation in state["relations"].items():
            datasets.append(
                {
                    "name": name,
                    "schema": engine._dataset_schemas[name],
                    "nested_bag": relation["nested_bag"],
                    "flat_bag": relation["flat_bag"],
                }
            )
        shredder_blob = pickle.dumps(state["shredder"], protocol=PICKLE_PROTOCOL)
        wal_start = self._wal.rotate()
        return CheckpointCapture(
            state_version=state["state_version"],
            wal_start_segment=wal_start,
            datasets=datasets,
            dictionaries=state["dictionaries"],
            shredder_blob=shredder_blob,
            views=views,
            epoch=self.epoch,
        )

    def write_capture(self, capture: CheckpointCapture) -> Dict[str, Any]:
        """Encode a capture to disk atomically, then prune what it covers.

        The lock serializes concurrent writers but not the order their
        captures were pinned in, so a capture older than the newest on-disk
        checkpoint is refused: were it written (with a higher seq), the
        next recovery would restore the older state whose WAL tail the
        newer checkpoint's prune already deleted.
        """
        with self._checkpoint_lock:
            existing = list_checkpoints(self.checkpoint_dir)
            if existing:
                try:
                    newest = read_manifest(existing[-1][1])
                except Exception:  # noqa: BLE001 - an unreadable newest
                    # checkpoint cannot order anything; writing a fresh
                    # valid one past it is strictly an improvement.
                    newest = None
                if newest is not None and (
                    capture.wal_start_segment < newest["wal_start_segment"]
                    or capture.state_version < newest["state_version"]
                ):
                    raise EngineError(
                        f"stale checkpoint capture (state_version "
                        f"{capture.state_version}, wal start segment "
                        f"{capture.wal_start_segment}) is older than the "
                        f"newest on-disk checkpoint (state_version "
                        f"{newest['state_version']}, wal start segment "
                        f"{newest['wal_start_segment']}); a concurrent "
                        f"checkpoint already covers this state"
                    )
            path, seq = write_checkpoint(self.checkpoint_dir, capture, self._faults)
            # Everything before the capture's rotation point — and every
            # older checkpoint — is now redundant.
            for number, segment_path in list_segments(self.wal_dir):
                if number < capture.wal_start_segment:
                    os.remove(segment_path)
            for old_seq, old_path in list_checkpoints(self.checkpoint_dir):
                if old_seq < seq:
                    shutil.rmtree(old_path, ignore_errors=True)
            return {
                "seq": seq,
                "path": path,
                "state_version": capture.state_version,
                "wal_start_segment": capture.wal_start_segment,
            }

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Flush and close the WAL.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._wal is not None and not self._wal.closed:
            self._wal.close()

    def discard(self) -> None:
        """Simulated power loss: drop unwritten buffers, abandon the WAL."""
        self._closed = True
        if self._wal is not None:
            self._wal.simulate_crash()

    def describe(self) -> Dict[str, Any]:
        return {
            "data_dir": self.data_dir,
            "policy": self.policy,
            "standby": self.standby,
            "epoch": self.epoch,
            "fenced": self.fenced,
            "wal": (
                self._wal.describe()
                if self._wal is not None and not self._wal.closed
                else None
            ),
            "recovery": None if self.report is None else self.report.to_dict(),
        }
