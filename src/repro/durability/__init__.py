"""Durability: write-ahead logging, snapshot checkpoints, replay-on-open.

The subsystem behind ``Engine(data_dir=...)`` (ROADMAP open item 3).  Three
cooperating pieces:

* :mod:`repro.durability.wal` — an append-only, segmented write-ahead log of
  length-prefixed, CRC32-checksummed records (the PR 7 pair codec with a
  pickle fallback), with an ``always``/``batch``/``off`` fsync policy
  (``REPRO_FSYNC``) and size-triggered segment rotation
  (``REPRO_WAL_SEGMENT_BYTES``);
* :mod:`repro.durability.checkpoint` — per-shard snapshot checkpoints cut
  from the storage layer's frozen copy-on-write snapshots (capture never
  blocks writers), with a manifest recording the engine ``state_version``,
  schema/view specs, and the WAL segment the checkpoint covers up to;
* :mod:`repro.durability.manager` — the recovery orchestrator: on open it
  loads the newest valid checkpoint (adopting shard contents through
  ``RelationStore.adopt``), replays the WAL tail, truncates torn
  tails, quarantines corrupt segments, and degrades to read-only with a
  :class:`~repro.durability.manager.RecoveryReport` when unrecoverable.

:mod:`repro.durability.faults` injects crashes at write/fsync/rotate/
checkpoint points; ``python -m repro.durability.faultcheck`` runs the
differential battery proving a crash-restarted engine equals the
uninterrupted one across all four strategies.  See ``docs/durability.md``.
"""

from repro.durability.faults import CRASH_POINTS, FaultInjector, InjectedCrash
from repro.durability.manager import DurabilityManager, RecoveryReport
from repro.durability.wal import (
    FSYNC_POLICIES,
    REPRO_FSYNC,
    REPRO_WAL_SEGMENT_BYTES,
    WriteAheadLog,
    resolve_fsync_policy,
)

__all__ = [
    "CRASH_POINTS",
    "FSYNC_POLICIES",
    "REPRO_FSYNC",
    "REPRO_WAL_SEGMENT_BYTES",
    "DurabilityManager",
    "FaultInjector",
    "InjectedCrash",
    "RecoveryReport",
    "WriteAheadLog",
    "resolve_fsync_policy",
]
