"""Fault injection: deterministic crashes at the durability layer's seams.

A :class:`FaultInjector` is armed with one crash point and a countdown; the
WAL and checkpoint writers consult it at every dangerous moment
(:data:`CRASH_POINTS`), and when the armed point's countdown reaches zero
they *perform the torn half of the operation* (e.g. write half a record
frame) and raise :class:`InjectedCrash`.  The harness then calls
``Engine.simulate_crash()`` — which discards the application-level write
buffers without flushing them, so the bytes on disk are exactly what a
power loss at that instant would have preserved — and reopens the engine
from the same ``data_dir``.

The differential helpers at the bottom are shared by the test suite and the
``python -m repro.durability.faultcheck`` battery: build a workload once,
run it uninterrupted on a plain in-memory engine, run it against a durable
engine with an armed injector, recover, re-apply the lost suffix, and
require the two engines to agree — view results bit-for-bit, storage
reports up to the documented volatile counters
(:func:`normalized_storage_report`).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "CRASH_POINTS",
    "FaultInjector",
    "InjectedCrash",
    "apply_op",
    "crash_and_recover",
    "engine_state",
    "fire",
    "normalized_storage_report",
    "state_differences",
]

#: Every seam the WAL and checkpoint writers consult the injector at.
CRASH_POINTS = (
    "wal.mid_record",  # half a record frame written, then power loss
    "wal.pre_fsync",  # crash before the buffered records reach the file
    "wal.post_fsync",  # crash immediately after a successful fsync
    "wal.mid_rotation",  # new segment created with half its magic header
    "checkpoint.mid_write",  # crash after the first blob of a checkpoint
    "checkpoint.pre_rename",  # complete .tmp checkpoint, crash before the rename
    "checkpoint.post_rename",  # checkpoint renamed live, crash before pruning
)


class InjectedCrash(RuntimeError):
    """The simulated power loss: raised at the armed crash point."""

    def __init__(self, point: str) -> None:
        super().__init__(f"injected crash at {point}")
        self.point = point


class FaultInjector:
    """Arms one crash point with a countdown; fires exactly once.

    ``after=N`` skips the first N occurrences of the point, so a workload
    can be crashed at its first WAL append, its fourth fsync, or its only
    segment rotation without changing the workload itself.
    """

    def __init__(self, crash_at: str, after: int = 0) -> None:
        if crash_at not in CRASH_POINTS:
            raise ValueError(
                f"unknown crash point {crash_at!r}; choose one of {CRASH_POINTS}"
            )
        if after < 0:
            raise ValueError(f"after must be non-negative, got {after}")
        self.crash_at = crash_at
        self.remaining = after
        self.fired = False

    def check(self, point: str) -> bool:
        """True exactly once, when the armed point's countdown expires."""
        if self.fired or point != self.crash_at:
            return False
        if self.remaining > 0:
            self.remaining -= 1
            return False
        self.fired = True
        return True


def fire(injector: Optional[FaultInjector], point: str) -> bool:
    """Injector-optional form of :meth:`FaultInjector.check`."""
    return injector is not None and injector.check(point)


# ---------------------------------------------------------------------- #
# Differential comparison
# ---------------------------------------------------------------------- #

#: Counters that legitimately depend on *history* rather than state: how
#: many snapshots were frozen, how often an index was probed or rebuilt,
#: how many deltas a store saw, how much a nester re-nested.  A recovered
#: engine reaches the same state through a different history (checkpoint
#: adoption + tail replay), so the differential contract strips these
#: before comparing — everything else
#: (cardinalities, distinct counts, index sizes, poison state, dictionary
#: label counts) must match exactly.
_VOLATILE_KEYS = frozenset(
    {
        "version",
        "store_version",
        "snapshot_freezes",
        "freezes",
        "hits",
        "rebuilds",
        "deltas_applied",
        "probes",
        "nesting",
        "backend_id",
    }
)


def _strip_volatile(value: Any) -> Any:
    if isinstance(value, dict):
        return {
            key: _strip_volatile(entry)
            for key, entry in value.items()
            if key not in _VOLATILE_KEYS
        }
    if isinstance(value, (list, tuple)):
        return [_strip_volatile(entry) for entry in value]
    return value


def normalized_storage_report(report: Any) -> str:
    """A storage report as a canonical string, volatile counters stripped.

    :data:`_VOLATILE_KEYS` are removed recursively.  Two engines in the same
    state — whatever their histories — normalize identically.
    """
    return json.dumps(_strip_volatile(dict(report)), sort_keys=True, default=repr)


def engine_state(engine) -> Dict[str, Any]:
    """The comparable state of an engine: results, datasets, report, version."""
    return {
        "version": engine.state_version,
        "datasets": {name: engine.relation(name) for name in engine.dataset_names()},
        "views": {handle.name: handle.result() for handle in engine.views()},
        "report": normalized_storage_report(engine.storage_report()),
    }


def state_differences(expected: Dict[str, Any], actual: Dict[str, Any]) -> List[str]:
    """Human-readable differences between two :func:`engine_state` captures."""
    problems: List[str] = []
    if expected["version"] != actual["version"]:
        problems.append(
            f"state_version: expected {expected['version']}, got {actual['version']}"
        )
    for section in ("datasets", "views"):
        left, right = expected[section], actual[section]
        if sorted(left) != sorted(right):
            problems.append(
                f"{section}: expected names {sorted(left)}, got {sorted(right)}"
            )
            continue
        for name, bag in left.items():
            if bag != right[name]:
                problems.append(f"{section}[{name!r}]: contents differ")
    if expected["report"] != actual["report"]:
        problems.append("normalized storage reports differ")
    return problems


# ---------------------------------------------------------------------- #
# Workload driving
# ---------------------------------------------------------------------- #

def apply_op(engine, op: Tuple) -> None:
    """Apply one workload op: ``("dataset", name, schema, rows)``,
    ``("view", name, query, strategy)`` or ``("update", update)``."""
    kind = op[0]
    if kind == "dataset":
        engine.dataset(op[1], op[2], rows=op[3])
    elif kind == "view":
        engine.view(op[1], op[2], strategy=op[3])
    elif kind == "update":
        engine.apply(op[1])
    else:  # pragma: no cover - workload construction bug
        raise ValueError(f"unknown workload op {kind!r}")


def crash_and_recover(
    ops: List[Tuple],
    data_dir: str,
    *,
    crash_at: str,
    after: int = 0,
    fsync: str = "batch",
    sync_each: bool = False,
):
    """Run ``ops`` against a durable engine, crash, recover, replay the rest.

    Returns ``(recovered_engine, crashed, survived_version)``: the reopened
    engine with the lost suffix of ``ops`` re-applied (so it should equal
    the uninterrupted run), whether the injector actually fired, and the
    ``state_version`` the recovery alone restored.  ``sync_each`` calls
    ``sync_wal()`` after every op — the serving layer's sync-before-ack
    discipline, and the way ``batch``-policy runs reach the fsync points.

    Crash points under ``checkpoint.*`` fire during an explicit
    ``engine.checkpoint()`` issued after the whole workload applied.
    The caller owns closing the returned engine.
    """
    from repro.engine import Engine

    injector = FaultInjector(crash_at, after=after)
    engine = Engine(data_dir=data_dir, fsync=fsync, fault_injector=injector)
    crashed = False
    try:
        for op in ops:
            apply_op(engine, op)
            if sync_each:
                engine.sync_wal()
        if crash_at.startswith("checkpoint.") or crash_at == "wal.mid_rotation":
            # Checkpoint capture rotates the WAL, giving rotation-point
            # injectors a deterministic segment boundary to fire at (size-
            # triggered rotations also fire them, when the workload is big
            # enough to rotate on its own).
            engine.checkpoint()
        engine.close()
    except InjectedCrash:
        crashed = True
        engine.simulate_crash()
    recovered = Engine(data_dir=data_dir, fsync=fsync)
    survived = recovered.state_version
    # Every op advances the version by one: re-apply the suffix the
    # recovery did not restore.
    for op in ops[survived:]:
        apply_op(recovered, op)
    return recovered, crashed, survived
