"""Concurrent multi-view refresh: the ThreadPoolExecutor-backed scheduler.

``Database.apply_update`` notifies every registered view *before* mutating
the stored instances, and each view's refresh reads only immutable
pre-update snapshots plus its own materialization — the delta environments
are snapshots, so running independent views concurrently is a *scheduling*
decision, not a semantics change.  This module supplies that schedule:

* :func:`resolve_view_workers` turns the ``REPRO_PARALLEL_VIEWS``
  environment variable (or an explicit engine/database override) into a
  worker count — ``1`` runs the shared-snapshot refresh inline and
  ``N > 1`` dispatches view refreshes onto a thread pool;
* :class:`ViewRefreshScheduler` owns the pool, reuses it across updates,
  and re-raises the first failure in view-registration order so error
  behavior stays deterministic.

On a single-CPU host the ``auto`` default resolves to ``1``: the CPython
GIL serializes pure-Python refresh work, so a pool would add dispatch
latency without buying overlap — the shared-snapshot refresh still
applies.  Multi-core hosts get
``min(cpu_count, 4)`` workers.

Thread-safety contract for view backends (see ``docs/api.md``): a view's
``on_update`` may read the shared :class:`~repro.ivm.database.RefreshContext`
environments and the database's frozen snapshots, and may mutate only its
own state.  Stats counters on shared index structures (hits, interner
tallies) are best-effort under concurrency — increments may race — but
never influence results, only reporting.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from functools import lru_cache
from typing import Callable, Iterator, Optional, Sequence, Tuple

__all__ = [
    "REPRO_PARALLEL_VIEWS",
    "SerialExecutionBackend",
    "ViewRefreshScheduler",
    "forced_parallel_views",
    "resolve_view_workers",
]

#: Environment variable selecting the refresh worker count: ``1``
#: shared-snapshot inline, ``N`` threads, ``auto`` (or unset) by CPU count.
REPRO_PARALLEL_VIEWS = "REPRO_PARALLEL_VIEWS"


@lru_cache(maxsize=None)
def _auto_workers() -> int:
    # A platform fact, probed once per process: the apply path asks on
    # every update.
    cpus = os.cpu_count() or 1
    if cpus <= 1:
        return 1
    return min(cpus, 4)


def resolve_view_workers(override: Optional[int] = None) -> int:
    """The effective refresh worker count.

    Precedence: explicit ``override`` > ``REPRO_PARALLEL_VIEWS`` > auto.
    ``1`` means shared-snapshot refresh without threads.
    """
    if override is not None:
        if not isinstance(override, int) or override < 1:
            raise ValueError(f"worker count must be >= 1, got {override!r}")
        return override
    raw = os.environ.get(REPRO_PARALLEL_VIEWS)
    if raw is not None and raw != "":
        if raw == "auto":
            return _auto_workers()
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(
                f"{REPRO_PARALLEL_VIEWS} must be an integer or 'auto', got {raw!r}"
            ) from None
        if value < 1:
            raise ValueError(f"{REPRO_PARALLEL_VIEWS} must be >= 1, got {value}")
        return value
    return _auto_workers()


@contextmanager
def forced_parallel_views(workers: Optional[int]) -> Iterator[None]:
    """Pin (or, with ``None``, un-pin) the refresh worker count.

    Mirrors the other escape hatch (``forced_no_index``):
    dynamic — databases re-resolve the mode on every update, so the hatch
    affects applies performed inside the block regardless of when the
    engine was built.
    """
    saved = os.environ.get(REPRO_PARALLEL_VIEWS)
    try:
        if workers is None:
            os.environ.pop(REPRO_PARALLEL_VIEWS, None)
        else:
            os.environ[REPRO_PARALLEL_VIEWS] = str(int(workers))
        yield
    finally:
        if saved is None:
            os.environ.pop(REPRO_PARALLEL_VIEWS, None)
        else:
            os.environ[REPRO_PARALLEL_VIEWS] = saved


class ViewRefreshScheduler:
    """Runs one update's view-refresh tasks, concurrently when configured.

    The pool is created lazily on the first multi-task dispatch and reused
    for the lifetime of the owning database (thread startup is three orders
    of magnitude above a refresh task, so per-update pools would drown the
    benefit).  All tasks of one dispatch are awaited before returning —
    ``apply_update`` must not mutate the stores while a refresh is in
    flight — and the first exception *in task order* is re-raised, so a
    failing view aborts the update exactly as it does on the serial path.
    """

    __slots__ = ("_workers", "_executor")

    def __init__(self, workers: int) -> None:
        self._workers = max(1, workers)
        self._executor: Optional[ThreadPoolExecutor] = None

    @property
    def workers(self) -> int:
        return self._workers

    def resize(self, workers: int) -> None:
        """Adopt a new worker count (the pool is rebuilt on next dispatch)."""
        workers = max(1, workers)
        if workers == self._workers:
            return
        self._workers = workers
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def run(self, tasks: Sequence[Callable[[], None]]) -> None:
        """Execute every task; block until all complete."""
        if self._workers <= 1 or len(tasks) <= 1:
            for task in tasks:
                task()
            return
        executor = self._executor
        if executor is None:
            executor = self._executor = ThreadPoolExecutor(
                max_workers=self._workers,
                thread_name_prefix="repro-view-refresh",
            )
        futures = [executor.submit(task) for task in tasks]
        first_error: Optional[BaseException] = None
        for future in futures:
            try:
                future.result()
            except BaseException as error:  # noqa: BLE001 - deterministic re-raise
                if first_error is None:
                    first_error = error
        if first_error is not None:
            raise first_error

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __repr__(self) -> str:
        state = "live" if self._executor is not None else "idle"
        return f"ViewRefreshScheduler(workers={self._workers}, {state})"


# --------------------------------------------------------------------------- #
# Benchmark residue: the names the ivmbench span table patches
# --------------------------------------------------------------------------- #
class SerialExecutionBackend:
    """The one call every non-empty relation-store delta folds through.

    ``Database`` folds each store delta inline, on the applying thread: a
    delta is ``O(|Δ|)`` work and the benchmark batches are a handful of
    rows, so there is nothing to ship elsewhere.  The class survives only
    because ``benchmarks/suite/layers.py`` times
    ``storage.relation_apply_delta`` by patching this method (and the three
    alias names below); it goes once the suite reads spans from ``src/``.
    """

    def apply_delta(self, store, delta) -> None:
        store.apply_delta(delta)


# Aliases the span table still names; all four resolve to one method.
ThreadExecutionBackend = SerialExecutionBackend
ProcessExecutionBackend = SerialExecutionBackend
SubinterpreterExecutionBackend = SerialExecutionBackend


def resolve_backend_spec(override: Optional[str] = None) -> Tuple[str, Optional[int]]:
    """Always ``("serial", None)``: what the benchmark's provenance records."""
    return "serial", None
