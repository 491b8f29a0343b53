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
latency without buying overlap — the shared-snapshot refresh and the
sharded stores' per-shard copy-on-write still apply.  Multi-core hosts get
``min(cpu_count, 4)`` workers.

Thread-safety contract for view backends (see ``docs/api.md``): a view's
``on_update`` may read the shared :class:`~repro.ivm.database.RefreshContext`
environments and the database's frozen snapshots, and may mutate only its
own state.  Stats counters on shared index structures (hits, interner
tallies) are best-effort under concurrency — increments may race — but
never influence results, only reporting.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from functools import lru_cache
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.bag.codec import UnsendableValueError, decode_pairs, encode_pairs

__all__ = [
    "EXECUTION_BACKENDS",
    "PROCESS_DELTA_THRESHOLD",
    "THREAD_DELTA_THRESHOLD",
    "REPRO_BACKEND",
    "REPRO_PARALLEL_VIEWS",
    "ExecutionBackend",
    "ProcessExecutionBackend",
    "SerialExecutionBackend",
    "SubinterpreterExecutionBackend",
    "ThreadExecutionBackend",
    "ViewRefreshScheduler",
    "backend_availability",
    "create_execution_backend",
    "forced_backend",
    "forced_parallel_views",
    "parse_backend_spec",
    "recommend_backend",
    "resolve_backend_spec",
    "resolve_view_workers",
]

#: Environment variable selecting the refresh worker count: ``1``
#: shared-snapshot inline, ``N`` threads, ``auto`` (or unset) by CPU count.
REPRO_PARALLEL_VIEWS = "REPRO_PARALLEL_VIEWS"


@lru_cache(maxsize=None)
def _auto_workers() -> int:
    # A platform fact, probed once per process (like the two probes below):
    # the apply path asks on every store delta.
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

    Mirrors the other escape hatches (``forced_no_index``, ``forced_shards``):
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
# Execution backends: where shard-apply work units run
# --------------------------------------------------------------------------- #
#: Environment variable selecting the execution backend.  Accepts a backend
#: name (``serial``/``threads``/``processes``/``subinterpreters``), ``auto``
#: (or empty — the cost model decides per delta), and an optional worker
#: count suffix (``processes:4``).
REPRO_BACKEND = "REPRO_BACKEND"

#: The registered backend names, in fallback-chain order.
EXECUTION_BACKENDS = ("serial", "threads", "processes", "subinterpreters")

#: Minimum delta cardinality (distinct elements) before the ``auto`` cost
#: model considers shipping work units to processes: below it, the export/
#: adopt round-trip dwarfs the fold itself (measured on a 1-CPU host, 4000
#: rows over 8 shards: a 256-row delta takes 59 ms through two workers
#: against 0.97 ms serial — the threshold bounds the loss, it marks no win).
PROCESS_DELTA_THRESHOLD = 128

#: Minimum delta cardinality before ``auto`` hands shard units to the thread
#: pool at all.  Measured on the 2-CPU sizing host (8 shards, two indexes):
#: the per-unit hand-off through the GIL makes a 4-row delta 3.1× its serial
#: fold (52 µs vs 17 µs), 32 rows 2.1×, 64 rows 1.6×; from 96 rows on the
#: ratio sits at its 1.3–1.4× floor, so below that the fold runs inline.
THREAD_DELTA_THRESHOLD = 96


def parse_backend_spec(spec: str) -> Tuple[str, Optional[int]]:
    """Parse ``"name"`` or ``"name:workers"`` into ``(name, workers)``.

    ``"auto"`` (and ``""``) mean "let the cost model choose per delta".
    Raises ``ValueError`` for unknown names or invalid worker counts, so a
    typo'd ``REPRO_BACKEND`` fails loudly at resolution time.
    """
    text = (spec or "").strip()
    workers: Optional[int] = None
    if ":" in text:
        text, _, raw = text.partition(":")
        try:
            workers = int(raw)
        except ValueError:
            raise ValueError(
                f"backend worker count must be an integer, got {raw!r}"
            ) from None
        if workers < 1:
            raise ValueError(f"backend worker count must be >= 1, got {workers}")
    name = text.strip().lower() or "auto"
    if name != "auto" and name not in EXECUTION_BACKENDS:
        raise ValueError(
            f"unknown execution backend {name!r}; available: "
            f"auto, {', '.join(EXECUTION_BACKENDS)}"
        )
    return name, workers


def resolve_backend_spec(override: Optional[str] = None) -> Tuple[str, Optional[int]]:
    """The requested backend: explicit ``override`` > ``REPRO_BACKEND`` > auto."""
    if override is not None:
        return parse_backend_spec(override)
    return parse_backend_spec(os.environ.get(REPRO_BACKEND, ""))


@contextmanager
def forced_backend(spec: Optional[str]) -> Iterator[None]:
    """Pin (or, with ``None``, un-pin) the execution backend.

    Mirrors the other escape hatches (``forced_shards``,
    ``forced_parallel_views``): dynamic — databases re-resolve the backend
    on every update, so the hatch affects applies performed inside the
    block regardless of when the engine was built.
    """
    saved = os.environ.get(REPRO_BACKEND)
    try:
        if spec is None:
            os.environ.pop(REPRO_BACKEND, None)
        else:
            parse_backend_spec(spec)  # fail loudly before pinning
            os.environ[REPRO_BACKEND] = spec
        yield
    finally:
        if saved is None:
            os.environ.pop(REPRO_BACKEND, None)
        else:
            os.environ[REPRO_BACKEND] = saved


@lru_cache(maxsize=None)
def _fork_available() -> bool:
    try:
        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:  # pragma: no cover - platform probing must never raise
        return False


@lru_cache(maxsize=None)
def _interpreters_module():
    """The PEP 734 interpreters module, or ``None`` when the runtime lacks it."""
    try:
        import concurrent.interpreters as interpreters  # type: ignore[import-not-found]

        return interpreters
    except ImportError:
        return None


def backend_availability() -> Dict[str, Dict[str, object]]:
    """Per-backend availability on this runtime, with reasons.

    ``serial`` and ``threads`` are always available; ``processes`` needs
    the ``fork`` start method (workers inherit the parent's hash seed, so
    already-partitioned pairs stay on the shard that hashed them);
    ``subinterpreters`` needs the PEP 734 module.
    """
    fork = _fork_available()
    interpreters = _interpreters_module() is not None
    return {
        "serial": {"available": True, "reason": ""},
        "threads": {"available": True, "reason": ""},
        "processes": {
            "available": fork,
            "reason": "" if fork else "fork start method unavailable on this platform",
        },
        "subinterpreters": {
            "available": interpreters,
            "reason": "" if interpreters else "PEP 734 interpreters module unavailable",
        },
    }


@lru_cache(maxsize=None)
def availability_fallback(name: str) -> Tuple[str, str]:
    """Degrade an unavailable backend along the documented chain.

    ``subinterpreters`` and ``processes`` both fall back to ``threads``
    (same shard-unit schedule, in-process), which is always available.
    Returns ``(effective name, reason)`` — the reason is empty when no
    degradation happened.
    """
    availability = backend_availability()
    entry = availability.get(name)
    if entry is None or entry["available"]:
        return name, ""
    return "threads", f"{name} unavailable ({entry['reason']}); using threads"


def recommend_backend(delta_size: int, shard_count: int, workers: int) -> str:
    """The cost model's per-delta backend choice (the ``auto`` policy).

    Offloading pays only when there is parallelism to exploit (*workers*
    and *shards* both > 1) and enough delta per shard to amortize dispatch;
    process offload additionally re-ships the folded shard contents home,
    so it needs :data:`PROCESS_DELTA_THRESHOLD` distinct delta elements
    before the cost model prefers it over in-process threads, and deltas
    under :data:`THREAD_DELTA_THRESHOLD` fold inline (the pool hand-off
    costs more than the fold).  On a single-CPU host ``workers`` resolves
    to 1 and everything stays serial.
    """
    if shard_count <= 1 or workers <= 1 or delta_size < THREAD_DELTA_THRESHOLD:
        return "serial"
    if delta_size >= PROCESS_DELTA_THRESHOLD and _fork_available():
        return "processes"
    return "threads"


class ExecutionBackend:
    """Where one relation store's delta application actually runs.

    ``apply_delta(store, delta)`` must leave the store in exactly the state
    the serial path produces — contents, index buckets, *and* counters
    (version stamps, ``deltas_applied``, snapshot ``freezes``) — so that
    backends are interchangeable bit-for-bit and the differential tests can
    hold them to it.  It returns the name of the backend that effectively
    performed the work (a backend may degrade to a fallback mid-flight).
    """

    name = "abstract"

    def apply_delta(self, store, delta) -> str:
        raise NotImplementedError

    def view_workers(self, workers: int) -> int:
        """Clamp the view-refresh worker count (backends may narrow it)."""
        return workers

    def shutdown(self) -> None:
        """Release pools/processes; idempotent."""

    def describe(self) -> Dict[str, object]:
        return {"name": self.name}

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


class SerialExecutionBackend(ExecutionBackend):
    """Today's inline path: every shard unit folds on the calling thread.

    Also clamps view refresh to at most one worker, making
    ``REPRO_BACKEND=serial`` a true single-threaded mode.
    """

    name = "serial"

    def apply_delta(self, store, delta) -> str:
        store.apply_delta(delta)
        return self.name

    def view_workers(self, workers: int) -> int:
        return min(workers, 1)


class ThreadExecutionBackend(ExecutionBackend):
    """Shard units on a thread pool: scheduling changes, semantics don't.

    The units of one delta touch disjoint shards (builder dicts and index
    slices included), so running them concurrently under the GIL is safe;
    the pool mirrors :class:`ViewRefreshScheduler`'s lifecycle (lazy
    creation, reuse across updates, deterministic first-error re-raise in
    unit dispatch order).
    """

    name = "threads"

    def __init__(self, workers: Optional[int] = None) -> None:
        self.workers = max(1, workers if workers is not None else _auto_workers())
        self._executor: Optional[ThreadPoolExecutor] = None

    def apply_delta(self, store, delta) -> str:
        if delta.is_empty():
            return self.name
        if self.workers <= 1 or store.shards <= 1:
            store.apply_delta(delta)
            return self.name
        groups = store.partition_delta(delta)
        if len(groups) <= 1:
            store.apply_delta(delta)
            return self.name
        executor = self._executor
        if executor is None:
            executor = self._executor = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="repro-shard-apply",
            )
        store.begin_delta()
        futures = [
            executor.submit(store.apply_shard_pairs, position, pairs)
            for position, pairs in groups.items()
        ]
        first_error: Optional[BaseException] = None
        for future in futures:
            try:
                future.result()
            except BaseException as error:  # noqa: BLE001 - deterministic re-raise
                if first_error is None:
                    first_error = error
        store.finish_delta()
        if first_error is not None:
            raise first_error
        return self.name

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def describe(self) -> Dict[str, object]:
        return {"name": self.name, "workers": self.workers}


class ProcessExecutionBackend(ExecutionBackend):
    """Shared-nothing shard ownership across forked worker processes.

    Each worker owns a stable subset of shards (``position % workers``).
    The parent stays authoritative for routing: it partitions every delta
    with the store's own ``_shard_of`` (fork inherits the hash seed, so
    parent and children agree, but workers never route anything), ships
    codec-encoded pair payloads, and folds the returned frozen result bags
    and index delta summaries back through ``adopt_shard`` — no re-hashing
    on either side of the transfer.

    A worker's cached shard copy is valid only while the store's
    ``routing_token()`` matches the token recorded at the last adopt; any
    out-of-band mutation (a replace, a delta applied by another backend)
    changes the token and forces a re-export.

    Degradation ("what poisons a process backend back to threads"): a
    delta or stored value the codec refuses (``NaN``, unknown types) marks
    the *store* as unsendable and its applies run on the threads fallback
    from then on; a worker crash or pipe failure disables the whole backend
    for the session after the in-flight delta is recovered locally.  All
    fallbacks are recorded and surfaced through :meth:`describe`.
    """

    name = "processes"

    def __init__(self, workers: Optional[int] = None) -> None:
        self.workers = max(1, workers if workers is not None else _auto_workers())
        self._procs: List[Tuple[Any, Any]] = []  # (Process, Connection)
        #: (store key, shard position) → routing token the worker's copy has.
        self._adopted: Dict[Tuple[str, int], Tuple] = {}
        #: store name → reason its applies run on the fallback (sticky).
        self._store_fallbacks: Dict[str, str] = {}
        self._disabled: str = ""
        self._fallback = ThreadExecutionBackend(self.workers)

    # ------------------------------------------------------------------ #
    @staticmethod
    def _store_key(store) -> str:
        return f"{store.name}#{id(store):x}"

    def _ensure_workers(self) -> None:
        if self._procs:
            return
        from repro.engine.workunits import shard_worker_loop

        context = multiprocessing.get_context("fork")
        for index in range(self.workers):
            parent_end, child_end = context.Pipe(duplex=True)
            process = context.Process(
                target=shard_worker_loop,
                args=(child_end,),
                daemon=True,
                name=f"repro-shard-worker-{index}",
            )
            process.start()
            child_end.close()
            self._procs.append((process, parent_end))

    def _disable(self, reason: str) -> None:
        self._disabled = reason
        self._adopted.clear()
        self._terminate()

    def _terminate(self) -> None:
        for _, conn in self._procs:
            try:
                conn.send(("exit",))
            except (OSError, ValueError):
                pass
            try:
                conn.close()
            except OSError:
                pass
        for process, _ in self._procs:
            process.join(timeout=2.0)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(timeout=1.0)
        self._procs = []

    # ------------------------------------------------------------------ #
    def apply_delta(self, store, delta) -> str:
        if delta.is_empty():
            return self.name
        if self._disabled or self.workers <= 1:
            return self._fallback.apply_delta(store, delta)
        reason = self._store_fallbacks.get(store.name)
        if reason is not None:
            return self._fallback.apply_delta(store, delta)
        groups = store.partition_delta(delta)
        token_before = store.routing_token()
        store_key = self._store_key(store)
        try:
            encoded = {
                position: encode_pairs(pairs) for position, pairs in groups.items()
            }
            exports: Dict[int, bytes] = {}
            for position in groups:
                if self._adopted.get((store_key, position)) != token_before:
                    shard_state = store.export_shard(position)
                    exports[position] = encode_pairs(shard_state["data"].items())
        except UnsendableValueError as error:
            self._store_fallbacks[store.name] = f"unsendable value: {error}"
            return self._fallback.apply_delta(store, delta)
        try:
            self._ensure_workers()
        except Exception as error:  # noqa: BLE001 - startup must degrade cleanly
            self._disable(f"worker startup failed: {error!r}")
            return self._fallback.apply_delta(store, delta)

        version = store.begin_delta()
        token_after = (store.shards, store.routing_paths, version)
        paths_by_position = {
            position: store.shard_unit_paths(position) for position in groups
        }
        remaining = dict(groups)
        worker_count = len(self._procs)
        queues: Dict[int, List[int]] = {}
        for position in groups:
            queues.setdefault(position % worker_count, []).append(position)
        inflight: Dict[Any, Tuple[int, int]] = {}

        def dispatch(worker_index: int) -> None:
            queue = queues.get(worker_index)
            if not queue:
                return
            position = queue.pop(0)
            _, conn = self._procs[worker_index]
            export = exports.pop(position, None)
            if export is not None:
                conn.send(("adopt", store_key, position, export))
            conn.send(
                ("apply", store_key, position, encoded[position], paths_by_position[position])
            )
            inflight[conn] = (worker_index, position)

        try:
            from multiprocessing.connection import wait as connection_wait

            # One outstanding unit per worker bounds pipe buffering on both
            # sides, so a large export can never deadlock against a large
            # result travelling the other way.
            for worker_index in range(worker_count):
                dispatch(worker_index)
            while inflight:
                for conn in connection_wait(list(inflight)):
                    worker_index, position = inflight.pop(conn)
                    reply = conn.recv()
                    if reply[0] == "ok":
                        _, _, data_blob, summaries = reply
                        from repro.engine.workunits import decode_triples

                        index_deltas = {
                            paths: None if blob is None else decode_triples(blob)
                            for paths, blob in summaries.items()
                        }
                        store.adopt_shard(
                            position,
                            dict(decode_pairs(data_blob)),
                            index_deltas,
                            version=version,
                        )
                        self._adopted[(store_key, position)] = token_after
                    else:
                        # The worker survived but the unit failed: recover
                        # this shard locally and invalidate its remote copy.
                        store.apply_shard_pairs(position, groups[position])
                        self._adopted.pop((store_key, position), None)
                    del remaining[position]
                    dispatch(worker_index)
        except (OSError, EOFError, BrokenPipeError) as error:
            for position, pairs in remaining.items():
                store.apply_shard_pairs(position, pairs)
            self._disable(f"worker communication failed: {error!r}")
        store.finish_delta()
        return self.name

    def shutdown(self) -> None:
        self._terminate()
        self._adopted.clear()
        self._fallback.shutdown()

    def describe(self) -> Dict[str, object]:
        report: Dict[str, object] = {
            "name": self.name,
            "workers": self.workers,
            "live_workers": len(self._procs),
        }
        if self._disabled:
            report["disabled"] = self._disabled
        if self._store_fallbacks:
            report["store_fallbacks"] = dict(self._store_fallbacks)
        return report


class SubinterpreterExecutionBackend(ExecutionBackend):
    """Shard units on a PEP 734 subinterpreter, where the runtime has one.

    Feature-detected: on runtimes without ``concurrent.interpreters`` the
    resolution layer never reaches this class (``availability_fallback``
    degrades to threads first).  Units run through the *stateless* payload
    form — each carries its shard's full pre-fold contents — because the
    interpreters API offers calls, not resident worker state; that keeps
    this backend correct-by-construction at the price of re-shipping state,
    and any runtime failure degrades to the threads fallback for the rest
    of the session.
    """

    name = "subinterpreters"

    def __init__(self, workers: Optional[int] = None) -> None:
        self.workers = max(1, workers if workers is not None else _auto_workers())
        self._interpreter = None
        self._disabled = ""
        self._fallback = ThreadExecutionBackend(self.workers)

    def apply_delta(self, store, delta) -> str:
        if delta.is_empty():
            return self.name
        if self._disabled:
            return self._fallback.apply_delta(store, delta)
        import pickle

        from repro.engine.workunits import decode_triples, run_unit_payload

        groups = store.partition_delta(delta)
        try:
            payloads = {}
            for position, pairs in groups.items():
                shard_state = store.export_shard(position)
                payloads[position] = pickle.dumps(
                    (
                        encode_pairs(shard_state["data"].items()),
                        encode_pairs(pairs),
                        store.shard_unit_paths(position),
                    )
                )
        except UnsendableValueError:
            return self._fallback.apply_delta(store, delta)
        version = store.begin_delta()
        remaining = dict(groups)
        try:
            for position, payload in payloads.items():
                result_blob = self._run(run_unit_payload, payload)
                data_blob, summaries = pickle.loads(result_blob)
                index_deltas = {
                    paths: None if blob is None else decode_triples(blob)
                    for paths, blob in summaries.items()
                }
                store.adopt_shard(
                    position, dict(decode_pairs(data_blob)), index_deltas, version=version
                )
                del remaining[position]
        except Exception as error:  # noqa: BLE001 - degrade, never corrupt
            for position, pairs in remaining.items():
                store.apply_shard_pairs(position, pairs)
            self._disabled = f"subinterpreter execution failed: {error!r}"
        store.finish_delta()
        return self.name

    def _run(self, fn, payload: bytes) -> bytes:
        interpreters = _interpreters_module()
        if interpreters is None:
            raise RuntimeError("PEP 734 interpreters module unavailable")
        if self._interpreter is None:
            self._interpreter = interpreters.create()
        return self._interpreter.call(fn, payload)

    def shutdown(self) -> None:
        interpreter = self._interpreter
        self._interpreter = None
        if interpreter is not None:
            try:
                interpreter.close()
            except Exception:  # noqa: BLE001 - best-effort teardown
                pass
        self._fallback.shutdown()

    def describe(self) -> Dict[str, object]:
        report: Dict[str, object] = {"name": self.name, "workers": self.workers}
        if self._disabled:
            report["disabled"] = self._disabled
        return report


_BACKEND_CLASSES = {
    "serial": SerialExecutionBackend,
    "threads": ThreadExecutionBackend,
    "processes": ProcessExecutionBackend,
    "subinterpreters": SubinterpreterExecutionBackend,
}


def create_execution_backend(
    name: str, workers: Optional[int] = None
) -> ExecutionBackend:
    """Instantiate a backend by registered name (the pluggable entry point)."""
    try:
        backend_class = _BACKEND_CLASSES[name]
    except KeyError:
        raise ValueError(
            f"unknown execution backend {name!r}; available: "
            f"{', '.join(EXECUTION_BACKENDS)}"
        ) from None
    if name == "serial":
        return backend_class()
    return backend_class(workers)
