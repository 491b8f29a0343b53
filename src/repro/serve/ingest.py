"""Per-tenant ingest: one writer thread, a bounded queue, coalesced applies.

The serving layer's whole concurrency contract reduces to a single-writer
discipline: **every** state transition of a tenant's engine — dataset and
view registration, updates, checkpoint capture — executes on that tenant's one
:class:`IngestWorker` thread.  HTTP handler threads only enqueue
:class:`Command`s and (for synchronous calls) wait on the command's event;
readers never enqueue anything, they read the immutable snapshot the worker
publishes after each batch (see :mod:`repro.serve.sessions`).

Two properties fall out:

* **coalescing** — the worker drains a run of consecutive ``apply`` commands
  in one go and applies them through the engine's
  ``apply_stream(batched=True)`` path: one merged delta, one store/index
  refresh, one snapshot publication for the whole run.  Under a write storm
  the per-update cost collapses into the batch the same way the engine's
  own batched streams do (cancelling insert/delete pairs vanish before any
  view runs).  A merged apply that raises changed nothing, so its updates
  are retried one at a time: a rejected update fails only its own command.
* **backpressure** — the queue is bounded (:attr:`IngestWorker.capacity`).
  When it is full, :meth:`submit` raises :class:`BackpressureError` carrying
  a ``retry_after`` estimate derived from the observed batch latency; the
  server maps it to HTTP 429 with a ``Retry-After`` header and counts the
  rejection, so admission control is visible in ``/stats`` rather than
  silent.  Writers are rejected, never blocked — a storm cannot pile up
  unbounded handler threads behind a slow engine.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

__all__ = ["BackpressureError", "Command", "IngestStats", "IngestWorker"]


class BackpressureError(Exception):
    """The ingest queue is at capacity; retry after ``retry_after`` seconds."""

    def __init__(self, depth: int, capacity: int, retry_after: float) -> None:
        super().__init__(
            f"ingest queue at capacity ({depth}/{capacity}); "
            f"retry after {retry_after:.3f}s"
        )
        self.depth = depth
        self.capacity = capacity
        self.retry_after = retry_after


class Command:
    """One unit of writer-thread work.

    ``kind`` is ``"apply"`` for coalescable update commands and a control
    name (``"dataset"``, ``"view"``, ``"checkpoint"``, …) otherwise; ``run`` is
    executed on the worker thread.  Callers that need the outcome wait on
    :meth:`result`, which re-raises the worker-side exception verbatim.
    """

    __slots__ = ("kind", "run", "payload", "_done", "_result", "_error")

    def __init__(self, kind: str, run: Callable[[], Any], payload: Any = None) -> None:
        self.kind = kind
        self.run = run
        self.payload = payload
        self._done = threading.Event()
        self._result: Any = None
        self._error: Optional[BaseException] = None

    def finish(self, result: Any = None, error: Optional[BaseException] = None) -> None:
        self._result = result
        self._error = error
        self._done.set()

    def result(self, timeout: Optional[float] = None) -> Any:
        if not self._done.wait(timeout):
            raise TimeoutError(f"{self.kind} command not applied within {timeout}s")
        if self._error is not None:
            raise self._error
        return self._result


class IngestStats:
    """Admission-control and throughput counters (what ``/stats`` surfaces).

    Counter increments happen on the worker thread or under the queue lock;
    reads are unsynchronized snapshots (ints in CPython are torn-free), so
    reporting never contends with ingestion.
    """

    __slots__ = (
        "accepted",
        "rejected",
        "applied_updates",
        "applied_batches",
        "coalesced_updates",
        "control_commands",
        "errors",
        "max_depth_seen",
        "last_batch_seconds",
        "ewma_batch_seconds",
    )

    def __init__(self) -> None:
        self.accepted = 0
        self.rejected = 0
        self.applied_updates = 0
        self.applied_batches = 0
        self.coalesced_updates = 0
        self.control_commands = 0
        self.errors = 0
        self.max_depth_seen = 0
        self.last_batch_seconds = 0.0
        self.ewma_batch_seconds = 0.0

    def record_batch(self, updates: int, seconds: float) -> None:
        self.applied_batches += 1
        self.applied_updates += updates
        if updates > 1:
            self.coalesced_updates += updates - 1
        self.last_batch_seconds = seconds
        # EWMA with alpha 0.3: recent batches dominate the Retry-After hint.
        self.ewma_batch_seconds = 0.7 * self.ewma_batch_seconds + 0.3 * seconds

    def to_dict(self) -> Dict[str, Any]:
        return {
            "accepted": self.accepted,
            "rejected_backpressure": self.rejected,
            "applied_updates": self.applied_updates,
            "applied_batches": self.applied_batches,
            "coalesced_updates": self.coalesced_updates,
            "control_commands": self.control_commands,
            "errors": self.errors,
            "max_depth_seen": self.max_depth_seen,
            "last_batch_seconds": self.last_batch_seconds,
            "ewma_batch_seconds": self.ewma_batch_seconds,
        }


class IngestWorker:
    """The single writer thread of one tenant session.

    ``capacity`` bounds the number of queued-but-unapplied commands;
    ``coalesce`` caps how many consecutive ``apply`` commands one batch may
    merge (1 disables coalescing).  ``on_batch`` runs on the worker thread
    after every batch — the session uses it to publish a fresh snapshot.
    """

    def __init__(
        self,
        name: str,
        *,
        capacity: int = 256,
        coalesce: int = 64,
        apply_batch: Callable[[List[Any]], Any],
        on_batch: Optional[Callable[[], None]] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"ingest capacity must be >= 1, got {capacity}")
        if coalesce < 1:
            raise ValueError(f"coalesce bound must be >= 1, got {coalesce}")
        self.name = name
        self.capacity = capacity
        self.coalesce = coalesce
        self.stats = IngestStats()
        self._apply_batch = apply_batch
        self._on_batch = on_batch
        self._queue: Deque[Command] = deque()
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        self._stopping = False
        self._thread = threading.Thread(
            target=self._run, name=f"repro-ingest-{name}", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------ #
    # Producer side (HTTP handler threads)
    # ------------------------------------------------------------------ #
    def depth(self) -> int:
        with self._lock:
            return len(self._queue)

    def is_alive(self) -> bool:
        return self._thread.is_alive()

    def retry_after(self) -> float:
        """Estimated seconds until capacity frees up (the 429 hint).

        Half the queue must drain before admission is likely to succeed;
        each batch clears up to ``coalesce`` updates in about one EWMA batch
        time.  Floored at 50ms so clients never busy-spin.
        """
        per_batch = self.stats.ewma_batch_seconds or 0.01
        batches = max(1, (self.capacity // 2) // self.coalesce)
        return max(0.05, batches * per_batch)

    def submit(self, command: Command) -> Command:
        """Enqueue a command, or raise :class:`BackpressureError` when full.

        Control commands (non-``apply``) are admitted one past capacity so a
        storm of writes cannot starve administrative operations forever; the
        bound on unapplied *updates* is what backpressure protects.
        """
        with self._lock:
            if self._stopping:
                raise RuntimeError(f"ingest worker {self.name!r} is stopped")
            depth = len(self._queue)
            if command.kind == "apply" and depth >= self.capacity:
                self.stats.rejected += 1
                raise BackpressureError(depth, self.capacity, self.retry_after())
            self._queue.append(command)
            self.stats.accepted += 1
            if depth + 1 > self.stats.max_depth_seen:
                self.stats.max_depth_seen = depth + 1
            self._ready.notify()
        return command

    # ------------------------------------------------------------------ #
    # Worker side
    # ------------------------------------------------------------------ #
    def _next_batch(self) -> Optional[List[Command]]:
        """Block for work; return one batch, or ``None`` when fully drained
        and stopping.  A batch is either a maximal run of up to ``coalesce``
        consecutive ``apply`` commands or a single control command — control
        commands are barriers, they never reorder around updates."""
        with self._lock:
            while not self._queue and not self._stopping:
                self._ready.wait()
            if not self._queue:
                return None
            first = self._queue.popleft()
            batch = [first]
            if first.kind == "apply":
                while (
                    len(batch) < self.coalesce
                    and self._queue
                    and self._queue[0].kind == "apply"
                ):
                    batch.append(self._queue.popleft())
            return batch

    def _run(self) -> None:
        while True:
            batch = self._next_batch()
            if batch is None:
                return
            if batch[0].kind == "apply":
                self._run_applies(batch)
            else:
                self._run_control(batch[0])
            if self._on_batch is not None:
                try:
                    self._on_batch()
                except Exception:
                    self.stats.errors += 1

    def _run_applies(self, batch: List[Command]) -> None:
        updates = [command.payload for command in batch]
        started = time.perf_counter()
        try:
            result = self._apply_batch(updates)
        except Exception as error:  # noqa: BLE001 - reported to its waiter
            if len(batch) > 1:
                # One bad update must not fail the writes coalesced with it:
                # apply them one at a time, each command gets its own
                # verdict.  Safe because a failed apply_batch changed nothing
                # (or, having applied, made the writer refuse applies).
                for command in batch:
                    self._run_applies([command])
                return
            self.stats.errors += 1
            batch[0].finish(error=error)
            return
        seconds = time.perf_counter() - started
        self.stats.record_batch(len(batch), seconds)
        for command in batch:
            command.finish(result={"batched_with": len(batch) - 1, **result})

    def _run_control(self, command: Command) -> None:
        self.stats.control_commands += 1
        try:
            command.finish(result=command.run())
        except BaseException as error:  # noqa: BLE001
            self.stats.errors += 1
            command.finish(error=error)

    # ------------------------------------------------------------------ #
    # Shutdown
    # ------------------------------------------------------------------ #
    def drain_and_stop(self, timeout: Optional[float] = 30.0) -> bool:
        """Stop admitting, apply everything already queued, join the thread.

        This is the graceful-shutdown half of the SIGTERM story: in-flight
        writers get their acks, late writers get a clean rejection.  Returns
        ``True`` once the worker thread exited.  Idempotent.
        """
        with self._lock:
            self._stopping = True
            self._ready.notify_all()
        self._thread.join(timeout)
        return not self._thread.is_alive()

    def stop_now(self, timeout: Optional[float] = 5.0) -> bool:
        """Abandon queued work and stop: pending commands error out."""
        with self._lock:
            self._stopping = True
            abandoned = list(self._queue)
            self._queue.clear()
            self._ready.notify_all()
        error = RuntimeError(f"ingest worker {self.name!r} shut down")
        for command in abandoned:
            command.finish(error=error)
        self._thread.join(timeout)
        return not self._thread.is_alive()
