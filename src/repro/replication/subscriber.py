"""The replica-side link: long-poll the primary, mirror, apply.

:class:`ReplicaLink` is a daemon thread owned by a replica tenant session.
Each iteration long-polls ``GET /v1/{tenant}/wal`` on the upstream — over
one persistent :class:`~repro.client.api.APIClient` connection — for
frames past the local mirror's end, then hands the batch to the session's
single-writer worker, which (in order) appends the frames verbatim to the
local WAL mirror, fsyncs, and applies each payload through the engine's
replay path with logging suspended.  Because the mirror is a byte prefix
of the primary's WAL and replay is deterministic, the replica's versioned
snapshots — and therefore its ETags — match the primary's at every version
it has reached.

The link carries the replica's **epoch** on every request; a primary that
sees a higher epoch than its own knows it has been superseded and fences
itself.  Conversely the link adopts the upstream's epoch from every
response, so a replica always knows the newest epoch it has observed when
it is asked to promote.

``pause()``/``resume()`` freeze polling without tearing the thread down —
promotion pauses the link before fencing, and the chaos battery uses the
same switch to simulate a network partition.  An optional ``chaos`` hook
fires at named points (``replica.pre_apply``, ``replica.mid_apply``,
``replica.post_apply``) so the battery can crash a replica in the middle
of an apply without widening the durability layer's ``CRASH_POINTS``.
"""

from __future__ import annotations

import threading
import urllib.parse
from typing import Any, Callable, Dict, Optional

from repro.client.api import APIClient, APIError
from repro.replication.feed import ReplicationError, decode_frames

__all__ = ["ReplicaLink"]

#: Chaos hook points the link fires (outside the worker); the session's
#: apply path fires ``replica.mid_apply`` between mirror and engine apply.
LINK_CHAOS_POINTS = ("replica.pre_apply", "replica.mid_apply", "replica.post_apply")


class ReplicaLink:
    """Tail one upstream tenant's WAL into a local session.

    The session wires the link up with callables rather than the link
    importing the serving layer:

    ``position()``
        ``(segment, offset)`` end of the local durable mirror — where to
        resume fetching.  Derived from the replica's own files, so a crash
        anywhere needs no position ledger.
    ``apply(frames, chaos)``
        Mirror-append + fsync + engine-apply the shipped frames, executed
        on the session's single-writer worker; calls ``chaos`` at
        ``replica.mid_apply`` between the two halves.
    ``reseed(bootstrap)``
        Reinstall the tenant from a shipped checkpoint (cold start, a
        pruned-away position, or a diverged/fenced directory).
    ``observe_epoch(epoch)``
        Adopt the upstream's epoch (monotone).
    ``local_epoch()``
        The epoch to advertise upstream.
    """

    def __init__(
        self,
        upstream: str,
        tenant: str,
        *,
        position: Callable[[], tuple],
        apply: Callable[..., Any],
        reseed: Callable[[Dict[str, Any]], None],
        observe_epoch: Callable[[int], None],
        local_epoch: Callable[[], int],
        poll_wait: float = 5.0,
        poll_interval: float = 0.05,
        max_bytes: int = 1 << 20,
        need_reseed: bool = False,
        chaos: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.upstream = upstream.rstrip("/")
        self.tenant = tenant
        self._position = position
        self._apply = apply
        self._reseed = reseed
        self._observe_epoch = observe_epoch
        self._local_epoch = local_epoch
        self.poll_wait = poll_wait
        self.poll_interval = poll_interval
        self.max_bytes = max_bytes
        self.need_reseed = need_reseed
        self._chaos = chaos
        self._stop = threading.Event()
        self._unpaused = threading.Event()
        self._unpaused.set()
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        # Telemetry, guarded by _lock.
        self._polls = 0
        self._frames_shipped = 0
        self._bytes_shipped = 0
        self._bootstraps = 0
        self._lag_records = 0
        self._lag_bytes = 0
        self._upstream_epoch = 0
        self._upstream_role: Optional[str] = None
        self._last_error: Optional[str] = None
        self._connected = False
        self.crashed = False
        # The loop retries on its own schedule; the client keeps the one
        # connection the long polls reuse.
        self._api = APIClient(self.upstream, timeout=poll_wait + 10.0, max_retries=0)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._run, name=f"replica-link-{self.tenant}", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 10.0) -> None:
        """Ask the loop to exit and wait for it.

        Safe to call from the link's own worker-side apply (the join is
        skipped when called on the link thread itself).
        """
        self._stop.set()
        self._unpaused.set()
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout)

    def pause(self) -> None:
        """Freeze polling after the in-flight iteration completes."""
        self._unpaused.clear()

    def resume(self) -> None:
        self._unpaused.set()

    @property
    def running(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive() and not self._stop.is_set()

    @property
    def paused(self) -> bool:
        return not self._unpaused.is_set()

    def fire_chaos(self, point: str) -> None:
        """Invoke the chaos hook (if any) at ``point``; it may raise."""
        if self._chaos is not None:
            self._chaos(point)

    # ------------------------------------------------------------------ #
    # Status
    # ------------------------------------------------------------------ #

    def status(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "upstream": self.upstream,
                "running": self.running,
                "paused": self.paused,
                "connected": self._connected,
                "need_reseed": self.need_reseed,
                "polls": self._polls,
                "frames_shipped": self._frames_shipped,
                "bytes_shipped": self._bytes_shipped,
                "bootstraps": self._bootstraps,
                "lag_records": self._lag_records,
                "lag_bytes": self._lag_bytes,
                "upstream_epoch": self._upstream_epoch,
                "upstream_role": self._upstream_role,
                "last_error": self._last_error,
            }

    # ------------------------------------------------------------------ #
    # The poll loop
    # ------------------------------------------------------------------ #

    def _run(self) -> None:
        backoff = self.poll_interval
        while not self._stop.is_set():
            if not self._unpaused.wait(timeout=0.25):
                continue
            if self._stop.is_set():
                break
            try:
                progressed = self._poll_once()
            except _LinkCrash:
                # The chaos hook simulated a replica crash: stop dead,
                # leaving whatever the worker managed on disk as-is.
                self.crashed = True
                self._stop.set()
                break
            except Exception as error:  # noqa: BLE001 - keep tailing
                with self._lock:
                    self._last_error = f"{type(error).__name__}: {error}"
                    self._connected = False
                self._stop.wait(backoff)
                backoff = min(backoff * 2, 2.0)
                continue
            backoff = self.poll_interval
            if not progressed:
                # The server long-polled already; a short local sleep just
                # bounds the request rate on an idle stream.
                self._stop.wait(self.poll_interval)
        self._api.close()

    def _poll_once(self) -> bool:
        """One fetch/mirror/apply round.  Returns True if frames landed."""
        reseeding = self.need_reseed
        if reseeding:
            segment, offset = 0, 0
        else:
            segment, offset = self._position()
        params = {
            "from_segment": str(segment),
            "from_offset": str(offset),
            "wait": f"{self.poll_wait:g}",
            "max_bytes": str(self.max_bytes),
            "epoch": str(self._local_epoch()),
        }
        if reseeding:
            params["bootstrap"] = "1"
        body = self._fetch(params)
        epoch = int(body.get("epoch", 0))
        self._observe_epoch(epoch)
        status = body.get("status", "ok")
        with self._lock:
            self._polls += 1
            self._connected = True
            self._upstream_epoch = max(self._upstream_epoch, epoch)
            self._upstream_role = body.get("role")
            self._lag_records = int(body.get("lag_records", 0))
            self._lag_bytes = int(body.get("lag_bytes", 0))
            self._last_error = None
        if reseeding:
            bootstrap = body.get("bootstrap")
            if bootstrap is None and status in ("ok",):
                # No checkpoint upstream yet: the stream starts at segment
                # 1 and a plain wipe-and-tail reseed suffices.
                self._reseed({})
            elif bootstrap is not None:
                self._reseed(bootstrap)
            else:
                raise ReplicationError(
                    f"upstream reported {status!r} but shipped no bootstrap"
                )
            self.need_reseed = False
            with self._lock:
                self._bootstraps += 1
            return True
        if status in ("pruned", "diverged"):
            # Cannot continue from our position: fall back to a bootstrap
            # on the next iteration.
            self.need_reseed = True
            with self._lock:
                self._last_error = f"stream {status} at {segment}:{offset}"
            return True
        frames = decode_frames(body.get("frames", []))
        if not frames:
            return False
        self._guarded_chaos("replica.pre_apply")
        # The worker re-raises chaos-hook exceptions verbatim (Command
        # semantics), so guarding here catches ``replica.mid_apply`` too.
        self._apply(frames, self._guarded_chaos)
        self._guarded_chaos("replica.post_apply")
        with self._lock:
            self._frames_shipped += len(frames)
            self._bytes_shipped += sum(len(frame) for _, _, frame in frames)
        return True

    def _guarded_chaos(self, point: str) -> None:
        try:
            self.fire_chaos(point)
        except Exception as error:
            raise _LinkCrash(point) from error

    def _fetch(self, params: Dict[str, str]) -> Dict[str, Any]:
        path = (
            f"v1/{urllib.parse.quote(self.tenant)}/wal?"
            + urllib.parse.urlencode(params)
        )
        try:
            return self._api.get(path)
        except APIError as error:
            if not error.status:
                raise  # no answer: the loop backs off and polls again
            raise ReplicationError(
                f"upstream {error.status} for {self.tenant}: {error.message[:200]}"
            ) from error


class _LinkCrash(Exception):
    """A chaos hook fired: the link dies in place, mid-stream."""
