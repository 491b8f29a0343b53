"""The base HTTP client: one connection policy shared by every resource.

:class:`APIClient` speaks the server's JSON protocol over the standard
library (:mod:`http.client` — no third-party HTTP dependency).  It keeps
**one persistent connection per client per thread**: a call pays a TCP
connect (and the server a handler thread) only the first time a thread uses
the client, or after the connection was lost.  The client also owns the
retry policy:

* **a reused connection found dead** — the server restarted or closed it
  for being idle, which shows as a send error or an EOF where the status
  line should be, before any response byte — is reopened and the request
  sent again, exactly once.  This is not a retry: it costs no back-off and
  does not count in ``retries_performed``.  A failure on a fresh connection,
  or once response bytes have arrived, goes to the rules below.
* **429 backpressure** — honored via the server's ``Retry-After`` header
  (capped at :attr:`APIClient.max_retry_after`), retried up to
  ``max_retries`` times.  This is the client half of the admission-control
  contract: a well-behaved writer backs off exactly as long as the server's
  ingest queue predicts.
* **503 + Retry-After** — a tenant still replaying its WAL after a server
  restart (``docs/durability.md``); retried exactly like backpressure.  A
  503 *without* the header (e.g. an apply timeout) surfaces immediately.
* **connection errors** (refused, reset, timeout) — retried with
  exponential backoff ``backoff_base * 2**attempt`` plus ±25% jitter, for
  servers that are restarting.
* a **total retry deadline** (``retry_deadline``, default 60 s) bounds the
  whole retry dance per logical request: a tenant that answers every probe
  with 503 + ``Retry-After`` (dead, endlessly recovering, or fenced behind
  a long replay) surfaces as an :class:`APIError` with code
  ``retry_deadline`` instead of the client spinning forever.
* **304 Not Modified** — the success path of a conditional read (an
  ``If-None-Match`` ETag matched); decoded to
  ``{"unchanged": True, "not_modified": True, "etag", "version"}`` rather
  than raised, so pollers branch on ``payload.get("unchanged")``.
* every other HTTP error surfaces immediately as :class:`APIError` with the
  server's structured ``{"error": {"code", "message"}}`` body decoded.

Resource clients (:mod:`repro.client.resources`) compose on top of this,
mirroring the ``APIClient`` + per-resource-client layering of typical
service CLIs.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import threading
import time
import weakref
from typing import Any, Dict, Optional, Tuple
from urllib.parse import urlsplit

__all__ = ["APIClient", "APIError", "DEFAULT_SERVER", "DEFAULT_TENANT"]

#: Environment variables the CLI and SDK default from.
DEFAULT_SERVER = "REPRO_SERVER"
DEFAULT_TENANT = "REPRO_TENANT"


class APIError(Exception):
    """A non-retryable (or retries-exhausted) API failure."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(f"[{status}/{code}] {message}")
        self.status = status
        self.code = code
        self.message = message


class APIClient:
    """JSON-over-HTTP client with 429/connection retries."""

    def __init__(
        self,
        base_url: Optional[str] = None,
        *,
        timeout: float = 30.0,
        max_retries: int = 5,
        backoff_base: float = 0.05,
        max_retry_after: float = 5.0,
        retry_deadline: Optional[float] = 60.0,
        sleep=time.sleep,
    ) -> None:
        if base_url is None:
            base_url = os.environ.get(DEFAULT_SERVER, "http://127.0.0.1:8765")
        self.base_url = base_url.rstrip("/")
        parts = urlsplit(self.base_url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(f"server URL must be http(s)://host[:port], got {base_url!r}")
        self._parts = parts
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.max_retry_after = max_retry_after
        # Total wall-clock budget for one logical request including every
        # retry sleep; None disables the bound.
        self.retry_deadline = retry_deadline
        self._sleep = sleep
        # This thread's connection lives at ``_local.connection``; a thread's
        # entry (and its socket) goes when the thread or the client does.
        # ``_connections`` sees them all without keeping any, for close().
        self._local = threading.local()
        self._connections: "weakref.WeakSet[http.client.HTTPConnection]" = weakref.WeakSet()
        # Observability for tests and the CLI's --verbose mode.
        self.retries_performed = 0

    # ------------------------------------------------------------------ #
    def _exchange(
        self, method: str, target: str, data: Optional[bytes], headers: Dict[str, str]
    ) -> Tuple[http.client.HTTPResponse, bytes]:
        """Send one request on this thread's connection and read the whole
        response, reopening the connection once if it was reused and turned
        out dead before any response byte.  Any failure leaves it closed;
        the next call reconnects."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            factory = (
                http.client.HTTPSConnection
                if self._parts.scheme == "https"
                else http.client.HTTPConnection
            )
            connection = self._local.connection = factory(
                self._parts.hostname, self._parts.port, timeout=self.timeout
            )
            self._connections.add(connection)
        reused = connection.sock is not None
        try:
            try:
                connection.request(method, target, body=data, headers=headers)
                response = connection.getresponse()
            except ConnectionError:  # incl. RemoteDisconnected: EOF for a status line
                if not reused:
                    raise
                connection.close()
                connection.request(method, target, body=data, headers=headers)
                response = connection.getresponse()
            return response, response.read()
        except BaseException:
            connection.close()
            raise

    def request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Any:
        """One logical request; transparently retries 429s and dead sockets.

        Extra ``headers`` merge over the defaults (conditional reads pass
        ``If-None-Match``).  A **304 Not Modified** answer is not an error:
        it decodes to ``{"unchanged": True, "not_modified": True}`` — plus
        the server's ``etag`` and the ``version`` parsed from it — so
        polling callers branch on ``payload.get("unchanged")``.
        """
        target = f"{self._parts.path}/{path.lstrip('/')}"
        data = None if body is None else json.dumps(body).encode("utf-8")
        request_headers = {"Content-Type": "application/json"}
        if headers:
            request_headers.update(headers)
        attempt = 0
        started = time.monotonic()
        slept = 0.0

        def _budget_allows(delay: float) -> bool:
            # Measured wall clock when sleeps are real; the accumulated
            # requested delays when tests inject a no-op sleep.  Either
            # running past the deadline means: stop retrying, surface it.
            if self.retry_deadline is None:
                return True
            elapsed = max(time.monotonic() - started, slept)
            return elapsed + delay <= self.retry_deadline

        while True:
            try:
                response, payload = self._exchange(method, target, data, request_headers)
            except (OSError, http.client.HTTPException) as error:
                url = f"{self.base_url}/{path.lstrip('/')}"
                if attempt < self.max_retries:
                    delay = self.backoff_base * (2 ** attempt)
                    delay *= 1.0 + random.uniform(-0.25, 0.25)
                    delay = min(delay, self.max_retry_after)
                    if not _budget_allows(delay):
                        raise APIError(
                            0,
                            "retry_deadline",
                            f"gave up after {self.retry_deadline:g}s of retries: "
                            f"{url}: {error}",
                        ) from None
                    self.retries_performed += 1
                    attempt += 1
                    slept += delay
                    self._sleep(delay)
                    continue
                raise APIError(0, "connection", f"{url}: {error}") from None
            status = response.status
            if 200 <= status < 300:
                return json.loads(payload.decode("utf-8")) if payload else {}
            if status == 304:
                return self._decode_not_modified(response)
            code, message = self._decode_error(payload, response.reason)
            # 429 is always the admission-control contract; 503 is
            # retryable only when the server stamped a Retry-After (a
            # tenant mid-recovery) — a bare 503 (apply timeout) is not.
            retryable = status == 429 or (
                status == 503 and response.headers.get("Retry-After") is not None
            )
            if retryable and attempt < self.max_retries:
                retry_after = self._retry_after_of(response)
                if not _budget_allows(retry_after):
                    raise APIError(
                        status,
                        "retry_deadline",
                        f"gave up after {self.retry_deadline:g}s of retries: "
                        f"{message}",
                    )
                self.retries_performed += 1
                attempt += 1
                slept += retry_after
                self._sleep(retry_after)
                continue
            raise APIError(status, code, message)

    @staticmethod
    def _decode_not_modified(response: http.client.HTTPResponse) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"unchanged": True, "not_modified": True}
        etag = response.headers.get("ETag")
        if etag:
            payload["etag"] = etag
            stripped = etag.strip()
            if stripped.startswith("W/"):
                stripped = stripped[2:]
            stripped = stripped.strip('"')
            if stripped.isdigit():
                payload["version"] = int(stripped)
        return payload

    def _retry_after_of(self, response: http.client.HTTPResponse) -> float:
        header = response.headers.get("Retry-After")
        try:
            retry_after = float(header) if header is not None else self.backoff_base
        except ValueError:
            retry_after = self.backoff_base
        return min(max(retry_after, 0.0), self.max_retry_after)

    @staticmethod
    def _decode_error(raw: bytes, reason: str) -> Tuple[str, str]:
        try:
            decoded = json.loads(raw.decode("utf-8"))
            details = decoded.get("error", {})
            return (
                str(details.get("code", "http_error")),
                str(details.get("message", reason)),
            )
        except (UnicodeDecodeError, json.JSONDecodeError, AttributeError):
            return "http_error", str(reason)

    def close(self) -> None:
        """Close every thread's connection.  The client stays usable: the
        next request on a thread reconnects, and a request another thread
        has in flight right now fails as a connection error would."""
        for connection in list(self._connections):
            connection.close()

    # ------------------------------------------------------------------ #
    # Convenience verbs
    # ------------------------------------------------------------------ #
    def get(self, path: str, headers: Optional[Dict[str, str]] = None) -> Any:
        return self.request("GET", path, headers=headers)

    def post(self, path: str, body: Optional[Dict[str, Any]] = None) -> Any:
        return self.request("POST", path, body or {})

    def __repr__(self) -> str:
        return f"APIClient({self.base_url!r})"
