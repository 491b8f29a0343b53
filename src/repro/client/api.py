"""The base HTTP client: one connection policy shared by every resource.

:class:`APIClient` speaks the server's JSON protocol as plain HTTP/1.1 over
a socket — standard library only, no HTTP client library.  It keeps **one
persistent connection per client per thread**: one ``TCP_NODELAY`` socket
and one buffered reader over it, so a call pays a TCP connect (and the
server a handler thread) only the first time a thread uses the client, or
after the connection was lost.  A request leaves in a single write — head
(with ``Host`` and, when there is a body, ``Content-Length``) and body
together, and a request target holding a space, a control character or
a non-ASCII character is refused with :class:`ValueError` before a byte is
sent.  A response is read as a bounded status line, the header lines
(:func:`read_headers`, the same bounded reader the server parses request
heads with) and a ``Content-Length`` body (a 304 has none).  A response
framed any other way (chunked, unsized, cut short) is a connection error,
and a ``Connection: close`` from the server closes the socket after the
body.  Only ``http://`` URLs are accepted: no server in this project
speaks TLS.  The client also owns the retry policy:

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

import json
import os
import random
import re
import socket
import threading
import time
import weakref
from typing import Any, Dict, Optional, Tuple
from urllib.parse import urlsplit

__all__ = ["APIClient", "APIError", "DEFAULT_SERVER", "DEFAULT_TENANT"]

#: Environment variables the CLI and SDK default from.
DEFAULT_SERVER = "REPRO_SERVER"
DEFAULT_TENANT = "REPRO_TENANT"

#: Longest status, request or header line either end reads (the server
#: answers a longer one 431).
MAX_LINE = 65536

#: Most header lines one head may carry (the server answers more 431).
MAX_HEADERS = 100

#: A character a request target may not hold: a control character, a
#: space, DEL, or anything outside ASCII.  Such a target would break the
#: request line — with a CR LF, into a second request on the kept socket.
_UNSAFE_TARGET = re.compile(r"[^\x21-\x7e]")


class APIError(Exception):
    """A non-retryable (or retries-exhausted) API failure."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(f"[{status}/{code}] {message}")
        self.status = status
        self.code = code
        self.message = message


class HeadError(Exception):
    """A head that :func:`read_headers` refuses; the server answers it with
    ``status``."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class Headers(dict):
    """Header values keyed by lower-cased name; ``get``, ``in`` and ``[]``
    fold the name they are asked for the same way."""

    __slots__ = ()

    def get(self, name: str, default: Any = None) -> Any:
        return dict.get(self, name.lower(), default)

    def __contains__(self, name: str) -> bool:  # type: ignore[override]
        return dict.__contains__(self, name.lower())

    def __getitem__(self, name: str) -> str:
        return dict.__getitem__(self, name.lower())


def read_headers(reader: Any) -> Headers:
    """The header lines of a request or response head, up to the blank line
    (or EOF), bounded in length and number.  The first value of a repeated
    name wins, except that repeated ``Content-Length`` values must agree.
    Refusals raise :class:`HeadError`: 431 for a line over :data:`MAX_LINE`
    bytes or more than :data:`MAX_HEADERS` lines, 400 for an obs-fold
    line, a line without a colon or with whitespace before it, and
    conflicting ``Content-Length`` values."""
    headers = Headers()
    for _ in range(MAX_HEADERS + 1):
        line = reader.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise HeadError(431, "Line too long")
        if line in (b"\r\n", b"\n", b""):
            return headers
        if line[0] in b" \t":
            raise HeadError(400, "Obsolete line folding")
        name, colon, value = line.decode("iso-8859-1").partition(":")
        if not colon or not name or name != name.rstrip():
            raise HeadError(400, f"Bad header line {line[:80]!r}")
        key, value = name.lower(), value.strip(" \t\r\n")
        if headers.setdefault(key, value) != value and key == "content-length":
            raise HeadError(400, "Conflicting Content-Length values")
    raise HeadError(431, "Too many headers")


class _Response:
    """One response as read off the wire: status, reason, headers keyed by
    lower-cased name, body."""

    __slots__ = ("status", "reason", "headers", "body")

    def __init__(self, status: int, reason: str, headers: Headers, body: bytes) -> None:
        self.status = status
        self.reason = reason
        self.headers = headers
        self.body = body


class _Connection:
    """One thread's socket to the server and the one buffered reader over
    it, both kept for the socket's whole life (``sock`` is None while
    closed)."""

    def __init__(self) -> None:
        self.sock: Optional[socket.socket] = None
        self.reader: Any = None

    def open(self, address: Tuple[str, int], timeout: float) -> None:
        sock = socket.create_connection(address, timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock, self.reader = sock, sock.makefile("rb")

    def send(self, request: bytes) -> bytes:
        """Send a whole request in one write; return the status line.  A
        :class:`ConnectionError` here means no response byte arrived."""
        sock, reader = self.sock, self.reader
        if sock is None:  # close() on another thread since it was opened
            raise ConnectionError("connection closed by the client")
        try:
            sock.sendall(request)
            status_line = reader.readline(MAX_LINE + 1)
        except ValueError:  # closed by close() on another thread
            raise ConnectionError("connection closed by the client") from None
        if not status_line:
            raise ConnectionError("server closed the connection before answering")
        return status_line

    def receive(self, status_line: bytes) -> _Response:
        """The rest of the response after ``status_line``: bounded header
        lines and a ``Content-Length`` body (none for a 304).  A response
        framed any other way is a :class:`ConnectionError`."""
        reader = self.reader
        if reader is None:  # close() on another thread since the request left
            raise ConnectionError("connection closed by the client")
        try:
            version, _, rest = status_line.decode("iso-8859-1").partition(" ")
            code, _, reason = rest.partition(" ")
            if (
                len(status_line) > MAX_LINE
                or not version.startswith("HTTP/1.")
                or not (code.isascii() and code.isdigit() and len(code) == 3)
            ):
                raise ConnectionError(f"malformed status line {status_line[:80]!r}")
            try:
                headers = read_headers(reader)
            except HeadError as error:
                raise ConnectionError(f"malformed response head: {error}") from None
            status = int(code)
            length = headers.get("content-length")
            if status == 304:
                body = b""
            elif "transfer-encoding" in headers or length is None:
                raise ConnectionError("response without a Content-Length")
            elif not (length.isascii() and length.isdigit()):
                raise ConnectionError(f"malformed Content-Length {length!r}")
            else:
                body = reader.read(int(length))
                if len(body) != int(length):
                    raise ConnectionError(
                        f"response body cut short at {len(body)} of {length} bytes"
                    )
        except ValueError:  # closed by close() on another thread
            raise ConnectionError("connection closed by the client") from None
        if headers.get("connection", "").lower() == "close":
            self.close()
        return _Response(status, reason.rstrip("\r\n"), headers, body)

    def close(self) -> None:
        """Shut the socket (waking a read another thread has blocked on it)
        and drop it; the next request on this connection reopens it."""
        sock, reader = self.sock, self.reader
        self.sock = self.reader = None
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # never connected, or already reset
            reader.close()
            sock.close()


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
        if parts.scheme != "http" or not parts.hostname:
            raise ValueError(
                f"server URL must be http://host[:port] (https is not supported), "
                f"got {base_url!r}"
            )
        self._path = parts.path
        self._address = (parts.hostname, parts.port or 80)
        host = f"[{parts.hostname}]" if ":" in parts.hostname else parts.hostname
        self._host = host if parts.port in (None, 80) else f"{host}:{parts.port}"
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
        self._connections: "weakref.WeakSet[_Connection]" = weakref.WeakSet()
        # Observability for tests and the CLI's --verbose mode.
        self.retries_performed = 0

    # ------------------------------------------------------------------ #
    def _exchange(self, request: bytes) -> _Response:
        """Send one request on this thread's connection and read the whole
        response, reopening the connection once if it was reused and turned
        out dead before any response byte.  Any failure leaves it closed;
        the next call reconnects."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._local.connection = _Connection()
            self._connections.add(connection)
        reused = connection.sock is not None
        try:
            if not reused:
                connection.open(self._address, self.timeout)
            try:
                status_line = connection.send(request)
            except ConnectionError:
                if not reused:
                    raise
                connection.close()
                connection.open(self._address, self.timeout)
                status_line = connection.send(request)
            return connection.receive(status_line)
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
        data = b"" if body is None else json.dumps(body).encode("utf-8")
        request_headers = {"Host": self._host, "Content-Type": "application/json"}
        if body is not None:
            request_headers["Content-Length"] = str(len(data))
        if headers:
            request_headers.update(headers)
        target = f"{self._path}/{path.lstrip('/')}"
        if _UNSAFE_TARGET.search(method) or _UNSAFE_TARGET.search(target):
            raise ValueError(
                f"request {method!r} {target!r} holds a space, a control "
                f"character or a non-ASCII character"
            )
        head = [f"{method} {target} HTTP/1.1"]
        for name, value in request_headers.items():
            line = f"{name}: {value}"
            if "\r" in line or "\n" in line:
                raise ValueError(f"header {name!r} holds a line break")
            head.append(line)
        request = ("\r\n".join(head) + "\r\n\r\n").encode("iso-8859-1") + data
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
                response = self._exchange(request)
            except OSError as error:
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
                return json.loads(response.body.decode("utf-8")) if response.body else {}
            if status == 304:
                return self._decode_not_modified(response)
            code, message = self._decode_error(response.body, response.reason)
            # 429 is always the admission-control contract; 503 is
            # retryable only when the server stamped a Retry-After (a
            # tenant mid-recovery) — a bare 503 (apply timeout) is not.
            retryable = status == 429 or (
                status == 503 and "retry-after" in response.headers
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
    def _decode_not_modified(response: _Response) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"unchanged": True, "not_modified": True}
        etag = response.headers.get("etag")
        if etag:
            payload["etag"] = etag
            stripped = etag.strip()
            if stripped.startswith("W/"):
                stripped = stripped[2:]
            stripped = stripped.strip('"')
            if stripped.isdigit():
                payload["version"] = int(stripped)
        return payload

    def _retry_after_of(self, response: _Response) -> float:
        header = response.headers.get("retry-after")
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
